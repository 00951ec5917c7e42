//! The layer scheduling problem (Definition IV.1 of the paper).
//!
//! After partitioning and per-QPU compilation, each QPU owns an ordered
//! list of **main tasks** (its execution layers) and the cut edges
//! induce **synchronization tasks**, each tying a pair of main tasks on
//! two QPUs. A QPU executes, per time slot, either one main task or up
//! to `K_max` synchronization tasks (a *connection layer*). The
//! objective is the required photon lifetime
//! `max(τ_local, τ_remote)`, where τ_local is Algorithm 1 with layer
//! indices replaced by start times and
//! `τ_remote = max_k |s_k − j_{i,j}|` over the main tasks each sync
//! task is associated with.
//!
//! The paper proves the problem NP-hard (reduction from graph
//! bandwidth, Theorem IV.2) and inapproximable to any constant factor,
//! motivating two heuristics implemented here:
//!
//! * [`list`] — priority-based list scheduling (the baseline),
//! * [`bdir`](mod@bdir) — Bottleneck-Driven Iterative Refinement (Algorithm 3):
//!   a simulated-annealing loop whose neighborhood generator pins the
//!   current bottleneck task at its temporal equilibrium point and
//!   reschedules everything else with start-time-preserving priorities.

pub mod bdir;
pub mod list;
pub mod problem;

pub use bdir::{bdir, bdir_with, BdirConfig};
pub use list::{
    default_priorities, list_schedule, list_schedule_with, Priorities, ScheduleWorkspace,
};
pub use problem::{LayerScheduleProblem, LocalStructure, Schedule, ScheduleCost, SyncTask};
