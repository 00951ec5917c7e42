//! MBQC program representation and circuit transpilation.
//!
//! An MBQC program (Section II-A of the paper) is a *graph state* — an
//! undirected graph whose vertices are qubits/photons and whose edges are
//! entanglement — together with a *measurement pattern*: adaptive
//! single-qubit measurements `M^α_i` whose angles depend on earlier
//! outcomes. The dependencies form a DAG split into X-dependencies
//! (real-time, basis-flipping) and Z-dependencies (removable from the
//! real-time path by *signal shifting*).
//!
//! This crate provides:
//!
//! * [`Pattern`] — the graph state + measurement pattern + flow
//!   structure; this *is* the computation graph consumed by the
//!   compiler crates.
//! * [`transpile`](mod@transpile) — circuit → pattern translation through the
//!   `J(α) = H·Rz(α)` calculus (`J(α)` + CZ is universal), with a
//!   peephole pass that merges rotations and cancels `H·H` pairs.
//! * [`deps`] — the dependency graph (`G'` in the paper), signal
//!   shifting, and the real-time DAG used by Algorithm 1.
//! * [`flow`] — causal-flow validation (Danos–Kashefi determinism
//!   conditions for patterns with flow).
//!
//! # Examples
//!
//! ```
//! use mbqc_circuit::bench;
//! use mbqc_pattern::transpile::transpile;
//!
//! let circuit = bench::qft(4);
//! let pattern = transpile(&circuit);
//! assert_eq!(pattern.inputs().len(), 4);
//! assert!(pattern.graph().edge_count() > 0);
//! let deps = pattern.dependency_graph();
//! assert!(deps.real_time().is_acyclic());
//! ```

pub mod deps;
pub mod flow;
pub mod pattern;
pub mod transpile;

pub use deps::DependencyGraph;
pub use pattern::Pattern;
pub use transpile::transpile;
