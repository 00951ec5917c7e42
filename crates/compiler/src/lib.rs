//! Single-QPU photonic MBQC compiler.
//!
//! The OneQ-style baseline the paper builds on (Section II-C): map a
//! computation graph onto the 3D resource grid — a time-ordered sequence
//! of 2D logical layers, one resource state per RSG site per cycle —
//! such that every computation edge is realized by fusions. Supported
//! mechanisms follow the architecture of Section II-B:
//!
//! * **intra-layer fusion** between neighboring sites of one layer
//!   (used for placement-adjacent edges and routing chains),
//! * **inter-layer fusion** between consecutive layers at one site
//!   (used for *wires*: photons kept alive while later partners arrive),
//! * **routing** (Figure 4(c)): BFS chains through free sites, with
//!   per-state pass-through capacity (the 6-ring routes twice),
//! * **dynamic refresh** (OneAdapt, Section V-C): wires older than a
//!   bound are re-injected, trading grid work for bounded storage,
//! * **boundary reservation** (Table V protocol): the grid perimeter is
//!   reserved for communication interfaces.
//!
//! The output [`CompiledProgram`] carries per-node layer indices and
//! per-edge realization times, from which [`metrics`] computes the
//! paper's **required photon lifetime** (Algorithm 1).

pub mod config;
pub mod grid;
pub mod mapper;
pub mod metrics;

pub use config::{CompileError, CompilerConfig};
pub use mapper::{CompiledProgram, GridMapper, MapperCounters, MapperWorkspace};
pub use metrics::{required_photon_lifetime, required_photon_lifetime_in_order, LifetimeReport};
