//! # DC-MBQC
//!
//! A distributed compilation framework for measurement-based quantum
//! computing (MBQC) on photonic hardware — a from-scratch reproduction
//! of the HPCA 2026 paper *"DC-MBQC: A Distributed Compilation
//! Framework for Measurement-Based Quantum Computing"*.
//!
//! Photonic MBQC consumes a large entangled *graph state* with adaptive
//! single-qubit measurements; photons waiting in fiber delay lines are
//! lost at a rate that grows with storage time, so the paper introduces
//! the **required photon lifetime** as the metric a compiler must
//! minimize, and distributes the computation across QPUs to do so. The
//! pipeline implemented here:
//!
//! 1. **Transpile** a circuit to an MBQC pattern
//!    ([`mbqc_pattern::transpile()`]) — validated against a statevector
//!    simulator in `mbqc-sim`.
//! 2. **Partition** the computation graph across QPUs with the adaptive
//!    algorithm ([`mbqc_partition::adaptive`], Algorithm 2) balancing
//!    workload against modularity.
//! 3. **Compile** each subgraph on its QPU's RSG grid
//!    ([`mbqc_compiler::GridMapper`]) into execution layers.
//! 4. **Schedule** execution layers and the synchronization tasks
//!    induced by cut edges ([`mbqc_schedule`]), with priority list
//!    scheduling plus BDIR refinement (Algorithm 3), minimizing
//!    `max(τ_local, τ_remote)`.
//!
//! # Quickstart
//!
//! ```
//! use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig};
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//!
//! let circuit = bench::qft(16);
//! let hw = DistributedHardware::builder()
//!     .num_qpus(4)
//!     .grid_width(bench::grid_size_for(16))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hw));
//! let result = compiler.compile_circuit(&circuit).expect("compiles");
//! let baseline = compiler.compile_baseline_circuit(&circuit).expect("compiles");
//! assert!(result.execution_time() < baseline.execution_time());
//! assert!(result.required_photon_lifetime() < baseline.required_photon_lifetime());
//! ```
//!
//! # Stage artifacts and sessions
//!
//! The pipeline is staged: each step produces a first-class artifact
//! ([`Transpiled`] → [`Partitioned`] → [`Mapped`] → [`Scheduled`]) that
//! can be inspected, stored, or re-entered, and a [`CompileSession`]
//! owns the reusable workspaces of every stage so repeated compilations
//! stop re-allocating. `compile_pattern` is exactly this chain run end
//! to end (property-tested to be bit-identical). An artifact either
//! borrows its pattern ([`Transpiled::new`], as below) or shares it
//! through an `Arc` ([`Transpiled::shared`]); a shared-pattern artifact
//! is `'static` and owns everything it needs, so a job can carry it
//! from one stage task to the next. Neither form copies the pattern.
//!
//! ```
//! use dc_mbqc::{CompileSession, DcMbqcConfig, Transpiled};
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_pattern::transpile::transpile;
//!
//! let hw = DistributedHardware::builder()
//!     .num_qpus(4)
//!     .grid_width(bench::grid_size_for(16))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let mut session = CompileSession::new(DcMbqcConfig::new(hw));
//!
//! let pattern = transpile(&bench::qft(16));
//! let transpiled = Transpiled::new(&pattern).expect("has causal flow");
//! let partitioned = session.partition(transpiled);
//! // Every stage is inspectable before committing to the next one:
//! assert_eq!(partitioned.partition().k(), 4);
//! assert!(partitioned.modularity() > 0.0);
//! let mapped = session.map(partitioned).expect("QPU grids fit");
//! assert_eq!(mapped.programs().len(), 4);
//! let scheduled = session.schedule(mapped);
//! assert!(scheduled.problem().is_feasible(scheduled.schedule()));
//! ```
//!
//! # Stage tasks
//!
//! [`StageKind`] names the pipeline's *stage tasks*, and the free stage
//! functions ([`partition_stage`], [`map_stage`], [`schedule_stage`])
//! run one stage on workspaces the caller owns, so any worker can run
//! any job's next stage. The batch engine is `mbqc-service`'s
//! `CompileService`, built on these functions: each worker owns one
//! workspace per stage, each job carries its latest shared-pattern
//! artifact between tasks, and a content-addressed stage-artifact cache
//! keyed by [`Pattern::content_bytes`] and
//! [`DcMbqcConfig::stage_fingerprint_bytes`] lets a job re-enter the
//! chain at any stage. The stage functions compute exactly what a
//! [`CompileSession`] does:
//!
//! [`Pattern::content_bytes`]: mbqc_pattern::Pattern::content_bytes
//!
//! ```
//! use std::sync::Arc;
//!
//! use dc_mbqc::{
//!     map_stage, partition_stage, schedule_stage, CompileSession, DcMbqcConfig, Transpiled,
//! };
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_partition::KwayWorkspace;
//! use mbqc_pattern::transpile::transpile;
//! use mbqc_schedule::ScheduleWorkspace;
//!
//! let hw = DistributedHardware::builder()
//!     .num_qpus(2)
//!     .grid_width(bench::grid_size_for(10))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let config = DcMbqcConfig::new(hw);
//! let pattern = Arc::new(transpile(&bench::qft(10)));
//!
//! // One stage task at a time, on workspaces a worker owns.
//! let transpiled = Transpiled::shared(Arc::clone(&pattern)).expect("has causal flow");
//! let partitioned = partition_stage(&config, transpiled, &mut KwayWorkspace::new());
//! let mapped = map_stage(&config, partitioned, 1, &mut Vec::new()).expect("QPU grids fit");
//! let staged = schedule_stage(&config, mapped, &mut ScheduleWorkspace::new());
//!
//! let whole = CompileSession::new(config).compile_pattern(&pattern).expect("compiles");
//! assert_eq!(staged, whole);
//! ```

pub mod baseline;
pub mod config;
pub mod pipeline;
pub mod report;
pub mod session;

pub use baseline::BaselineResult;
pub use config::{DcMbqcConfig, DcMbqcError, PipelineStage, StageKind};
pub use pipeline::{DcMbqcCompiler, DistributedSchedule};
pub use report::ComparisonReport;
pub use session::{
    map_stage, partition_stage, schedule_stage, CompileSession, Mapped, Partitioned, Scheduled,
    Transpiled,
};
