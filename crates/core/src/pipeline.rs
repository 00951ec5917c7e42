//! The end-to-end DC-MBQC pipeline (Figure 2 of the paper).
//!
//! [`DcMbqcCompiler`] is the single-call façade: every compilation is
//! driven through the staged pipeline of [`crate::session`]
//! ([`Transpiled`] → [`Partitioned`] → [`Mapped`] → [`Scheduled`]) and
//! the two paths are pinned bit-identical by property tests. It
//! compiles one pattern per call; the batch engine is `mbqc-service`'s
//! `CompileService`.
//!
//! [`Transpiled`]: crate::session::Transpiled
//! [`Partitioned`]: crate::session::Partitioned
//! [`Mapped`]: crate::session::Mapped
//! [`Scheduled`]: crate::session::Scheduled

use mbqc_circuit::Circuit;
use mbqc_partition::Partition;
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_schedule::{LayerScheduleProblem, Schedule, ScheduleCost};
use mbqc_util::codec::{CodecError, Decoder, Encoder};

use crate::baseline::{placement_order, BaselineResult};
use crate::config::{DcMbqcConfig, DcMbqcError};
use crate::session::CompileSession;

/// The result of distributed compilation: a feasible schedule of
/// execution layers and connection layers across all QPUs, with the
/// paper's two headline metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct DistributedSchedule {
    cost: ScheduleCost,
    schedule: Schedule,
    problem: LayerScheduleProblem,
    partition: Partition,
    modularity: f64,
    cut_edges: usize,
    per_qpu_layers: Vec<usize>,
    refresh_events: usize,
}

impl DistributedSchedule {
    /// Assembles the artifact from its parts (the scheduling stage's
    /// constructor).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        cost: ScheduleCost,
        schedule: Schedule,
        problem: LayerScheduleProblem,
        partition: Partition,
        modularity: f64,
        cut_edges: usize,
        per_qpu_layers: Vec<usize>,
        refresh_events: usize,
    ) -> Self {
        Self {
            cost,
            schedule,
            problem,
            partition,
            modularity,
            cut_edges,
            per_qpu_layers,
            refresh_events,
        }
    }

    /// Distributed execution time: the schedule makespan in logical
    /// layers.
    #[must_use]
    pub fn execution_time(&self) -> usize {
        self.cost.makespan
    }

    /// Required photon lifetime: `max(τ_local, τ_remote)`
    /// (Definition IV.1).
    #[must_use]
    pub fn required_photon_lifetime(&self) -> usize {
        self.cost.objective()
    }

    /// Local-computation lifetime component.
    #[must_use]
    pub fn tau_local(&self) -> usize {
        self.cost.tau_local
    }

    /// Remote-communication lifetime component.
    #[must_use]
    pub fn tau_remote(&self) -> usize {
        self.cost.tau_remote
    }

    /// The graph partition used.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Modularity of the partition.
    #[must_use]
    pub fn modularity(&self) -> f64 {
        self.modularity
    }

    /// Number of cut edges (= synchronization tasks).
    #[must_use]
    pub fn cut_edges(&self) -> usize {
        self.cut_edges
    }

    /// Execution layers per QPU.
    #[must_use]
    pub fn per_qpu_layers(&self) -> &[usize] {
        &self.per_qpu_layers
    }

    /// Dynamic-refresh events across all QPUs (0 unless enabled).
    #[must_use]
    pub fn refresh_events(&self) -> usize {
        self.refresh_events
    }

    /// The final task schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The scheduling problem instance (for analysis / re-scheduling).
    #[must_use]
    pub fn problem(&self) -> &LayerScheduleProblem {
        &self.problem
    }

    /// Serializes the full artifact — schedule, problem instance,
    /// partition, and every headline metric — with the hand-rolled
    /// binary codec. This is the `Scheduled` stage artifact of
    /// `mbqc-service`: a cache hit on it skips partitioning, mapping,
    /// and scheduling entirely, and the decoded value is bit-identical
    /// to the freshly compiled one (property-tested).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        // Three nested blobs, each written in place behind its exact
        // length, plus ten 8-byte words (three costs, three blob length
        // prefixes, modularity, cut edges, the per-QPU table's length
        // prefix, refresh events) and the per-QPU table. The
        // reservation is exact, so the buffer never grows: it is stored
        // as the `Scheduled` artifact and served as every reply spliced
        // from it, and a short one would double it.
        let (schedule, problem, partition) = (
            self.schedule.encoded_len(),
            self.problem.encoded_len(),
            self.partition.encoded_len(),
        );
        let cap = schedule + problem + partition + 8 * (10 + self.per_qpu_layers.len());
        let mut e = Encoder::with_capacity(cap);
        e.usize(self.cost.tau_local);
        e.usize(self.cost.tau_remote);
        e.usize(self.cost.makespan);
        e.nested(schedule, |e| self.schedule.encode(e));
        e.nested(problem, |e| self.problem.encode(e));
        e.nested(partition, |e| self.partition.encode(e));
        e.f64(self.modularity);
        e.usize(self.cut_edges);
        e.usize_slice(&self.per_qpu_layers);
        e.usize(self.refresh_events);
        debug_assert_eq!(e.len(), cap, "DistributedSchedule::to_bytes capacity");
        e.into_bytes()
    }

    /// Decodes an artifact written by [`DistributedSchedule::to_bytes`].
    ///
    /// Every derivable field is cross-checked, not trusted: the
    /// schedule must be feasible for the problem, the stored cost must
    /// equal `problem.evaluate(schedule)`, and the cut-edge count and
    /// per-QPU layer list must match the problem's sync tasks and main
    /// counts — a corrupt artifact must never masquerade as a valid
    /// compilation. (Only `modularity` and `refresh_events` cannot be
    /// recomputed without the pattern and are taken as stored.)
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated input or any failed
    /// cross-check.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes, true)
    }

    /// Decodes an artifact from a *trusted, integrity-checked* source:
    /// bytes produced by [`DistributedSchedule::to_bytes`], or bytes
    /// that already passed [`DistributedSchedule::from_bytes`], with
    /// nothing in between that could have changed them. Two callers
    /// rely on this: the compilation service, when it decodes a
    /// finished job's schedule bytes for an in-process caller (bytes it
    /// encoded itself or validated once); and the network client, which
    /// decodes every served reply with it (the server sends only such
    /// bytes, and the frame checksum covers transport corruption).
    /// Skips the semantic cross-checks of `from_bytes` (feasibility,
    /// cost re-evaluation, metric agreement, dependency mirror audit)
    /// but none of the structural or range checks, so arbitrary bytes
    /// still decode to a typed [`CodecError`] rather than a panic.
    /// Bytes read from durable storage must pass `from_bytes` first: a
    /// lying producer is exactly what bit-rot looks like.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or structurally invalid
    /// input.
    pub fn from_bytes_trusted(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes, false)
    }

    fn decode(bytes: &[u8], verify: bool) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let cost = ScheduleCost {
            tau_local: d.usize()?,
            tau_remote: d.usize()?,
            makespan: d.usize()?,
        };
        let schedule = Schedule::from_bytes(d.bytes()?)?;
        let problem = if verify {
            LayerScheduleProblem::from_bytes(d.bytes()?)?
        } else {
            LayerScheduleProblem::from_bytes_trusted(d.bytes()?)?
        };
        let partition = Partition::from_bytes(d.bytes()?)?;
        let modularity = d.f64()?;
        let cut_edges = d.usize()?;
        let per_qpu_layers = d.usize_vec()?;
        let refresh_events = d.usize()?;
        d.finish()?;
        if verify {
            if !problem.is_feasible(&schedule) {
                return Err(CodecError::Invalid("schedule infeasible for problem"));
            }
            if problem.evaluate(&schedule) != cost {
                return Err(CodecError::Invalid("stored cost disagrees with schedule"));
            }
            if cut_edges != problem.sync_tasks.len() || per_qpu_layers != problem.main_counts {
                return Err(CodecError::Invalid("stored metrics disagree with problem"));
            }
        }
        Ok(Self {
            cost,
            schedule,
            problem,
            partition,
            modularity,
            cut_edges,
            per_qpu_layers,
            refresh_events,
        })
    }
}

/// The DC-MBQC compiler: partition → per-QPU compile → layer schedule.
///
/// See the [crate-level documentation](crate) for a quickstart.
#[derive(Debug, Clone)]
pub struct DcMbqcCompiler {
    config: DcMbqcConfig,
}

impl DcMbqcCompiler {
    /// Creates a compiler for the given configuration.
    #[must_use]
    pub fn new(config: DcMbqcConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DcMbqcConfig {
        &self.config
    }

    /// Transpiles and compiles a circuit end to end.
    ///
    /// # Errors
    ///
    /// Propagates per-QPU compilation failures.
    pub fn compile_circuit(&self, circuit: &Circuit) -> Result<DistributedSchedule, DcMbqcError> {
        self.compile_pattern(&transpile(circuit))
    }

    /// Compiles an MBQC pattern across the configured QPUs.
    ///
    /// Drives a fresh [`CompileSession`] through the staged pipeline
    /// (`Transpiled` → `Partitioned` → `Mapped` → `Scheduled`); use a
    /// session directly to inspect intermediate artifacts or to reuse
    /// workspaces across many compilations.
    ///
    /// # Errors
    ///
    /// Returns [`DcMbqcError::NoFlow`] for patterns without causal flow
    /// and [`DcMbqcError::Compile`] when a QPU's grid cannot host its
    /// subprogram.
    pub fn compile_pattern(&self, pattern: &Pattern) -> Result<DistributedSchedule, DcMbqcError> {
        CompileSession::new(self.config.clone()).compile_pattern(pattern)
    }

    /// Compiles the whole circuit on a single QPU (the OneQ-style
    /// monolithic baseline) with the same grid and resource state.
    ///
    /// # Errors
    ///
    /// Propagates mapper failures.
    pub fn compile_baseline_circuit(
        &self,
        circuit: &Circuit,
    ) -> Result<BaselineResult, DcMbqcError> {
        self.compile_baseline_pattern(&transpile(circuit))
    }

    /// Single-QPU baseline compilation of a pattern.
    ///
    /// # Errors
    ///
    /// Propagates mapper failures.
    pub fn compile_baseline_pattern(
        &self,
        pattern: &Pattern,
    ) -> Result<BaselineResult, DcMbqcError> {
        let order = placement_order(pattern).ok_or(DcMbqcError::NoFlow)?;
        let mapper = mbqc_compiler::GridMapper::new(self.config.mapper_config(self.config.seed));
        let compiled = mapper
            .compile(pattern.graph(), &order)
            .map_err(|source| DcMbqcError::Compile { qpu: None, source })?;
        let lifetime = compiled.lifetime(&pattern.real_time_dependencies());
        Ok(BaselineResult::new(compiled, lifetime))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_circuit::bench;
    use mbqc_hardware::{DistributedHardware, ResourceStateKind};

    fn hw(qpus: usize, qubits: usize, kind: ResourceStateKind, kmax: usize) -> DistributedHardware {
        DistributedHardware::builder()
            .num_qpus(qpus)
            .grid_width(bench::grid_size_for(qubits))
            .resource_state(kind)
            .kmax(kmax)
            .build()
    }

    #[test]
    fn qft16_distributed_beats_baseline() {
        let circuit = bench::qft(16);
        let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hw(
            4,
            16,
            ResourceStateKind::FIVE_STAR,
            4,
        )));
        let dist = compiler.compile_circuit(&circuit).unwrap();
        let base = compiler.compile_baseline_circuit(&circuit).unwrap();
        assert!(dist.execution_time() < base.execution_time());
        assert!(dist.required_photon_lifetime() < base.required_photon_lifetime());
        assert_eq!(dist.partition().k(), 4);
        assert!(dist.cut_edges() > 0);
        assert!(dist.modularity() > 0.0);
    }

    #[test]
    fn eight_qpus_not_slower_than_four() {
        let circuit = bench::vqe(16, 1);
        let mk = |q| {
            DcMbqcCompiler::new(DcMbqcConfig::new(hw(
                q,
                16,
                ResourceStateKind::FOUR_RING,
                4,
            )))
        };
        let four = mk(4).compile_circuit(&circuit).unwrap();
        let eight = mk(8).compile_circuit(&circuit).unwrap();
        assert!(eight.execution_time() <= four.execution_time() + 2);
    }

    #[test]
    fn single_qpu_config_matches_baseline_metrics() {
        let circuit = bench::qft(9);
        let compiler =
            DcMbqcCompiler::new(DcMbqcConfig::new(hw(1, 9, ResourceStateKind::FIVE_STAR, 4)));
        let dist = compiler.compile_circuit(&circuit).unwrap();
        let base = compiler.compile_baseline_circuit(&circuit).unwrap();
        assert_eq!(dist.cut_edges(), 0);
        // The distributed path relabels nodes (induced subgraph), which
        // perturbs greedy tie-breaking; metrics must stay within a few
        // layers of the monolithic run.
        let (d, b) = (dist.execution_time() as f64, base.execution_time() as f64);
        assert!((d - b).abs() / b < 0.2, "single-QPU drift: {d} vs {b}");
    }

    #[test]
    fn schedule_is_feasible_and_consistent() {
        let circuit = bench::rca(8);
        let compiler =
            DcMbqcCompiler::new(DcMbqcConfig::new(hw(4, 8, ResourceStateKind::FIVE_STAR, 4)));
        let dist = compiler.compile_circuit(&circuit).unwrap();
        assert!(dist.problem().is_feasible(dist.schedule()));
        assert_eq!(dist.per_qpu_layers().len(), 4);
        let recomputed = dist.problem().evaluate(dist.schedule());
        assert_eq!(recomputed.objective(), dist.required_photon_lifetime());
    }

    #[test]
    fn bdir_no_worse_than_core_only() {
        let circuit = bench::qft(12);
        let hw4 = hw(4, 12, ResourceStateKind::FIVE_STAR, 4);
        let with_bdir = DcMbqcCompiler::new(DcMbqcConfig::new(hw4))
            .compile_circuit(&circuit)
            .unwrap();
        let core_only = DcMbqcCompiler::new(DcMbqcConfig::new(hw4).without_bdir())
            .compile_circuit(&circuit)
            .unwrap();
        assert!(with_bdir.required_photon_lifetime() <= core_only.required_photon_lifetime());
    }

    #[test]
    fn refresh_reduces_lifetime_reports_events() {
        let circuit = bench::qft(16);
        let hw4 = hw(4, 16, ResourceStateKind::FIVE_STAR, 4);
        let refreshed = DcMbqcCompiler::new(DcMbqcConfig::new(hw4).with_refresh(2))
            .compile_circuit(&circuit)
            .unwrap();
        assert!(refreshed.refresh_events() > 0);
    }

    #[test]
    fn codec_round_trips_full_artifact() {
        let circuit = bench::qft(12);
        let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hw(
            4,
            12,
            ResourceStateKind::FIVE_STAR,
            4,
        )));
        let dist = compiler.compile_circuit(&circuit).unwrap();
        let back = DistributedSchedule::from_bytes(&dist.to_bytes()).unwrap();
        assert_eq!(back, dist);
        assert!(back.problem().is_feasible(back.schedule()));
        let bytes = dist.to_bytes();
        assert_eq!(bytes.capacity(), bytes.len(), "reserved exactly");
        assert!(DistributedSchedule::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let circuit = bench::vqe(9, 2);
        let hw4 = hw(4, 9, ResourceStateKind::FIVE_STAR, 4);
        let a = DcMbqcCompiler::new(DcMbqcConfig::new(hw4).with_seed(5))
            .compile_circuit(&circuit)
            .unwrap();
        let b = DcMbqcCompiler::new(DcMbqcConfig::new(hw4).with_seed(5))
            .compile_circuit(&circuit)
            .unwrap();
        assert_eq!(a.execution_time(), b.execution_time());
        assert_eq!(a.required_photon_lifetime(), b.required_photon_lifetime());
    }
}
