//! The staged compilation pipeline: explicit stage artifacts driven by a
//! reusable [`CompileSession`].
//!
//! The Figure-2 pipeline is decomposed into first-class artifacts,
//!
//! > [`Transpiled`] → [`Partitioned`] → [`Mapped`] → [`Scheduled`]
//!
//! each independently constructible and inspectable: diagnostics can
//! stop after any stage, and re-entry (e.g. re-scheduling a mapped
//! program, or injecting an externally computed partition) starts from
//! the matching artifact instead of re-running the whole driver. An
//! artifact borrows its pattern ([`Transpiled::new`]) or shares it
//! through an `Arc` ([`Transpiled::shared`]); the shared form is
//! `'static`, so an executor can store a job's latest artifact between
//! stage tasks. The session owns the reusable workspaces of every
//! stage — the partitioner's coarsening buffers, one mapper workspace
//! per mapping worker, and the scheduler's ready-queue scratch — so
//! repeated compilations stop re-allocating.
//!
//! [`DcMbqcCompiler::compile_pattern`](crate::DcMbqcCompiler::compile_pattern)
//! is a thin wrapper that drives a fresh session through all four
//! stages; the staged path is pinned bit-identical to it by property
//! tests.

use std::ops::Deref;
use std::sync::Arc;

use mbqc_compiler::{CompiledProgram, GridMapper, MapperWorkspace};
use mbqc_graph::{CsrGraph, Graph, NodeId};
use mbqc_partition::adaptive::AdaptiveResult;
use mbqc_partition::modularity::modularity_csr;
use mbqc_partition::{adaptive_partition_csr_with, resolve_workers, KwayWorkspace, Partition};
use mbqc_pattern::Pattern;
use mbqc_schedule::{
    bdir_with, default_priorities, list_schedule_with, LayerScheduleProblem, LocalStructure,
    ScheduleWorkspace, SyncTask,
};

use crate::baseline::placement_order;
use crate::config::{DcMbqcConfig, DcMbqcError};
use crate::pipeline::DistributedSchedule;

/// How a stage artifact holds its pattern: borrowed from the caller
/// ([`Transpiled::new`]), or shared through an [`Arc`]
/// ([`Transpiled::shared`]) so the artifact owns its pattern and can be
/// carried between the stage tasks of a job. Neither form copies the
/// pattern.
#[derive(Debug, Clone)]
enum PatternRef<'p> {
    Borrowed(&'p Pattern),
    Shared(Arc<Pattern>),
}

impl Deref for PatternRef<'_> {
    type Target = Pattern;

    fn deref(&self) -> &Pattern {
        match self {
            PatternRef::Borrowed(p) => p,
            PatternRef::Shared(p) => p,
        }
    }
}

/// Stage-1 artifact: a pattern with a verified causal flow and the
/// placement order derived from it.
///
/// Construction is the only stage that can reject a pattern outright
/// ([`DcMbqcError::NoFlow`]); every later stage starts from a valid
/// order.
#[derive(Debug, Clone)]
pub struct Transpiled<'p> {
    pattern: PatternRef<'p>,
    order: Vec<NodeId>,
}

impl<'p> Transpiled<'p> {
    /// Verifies causal flow and derives the placement order of a
    /// borrowed pattern.
    ///
    /// # Errors
    ///
    /// Returns [`DcMbqcError::NoFlow`] for patterns without causal flow.
    pub fn new(pattern: &'p Pattern) -> Result<Self, DcMbqcError> {
        Self::verify(PatternRef::Borrowed(pattern))
    }

    fn verify(pattern: PatternRef<'p>) -> Result<Self, DcMbqcError> {
        let order = placement_order(&pattern).ok_or(DcMbqcError::NoFlow)?;
        Ok(Self { pattern, order })
    }

    /// The underlying pattern.
    #[must_use]
    pub fn pattern(&self) -> &Pattern {
        &self.pattern
    }

    /// The flow-respecting placement order (covers all nodes).
    #[must_use]
    pub fn placement_order(&self) -> &[NodeId] {
        &self.order
    }
}

impl Transpiled<'static> {
    /// [`Transpiled::new`] on a shared pattern: the artifact — and
    /// every later one built from it — holds a reference count instead
    /// of a borrow, so it can be stored between the stage tasks of a
    /// job.
    ///
    /// # Errors
    ///
    /// Returns [`DcMbqcError::NoFlow`] for patterns without causal flow.
    pub fn shared(pattern: Arc<Pattern>) -> Result<Self, DcMbqcError> {
        Self::verify(PatternRef::Shared(pattern))
    }
}

/// Stage-2 artifact: the computation graph partitioned across QPUs
/// (Algorithm 2), with the workload-weighted CSR view and the full
/// probe history retained for diagnostics.
#[derive(Debug, Clone)]
pub struct Partitioned<'p> {
    transpiled: Transpiled<'p>,
    /// Workload-weighted frozen view (node weight = 2 + degree).
    csr: CsrGraph,
    adaptive: AdaptiveResult,
    modularity: f64,
}

impl<'p> Partitioned<'p> {
    /// Re-enters the pipeline with an externally supplied partition
    /// (e.g. a stored one, or an alternative partitioner), computing
    /// the derived metrics the later stages and reports need.
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the pattern's nodes.
    #[must_use]
    pub fn with_partition(transpiled: Transpiled<'p>, partition: Partition) -> Self {
        let csr = workload_csr(transpiled.pattern.graph());
        assert_eq!(partition.len(), csr.node_count(), "partition size mismatch");
        let q = modularity_csr(&csr, &partition);
        let cut = partition.cut_weight_csr(&csr);
        let alpha = partition.imbalance_csr(&csr);
        Self {
            transpiled,
            csr,
            adaptive: AdaptiveResult {
                partition,
                modularity: q,
                cut,
                alpha,
                history: Vec::new(),
            },
            modularity: q,
        }
    }

    /// The transpiled artifact this stage consumed.
    #[must_use]
    pub fn transpiled(&self) -> &Transpiled<'p> {
        &self.transpiled
    }

    /// The chosen partition.
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.adaptive.partition
    }

    /// Full adaptive-search result (winning α, probe history).
    #[must_use]
    pub fn adaptive(&self) -> &AdaptiveResult {
        &self.adaptive
    }

    /// Modularity `Q` of the chosen partition.
    #[must_use]
    pub fn modularity(&self) -> f64 {
        self.modularity
    }

    /// The workload-weighted CSR view the partitioner ran on.
    #[must_use]
    pub fn weighted_graph(&self) -> &CsrGraph {
        &self.csr
    }

    /// Global node ids owned by each QPU, in placement order: the
    /// subprogram each QPU's grid compilation runs on.
    fn part_nodes(&self) -> Vec<Vec<NodeId>> {
        let partition = &self.adaptive.partition;
        let mut part_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); partition.k()];
        for &u in &self.transpiled.order {
            part_nodes[partition.part_of(u)].push(u);
        }
        part_nodes
    }
}

/// Stage-3 artifact: every QPU's subprogram compiled onto its RSG grid.
#[derive(Debug, Clone)]
pub struct Mapped<'p> {
    partitioned: Partitioned<'p>,
    /// Global node ids owned by each QPU, in placement order.
    part_nodes: Vec<Vec<NodeId>>,
    compiled: Vec<CompiledProgram>,
}

impl<'p> Mapped<'p> {
    /// Re-enters the pipeline with externally compiled per-QPU
    /// programs, one per part of the partition, each compiled from its
    /// part's nodes in placement order (the node lists are derived from
    /// the partition exactly as [`map_stage`] derives them).
    ///
    /// # Panics
    ///
    /// Panics if the shapes disagree with the partition.
    #[must_use]
    pub fn from_parts(partitioned: Partitioned<'p>, compiled: Vec<CompiledProgram>) -> Self {
        let part_nodes = partitioned.part_nodes();
        assert_eq!(
            compiled.len(),
            part_nodes.len(),
            "per-QPU programs disagree with k"
        );
        for (qpu, (nodes, program)) in part_nodes.iter().zip(&compiled).enumerate() {
            assert_eq!(
                program.layer_of.len(),
                nodes.len(),
                "QPU {qpu}: compiled program covers {} nodes, partition assigns {}",
                program.layer_of.len(),
                nodes.len()
            );
        }
        Self {
            partitioned,
            part_nodes,
            compiled,
        }
    }

    /// The partitioned artifact this stage consumed.
    #[must_use]
    pub fn partitioned(&self) -> &Partitioned<'p> {
        &self.partitioned
    }

    /// Global node ids owned by each QPU, in placement order.
    #[must_use]
    pub fn part_nodes(&self) -> &[Vec<NodeId>] {
        &self.part_nodes
    }

    /// The compiled per-QPU programs.
    #[must_use]
    pub fn programs(&self) -> &[CompiledProgram] {
        &self.compiled
    }
}

/// Stage-4 artifact: the fully scheduled distributed program. The
/// schedule, problem instance, partition, and headline metrics are all
/// inspectable on it.
pub type Scheduled = DistributedSchedule;

/// Builds the workload-weighted CSR view of a computation graph: a
/// photon's grid work is one placement plus its share of fusions, so
/// each node weighs `2 + degree`. (Plain node balance lets the dense
/// hub core of fully-entangled programs land on one QPU: node-balanced,
/// edge-starved everywhere else.) The adjacency structure is shared,
/// not cloned — only the weight vector is new.
fn workload_csr(graph: &Graph) -> CsrGraph {
    let weights: Vec<i64> = (0..graph.node_count())
        .map(|i| 2 + graph.degree(NodeId::new(i)) as i64)
        .collect();
    CsrGraph::from_graph_with_node_weights(graph, weights)
}

/// A reusable compilation session: the configuration plus every
/// stage's workspace. Compiling many patterns through one session (or
/// through [`DcMbqcCompiler::compile_batch`]) reuses the partitioner's
/// coarsening buffers, the per-worker mapper state, and the scheduler
/// scratch across compilations.
///
/// Results are identical to fresh-session compilation; only allocation
/// traffic changes.
///
/// [`DcMbqcCompiler::compile_batch`]: crate::DcMbqcCompiler::compile_batch
#[derive(Debug)]
pub struct CompileSession {
    config: DcMbqcConfig,
    kway_ws: KwayWorkspace,
    schedule_ws: ScheduleWorkspace,
    mapper_ws: Vec<MapperWorkspace>,
    /// Mapping-stage worker count (`0` = one per available core).
    map_workers: usize,
}

impl CompileSession {
    /// Creates a session for the given configuration.
    #[must_use]
    pub fn new(config: DcMbqcConfig) -> Self {
        Self {
            config,
            kway_ws: KwayWorkspace::new(),
            schedule_ws: ScheduleWorkspace::new(),
            mapper_ws: Vec::new(),
            // One per core. Safe as a default because the map-worker
            // count never changes output: `tests/golden_digests.rs`
            // compiles its corpus with 1, 2 and 4 workers against the
            // same pinned digests.
            map_workers: 0,
        }
    }

    /// Sets the mapping-stage worker count (`0` = auto). Worker count
    /// never changes results; callers that already parallelize *across*
    /// sessions (e.g. a batch) pin this to 1 so nested stage
    /// parallelism does not oversubscribe the machine.
    #[must_use]
    pub fn with_map_workers(mut self, workers: usize) -> Self {
        self.map_workers = workers;
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &DcMbqcConfig {
        &self.config
    }

    /// Stage 2 — adaptive graph partitioning (Algorithm 2) on the
    /// workload-weighted graph.
    #[must_use]
    pub fn partition<'p>(&mut self, transpiled: Transpiled<'p>) -> Partitioned<'p> {
        partition_stage(&self.config, transpiled, &mut self.kway_ws)
    }

    /// Stage 3 — per-QPU grid compilation, in parallel across the
    /// session's mapping workers (results are identical for every
    /// worker count: each QPU's compilation is independent and seeded
    /// by `config.seed ^ qpu`).
    ///
    /// # Errors
    ///
    /// Returns [`DcMbqcError::Compile`] for the lowest-indexed QPU
    /// whose grid cannot host its subprogram.
    pub fn map<'p>(&mut self, partitioned: Partitioned<'p>) -> Result<Mapped<'p>, DcMbqcError> {
        map_stage(
            &self.config,
            partitioned,
            self.map_workers,
            &mut self.mapper_ws,
        )
    }

    /// Stage 4 — assembles the layer scheduling problem from the cut
    /// edges and runs list scheduling plus BDIR, producing the final
    /// [`Scheduled`] artifact.
    #[must_use]
    pub fn schedule(&mut self, mapped: Mapped<'_>) -> Scheduled {
        schedule_stage(&self.config, mapped, &mut self.schedule_ws)
    }

    /// Drives a pattern through all four stages.
    ///
    /// # Errors
    ///
    /// Returns [`DcMbqcError::NoFlow`] for patterns without causal flow
    /// and [`DcMbqcError::Compile`] when a QPU's grid cannot host its
    /// subprogram.
    pub fn compile_pattern(
        &mut self,
        pattern: &Pattern,
    ) -> Result<DistributedSchedule, DcMbqcError> {
        let transpiled = Transpiled::new(pattern)?;
        let partitioned = self.partition(transpiled);
        let mapped = self.map(partitioned)?;
        Ok(self.schedule(mapped))
    }
}

// ---------------------------------------------------------------------
// Free stage functions.
//
// Each stage of the pipeline is a pure function of `(config, input
// artifact, workspace)`. `CompileSession` binds them to its owned
// workspaces; executors that pool workspaces across many concurrent
// jobs (`mbqc-service`'s stage-task executor) call them directly with
// a checked-out workspace instead. Workspaces never influence results
// (property-tested), so the two call styles are bit-identical.
// ---------------------------------------------------------------------

/// Stage 2 — adaptive graph partitioning (Algorithm 2) on the
/// workload-weighted graph, using the caller's coarsening scratch.
///
/// Identical to [`CompileSession::partition`]; the session delegates
/// here.
#[must_use]
pub fn partition_stage<'p>(
    config: &DcMbqcConfig,
    transpiled: Transpiled<'p>,
    ws: &mut KwayWorkspace,
) -> Partitioned<'p> {
    let csr = workload_csr(transpiled.pattern.graph());
    let mut adaptive_cfg = config.adaptive;
    adaptive_cfg.k = config.hardware.num_qpus();
    adaptive_cfg.seed = config.seed;
    let adaptive = adaptive_partition_csr_with(&csr, &adaptive_cfg, ws);
    let modularity = modularity_csr(&csr, &adaptive.partition);
    Partitioned {
        transpiled,
        csr,
        adaptive,
        modularity,
    }
}

/// Stage 3 — per-QPU grid compilation across `map_workers` threads
/// (`0` = one per available core), using the caller's mapper
/// workspaces (grown to the worker count on demand). Results are
/// identical for every worker count: each QPU's compilation is
/// independent and seeded by `config.seed ^ qpu`.
///
/// Identical to [`CompileSession::map`]; the session delegates here.
///
/// # Errors
///
/// Returns [`DcMbqcError::Compile`] for the lowest-indexed QPU whose
/// grid cannot host its subprogram.
pub fn map_stage<'p>(
    config: &DcMbqcConfig,
    partitioned: Partitioned<'p>,
    map_workers: usize,
    mapper_ws: &mut Vec<MapperWorkspace>,
) -> Result<Mapped<'p>, DcMbqcError> {
    let graph = partitioned.transpiled.pattern.graph();
    let k = config.hardware.num_qpus();
    // Guards externally injected partitions (`with_partition`): the
    // adaptive stage always produces exactly one part per QPU.
    assert_eq!(
        partitioned.partition().k(),
        k,
        "partition has {} parts for {k} QPUs",
        partitioned.partition().k()
    );
    let part_nodes = partitioned.part_nodes();
    let subgraphs: Vec<Graph> = part_nodes
        .iter()
        .map(|nodes| graph.induced_subgraph(nodes).0)
        .collect();

    let workers = resolve_workers(map_workers, k);
    if mapper_ws.len() < workers {
        mapper_ws.resize_with(workers, MapperWorkspace::new);
    }
    let mut results: Vec<Option<Result<CompiledProgram, DcMbqcError>>> =
        (0..k).map(|_| None).collect();
    let compile_one = |qpu: usize, sub: &Graph, ws: &mut MapperWorkspace| {
        let mapper = GridMapper::new(config.mapper_config(config.seed ^ (qpu as u64)));
        let local_order: Vec<NodeId> = sub.nodes().collect();
        mapper
            .compile_with(sub, &local_order, ws)
            .map_err(|source| DcMbqcError::Compile {
                qpu: Some(qpu),
                source,
            })
    };
    if workers <= 1 {
        let ws = &mut mapper_ws[0];
        for (qpu, sub) in subgraphs.iter().enumerate() {
            results[qpu] = Some(compile_one(qpu, sub, ws));
        }
    } else {
        // Strided ownership: worker w compiles QPUs w, w + W, …,
        // reusing its own persistent workspace. Assignment is
        // static, so no scheduling decision can reach the results.
        let subgraphs = &subgraphs;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for (w, ws) in mapper_ws.iter_mut().take(workers).enumerate() {
                handles.push(scope.spawn(move || {
                    subgraphs
                        .iter()
                        .enumerate()
                        .skip(w)
                        .step_by(workers)
                        .map(|(qpu, sub)| (qpu, compile_one(qpu, sub, ws)))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                for (qpu, r) in h.join().expect("mapping worker panicked") {
                    results[qpu] = Some(r);
                }
            }
        });
    }
    let compiled: Vec<CompiledProgram> = results
        .into_iter()
        .map(|r| r.expect("every QPU compiled"))
        .collect::<Result<_, _>>()?;
    Ok(Mapped {
        partitioned,
        part_nodes,
        compiled,
    })
}

/// Stage 4 — assembles the layer scheduling problem from the cut edges
/// and runs list scheduling plus BDIR, using the caller's scheduler
/// scratch.
///
/// Identical to [`CompileSession::schedule`]; the session delegates
/// here.
#[must_use]
pub fn schedule_stage(
    config: &DcMbqcConfig,
    mapped: Mapped<'_>,
    ws: &mut ScheduleWorkspace,
) -> Scheduled {
    let Mapped {
        partitioned,
        part_nodes,
        compiled,
    } = mapped;
    let pattern = &*partitioned.transpiled.pattern;
    let graph = pattern.graph();

    // Global node → (qpu, storage-epoch layer).
    let n = graph.node_count();
    let mut node_slot = vec![(0usize, 0usize); n];
    for (qpu, globals) in part_nodes.iter().enumerate() {
        for (local, &global) in globals.iter().enumerate() {
            node_slot[global.index()] = (qpu, compiled[qpu].effective_layer[local]);
        }
    }
    // Intra-QPU fusee pairs in global node ids.
    let mut fusee_pairs = Vec::new();
    for (qpu, globals) in part_nodes.iter().enumerate() {
        for pair in &compiled[qpu].fusee_pairs {
            fusee_pairs.push((
                globals[pair.a.index()].index(),
                globals[pair.b.index()].index(),
            ));
        }
    }
    // Cut edges → synchronization tasks.
    let sync_tasks: Vec<SyncTask> = partitioned
        .adaptive
        .partition
        .cut_edges(graph)
        .map(|(u, v, _)| SyncTask {
            a: node_slot[u.index()],
            b: node_slot[v.index()],
        })
        .collect();
    let cut_edges = sync_tasks.len();
    let main_counts: Vec<usize> = compiled.iter().map(|c| c.num_layers).collect();
    let deps = pattern.dependency_graph().real_time().clone();
    let mut problem =
        LayerScheduleProblem::new(main_counts.clone(), sync_tasks, config.hardware.kmax())
            .with_local(LocalStructure {
                node_slot,
                fusee_pairs,
                deps,
            });
    if let Some(d) = config.refresh_interval {
        // Refresh re-injects any photon (connectors included) after
        // at most `d` stored cycles, capping every lifetime term.
        problem = problem.with_refresh_bound(d);
    }

    // List scheduling + BDIR, on the caller's scheduler scratch.
    let init = list_schedule_with(&problem, &default_priorities(&problem), None, ws);
    let schedule = match &config.bdir {
        Some(cfg) => {
            let mut bdir_cfg = *cfg;
            bdir_cfg.seed = config.seed;
            bdir_with(&problem, &init, &bdir_cfg, ws)
        }
        None => init,
    };
    debug_assert!(problem.is_feasible(&schedule));
    let cost = problem.evaluate(&schedule);
    let refresh_events = compiled.iter().map(|c| c.refresh_events).sum();

    DistributedSchedule::from_parts(
        cost,
        schedule,
        problem,
        partitioned.adaptive.partition,
        partitioned.modularity,
        cut_edges,
        main_counts,
        refresh_events,
    )
}
