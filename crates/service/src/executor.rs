//! The stage-graph executor: workers drain a shared priority queue of
//! *stage tasks* instead of whole jobs.
//!
//! Every submitted job is decomposed into `Transpile` → `Partition` →
//! `Map` → `Schedule` tasks with explicit data dependencies (tracked by
//! the job's [`StageGraph`](dc_mbqc::StageGraph)). A worker pops the
//! highest-priority ready task, executes exactly one stage on
//! workspaces checked out of the shared
//! [`WorkspacePool`], and returns the job to
//! the queue with its next task ready — so stages of *different* jobs
//! overlap across workers, and a long batch job never blocks an
//! interactive job for more than one stage's duration.
//!
//! Cache integration is per task:
//!
//! * the `Transpile` task doubles as the job's planning step — it
//!   probes the [`ArtifactStore`](crate::ArtifactStore)
//!   deepest-artifact-first and fast-forwards the job's stage graph
//!   past every stage a cached artifact already answers (re-entry via
//!   [`Partitioned::with_partition`] / [`Mapped::from_parts`]);
//! * every later task re-consults the store for its own stage key
//!   before computing, so an artifact published mid-flight (say by a
//!   concurrent duplicate job) is still picked up;
//! * every computed artifact is stored the moment its task completes,
//!   not at the end of the job — a duplicate job one stage behind can
//!   hit it immediately.
//!
//! Between tasks a job carries only *owned* state (placement order,
//! partition, compiled programs); the borrow-holding stage artifacts
//! are rebuilt transiently inside each task through the same re-entry
//! constructors the cache path uses, which is exactly why any task
//! interleaving stays bit-identical to a direct `compile_pattern`
//! (property-tested across worker counts × priority mixes × cache
//! states).
//!
//! Job lifecycle hooks live at the task boundaries: queue pops drop
//! cancelled/expired jobs before running anything (see
//! `Shared::next_job`), requeues turn a mid-flight cancellation into
//! the `Cancelled` terminal state, and each task re-checks its job's
//! [`CancelToken`](crate::CancelToken) *before publishing* its
//! artifact — a cancelled job's task never stores its output. The
//! running stage itself is never interrupted (stages stay
//! deterministic), and its pooled workspace is always returned on the
//! way out, cancelled or not.

use std::time::Instant;

use dc_mbqc::{
    map_stage, partition_stage, schedule_stage, DcMbqcError, DistributedSchedule, Mapped,
    Partitioned, PipelineStage, StageKind, Transpiled, WorkspacePool,
};
use mbqc_partition::Partition;
use mbqc_util::sync::lock;

use crate::service::{
    decode_mapped, encode_mapped, internal_error, part_nodes_of, partition_fits, probe_cache,
    programs_fit, CacheEntry, JobId, JobState, ServiceError, Shared, StageKeys,
};
use crate::telemetry::EventKind;

/// One stage-graph worker: pop ready stage tasks until shutdown *and*
/// the queue is drained. Every worker pops from the same ready queue
/// in the same order.
pub(crate) fn stage_loop(shared: &Shared) {
    while let Some((seq, mut state)) = shared.next_job() {
        let kind = state
            .stages
            .ready()
            .expect("queued job has a ready stage task");
        let job = JobId(seq);
        let attempt = state.attempt;
        if shared.telemetry.armed() {
            shared.telemetry.emit(
                Some(job),
                EventKind::TaskStarted {
                    stage: kind,
                    attempt,
                },
            );
        }
        let start = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Fault-injection boundary (compiled out without the
            // `fault-inject` feature): a delay here widens the race
            // windows the chaos tests explore; a panic exercises the
            // retry path before the task touches any pooled workspace.
            if let Some(delay) = shared.faults.injected_delay() {
                std::thread::sleep(delay);
            }
            shared.faults.maybe_panic(kind);
            run_stage_task(shared, job, &mut state, kind)
        }));
        let elapsed_ns = start.elapsed().as_nanos() as u64;
        state.latency_ns += elapsed_ns;
        {
            let mut c = lock(&shared.counters);
            c.tasks_executed += 1;
        }
        if outcome.is_ok() {
            // Panicked tasks record nothing: their duration measures
            // where the panic fired, not what the stage costs.
            shared.metrics.stage[kind.index()].record(elapsed_ns);
            if kind == StageKind::Transpile && matches!(outcome, Ok(Ok(Some(_)))) {
                // The planning task short-circuited on a `Scheduled`
                // artifact: its duration *is* the warm-hit serving
                // latency.
                shared.metrics.warm_hit.record(elapsed_ns);
            }
            if shared.telemetry.armed() {
                shared.telemetry.emit(
                    Some(job),
                    EventKind::TaskFinished {
                        stage: kind,
                        attempt,
                        duration_ns: elapsed_ns,
                    },
                );
            }
        }
        match outcome {
            Ok(Ok(Some(result))) => shared.finish_job(seq, Ok(result), state.latency_ns),
            Ok(Ok(None)) => shared.requeue(seq, state),
            Ok(Err(e)) => shared.finish_job(seq, Err(ServiceError::Compile(e)), state.latency_ns),
            // A panicking task never returns its checked-out workspace
            // to the pool — the buffers may be mid-update, so the
            // task's `DiscardOnUnwind` guard dropped it and balanced
            // the checkout count. Transient failure: the job goes to
            // the retry decision point, not straight to `Failed`.
            Err(panic) => {
                let err = internal_error(kind, &panic);
                shared.retry_or_fail(seq, state, err);
            }
        }
    }
}

/// Balances the pool's checkout accounting when a stage task unwinds
/// mid-stage: the panicking task's workspace is dropped rather than
/// checked back in (its buffers may be mid-update), and
/// [`WorkspacePool::discard`] records the check-in it will never make —
/// keeping `pool_outstanding` at 0 on a drained service even under
/// injected panics. Forgotten (disarmed) on the normal path, where the
/// real check-in runs.
struct DiscardOnUnwind<'p>(&'p WorkspacePool);

impl Drop for DiscardOnUnwind<'_> {
    fn drop(&mut self) {
        self.0.discard();
    }
}

/// Executes one stage task of one job. `Ok(Some(..))` carries the
/// job's final result; `Ok(None)` means the next stage task is ready.
fn run_stage_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    kind: StageKind,
) -> Result<Option<DistributedSchedule>, DcMbqcError> {
    match kind {
        StageKind::Transpile => transpile_task(shared, job, state),
        StageKind::Partition => partition_task(shared, job, state),
        StageKind::Map => map_task(shared, job, state),
        StageKind::Schedule => schedule_task(shared, job, state),
    }
}

/// The planning task: derives the placement order and probes the cache
/// deepest-artifact-first, fast-forwarding past answered stages.
fn transpile_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
) -> Result<Option<DistributedSchedule>, DcMbqcError> {
    let keys = StageKeys::new(&state.pattern, &state.config);
    let entry = probe_cache(shared, job, &keys, &state.pattern, &state.config);
    state.keys = Some(keys);
    if let CacheEntry::Scheduled(s) = entry {
        // Terminal hit: the job never runs another task (the flow
        // check is subsumed — a stored schedule proves the pattern
        // compiled before).
        state.stages.finish();
        return Ok(Some(*s));
    }
    let transpiled = Transpiled::new(&state.pattern)?;
    state.order = Some(transpiled.placement_order().to_vec());
    state.stages.complete(StageKind::Transpile);
    match entry {
        CacheEntry::Mapped(partition, programs) => {
            state.partition = Some(partition);
            state.programs = Some(programs);
            state.stages.skip_to(StageKind::Schedule);
        }
        CacheEntry::Partitioned(partition) => {
            state.partition = Some(partition);
            state.stages.skip_to(StageKind::Map);
        }
        CacheEntry::Miss | CacheEntry::Scheduled(_) => {}
    }
    Ok(None)
}

/// Stage task 2: adaptive partitioning on a pooled coarsening
/// workspace.
fn partition_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
) -> Result<Option<DistributedSchedule>, DcMbqcError> {
    let keys = state.keys.as_ref().expect("planning task ran first");
    // Re-consult the store: a concurrent duplicate job may have
    // published this stage since the probe.
    if let Some(bytes) = shared.store.get(&keys.part) {
        if let Ok(p) = Partition::from_bytes(&bytes) {
            if partition_fits(&p, &state.pattern, &state.config) {
                lock(&shared.counters).task_store_hits += 1;
                if shared.telemetry.armed() {
                    shared.telemetry.emit(
                        Some(job),
                        EventKind::CacheHit {
                            stage: PipelineStage::Partition,
                        },
                    );
                }
                state.partition = Some(p);
                state.stages.complete(StageKind::Partition);
                return Ok(None);
            }
        }
    }
    let mut config = state.config.clone();
    if shared.workers > 1 {
        // The worker fleet already saturates the machine; pin the
        // restart probes to one thread. Worker counts never change
        // results, and the artifact keys ignore this knob.
        config.adaptive.probe_workers = 1;
    }
    let mut ws = shared.pool.checkout_kway();
    let unwind = DiscardOnUnwind(&shared.pool);
    // Mid-task injection: a panic *here* unwinds with the workspace
    // checked out, which is exactly what the guard (and the pool's
    // outstanding-count invariant) must survive.
    shared.faults.maybe_panic(StageKind::Partition);
    let (partition, cache) = {
        let transpiled = transpiled_of(state);
        let partitioned = partition_stage(&config, transpiled, &mut ws);
        (partitioned.partition().clone(), partitioned.cache())
    };
    std::mem::forget(unwind);
    shared.pool.checkin_kway(ws);
    // Publish gate: a task that observes its job's cancellation keeps
    // its (fully computed, deterministic) artifact out of the store —
    // the job terminates `Cancelled` at the requeue that follows.
    if !state.cancel.is_cancelled() {
        shared.store.put(&keys.part, partition.to_bytes());
    }
    state.partition = Some(partition);
    state.part_cache = Some(cache);
    state.stages.complete(StageKind::Partition);
    Ok(None)
}

/// Stage task 3: per-QPU grid mapping on a pooled mapper-workspace
/// bundle.
fn map_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
) -> Result<Option<DistributedSchedule>, DcMbqcError> {
    let keys = state.keys.as_ref().expect("planning task ran first");
    if let Some(bytes) = shared.store.get(&keys.map) {
        if let Ok((p, programs)) = decode_mapped(&bytes) {
            if partition_fits(&p, &state.pattern, &state.config) && programs_fit(&p, &programs) {
                lock(&shared.counters).task_store_hits += 1;
                if shared.telemetry.armed() {
                    shared.telemetry.emit(
                        Some(job),
                        EventKind::CacheHit {
                            stage: PipelineStage::Map,
                        },
                    );
                }
                // The adopted partition replaces whatever the partition
                // task computed; the cached derivation belongs to the
                // *old* partition, so drop it — the schedule task must
                // re-derive metrics consistent with the adopted one.
                state.partition = Some(p);
                state.part_cache = None;
                state.programs = Some(programs);
                state.stages.complete(StageKind::Map);
                return Ok(None);
            }
        }
    }
    // A multi-worker service already saturates the cores, so each map
    // task runs on one thread; a lone worker maps on all of them. Either
    // choice is free to make: the map-worker count never changes output
    // (`tests/golden_digests.rs` pins one digest across 1, 2 and 4
    // workers).
    let map_workers = if shared.workers > 1 { 1 } else { 0 };
    let mut ws = shared.pool.checkout_mapper();
    let unwind = DiscardOnUnwind(&shared.pool);
    shared.faults.maybe_panic(StageKind::Map);
    let outcome = {
        let transpiled = transpiled_of(state);
        let partition = state.partition.clone().expect("partition stage ran");
        let partitioned = partitioned_of(state, transpiled, partition);
        // Fill the derivation cache for the schedule task if this is
        // the first construction (a `Partitioned` cache-probe hit
        // enters here without one).
        let cache = state.part_cache.is_none().then(|| partitioned.cache());
        map_stage(&state.config, partitioned, map_workers, &mut ws)
            .map(|mapped| (encode_mapped(&mapped), mapped.programs().to_vec(), cache))
    };
    std::mem::forget(unwind);
    shared.pool.checkin_mapper(ws);
    let (artifact, programs, cache) = outcome?;
    if !state.cancel.is_cancelled() {
        shared.store.put(&keys.map, artifact);
    }
    state.programs = Some(programs);
    if cache.is_some() {
        state.part_cache = cache;
    }
    state.stages.complete(StageKind::Map);
    Ok(None)
}

/// Stage task 4: layer scheduling on a pooled scheduler workspace;
/// produces the job's result.
fn schedule_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
) -> Result<Option<DistributedSchedule>, DcMbqcError> {
    let keys = state.keys.as_ref().expect("planning task ran first");
    // Same warm-hit path as the planning probe: the store's shared
    // bytes, one validating decode.
    if let Some(bytes) = shared.store.get(&keys.sched) {
        if let Ok(s) = DistributedSchedule::from_bytes(&bytes) {
            lock(&shared.counters).task_store_hits += 1;
            if shared.telemetry.armed() {
                shared.telemetry.emit(
                    Some(job),
                    EventKind::CacheHit {
                        stage: PipelineStage::Schedule,
                    },
                );
            }
            state.stages.complete(StageKind::Schedule);
            return Ok(Some(s));
        }
    }
    let mut ws = shared.pool.checkout_schedule();
    let unwind = DiscardOnUnwind(&shared.pool);
    shared.faults.maybe_panic(StageKind::Schedule);
    let programs = state.programs.take().expect("map stage ran");
    let scheduled = {
        let transpiled = transpiled_of(state);
        let partition = state.partition.clone().expect("partition stage ran");
        let partitioned = partitioned_of(state, transpiled, partition);
        let part_nodes = part_nodes_of(&partitioned);
        let mapped = Mapped::from_parts(partitioned, part_nodes, programs);
        schedule_stage(&state.config, mapped, &mut ws)
    };
    std::mem::forget(unwind);
    shared.pool.checkin_schedule(ws);
    // The job's result exists, so it terminates `Done` even under a
    // late cancel — but the artifact publish is still gated.
    if !state.cancel.is_cancelled() {
        shared.store.put(&keys.sched, scheduled.to_bytes());
    }
    state.stages.complete(StageKind::Schedule);
    Ok(Some(scheduled))
}

/// Rebuilds the stage-1 artifact from the job's retained placement
/// order (no flow recomputation).
fn transpiled_of(state: &JobState) -> Transpiled<'_> {
    Transpiled::from_parts(
        &state.pattern,
        state.order.clone().expect("transpile task ran"),
    )
}

/// Rebuilds the stage-2 artifact, reusing the job's cached derivation
/// (workload CSR + metrics) when a previous task already computed it —
/// one memcpy instead of a per-task CSR rebuild plus modularity/cut
/// recomputation.
fn partitioned_of<'p>(
    state: &JobState,
    transpiled: Transpiled<'p>,
    partition: Partition,
) -> Partitioned<'p> {
    match &state.part_cache {
        Some(cache) => Partitioned::with_partition_cached(transpiled, partition, cache.clone()),
        None => Partitioned::with_partition(transpiled, partition),
    }
}
