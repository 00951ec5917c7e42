//! The stage-task executor: workers drain a shared priority queue of
//! *stage tasks* instead of whole jobs.
//!
//! Every submitted job runs as `Transpile` → `Partition` → `Map` →
//! `Schedule` tasks, each consuming the previous task's artifact. A job
//! carries its latest artifact between tasks (`Carried`), and the
//! artifact names the next task. A worker pops the highest-priority
//! ready job, moves its artifact into exactly one stage function on
//! workspaces checked out of the shared [`WorkspacePool`], stores the
//! result on the job, and returns the job to the queue — so stages of
//! *different* jobs overlap across workers, and a long batch job never
//! blocks an interactive job for more than one stage's duration.
//!
//! Cache integration is per task:
//!
//! * the `Transpile` task doubles as the job's planning step — it
//!   probes the [`ArtifactStore`](crate::ArtifactStore)
//!   deepest-artifact-first and re-enters the pipeline past every stage
//!   a cached artifact already answers (via
//!   [`Partitioned::with_partition`] / [`Mapped::from_parts`]);
//! * every later task re-consults the store for its own stage key
//!   before computing, so an artifact published mid-flight (say by a
//!   concurrent duplicate job) is still picked up;
//! * every computed artifact is stored the moment its task completes,
//!   not at the end of the job — a duplicate job one stage behind can
//!   hit it immediately.
//!
//! Artifacts are built on the job's shared pattern
//! ([`Transpiled::shared`]), so they are `'static` and nothing is
//! rebuilt or copied between tasks. Stage functions are pure in
//! `(config, input artifact)`, which is why any task interleaving stays
//! bit-identical to a direct `compile_pattern` (property-tested across
//! worker counts × priority mixes × cache states).
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

use std::sync::Arc;

use dc_mbqc::{
    map_stage, partition_stage, schedule_stage, DcMbqcError, DistributedSchedule, Mapped,
    Partitioned, PipelineStage, StageKind, Transpiled, WorkspacePool,
};
use mbqc_partition::Partition;
use mbqc_util::sync::lock;

use crate::service::{
    decode_mapped, encode_mapped, internal_error, partition_fits, probe_cache, programs_fit,
    CacheEntry, Carried, JobId, JobState, ServiceError, Shared, StageKeys,
};
use crate::telemetry::EventKind;

/// One stage-task worker: pop ready stage tasks until shutdown *and*
/// the queue is drained. Every worker pops from the same ready queue
/// in the same order.
pub(crate) fn stage_loop(shared: &Shared) {
    while let Some((seq, mut state)) = shared.next_job() {
        let kind = state.carried.next_stage();
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
            run_stage_task(shared, job, &mut state)
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

/// Executes one stage task of one job: the one that consumes the
/// job's carried artifact. `Ok(Some(..))` carries the job's final
/// result; `Ok(None)` means the task stored its artifact on the job and
/// the next stage task is ready.
fn run_stage_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
) -> Result<Option<DistributedSchedule>, DcMbqcError> {
    match std::mem::take(&mut state.carried) {
        Carried::NotStarted => transpile_task(shared, job, state),
        Carried::Transpiled(t) => partition_task(shared, job, state, t),
        Carried::Partitioned(p) => map_task(shared, job, state, p),
        Carried::Mapped(m) => schedule_task(shared, job, state, m),
    }
}

/// The planning task: verifies flow, derives the placement order and
/// probes the cache deepest-artifact-first, re-entering the pipeline
/// past answered stages.
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
        return Ok(Some(*s));
    }
    let transpiled = Transpiled::shared(Arc::clone(&state.pattern))?;
    state.carried = match entry {
        CacheEntry::Mapped(partition, programs) => Carried::Mapped(Mapped::from_parts(
            Partitioned::with_partition(transpiled, partition),
            programs,
        )),
        CacheEntry::Partitioned(partition) => {
            Carried::Partitioned(Partitioned::with_partition(transpiled, partition))
        }
        CacheEntry::Miss | CacheEntry::Scheduled(_) => Carried::Transpiled(transpiled),
    };
    Ok(None)
}

/// Stage task 2: adaptive partitioning on a pooled coarsening
/// workspace.
fn partition_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    transpiled: Transpiled<'static>,
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
                state.carried = Carried::Partitioned(Partitioned::with_partition(transpiled, p));
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
    let partitioned = partition_stage(&config, transpiled, &mut ws);
    std::mem::forget(unwind);
    shared.pool.checkin_kway(ws);
    // Publish gate: a task that observes its job's cancellation keeps
    // its (fully computed, deterministic) artifact out of the store —
    // the job terminates `Cancelled` at the requeue that follows.
    if !state.cancel.is_cancelled() {
        shared
            .store
            .put(&keys.part, partitioned.partition().to_bytes());
    }
    state.carried = Carried::Partitioned(partitioned);
    Ok(None)
}

/// Stage task 3: per-QPU grid mapping on a pooled mapper-workspace
/// bundle.
fn map_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    partitioned: Partitioned<'static>,
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
                // The stored programs were compiled for the stored
                // partition, so it replaces the one this job computed.
                let adopted = Partitioned::with_partition(partitioned.transpiled().clone(), p);
                state.carried = Carried::Mapped(Mapped::from_parts(adopted, programs));
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
    let mapped = map_stage(&state.config, partitioned, map_workers, &mut ws);
    std::mem::forget(unwind);
    shared.pool.checkin_mapper(ws);
    let mapped = mapped?;
    if !state.cancel.is_cancelled() {
        shared.store.put(&keys.map, encode_mapped(&mapped));
    }
    state.carried = Carried::Mapped(mapped);
    Ok(None)
}

/// Stage task 4: layer scheduling on a pooled scheduler workspace;
/// produces the job's result.
fn schedule_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    mapped: Mapped<'static>,
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
            return Ok(Some(s));
        }
    }
    let mut ws = shared.pool.checkout_schedule();
    let unwind = DiscardOnUnwind(&shared.pool);
    shared.faults.maybe_panic(StageKind::Schedule);
    let scheduled = schedule_stage(&state.config, mapped, &mut ws);
    std::mem::forget(unwind);
    shared.pool.checkin_schedule(ws);
    // The job's result exists, so it terminates `Done` even under a
    // late cancel — but the artifact publish is still gated.
    if !state.cancel.is_cancelled() {
        shared.store.put(&keys.sched, scheduled.to_bytes());
    }
    Ok(Some(scheduled))
}
