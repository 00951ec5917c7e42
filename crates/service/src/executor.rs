//! The stage-task executor: workers drain a shared priority queue of
//! *stage tasks* instead of whole jobs.
//!
//! Every submitted job runs as `Transpile` → `Partition` → `Map` →
//! `Schedule` tasks, each consuming the previous task's artifact. A job
//! carries its latest artifact between tasks (`Carried`), and the
//! artifact names the next task. A worker pops the highest-priority
//! ready job, moves its artifact into exactly one stage function on the
//! stage workspaces the worker owns (`Workspaces`), stores the result
//! on the job, and returns the job to the queue — so stages of
//! *different* jobs overlap across workers, and a long batch job never
//! blocks an interactive job for more than one stage's duration.
//!
//! The store holds one artifact per job, its `Scheduled` schedule, and
//! is read twice at most. Every `Scheduled` read follows one rule
//! (`vouch`): an entry the store trusts is the result as it is, with no
//! decode at all; any other entry must pass the validating
//! `DistributedSchedule::from_bytes`, and is then marked trusted, so
//! each stored schedule is validated at most once. Any failure is a
//! miss. A job's result is the stored bytes themselves
//! ([`ScheduleBytes`]):
//!
//! * a job whose `Scheduled` artifact is resident in the store's memory
//!   tier never reaches this executor: `resident_schedule` answers it
//!   inside the submit call, on the submitting thread, with no queue
//!   entry, no worker hand-off and no stage task;
//! * the `Transpile` task doubles as the job's planning step: it looks
//!   up the job's `Scheduled` artifact in the
//!   [`ArtifactStore`](crate::ArtifactStore) and, on a hit, finishes
//!   the job without running another stage. Its hits are the artifacts
//!   the submit-time probe could not see: those on the disk tier and
//!   those published after submit;
//! * a miss runs the other three stages with no further store read, and
//!   the schedule task stores its result. It encodes the schedule once;
//!   those bytes are both the job's result and the stored artifact,
//!   stored trusted (`ArtifactStore::put_trusted`).
//!
//! Nothing links concurrent identical jobs: nothing collapses them at
//! submit, no task re-checks the store, and each runs its own tasks
//! under its own lifecycle. Twins that both miss at planning both
//! compile, with bit-identical results, and the later schedule task's
//! store overwrites the earlier one's equal bytes.
//!
//! Artifacts are built on the job's shared pattern
//! ([`Transpiled::shared`]), so they are `'static` and nothing is
//! rebuilt or copied between tasks. Stage functions are pure in
//! `(config, input artifact)` and workspaces are scratch only, which is
//! why any task interleaving over any worker stays bit-identical to a
//! direct `compile_pattern` (property-tested across worker counts ×
//! priority mixes × cache states).
//!
//! Job lifecycle hooks live at the task boundaries: queue pops drop
//! cancelled/expired jobs before running anything (see
//! `Shared::next_job`), requeues turn a mid-flight cancellation into
//! the `Cancelled` terminal state, and the schedule task re-checks its
//! job's [`CancelToken`](crate::CancelToken) *before publishing* the
//! schedule — a cancelled job never stores its output. The
//! running stage itself is never interrupted (stages stay
//! deterministic). A task that panics may leave its worker's
//! workspaces mid-update, so the worker replaces them with fresh ones
//! before its next task.

use std::sync::Arc;
use std::time::Instant;

use dc_mbqc::{
    map_stage, partition_stage, schedule_stage, DcMbqcError, DistributedSchedule, Mapped,
    Partitioned, StageKind, Transpiled,
};
use mbqc_compiler::MapperWorkspace;
use mbqc_partition::KwayWorkspace;
use mbqc_schedule::ScheduleWorkspace;
use mbqc_util::sync::lock;

use crate::service::{
    internal_error, Carried, JobId, JobState, ScheduleBytes, ServiceError, Shared,
};
use crate::store::{ArtifactKey, ChecksumCell, Entry};
use crate::telemetry::EventKind;

/// What a stage task leaves behind: `Ok(Some(..))` is the job's final
/// result; `Ok(None)` means the task stored an artifact on the job and
/// the next stage task is ready.
type TaskResult = Result<Option<ScheduleBytes>, DcMbqcError>;

/// The stage workspaces one worker owns and lends to each task it
/// runs. Scratch only: which worker runs a task never changes its
/// result.
#[derive(Debug, Default)]
struct Workspaces {
    kway: KwayWorkspace,
    /// One entry per mapping thread, grown by `map_stage` on demand.
    mapper: Vec<MapperWorkspace>,
    schedule: ScheduleWorkspace,
}

/// One stage-task worker: pop ready stage tasks until shutdown *and*
/// the queue is drained. Every worker pops from the same ready queue
/// in the same order.
pub(crate) fn stage_loop(shared: &Shared) {
    let mut ws = Workspaces::default();
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
            // retry path before the task touches any workspace.
            if let Some(delay) = shared.faults.injected_delay() {
                std::thread::sleep(delay);
            }
            shared.faults.maybe_panic(kind);
            run_stage_task(shared, job, &mut state, &mut ws)
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
                // artifact the submit-time probe did not find resident:
                // its duration *is* the warm-hit serving latency.
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
            // The panicking task's workspaces may be mid-update: the
            // worker replaces all of them rather than reuse one.
            // Transient failure: the job goes to the retry decision
            // point, not straight to `Failed`.
            Err(panic) => {
                ws = Workspaces::default();
                let err = internal_error(kind, &panic);
                shared.retry_or_fail(seq, state, err);
            }
        }
    }
}

/// Executes one stage task of one job: the one that consumes the
/// job's carried artifact.
fn run_stage_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    ws: &mut Workspaces,
) -> TaskResult {
    match std::mem::take(&mut state.carried) {
        Carried::NotStarted => transpile_task(shared, job, state),
        Carried::Transpiled(t) => partition_task(shared, state, t, &mut ws.kway),
        Carried::Partitioned(p) => map_task(shared, state, p, &mut ws.mapper),
        Carried::Mapped(m) => schedule_task(shared, state, m, &mut ws.schedule),
    }
}

/// The planning task: looks up the job's `Scheduled` artifact, which
/// is the job's result on a hit; on a miss, verifies flow and derives
/// the placement order. The outcome is counted once per job, by its
/// first planning task: a retried job plans again but is not counted
/// again.
fn transpile_task(shared: &Shared, job: JobId, state: &mut JobState) -> TaskResult {
    let hit = shared
        .store
        .get_entry(&state.key)
        .and_then(|entry| vouch(shared, &state.key, entry));
    if !std::mem::replace(&mut state.counted, true) {
        let mut c = lock(&shared.counters);
        match hit {
            Some(_) => c.hits_scheduled += 1,
            None => c.full_compiles += 1,
        }
    }
    match hit {
        Some(bytes) => {
            emit_cache_hit(shared, job);
            // A `Scheduled` hit never transpiles: the flow check is
            // subsumed (a stored schedule proves the pattern compiled
            // before).
            Ok(Some(bytes))
        }
        None => {
            let pattern = Arc::clone(&state.pattern);
            state.carried = Carried::Transpiled(Transpiled::shared(pattern)?);
            Ok(None)
        }
    }
}

/// Stage task 2: adaptive partitioning on the worker's coarsening
/// workspace.
fn partition_task(
    shared: &Shared,
    state: &mut JobState,
    transpiled: Transpiled<'static>,
    ws: &mut KwayWorkspace,
) -> TaskResult {
    // Mid-task injection: a panic *here* unwinds with the workspace
    // borrowed, which the worker must survive by replacing it.
    shared.faults.maybe_panic(StageKind::Partition);
    state.carried = Carried::Partitioned(partition_stage(&state.config, transpiled, ws));
    Ok(None)
}

/// Stage task 3: per-QPU grid mapping on the worker's mapper-workspace
/// bundle.
fn map_task(
    shared: &Shared,
    state: &mut JobState,
    partitioned: Partitioned<'static>,
    ws: &mut Vec<MapperWorkspace>,
) -> TaskResult {
    // A multi-worker service already saturates the cores, so each map
    // task runs on one thread; a lone worker maps on all of them. Either
    // choice is free to make: the map-worker count never changes output
    // (`tests/golden_digests.rs` pins one digest across 1, 2 and 4
    // workers).
    let map_workers = if shared.workers > 1 { 1 } else { 0 };
    shared.faults.maybe_panic(StageKind::Map);
    state.carried = Carried::Mapped(map_stage(&state.config, partitioned, map_workers, ws)?);
    Ok(None)
}

/// Stage task 4: layer scheduling on the worker's scheduler workspace;
/// produces the job's result and stores it.
fn schedule_task(
    shared: &Shared,
    state: &mut JobState,
    mapped: Mapped<'static>,
    ws: &mut ScheduleWorkspace,
) -> TaskResult {
    shared.faults.maybe_panic(StageKind::Schedule);
    // Encoded once: the bytes (and their checksum cell) are both the
    // job's result and the stored artifact, trusted because this task
    // computed the schedule.
    let bytes = Arc::new(schedule_stage(&state.config, mapped, ws).to_bytes());
    let checksum = ChecksumCell::default();
    // Publish gate: the job's result exists, so it terminates `Done`
    // even under a late cancel, but a cancelled job stores nothing.
    if !state.cancel.is_cancelled() {
        shared
            .store
            .put_trusted(&state.key, Arc::clone(&bytes), Arc::clone(&checksum));
    }
    Ok(Some(ScheduleBytes::new(bytes, checksum)))
}

pub(crate) fn emit_cache_hit(shared: &Shared, job: JobId) {
    if shared.telemetry.armed() {
        shared.telemetry.emit(Some(job), EventKind::CacheHit);
    }
}

/// The submit-time probe: the job's `Scheduled` artifact, if it is
/// resident in the store's memory tier and `vouch` accepts it. It reads
/// no disk and counts no store miss; a resident artifact that fails the
/// validating decode is left to the planning task, whose lookup
/// rejects it too and recompiles.
pub(crate) fn resident_schedule(shared: &Shared, key: &ArtifactKey) -> Option<ScheduleBytes> {
    let entry = shared.store.get_resident(key)?;
    vouch(shared, key, entry)
}

/// The one rule of both `Scheduled` probes. A trusted entry is served
/// as it is, with no decode. An untrusted one (written through the
/// public `put`, or promoted from disk) must pass the validating
/// [`DistributedSchedule::from_bytes`] — which re-derives every
/// checkable field, so lying bytes are a miss, never an error — and is
/// then marked trusted in the store, so later hits on it skip the
/// decode.
fn vouch(
    shared: &Shared,
    key: &ArtifactKey,
    (bytes, trusted, checksum): Entry,
) -> Option<ScheduleBytes> {
    if !trusted {
        DistributedSchedule::from_bytes(&bytes).ok()?;
        shared.store.mark_trusted(key, &bytes);
    }
    Some(ScheduleBytes::new(bytes, checksum))
}
