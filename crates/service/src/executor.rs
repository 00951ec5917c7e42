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
//! Cache integration starts at submit and continues per task. Every
//! task's read goes through one `lookup` (store read, validating
//! decode, shape guards — any failure is a miss), and every `Scheduled`
//! read follows one rule (`vouch`): an entry the store trusts is the
//! result as it is, with no decode at all; any other entry must pass
//! the validating `DistributedSchedule::from_bytes`, and is then marked
//! trusted, so each stored schedule is validated at most once. A job's
//! result is the stored bytes themselves ([`ScheduleBytes`]):
//!
//! * a job whose `Scheduled` artifact is resident in the store's memory
//!   tier never reaches this executor: `resident_schedule` answers it
//!   inside the submit call, on the submitting thread, with no queue
//!   entry, no worker hand-off and no stage task;
//! * the `Transpile` task doubles as the job's planning step — it looks
//!   up the [`ArtifactStore`](crate::ArtifactStore)
//!   deepest-artifact-first and re-enters the pipeline past every stage
//!   a cached artifact already answers (via `resume`). Its `Scheduled`
//!   hits are the artifacts the submit-time probe could not see: those
//!   on the disk tier and those published after submit;
//! * every later task looks up its own stage key before computing, so
//!   an artifact published mid-flight (say by a concurrent duplicate
//!   job) is still picked up;
//! * every computed artifact is stored the moment its task completes,
//!   not at the end of the job — a duplicate job one stage behind can
//!   hit it immediately. The schedule task encodes its schedule once;
//!   those bytes are both the job's result and the stored artifact,
//!   stored trusted (`ArtifactStore::put_trusted`).
//!
//! These re-checks are the only link between concurrent identical
//! jobs: nothing collapses them at submit, and each runs its own tasks
//! under its own lifecycle. A twin one stage behind reads the leading
//! twin's artifacts instead of recomputing them, and its results are
//! the same bits either way.
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
//! the `Cancelled` terminal state, and each task re-checks its job's
//! [`CancelToken`](crate::CancelToken) *before publishing* its
//! artifact — a cancelled job's task never stores its output. The
//! running stage itself is never interrupted (stages stay
//! deterministic). A task that panics may leave its worker's
//! workspaces mid-update, so the worker replaces them with fresh ones
//! before its next task.

use std::sync::Arc;
use std::time::Instant;

use dc_mbqc::{
    map_stage, partition_stage, schedule_stage, DcMbqcConfig, DcMbqcError, DistributedSchedule,
    Mapped, Partitioned, PipelineStage, StageKind, Transpiled,
};
use mbqc_compiler::{CompiledProgram, MapperWorkspace};
use mbqc_partition::{KwayWorkspace, Partition};
use mbqc_pattern::Pattern;
use mbqc_schedule::ScheduleWorkspace;
use mbqc_util::codec::{CodecError, Decoder, Encoder};
use mbqc_util::sync::lock;

use crate::service::{
    internal_error, Carried, JobId, JobState, ScheduleBytes, ServiceError, Shared, StageKeys,
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
        Carried::Transpiled(t) => partition_task(shared, job, state, t, &mut ws.kway),
        Carried::Partitioned(p) => map_task(shared, job, state, p, &mut ws.mapper),
        Carried::Mapped(m) => schedule_task(shared, job, state, m, &mut ws.schedule),
    }
}

/// The planning task: looks up the job's artifacts deepest-first and
/// re-enters the pipeline past answered stages; on a miss, verifies
/// flow and derives the placement order.
fn transpile_task(shared: &Shared, job: JobId, state: &mut JobState) -> TaskResult {
    let hit = [
        PipelineStage::Schedule,
        PipelineStage::Map,
        PipelineStage::Partition,
    ]
    .into_iter()
    .find_map(|stage| lookup(shared, stage, &state.keys, &state.pattern, &state.config));
    {
        let mut c = lock(&shared.counters);
        match hit.as_ref().map(CacheEntry::stage) {
            Some(PipelineStage::Schedule) => c.hits_scheduled += 1,
            Some(PipelineStage::Map) => c.hits_mapped += 1,
            Some(PipelineStage::Partition) => c.hits_partitioned += 1,
            None => c.full_compiles += 1,
        }
    }
    let pattern = Arc::clone(&state.pattern);
    match hit {
        Some(hit) => {
            emit_cache_hit(shared, job, hit.stage());
            // A `Scheduled` hit never transpiles: the flow check is
            // subsumed (a stored schedule proves the pattern compiled
            // before).
            resume(state, hit, || Transpiled::shared(pattern))
        }
        None => {
            state.carried = Carried::Transpiled(Transpiled::shared(pattern)?);
            Ok(None)
        }
    }
}

/// Stage task 2: adaptive partitioning on the worker's coarsening
/// workspace.
fn partition_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    transpiled: Transpiled<'static>,
    ws: &mut KwayWorkspace,
) -> TaskResult {
    if let Some(hit) = task_lookup(shared, job, state, PipelineStage::Partition) {
        return resume(state, hit, || Ok(transpiled));
    }
    // Mid-task injection: a panic *here* unwinds with the workspace
    // borrowed, which the worker must survive by replacing it.
    shared.faults.maybe_panic(StageKind::Partition);
    let partitioned = partition_stage(&state.config, transpiled, ws);
    // Publish gate: a task that observes its job's cancellation keeps
    // its (fully computed, deterministic) artifact out of the store —
    // the job terminates `Cancelled` at the requeue that follows.
    if !state.cancel.is_cancelled() {
        shared
            .store
            .put(&state.keys.part, partitioned.partition().to_bytes());
    }
    state.carried = Carried::Partitioned(partitioned);
    Ok(None)
}

/// Stage task 3: per-QPU grid mapping on the worker's mapper-workspace
/// bundle.
fn map_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    partitioned: Partitioned<'static>,
    ws: &mut Vec<MapperWorkspace>,
) -> TaskResult {
    if let Some(hit) = task_lookup(shared, job, state, PipelineStage::Map) {
        // The stored programs were compiled for the stored partition,
        // so it replaces the one this job computed.
        return resume(state, hit, || Ok(partitioned.transpiled().clone()));
    }
    // A multi-worker service already saturates the cores, so each map
    // task runs on one thread; a lone worker maps on all of them. Either
    // choice is free to make: the map-worker count never changes output
    // (`tests/golden_digests.rs` pins one digest across 1, 2 and 4
    // workers).
    let map_workers = if shared.workers > 1 { 1 } else { 0 };
    shared.faults.maybe_panic(StageKind::Map);
    let mapped = map_stage(&state.config, partitioned, map_workers, ws)?;
    if !state.cancel.is_cancelled() {
        shared.store.put(
            &state.keys.map,
            encode_mapped(mapped.partitioned().partition(), mapped.programs()),
        );
    }
    state.carried = Carried::Mapped(mapped);
    Ok(None)
}

/// Stage task 4: layer scheduling on the worker's scheduler workspace;
/// produces the job's result.
fn schedule_task(
    shared: &Shared,
    job: JobId,
    state: &mut JobState,
    mapped: Mapped<'static>,
    ws: &mut ScheduleWorkspace,
) -> TaskResult {
    if let Some(hit) = task_lookup(shared, job, state, PipelineStage::Schedule) {
        // A `Schedule` lookup only ever finds the job's result, so the
        // transpiled artifact is never rebuilt here.
        return resume(state, hit, || Ok(mapped.partitioned().transpiled().clone()));
    }
    shared.faults.maybe_panic(StageKind::Schedule);
    // Encoded once: the bytes (and their checksum cell) are both the
    // job's result and the stored artifact, trusted because this task
    // computed the schedule.
    let bytes = Arc::new(schedule_stage(&state.config, mapped, ws).to_bytes());
    let checksum = ChecksumCell::default();
    // The job's result exists, so it terminates `Done` even under a
    // late cancel — but the artifact publish is still gated.
    if !state.cancel.is_cancelled() {
        shared
            .store
            .put_trusted(&state.keys.sched, Arc::clone(&bytes), Arc::clone(&checksum));
    }
    Ok(Some(ScheduleBytes::new(bytes, checksum)))
}

/// A later task's lookup of the artifact it is about to compute: a
/// concurrent duplicate job may have published it since planning. A
/// hit counts in [`ServiceStats::task_store_hits`](crate::ServiceStats::task_store_hits).
fn task_lookup(
    shared: &Shared,
    job: JobId,
    state: &JobState,
    stage: PipelineStage,
) -> Option<CacheEntry> {
    let hit = lookup(shared, stage, &state.keys, &state.pattern, &state.config)?;
    lock(&shared.counters).task_store_hits += 1;
    emit_cache_hit(shared, job, stage);
    Some(hit)
}

pub(crate) fn emit_cache_hit(shared: &Shared, job: JobId, stage: PipelineStage) {
    if shared.telemetry.armed() {
        shared
            .telemetry
            .emit(Some(job), EventKind::CacheHit { stage });
    }
}

/// Applies a cache hit to the job. A `Scheduled` hit is the job's
/// result. A `Partitioned` or `Mapped` hit re-enters the pipeline on
/// the job's transpiled artifact, which `transpiled` makes only then,
/// and becomes the job's carried artifact.
fn resume(
    state: &mut JobState,
    hit: CacheEntry,
    transpiled: impl FnOnce() -> Result<Transpiled<'static>, DcMbqcError>,
) -> TaskResult {
    state.carried = match hit {
        CacheEntry::Scheduled(bytes) => return Ok(Some(bytes)),
        CacheEntry::Mapped(partition, programs) => Carried::Mapped(Mapped::from_parts(
            Partitioned::with_partition(transpiled()?, partition),
            programs,
        )),
        CacheEntry::Partitioned(partition) => {
            Carried::Partitioned(Partitioned::with_partition(transpiled()?, partition))
        }
    };
    Ok(None)
}

/// A stage artifact fit to re-enter the pipeline: a vouched-for
/// schedule, or a decoded, shape-checked partial artifact.
enum CacheEntry {
    Scheduled(ScheduleBytes),
    Mapped(Partition, Vec<CompiledProgram>),
    Partitioned(Partition),
}

impl CacheEntry {
    fn stage(&self) -> PipelineStage {
        match self {
            CacheEntry::Scheduled(_) => PipelineStage::Schedule,
            CacheEntry::Mapped(..) => PipelineStage::Map,
            CacheEntry::Partitioned(_) => PipelineStage::Partition,
        }
    }
}

/// Reads one stage's artifact for a job: the store read, then `vouch`
/// for a schedule, or one validating decode and the shape guards for a
/// partial artifact. Every failure — absent, undecodable, or the wrong
/// shape for this pattern and configuration — is a miss, never an
/// error. Exact keys make a wrong shape impossible in practice, but a
/// corrupt disk tier must degrade to a recompute rather than panic a
/// worker.
fn lookup(
    shared: &Shared,
    stage: PipelineStage,
    keys: &StageKeys,
    pattern: &Pattern,
    config: &DcMbqcConfig,
) -> Option<CacheEntry> {
    // A memory hit shares the store's bytes (no copy).
    match stage {
        PipelineStage::Schedule => {
            let entry = shared.store.get_entry(&keys.sched)?;
            vouch(shared, &keys.sched, entry).map(CacheEntry::Scheduled)
        }
        PipelineStage::Map => {
            let (p, programs) = decode_mapped(&shared.store.get(&keys.map)?).ok()?;
            (partition_fits(&p, pattern, config) && programs_fit(&p, &programs))
                .then_some(CacheEntry::Mapped(p, programs))
        }
        PipelineStage::Partition => {
            let p = Partition::from_bytes(&shared.store.get(&keys.part)?).ok()?;
            partition_fits(&p, pattern, config).then_some(CacheEntry::Partitioned(p))
        }
    }
}

/// The submit-time probe: the job's `Scheduled` artifact, if it is
/// resident in the store's memory tier and `vouch` accepts it. It reads
/// no disk and counts no store miss; a resident artifact that fails the
/// validating decode is left to the planning task, whose `lookup`
/// rejects it too and recompiles.
pub(crate) fn resident_schedule(shared: &Shared, keys: &StageKeys) -> Option<ScheduleBytes> {
    let entry = shared.store.get_resident(&keys.sched)?;
    vouch(shared, &keys.sched, entry)
}

/// The one rule of both `Scheduled` probes. A trusted entry is served
/// as it is, with no decode. An untrusted one (written through the
/// public `put`, or promoted from disk) must pass the validating
/// [`DistributedSchedule::from_bytes`] — which re-derives every
/// checkable field, so lying bytes are a miss — and is then marked
/// trusted in the store, so later hits on it skip the decode.
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

/// Shape guard for decoded partitions: one part per QPU, one entry per
/// pattern node.
fn partition_fits(p: &Partition, pattern: &Pattern, config: &DcMbqcConfig) -> bool {
    p.len() == pattern.node_count() && p.k() == config.hardware.num_qpus()
}

/// Shape guard for decoded `Mapped` artifacts: every per-QPU program
/// must cover exactly the nodes its part owns, or
/// [`Mapped::from_parts`] would panic the worker.
fn programs_fit(partition: &Partition, programs: &[CompiledProgram]) -> bool {
    let mut counts = vec![0usize; partition.k()];
    for &part in partition.assignment() {
        counts[part] += 1;
    }
    programs.len() == partition.k()
        && programs
            .iter()
            .zip(&counts)
            .all(|(prog, &nodes)| prog.layer_of.len() == nodes)
}

/// Encodes the `Mapped` artifact: the partition plus every per-QPU
/// compiled program (the node lists are re-derived from the partition
/// and placement order on re-entry). The buffer is reserved at its
/// exact length, so the stored artifact carries no spare capacity.
pub(crate) fn encode_mapped(partition: &Partition, programs: &[CompiledProgram]) -> Vec<u8> {
    // Length prefixes: the partition's, the program count, and one per
    // program; every nested blob is written in place.
    let cap = 8 * (2 + programs.len())
        + partition.encoded_len()
        + programs
            .iter()
            .map(CompiledProgram::encoded_len)
            .sum::<usize>();
    let mut e = Encoder::with_capacity(cap);
    e.nested(partition.encoded_len(), |e| partition.encode(e));
    e.usize(programs.len());
    for p in programs {
        e.nested(p.encoded_len(), |e| p.encode(e));
    }
    debug_assert_eq!(e.len(), cap, "encode_mapped capacity");
    e.into_bytes()
}

fn decode_mapped(bytes: &[u8]) -> Result<(Partition, Vec<CompiledProgram>), CodecError> {
    let mut d = Decoder::new(bytes);
    let partition = Partition::from_bytes(d.bytes()?)?;
    let k = d.len_hint()?;
    if k != partition.k() {
        return Err(CodecError::Invalid("program count disagrees with k"));
    }
    let mut programs = Vec::with_capacity(k);
    for _ in 0..k {
        programs.push(CompiledProgram::from_bytes(d.bytes()?)?);
    }
    d.finish()?;
    Ok((partition, programs))
}
