//! The compilation service: a priority-aware queue of jobs executed by
//! a pool of workers.
//!
//! One execution engine runs every job: the stage-task executor
//! ([`crate::executor`]) runs each job one stage task at a time
//! (`Transpile` → `Partition` → `Map` → `Schedule`) and lets any worker
//! run any job's next task — stages of *different* jobs overlap, so
//! worker A can partition job 2 while worker B schedules job 1. Between
//! tasks a job carries its latest stage artifact, which names the next
//! task.
//!
//! Every job is keyed in the shared [`ArtifactStore`], which holds one
//! artifact per `(pattern, config)`: its `Scheduled` schedule.
//!
//! * a `Scheduled` hit is the job's result — partitioning, mapping,
//!   and scheduling are all skipped. The job finishes holding the
//!   stored bytes themselves ([`ScheduleBytes`], shared with the
//!   store), validated once per stored artifact and decoded only when
//!   an in-process caller takes the result. When the artifact is
//!   resident in the memory tier, the submit call itself answers the
//!   job: it never enters the queue and no worker or stage task
//!   touches it;
//! * a miss runs the whole pipeline and stores the schedule. A job
//!   that differs from a stored one only in a mapping or scheduling
//!   knob is a miss too.
//!
//! Results are **bit-identical** to a direct
//! [`DcMbqcCompiler::compile_pattern`](dc_mbqc::DcMbqcCompiler::compile_pattern)
//! call for every worker count, priority mix, and cache state —
//! cold, warm, or disk-restored (property-tested in
//! `tests/proptest_service.rs`).
//!
//! # Job lifecycle
//!
//! A submitted job ends in exactly one **terminal state**:
//!
//! * **Done** — the pipeline ran (or the cache answered) and
//!   [`wait`](CompileService::wait) returns `Ok(schedule)`, bit-identical
//!   to `compile_pattern`;
//! * **Failed** — the pipeline rejected the job
//!   ([`ServiceError::Compile`]) or a worker panicked
//!   ([`ServiceError::Internal`]) with no [`RetryPolicy`] attempts
//!   left — panics are *transient* and retryable; compile rejections
//!   are deterministic and never retried (see the crate-level
//!   "Failure model and recovery" section);
//! * **Cancelled** — the client called [`CompileService::cancel`] or
//!   fired a shared [`CancelToken`]
//!   ([`ServiceError::Cancelled`]);
//! * **Expired** — the job's deadline passed while it was queued
//!   ([`ServiceError::Expired`]).
//!
//! Cancellation is observed **at task boundaries only**: a queued job is
//! dropped from the queue immediately, while an in-flight job finishes
//! its current stage task (stages stay deterministic — they are never
//! interrupted mid-computation) and is then dropped instead of being
//! requeued. A task that observes its job's cancellation does not
//! publish its artifact to the store. Deadlines are **lazy**: nothing
//! wakes up to expire a job — the deadline is checked when the job's
//! next task would be popped, so an expired job costs exactly one
//! queue-pop and never a stage execution.
//!
//! The ready queue has one order. Priority classes pop in descending
//! priority; inside a class, each tenant ([`JobOptions::tenant`]) has
//! a FIFO lane and the lanes share pops by weight
//! ([`TenantQuota::weight`], see the `fair` module). With a single
//! tenant this is plain priority-then-submission order. Queue order
//! (like any cancellation interleaving) never changes a surviving
//! job's *result* — only when it runs (property-tested in
//! `tests/proptest_lifecycle.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dc_mbqc::{
    DcMbqcConfig, DcMbqcError, DistributedSchedule, Mapped, Partitioned, StageKind, Transpiled,
};
use mbqc_pattern::Pattern;
use mbqc_util::codec::CodecError;
use mbqc_util::sync::{lock, wait, wait_timeout};

use mbqc_util::metrics::{Histogram, Summary};

use crate::executor;
use crate::fair::{FairClass, TenantWeights};
use crate::fault::FaultPlan;
use crate::memo::{Content, PatternMemo};
use crate::store::{ArtifactKey, ArtifactStore, ChecksumCell, StoreConfig, StoreStats};
use crate::telemetry::{EventKind, EventStream, TelemetryHub, TerminalState};

/// Handle of a submitted compilation job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub(crate) u64);

impl JobId {
    /// The raw id value — the wire representation used by `mbqc-net`
    /// (job ids are per-service, monotonically allocated at submit).
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuilds a `JobId` from its raw value (the inverse of
    /// [`as_u64`](Self::as_u64) — how a network server resolves an id
    /// decoded off the wire). An id that was never allocated behaves
    /// like any unknown id: [`ServiceError::UnknownJob`].
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        JobId(raw)
    }
}

/// Scheduling priority of a job: orders the shared ready-queue.
///
/// Higher priorities always pop first; within one priority class jobs
/// (and their stage tasks) pop in submission order. Priority never
/// changes a job's *result* — only when it runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Backfill work: runs only when nothing more urgent is ready.
    Batch,
    /// The default service class.
    #[default]
    Normal,
    /// Front-of-queue latency-sensitive jobs.
    Interactive,
}

impl Priority {
    /// All priorities, lowest first (index order of the per-priority
    /// stats counters).
    pub const ALL: [Priority; 3] = [Priority::Batch, Priority::Normal, Priority::Interactive];
}

/// Service failure modes surfaced to callers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The pipeline rejected the job.
    Compile(DcMbqcError),
    /// The job id was never submitted, or its result was already taken.
    UnknownJob(JobId),
    /// A worker panicked while running the job (and every retry its
    /// [`RetryPolicy`] allowed panicked too). This is the *transient*
    /// failure class — the only one a retry policy re-enqueues.
    Internal {
        /// The pipeline stage whose task panicked.
        stage: StageKind,
        /// Rendered panic payload.
        message: String,
    },
    /// The job was cancelled (terminal state `Cancelled`): dropped from
    /// the queue, or stopped at its next task boundary if it was
    /// in flight.
    Cancelled(JobId),
    /// The job's deadline passed before its next task was popped
    /// (terminal state `Expired`).
    Expired(JobId),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "compilation failed: {e}"),
            ServiceError::UnknownJob(id) => write!(f, "unknown or already-taken job {id:?}"),
            ServiceError::Internal { stage, message } => {
                write!(f, "worker panicked in {stage:?} task: {message}")
            }
            ServiceError::Cancelled(id) => write!(f, "job {id:?} was cancelled"),
            ServiceError::Expired(id) => write!(f, "job {id:?} expired before running"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Compile(e) => Some(e),
            _ => None,
        }
    }
}

/// A finished job's schedule as the bytes of
/// [`DistributedSchedule::to_bytes`], vouched for by the service: a
/// stage task encoded them from a schedule it computed, or they passed
/// the validating [`DistributedSchedule::from_bytes`] in this process.
/// The buffer is shared with the artifact store's memory tier, so a
/// clone is a reference-count bump. There is no public constructor:
/// only the service hands these out.
///
/// Each stored buffer also carries one checksum cell
/// ([`reply_checksum`](Self::reply_checksum)), shared by every
/// `ScheduleBytes` served from that buffer and new with every new
/// buffer, so a reply built around the bytes is checksummed once per
/// buffer rather than once per request.
#[derive(Clone)]
pub struct ScheduleBytes {
    bytes: Arc<Vec<u8>>,
    checksum: ChecksumCell,
}

impl ScheduleBytes {
    pub(crate) fn new(bytes: Arc<Vec<u8>>, checksum: ChecksumCell) -> Self {
        Self { bytes, checksum }
    }

    /// The encoded schedule: what [`DistributedSchedule::to_bytes`]
    /// returns for [`decode`](Self::decode)'s result.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// A checksum of one fixed reply built around these bytes:
    /// `compute(bytes)` on the first call for this stored buffer, from
    /// any job on any thread, and the cached value on every later
    /// call — whatever `compute` the later call passes. So every caller
    /// must pass the same function of the bytes. `mbqc-net` is the one
    /// caller: it keeps its `Outcome` reply's frame checksum here.
    pub fn reply_checksum(&self, compute: impl FnOnce(&[u8]) -> u64) -> u64 {
        *self.checksum.get_or_init(|| compute(&self.bytes))
    }

    /// Decodes the schedule with
    /// [`DistributedSchedule::from_bytes_trusted`]: the structural checks
    /// only, since the semantic ones already passed (or the service
    /// computed the schedule itself).
    ///
    /// # Panics
    ///
    /// Never for bytes the service handed out: `to_bytes` output and
    /// bytes that passed `from_bytes` both pass `from_bytes_trusted`'s
    /// subset of its checks.
    #[must_use]
    pub fn decode(&self) -> DistributedSchedule {
        DistributedSchedule::from_bytes_trusted(&self.bytes).expect("vouched schedule bytes decode")
    }
}

impl std::fmt::Debug for ScheduleBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleBytes")
            .field("len", &self.bytes.len())
            .finish()
    }
}

/// A shareable cancellation flag. One token can be attached to many
/// jobs (cancel a whole request group at once) and one job can be
/// cancelled through its token or through
/// [`CompileService::cancel`] — the two are equivalent.
///
/// Cancellation is cooperative and boundary-checked: firing the token
/// drops every attached *queued* job the next time the queue looks at
/// it, and stops every attached *in-flight* job at its next task
/// boundary (the running stage always completes — stages stay
/// deterministic). A job whose final task already finished is past
/// cancellation: it terminates `Done` and its result stays available.
///
/// # Examples
///
/// ```
/// use mbqc_service::CancelToken;
///
/// let token = CancelToken::new();
/// let clone = token.clone(); // same flag
/// assert!(!clone.is_cancelled());
/// token.cancel();
/// assert!(clone.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-fired token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fires the token: every job attached to it stops at its next
    /// task boundary (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// `true` once [`cancel`](Self::cancel) has been called.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// One tenant's multi-tenancy configuration: its fair-share weight in
/// the ready queue and an optional in-flight quota enforced by
/// admission-checked submits.
///
/// # Examples
///
/// ```
/// use mbqc_service::TenantQuota;
///
/// let q = TenantQuota::new(7).with_weight(3).with_max_in_flight(64);
/// assert_eq!(q.tenant, 7);
/// assert_eq!(q.weight, 3);
/// assert_eq!(q.max_in_flight, Some(64));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// The tenant id this entry configures.
    pub tenant: u32,
    /// Fair-share weight within each priority class: a backlogged
    /// weight-3 tenant gets three pops for every pop a
    /// weight-1 tenant gets, within one task. Must be non-zero —
    /// [`CompileService::new`] rejects a zero weight (a tenant that
    /// should never run is expressed by not submitting, not by a
    /// starvation weight).
    pub weight: u32,
    /// Ceiling on the tenant's concurrently in-flight jobs (submitted
    /// but not yet terminal). Enforced only by the admission-checked
    /// submits ([`CompileService::submit_checked`]); `None` (the
    /// default) is unlimited.
    pub max_in_flight: Option<u64>,
}

impl TenantQuota {
    /// A quota entry with weight 1 and no in-flight limit.
    #[must_use]
    pub fn new(tenant: u32) -> Self {
        Self {
            tenant,
            weight: 1,
            max_in_flight: None,
        }
    }

    /// Sets the fair-share weight (must be non-zero; validated at
    /// [`CompileService::new`]).
    #[must_use]
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight;
        self
    }

    /// Sets the in-flight quota.
    #[must_use]
    pub fn with_max_in_flight(mut self, max_in_flight: u64) -> Self {
        self.max_in_flight = Some(max_in_flight);
        self
    }
}

/// Admission-control configuration: what the checked submit
/// ([`CompileService::submit_checked`]) enforces before a job may enter
/// the queue. The unchecked submits ([`CompileService::submit`] and
/// [`CompileService::submit_with`]) bypass every check — in-process
/// callers keep their infallible API; the network front door routes
/// through the checked one.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Bound on the submit queue (jobs queued or parked, not yet
    /// running): a checked submit that would exceed it is rejected
    /// [`AdmissionError::Overloaded`] instead of enqueued — typed
    /// backpressure the client can retry on, rather than an unbounded
    /// queue absorbing any overload. `None` (the default) is
    /// unbounded.
    pub max_queue_depth: Option<usize>,
    /// Per-tenant weights and quotas. Tenants not listed here get
    /// weight 1 and no quota. Duplicate tenant ids and zero weights
    /// are rejected by [`CompileService::new`].
    pub tenants: Vec<TenantQuota>,
}

/// Why an admission-checked submit refused a job. Rejection happens
/// *at submit*: the job was never enqueued, holds no id, and costs the
/// service nothing (counted in [`ServiceStats::rejected`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The submit queue is at [`AdmissionConfig::max_queue_depth`].
    Overloaded {
        /// Jobs queued or parked at the time of the check.
        depth: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The tenant is at its [`TenantQuota::max_in_flight`] ceiling.
    QuotaExceeded {
        /// The tenant whose quota is exhausted.
        tenant: u32,
        /// The tenant's in-flight jobs at the time of the check.
        in_flight: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The deadline cannot be met: it already lapsed (a zero budget),
    /// or the queue's current depth times the observed per-job stage
    /// latency (the sum of the four stage p95s) exceeds it. With no
    /// latency samples yet the service admits optimistically — the
    /// estimate only ever rejects on evidence.
    DeadlineUnmeetable {
        /// The submitted time budget, nanoseconds.
        deadline_ns: u64,
        /// The service-time estimate that exceeded it, nanoseconds.
        estimated_ns: u64,
    },
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::Overloaded { depth, limit } => {
                write!(
                    f,
                    "submit queue overloaded: {depth} jobs queued (limit {limit})"
                )
            }
            AdmissionError::QuotaExceeded {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant {tenant} quota exceeded: {in_flight} jobs in flight (limit {limit})"
            ),
            AdmissionError::DeadlineUnmeetable {
                deadline_ns,
                estimated_ns,
            } => write!(
                f,
                "deadline of {deadline_ns}ns cannot be met: estimated service time {estimated_ns}ns"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// One tenant's row in [`ServiceStats::tenants`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantStat {
    /// The tenant id.
    pub tenant: u32,
    /// Jobs this tenant has submitted.
    pub submitted: u64,
    /// Jobs currently in flight (submitted, not yet terminal). Summed
    /// over all tenants this always equals
    /// `submitted − completed − cancelled − expired` in the same
    /// snapshot.
    pub in_flight: u64,
}

/// Per-job retry policy for *transient* failures.
///
/// A job that fails with [`ServiceError::Internal`] (a worker panic —
/// the only failure class the service treats as transient) is reset to
/// a fresh pipeline and re-enqueued after a backoff delay, up to
/// `max_attempts` total attempts. Deterministic failures are **never**
/// retried: a [`ServiceError::Compile`] rejection would fail
/// identically on every attempt, so it terminates the job immediately,
/// and `Cancelled`/`Expired` are client decisions, not faults.
///
/// The backoff schedule is exponential: the first retry waits
/// [`backoff`](Self::backoff), each later retry doubles the previous
/// delay, and every delay is capped at [`max_backoff`](Self::max_backoff).
///
/// # Examples
///
/// ```
/// use std::time::Duration;
/// use mbqc_service::RetryPolicy;
///
/// let policy = RetryPolicy::attempts(4).with_backoff(Duration::from_millis(10));
/// assert_eq!(policy.delay_before(2), Duration::from_millis(10));
/// assert_eq!(policy.delay_before(3), Duration::from_millis(20));
/// assert_eq!(policy.delay_before(4), Duration::from_millis(40));
///
/// // The default policy never retries.
/// assert_eq!(RetryPolicy::default().max_attempts, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first run (values below 1 behave
    /// as 1). The default is 1: no retries.
    pub max_attempts: u32,
    /// Delay before the first retry re-enqueues (later retries double
    /// it). [`Duration::ZERO`] re-enqueues immediately.
    pub backoff: Duration,
    /// Upper bound on any single backoff delay.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::ZERO,
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts with no backoff
    /// delay (failed jobs re-enqueue immediately).
    #[must_use]
    pub fn attempts(max_attempts: u32) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            ..Self::default()
        }
    }

    /// Sets the base backoff delay (doubled per retry, capped at
    /// [`max_backoff`](Self::max_backoff)).
    #[must_use]
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        if self.max_backoff < backoff {
            self.max_backoff = backoff;
        }
        self
    }

    /// The delay parked before the given attempt number runs (attempt
    /// 2 is the first retry).
    #[must_use]
    pub fn delay_before(&self, attempt: u32) -> Duration {
        let retries_done = attempt.saturating_sub(2).min(30);
        let delay = self.backoff.saturating_mul(1u32 << retries_done);
        delay.min(self.max_backoff)
    }
}

/// Per-job submission options beyond the pattern and configuration.
#[derive(Debug, Clone, Default)]
pub struct JobOptions {
    /// Queue priority (see [`Priority`]).
    pub priority: Priority,
    /// Time budget measured from submission: if it elapses before the
    /// job's next task is popped, the job terminates
    /// [`Expired`](ServiceError::Expired) instead of running. Checked
    /// lazily at queue pops — an in-flight task is never interrupted.
    /// The budget spans retries: a parked retry that outlives the
    /// deadline expires at its next pop.
    pub deadline: Option<Duration>,
    /// Cancellation flag to attach; one token may be shared by many
    /// jobs. Jobs are always cancellable by id; a token just adds a
    /// client-held handle that outlives the submission call.
    pub cancel: Option<CancelToken>,
    /// Retry policy for transient ([`ServiceError::Internal`])
    /// failures. The default never retries.
    pub retry: RetryPolicy,
    /// The submitting tenant (default 0). Tenancy is pure scheduling
    /// and accounting — it picks the job's fair lane within its
    /// priority class (weighted by [`TenantQuota::weight`]), the
    /// in-flight quotas of the admission-checked submits, and the
    /// [`ServiceStats::tenants`] breakdown — and never changes a job's
    /// result. Any `u32` is accepted; an unconfigured tenant has
    /// weight 1 and no quota.
    pub tenant: u32,
    /// Register a per-job [`EventStream`] *before* the job's first
    /// event (default `false`). The stream is then guaranteed complete,
    /// from [`EventKind::Submitted`] (`seq` 0) through
    /// [`EventKind::Terminal`], with no subscription race; take it with
    /// [`JobHandle::take_events`]. A later
    /// [`CompileService::subscribe`] observes only from the moment it
    /// is called.
    pub observe: bool,
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads (`0` = one per available core). Worker count
    /// never changes results, only throughput.
    pub workers: usize,
    /// Artifact-store configuration (memory budget, optional disk
    /// tier).
    pub store: StoreConfig,
    /// Deterministic fault-injection plan for *worker tasks* (injected
    /// panics and stage delays). Inert by default, and compiled out
    /// entirely without the `fault-inject` feature. Disk-fault
    /// injection is configured separately on
    /// [`StoreConfig::faults`](crate::StoreConfig) — pass clones of
    /// one plan to both to drive them from a single seed.
    pub faults: FaultPlan,
    /// Telemetry knobs (the subscription-channel bound). The hub stays
    /// dormant, at one relaxed atomic check per emit site, until
    /// somebody subscribes.
    pub telemetry: TelemetryConfig,
    /// Admission control: queue bound, per-tenant weights and quotas.
    /// Enforced by the checked submit only
    /// ([`CompileService::submit_checked`]); the default is fully
    /// permissive.
    pub admission: AdmissionConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            store: StoreConfig::default(),
            faults: FaultPlan::none(),
            telemetry: TelemetryConfig::default(),
            admission: AdmissionConfig::default(),
        }
    }
}

/// Telemetry configuration (see the crate-level "Observability"
/// section).
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Default capacity of subscription channels
    /// ([`CompileService::subscribe`], [`JobOptions::observe`]). A full
    /// channel drops events (counted on [`EventStream::dropped`])
    /// rather than blocking the emitting worker.
    pub channel_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            channel_capacity: 1024,
        }
    }
}

/// Aggregate service counters (a consistent snapshot). The same type
/// crosses the network: `mbqc-net`'s `Stats` verb encodes it whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs submitted per priority class, indexed like
    /// [`Priority::ALL`] (batch, normal, interactive).
    pub submitted_by_priority: [u64; 3],
    /// Jobs that ran to an end — successfully or with a compile/panic
    /// error. Cancelled and expired jobs are *not* completed; every
    /// submitted job ends up in exactly one of
    /// `completed`/`cancelled`/`expired` once terminal.
    pub completed: u64,
    /// Jobs that returned an error.
    pub failed: u64,
    /// Transient-failure retries: every time a job failed by a worker
    /// panic was reset and re-enqueued under its [`RetryPolicy`]. A
    /// job that panics twice and then succeeds contributes 2 here and
    /// 1 to `completed`.
    pub retries: u64,
    /// Jobs that terminated `Cancelled` (dropped from the queue or
    /// stopped at a task boundary).
    pub cancelled: u64,
    /// Jobs whose deadline lapsed before their next task was popped.
    pub expired: u64,
    /// Stage tasks executed (cache-skipped stages excluded). A job
    /// answered at submit by a resident `Scheduled` artifact runs none;
    /// a full miss runs four.
    pub tasks_executed: u64,
    /// Always 0: concurrent identical submits are ordinary jobs, each
    /// answered at submit or by its own planning task or compile, so
    /// no submit is folded into another. The field keeps its slot in
    /// the `Stats` wire layout for existing readers.
    pub dedup_hits: u64,
    /// Jobs answered by a `Scheduled` artifact (nothing recomputed):
    /// at submit when the artifact is resident in the store's memory
    /// tier, otherwise by the job's planning task (an artifact on the
    /// disk tier, or one published after the submit). Counted once per
    /// job, like `full_compiles`: a retried job is not counted again.
    pub hits_scheduled: u64,
    /// Jobs whose planning task found no `Scheduled` artifact, so the
    /// job ran the full pipeline. Counted once per job.
    pub full_compiles: u64,
    /// Total service latency across *successful* jobs, nanoseconds —
    /// the sum of each job's stage-task execution times, or, for a job
    /// answered at submit by a resident `Scheduled` artifact, of its
    /// submit-time probe (memory-tier read, plus a validating decode
    /// unless the entry is trusted, see [`warm_hit`](Self::warm_hit)).
    /// Queue wait is excluded; failed, cancelled, and expired jobs
    /// contribute nothing (a failed job's partial latency is not a
    /// meaningful service time).
    pub total_latency_ns: u64,
    /// Per-stage execution-latency summaries (p50/p95/p99, ns),
    /// indexed like [`StageKind::ALL`]: one sample per executed stage
    /// task, including the schedule task's artifact publish.
    /// Recorded for every executed stage, whatever the job's eventual
    /// terminal state; panicked executions record nothing. A resident
    /// warm hit runs no task, so the `Transpile` summary times planning
    /// tasks only: misses, and `Scheduled` hits the submit-time probe
    /// could not see.
    pub stage_latency: [Summary; 4],
    /// Queue-wait summary (ns): time from a job's (re-)enqueue to the
    /// pop that ran its next task. One sample per task pop; a parked
    /// retry's wait counts from its promotion back into the ready
    /// queue, not from first submit. A job answered at submit by a
    /// resident `Scheduled` artifact never queues and records none.
    pub queue_wait: Summary,
    /// Warm-hit latency summary (ns): time to answer a job entirely
    /// from a cached `Scheduled` artifact — the submit-time probe for a
    /// resident artifact, otherwise the planning task's duration when
    /// it short-circuits. The cache's serving latency, as opposed to
    /// the compile latencies above. A hit on a trusted memory-tier
    /// entry (written by a stage task, or validated by an earlier hit)
    /// is timed without any decode: the stored bytes are the result.
    /// Only the first hit on an untrusted entry (written through
    /// [`ArtifactStore::put`], or promoted from disk) includes the
    /// validating decode. The result's own decode, on the caller's
    /// `wait`, is not part of the sample.
    pub warm_hit: Summary,
    /// Stage tasks running at snapshot time. 0 on a drained service:
    /// every popped job went back to the queue, to the retry parking
    /// list or to a terminal state (property-tested under cancellation,
    /// expiry and injected panics). The field keeps its name for the
    /// wire format and existing readers.
    pub pool_outstanding: usize,
    /// `true` while the store's disk tier is quarantined by its
    /// circuit breaker (memory-only degraded mode). Mirrors
    /// [`StoreStats::disk_quarantined`] for one-stop health checks.
    pub disk_quarantined: bool,
    /// Artifact-store counters.
    pub store: StoreStats,
    /// Admission-checked submits refused before enqueue
    /// ([`AdmissionError`] — overload, quota, or unmeetable deadline).
    /// Rejected jobs appear in no other counter.
    pub rejected: u64,
    /// Jobs queued or parked (not running) at snapshot time — the
    /// depth [`AdmissionConfig::max_queue_depth`] bounds. Sampled
    /// alongside the counters, not under the same lock.
    pub queue_depth: usize,
    /// Per-tenant submission/in-flight breakdown, sorted by tenant id.
    /// Within one snapshot the in-flight column sums to
    /// `submitted − completed − cancelled − expired` exactly — reading
    /// every counter under one lock is what makes the invariant hold
    /// (hammer-tested against concurrent churn).
    pub tenants: Vec<TenantStat>,
}

impl ServiceStats {
    /// Jobs that completed *successfully* (`completed` minus `failed`)
    /// — the denominator for [`hit_rate`](Self::hit_rate) and
    /// [`mean_latency_ns`](Self::mean_latency_ns), since failed jobs
    /// count as completed but contribute no useful latency and can
    /// never be cache hits.
    #[must_use]
    pub fn succeeded(&self) -> u64 {
        self.completed.saturating_sub(self.failed)
    }

    /// Fraction of *successful* jobs answered entirely from cache
    /// (`hits_scheduled / succeeded`). Failed jobs are excluded from
    /// the denominator: a job that fails cannot have been a
    /// `Scheduled` hit, so including it would understate the cache's
    /// effectiveness on the traffic it can actually serve.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let succeeded = self.succeeded();
        if succeeded == 0 {
            return 0.0;
        }
        self.hits_scheduled as f64 / succeeded as f64
    }

    /// Mean in-worker latency per *successful* job, nanoseconds
    /// (`total_latency_ns / succeeded`). Failed jobs are excluded from
    /// both numerator and denominator — before this was fixed, each
    /// failure silently dragged the mean toward zero because it
    /// inflated the denominator while contributing no latency.
    #[must_use]
    pub fn mean_latency_ns(&self) -> f64 {
        let succeeded = self.succeeded();
        if succeeded == 0 {
            return 0.0;
        }
        self.total_latency_ns as f64 / succeeded as f64
    }
}

/// A pattern's content bytes, shared, and their hash: the part of a
/// job's [`ArtifactKey`] that does not depend on the configuration.
/// The bytes are the pattern's own cached buffer
/// ([`Pattern::content_bytes`]), encoded once per value however often
/// it is submitted.
fn content_of(pattern: &Pattern) -> Content {
    let bytes = pattern.content_bytes();
    let hash = ArtifactKey::pattern_hash(&bytes);
    (bytes, hash)
}

/// Where a submit's pattern comes from.
enum Source<'a> {
    /// An in-process caller's pattern.
    Pattern(Pattern),
    /// A pattern's wire bytes ([`Pattern::to_bytes`]) with their key
    /// material. `decoded` holds the pattern when the memo missed, and
    /// is `None` for a memo hit, whose bytes are decoded only if the
    /// job must compile.
    Wire {
        bytes: &'a [u8],
        content: Content,
        decoded: Option<Pattern>,
    },
}

/// A job's pipeline progress: the latest stage artifact it carries,
/// built on the job's shared pattern. The variant names the next stage
/// task; that task moves the artifact into its stage function and
/// stores the result here.
#[derive(Debug, Default)]
pub(crate) enum Carried {
    /// No task has run yet (or a retry reset the job).
    #[default]
    NotStarted,
    Transpiled(Transpiled<'static>),
    Partitioned(Partitioned<'static>),
    Mapped(Mapped<'static>),
}

impl Carried {
    /// The stage task that consumes the carried artifact.
    pub(crate) fn next_stage(&self) -> StageKind {
        match self {
            Carried::NotStarted => StageKind::Transpile,
            Carried::Transpiled(_) => StageKind::Partition,
            Carried::Partitioned(_) => StageKind::Map,
            Carried::Mapped(_) => StageKind::Schedule,
        }
    }
}

/// Everything a queued job carries: its inputs plus its latest stage
/// artifact.
#[derive(Debug)]
pub(crate) struct JobState {
    /// Shared with every artifact the job builds (never copied).
    pub(crate) pattern: Arc<Pattern>,
    pub(crate) config: DcMbqcConfig,
    pub(crate) priority: Priority,
    /// The submitting tenant ([`JobOptions::tenant`]): routes the
    /// job's queue entries to its fair lane.
    pub(crate) tenant: u32,
    /// The `Scheduled` artifact's key, built at submit and kept across
    /// retries.
    pub(crate) key: ArtifactKey,
    /// Whether the job's planning outcome is counted
    /// (`hits_scheduled` or `full_compiles`): set by its first planning
    /// task and kept across retries, so each job counts once.
    pub(crate) counted: bool,
    /// The latest stage artifact.
    pub(crate) carried: Carried,
    /// Accumulated in-worker execution time of this job's tasks.
    pub(crate) latency_ns: u64,
    /// The job's cancellation flag (always present: service-created
    /// when the client did not supply one). Checked at every task
    /// boundary — queue pop, requeue, artifact publish, result
    /// publish — never mid-stage.
    pub(crate) cancel: CancelToken,
    /// Lazy deadline: a pop at or after this instant terminates the
    /// job `Expired` instead of running its task.
    pub(crate) deadline: Option<Instant>,
    /// Retry policy for transient failures (the default never
    /// retries).
    pub(crate) retry: RetryPolicy,
    /// 1-based attempt currently running.
    pub(crate) attempt: u32,
    /// Live attempt counter shared with the result table, so
    /// [`CompileService::attempts`] can answer while a worker holds
    /// this state.
    pub(crate) attempts: Arc<AtomicU32>,
}

impl JobState {
    /// Resets the job to a fresh pipeline for a retry by dropping its
    /// carried artifact (the failed attempt may have left it
    /// mid-update). Identity (pattern, config, artifact key, priority,
    /// cancellation, deadline) and the accumulated in-worker latency
    /// survive — latency spans attempts.
    fn reset_for_retry(&mut self) {
        self.carried = Carried::NotStarted;
    }
}

/// A ready queue entry: one job with (at least) one runnable stage
/// task. Max-heap order: higher priority first, then submission order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReadyJob {
    pub(crate) priority: Priority,
    pub(crate) seq: u64,
    /// The job's tenant: selects the fair lane (never part of the heap
    /// order).
    pub(crate) tenant: u32,
    /// Push time, for the queue-wait histogram (never part of the heap
    /// order). A parked retry is re-stamped at promotion, so its
    /// sample measures wait since re-entering the ready queue.
    pub(crate) enqueued: Instant,
}

impl ReadyJob {
    /// The entry for a job's next task, stamped now.
    fn new(seq: u64, state: &JobState) -> Self {
        ReadyJob {
            priority: state.priority,
            seq,
            tenant: state.tenant,
            enqueued: Instant::now(),
        }
    }
}

impl Ord for ReadyJob {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for ReadyJob {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for ReadyJob {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for ReadyJob {}

/// A retry waiting out its backoff: the job re-enters the ready queue
/// at `due`.
#[derive(Debug)]
struct ParkedJob {
    due: Instant,
    seq: u64,
    state: JobState,
}

#[derive(Debug, Default)]
pub(crate) struct QueueState {
    /// Ready entries: one weighted-fair class per priority (indexed
    /// like [`Priority::ALL`]), each split into per-tenant FIFO lanes.
    /// May contain *stale* entries whose job was cancelled while
    /// queued (the job is dropped from `jobs` immediately; the lane
    /// entry is skipped lazily at pop — a heap cannot remove from the
    /// middle in O(log n)).
    ready: [FairClass; 3],
    jobs: HashMap<u64, JobState>,
    /// Retries waiting out their backoff. Promoted back into `ready`
    /// by queue pops once due (workers `wait_timeout` until the
    /// earliest parked deadline, so a parked retry never waits on a
    /// client to nudge the queue). Shutdown drains parked retries like
    /// any other queued job.
    parked: Vec<ParkedJob>,
    /// Jobs currently executing a task on some worker (they will come
    /// back to the queue or finish — shutdown must wait for them).
    /// Reported as [`ServiceStats::pool_outstanding`].
    running: usize,
    shutdown: bool,
    /// Tenant fair-share weights.
    weights: TenantWeights,
}

impl QueueState {
    /// Queues a ready entry in its tenant's lane of its priority class.
    fn push_ready(&mut self, entry: ReadyJob) {
        self.ready[entry.priority as usize].push(entry, &self.weights);
    }

    /// Pops the next entry of the highest non-empty priority class, or
    /// `None` when the whole ready queue is empty.
    fn pop_ready(&mut self) -> Option<ReadyJob> {
        self.ready.iter_mut().rev().find_map(FairClass::pop)
    }
}

/// A not-yet-terminal job's client-reachable state.
#[derive(Debug)]
struct PendingJob {
    /// Cancellation flag (so [`CompileService::cancel`] can reach a
    /// job whose state is currently checked out by a worker).
    cancel: CancelToken,
    /// Live attempt counter shared with the job's `JobState`.
    attempts: Arc<AtomicU32>,
    /// The submitting tenant — read back at terminal publish to
    /// release the tenant's in-flight slot.
    tenant: u32,
}

/// A terminal job's result, held until the client takes it.
#[derive(Debug)]
struct DoneJob {
    result: Result<ScheduleBytes, ServiceError>,
    /// Attempts frozen at terminal time.
    attempts: u32,
}

#[derive(Debug, Default)]
struct ResultState {
    /// Submitted jobs that have not reached a terminal state.
    pending: HashMap<JobId, PendingJob>,
    done: HashMap<JobId, DoneJob>,
}

/// A job's own terminal verdict, if its lifecycle already ended:
/// `Cancelled` once its token fired, else `Expired` once its deadline
/// passed.
fn lapsed(seq: u64, cancel: &CancelToken, deadline: Option<Instant>) -> Option<ServiceError> {
    if cancel.is_cancelled() {
        Some(ServiceError::Cancelled(JobId(seq)))
    } else if deadline.is_some_and(|d| Instant::now() >= d) {
        Some(ServiceError::Expired(JobId(seq)))
    } else {
        None
    }
}

#[derive(Debug, Default)]
pub(crate) struct Counters {
    /// Jobs submitted. Counted under this lock (not the id allocator)
    /// so a [`CompileService::stats`] snapshot sees `submitted` and
    /// the terminal counters at one consistent instant —
    /// `completed + cancelled + expired <= submitted` holds in every
    /// snapshot.
    pub(crate) submitted: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) retries: u64,
    pub(crate) cancelled: u64,
    pub(crate) expired: u64,
    pub(crate) submitted_by_priority: [u64; 3],
    pub(crate) tasks_executed: u64,
    pub(crate) hits_scheduled: u64,
    pub(crate) full_compiles: u64,
    pub(crate) total_latency_ns: u64,
    /// Admission-checked submits refused before enqueue.
    pub(crate) rejected: u64,
    /// Per-tenant submissions (keyed by tenant id; tenants appear on
    /// first submit).
    pub(crate) tenant_submitted: HashMap<u32, u64>,
    /// Per-tenant in-flight jobs: incremented at submit, decremented
    /// at terminal publish, both under this lock — so in any snapshot
    /// the values sum to `submitted − completed − cancelled − expired`
    /// exactly (the quota check reads the same map in the same
    /// critical section as its increment, so a quota can never be
    /// oversubscribed by racing submits).
    pub(crate) tenant_in_flight: HashMap<u32, u64>,
}

/// Always-on latency histograms (snapshotted into
/// [`ServiceStats::stage_latency`] & co). Recording is a handful of
/// relaxed atomic adds — cheap enough to run unconditionally, unlike
/// event emission which is gated on [`TelemetryHub::armed`].
#[derive(Debug, Default)]
pub(crate) struct ServiceMetrics {
    /// Stage execution latency, indexed like [`StageKind::ALL`].
    pub(crate) stage: [Histogram; 4],
    /// Enqueue → pop wait.
    pub(crate) queue_wait: Histogram,
    /// `Scheduled`-hit serving latency.
    pub(crate) warm_hit: Histogram,
}

#[derive(Debug)]
pub(crate) struct Shared {
    pub(crate) queue: Mutex<QueueState>,
    pub(crate) queue_cv: Condvar,
    results: Mutex<ResultState>,
    results_cv: Condvar,
    pub(crate) store: ArtifactStore,
    pub(crate) counters: Mutex<Counters>,
    /// Job-id allocator only; the `submitted` *statistic* lives in
    /// [`Counters`] so stats snapshots stay consistent.
    next_id: AtomicU64,
    /// Event fan-out (dormant unless subscribed / recording).
    pub(crate) telemetry: Arc<TelemetryHub>,
    /// Always-on latency histograms.
    pub(crate) metrics: ServiceMetrics,
    /// `> 1` pins each job's inner stage parallelism to one thread
    /// (the worker fleet already saturates the cores).
    pub(crate) workers: usize,
    /// Task-level fault injection (inert in production builds).
    pub(crate) faults: FaultPlan,
    /// Queue bound enforced by admission-checked submits.
    max_queue_depth: Option<usize>,
    /// Tenant → in-flight quota (tenants with no entry are unlimited).
    quotas: HashMap<u32, u64>,
}

impl Shared {
    /// Pops the highest-ranked ready job and takes its state out of
    /// the job table for the duration of one task (at most one worker
    /// ever holds a given job). Returns `None` on drained shutdown.
    ///
    /// This pop is the lazy half of the lifecycle checks: stale heap
    /// entries of jobs already dropped by [`CompileService::cancel`]
    /// are skipped, a popped job whose token fired terminates
    /// `Cancelled`, and a popped job whose deadline lapsed terminates
    /// `Expired` — all without running a stage.
    pub(crate) fn next_job(&self) -> Option<(u64, JobState)> {
        let mut q = lock(&self.queue);
        loop {
            // Promote parked retries whose backoff elapsed. Guarded so
            // the common retry-free pop pays no clock read and no scan.
            if !q.parked.is_empty() {
                let now = Instant::now();
                let mut i = 0;
                while i < q.parked.len() {
                    if q.parked[i].due <= now {
                        let p = q.parked.swap_remove(i);
                        let entry = ReadyJob::new(p.seq, &p.state);
                        q.jobs.insert(p.seq, p.state);
                        q.push_ready(entry);
                    } else {
                        i += 1;
                    }
                }
            }
            if let Some(r) = q.pop_ready() {
                // Stale entry: the job was cancelled while queued (its
                // result is already published).
                let Some(state) = q.jobs.remove(&r.seq) else {
                    continue;
                };
                match lapsed(r.seq, &state.cancel, state.deadline) {
                    None => {
                        q.running += 1;
                        drop(q);
                        self.metrics
                            .queue_wait
                            .record(r.enqueued.elapsed().as_nanos() as u64);
                        return Some((r.seq, state));
                    }
                    Some(err) => {
                        // Terminal without running (the dropped state's
                        // remaining stage tasks die with it): release
                        // the queue lock before touching the
                        // counter/result locks.
                        drop(q);
                        self.finish_dropped(r.seq, err);
                        q = lock(&self.queue);
                    }
                }
            } else {
                if q.shutdown && q.running == 0 && q.parked.is_empty() {
                    return None;
                }
                // With retries parked, sleep only until the earliest
                // one is due — no client nudge required to resume it.
                q = match q.parked.iter().map(|p| p.due).min() {
                    Some(due) => {
                        let timeout = due.saturating_duration_since(Instant::now());
                        wait_timeout(&self.queue_cv, q, timeout).0
                    }
                    None => wait(&self.queue_cv, q),
                };
            }
        }
    }

    /// Returns a job to the queue with its next stage task ready — or,
    /// when its cancellation fired during the task, terminates it
    /// `Cancelled` right here (the task boundary): the job's carried
    /// artifact is dropped with its remaining stages.
    pub(crate) fn requeue(&self, seq: u64, state: JobState) {
        if state.cancel.is_cancelled() {
            self.finish_job(seq, Err(ServiceError::Cancelled(JobId(seq))), 0);
            return;
        }
        let entry = ReadyJob::new(seq, &state);
        let mut q = lock(&self.queue);
        q.jobs.insert(seq, state);
        q.push_ready(entry);
        q.running -= 1;
        drop(q);
        self.queue_cv.notify_all();
    }

    /// Rolls the terminal-state counters and publishes the result
    /// (common tail of every way a job can end). `latency_ns` is the
    /// job's accumulated in-worker latency — folded into
    /// `total_latency_ns` inside the *same* critical section as the
    /// terminal counter, so a [`CompileService::stats`] snapshot can
    /// never observe a completed job without its latency (or the
    /// latency of a job not yet counted completed); the tenant's
    /// in-flight slot is released there too, keeping
    /// `Σ tenant_in_flight == submitted − completed − cancelled −
    /// expired` an invariant of every snapshot.
    fn publish_terminal(
        &self,
        seq: u64,
        result: Result<ScheduleBytes, ServiceError>,
        latency_ns: u64,
    ) {
        // Each job publishes exactly once, and its pending entry is
        // only removed below — so the tenant read here is reliable.
        let tenant = lock(&self.results)
            .pending
            .get(&JobId(seq))
            .map(|p| p.tenant);
        debug_assert!(tenant.is_some(), "terminal publish without pending entry");
        {
            let mut c = lock(&self.counters);
            match &result {
                Err(ServiceError::Cancelled(_)) => c.cancelled += 1,
                Err(ServiceError::Expired(_)) => c.expired += 1,
                Err(_) => {
                    c.completed += 1;
                    c.failed += 1;
                }
                Ok(_) => {
                    c.completed += 1;
                    // Latency counts only for jobs that succeeded —
                    // failed jobs inflate `completed` but would poison
                    // the mean with partial pipelines (see
                    // `ServiceStats::mean_latency_ns`).
                    c.total_latency_ns += latency_ns;
                }
            }
            if let Some(t) = tenant {
                if let Some(v) = c.tenant_in_flight.get_mut(&t) {
                    *v = v.saturating_sub(1);
                }
            }
        }
        // Emit the terminal event *before* publishing the result, and
        // under the results lock: once `wait` returns, the event is
        // already in every subscriber's buffer (and the per-job stream
        // is closed), and a concurrent `CompileService::subscribe`
        // either registers before this emit or sees the job terminal.
        let mut results = lock(&self.results);
        if self.telemetry.armed() {
            let state = match &result {
                Ok(_) => TerminalState::Done,
                Err(ServiceError::Cancelled(_)) => TerminalState::Cancelled,
                Err(ServiceError::Expired(_)) => TerminalState::Expired,
                Err(_) => TerminalState::Failed,
            };
            self.telemetry
                .emit(Some(JobId(seq)), EventKind::Terminal { state });
        }
        let id = JobId(seq);
        let attempts = results
            .pending
            .remove(&id)
            .map_or(1, |p| p.attempts.load(Ordering::Relaxed));
        results.done.insert(id, DoneJob { result, attempts });
        drop(results);
        self.results_cv.notify_all();
    }

    /// Records a job finished by a worker: releases its running slot,
    /// rolls the counters, and publishes the result (which the executor
    /// decides at the final task boundary — a cancel observed there
    /// turns a computed result into `Cancelled`).
    pub(crate) fn finish_job(
        &self,
        seq: u64,
        result: Result<ScheduleBytes, ServiceError>,
        latency_ns: u64,
    ) {
        {
            let mut q = lock(&self.queue);
            q.running -= 1;
        }
        self.queue_cv.notify_all();
        self.publish_terminal(seq, result, latency_ns);
    }

    /// The retry decision point, called by the executor when a job's
    /// task **panicked** ([`ServiceError::Internal`] — the transient
    /// failure class; deterministic `Compile` rejections never come
    /// here). If the job's [`RetryPolicy`] has attempts left and its
    /// cancellation has not fired, the job is reset to a fresh
    /// pipeline and *parked* until its backoff elapses; otherwise the
    /// error is terminal.
    pub(crate) fn retry_or_fail(&self, seq: u64, mut state: JobState, err: ServiceError) {
        debug_assert!(matches!(err, ServiceError::Internal { .. }));
        let exhausted = state.attempt >= state.retry.max_attempts.max(1);
        if exhausted || state.cancel.is_cancelled() {
            self.finish_job(seq, Err(err), state.latency_ns);
            return;
        }
        state.attempt += 1;
        state.attempts.store(state.attempt, Ordering::Relaxed);
        state.reset_for_retry();
        let delay = state.retry.delay_before(state.attempt);
        let due = Instant::now() + delay;
        lock(&self.counters).retries += 1;
        if self.telemetry.armed() {
            self.telemetry.emit(
                Some(JobId(seq)),
                EventKind::RetryScheduled {
                    attempt: state.attempt,
                    delay_ns: delay.as_nanos() as u64,
                },
            );
        }
        let mut q = lock(&self.queue);
        q.parked.push(ParkedJob { due, seq, state });
        q.running -= 1;
        drop(q);
        // Wake every waiter: the earliest parked deadline changed.
        self.queue_cv.notify_all();
    }

    /// Records a job that terminated *without* occupying a running
    /// slot: cancelled while queued, or expired/cancelled at a pop.
    pub(crate) fn finish_dropped(&self, seq: u64, err: ServiceError) {
        self.publish_terminal(seq, Err(err), 0);
    }
}

/// The compilation service. See the [module docs](self) and the
/// architecture section of the [crate docs](crate).
#[derive(Debug)]
pub struct CompileService {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    /// The wire-pattern memo of [`submit_checked`](Self::submit_checked).
    memo: Mutex<PatternMemo>,
}

impl CompileService {
    /// Starts the service: spawns the workers and opens the artifact
    /// store (creating the disk directory if configured).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the disk tier cannot be initialized,
    /// or an [`InvalidInput`](std::io::ErrorKind::InvalidInput) error
    /// for a malformed [`AdmissionConfig`] — a zero tenant weight
    /// (which would starve the tenant's fair lanes forever) or a
    /// duplicate tenant id.
    pub fn new(config: ServiceConfig) -> std::io::Result<Self> {
        let mut seen_tenants = std::collections::HashSet::new();
        for t in &config.admission.tenants {
            if t.weight == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("tenant {} configured with zero weight", t.tenant),
                ));
            }
            if !seen_tenants.insert(t.tenant) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("tenant {} configured twice", t.tenant),
                ));
            }
        }
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            config.workers
        };
        let telemetry = Arc::new(TelemetryHub::new(config.telemetry.channel_capacity));
        let store = ArtifactStore::new(config.store)?;
        // The store emits quarantine transitions through the same hub.
        store.attach_telemetry(Arc::clone(&telemetry));
        let weights = TenantWeights::new(
            config
                .admission
                .tenants
                .iter()
                .map(|t| (t.tenant, u64::from(t.weight))),
        );
        let quotas = config
            .admission
            .tenants
            .iter()
            .filter_map(|t| t.max_in_flight.map(|m| (t.tenant, m)))
            .collect();
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                weights,
                ..QueueState::default()
            }),
            queue_cv: Condvar::new(),
            results: Mutex::new(ResultState::default()),
            results_cv: Condvar::new(),
            store,
            counters: Mutex::new(Counters::default()),
            next_id: AtomicU64::new(0),
            telemetry,
            metrics: ServiceMetrics::default(),
            workers,
            faults: config.faults,
            max_queue_depth: config.admission.max_queue_depth,
            quotas,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("mbqc-worker-{i}"))
                    .spawn(move || executor::stage_loop(&shared))
                    .expect("spawn service worker")
            })
            .collect();
        Ok(Self {
            shared,
            workers: handles,
            memo: Mutex::new(PatternMemo::default()),
        })
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Enqueues one compilation job with default [`JobOptions`]
    /// ([`Priority::Normal`], no deadline, no retries, tenant 0).
    ///
    /// A job whose `Scheduled` artifact is resident in the store's
    /// memory tier is answered inside this call, on the caller's
    /// thread: the stored bytes become the job's result (validated
    /// first if nothing has vouched for them yet), and the job is
    /// already `Done` when the id is returned.
    pub fn submit(&self, pattern: Pattern, config: DcMbqcConfig) -> JobId {
        self.submit_with(pattern, config, JobOptions::default())
            .id()
    }

    /// Enqueues one compilation job with full lifecycle options —
    /// priority, an optional deadline, an optional shared
    /// [`CancelToken`], a retry policy, the tenant, and whether to
    /// observe its events from submission. Infallible: it ignores
    /// [`ServiceConfig::admission`], so an in-process deadline job is
    /// always queued and, if the deadline lapses first, terminates
    /// [`Expired`](ServiceError::Expired). Expiry is lazy — checked at
    /// queue pops, never by a timer — so an expired job costs one pop,
    /// not a stage execution; a job whose *last* task is already
    /// running when the deadline passes still completes.
    ///
    /// A job whose `Scheduled` artifact is resident in the store's
    /// memory tier is answered inside this call, as with
    /// [`submit`](Self::submit), on the caller's thread, and any
    /// observed stream already holds `Submitted`, `CacheHit` and
    /// `Terminal` when the handle is returned. A job whose token
    /// already fired or whose deadline already lapsed is not answered
    /// this way; it still ends `Cancelled` or `Expired`.
    pub fn submit_with(
        &self,
        pattern: Pattern,
        config: DcMbqcConfig,
        options: JobOptions,
    ) -> JobHandle {
        self.submit_inner(Source::Pattern(pattern), config, options, false)
            .expect("admission checks disabled")
    }

    /// Admission-checked submit of a pattern's wire bytes (the output
    /// of [`Pattern::to_bytes`]): enforces [`ServiceConfig::admission`]
    /// — the queue bound, the tenant's in-flight quota, and deadline
    /// feasibility — *before* the job enters the queue. A rejected job
    /// was never enqueued, holds no id, and costs the service nothing
    /// beyond the [`ServiceStats::rejected`] count. This is the submit
    /// the `mbqc-net` front door routes through; the unchecked
    /// [`submit_with`](Self::submit_with) stays infallible for
    /// in-process callers.
    ///
    /// Admission runs before any store read. An admitted job whose
    /// `Scheduled` artifact is resident in the store's memory tier is
    /// then answered inside this call, as with
    /// [`submit_with`](Self::submit_with), on the caller's thread — for
    /// the network front door, the connection's thread.
    ///
    /// The bytes are not decoded when the service has served them
    /// before. A bounded memo maps the wire bytes of patterns that had
    /// a resident hit to their content bytes and hash, the key
    /// material of the job's artifact keys. A submit whose bytes are
    /// memoized (every byte compared) is keyed from the memo, and its
    /// bytes are decoded only if the stored schedule is gone and the
    /// job must compile. Other bytes are decoded and keyed first, and
    /// enter the memo only when that submit is answered from a
    /// resident schedule: bytes that do not decode, and patterns seen
    /// once, never do. The memo holds no decoded pattern, and its
    /// entry count and byte size are bounded by constants.
    ///
    /// # Errors
    ///
    /// The outer `Err` is the [`CodecError`] of bytes that do not
    /// decode to a pattern; nothing was counted or enqueued. The inner
    /// one is the admission verdict: [`AdmissionError::Overloaded`]
    /// when the queue is at its bound,
    /// [`AdmissionError::QuotaExceeded`] when the tenant is at its
    /// in-flight ceiling, [`AdmissionError::DeadlineUnmeetable`] when
    /// the deadline already lapsed or the queue's depth times the
    /// observed per-job stage latency exceeds it.
    pub fn submit_checked(
        &self,
        pattern: &[u8],
        config: DcMbqcConfig,
        options: JobOptions,
    ) -> Result<Result<JobHandle, AdmissionError>, CodecError> {
        let memoized = lock(&self.memo).get(pattern);
        let (content, decoded) = match memoized {
            Some(content) => (content, None),
            None => {
                let decoded = Pattern::from_bytes(pattern)?;
                (content_of(&decoded), Some(decoded))
            }
        };
        let source = Source::Wire {
            bytes: pattern,
            content,
            decoded,
        };
        Ok(self.submit_inner(source, config, options, true))
    }

    fn submit_inner(
        &self,
        source: Source<'_>,
        config: DcMbqcConfig,
        options: JobOptions,
        admission: bool,
    ) -> Result<JobHandle, AdmissionError> {
        let JobOptions {
            priority,
            deadline,
            cancel,
            retry,
            tenant,
            observe,
        } = options;
        if admission {
            // Backpressure and deadline feasibility read the queue
            // depth once, outside the counters lock (the two checks
            // are advisory against racing submits; the quota check
            // below is exact — it shares the increment's critical
            // section).
            let depth = {
                let q = lock(&self.shared.queue);
                q.jobs.len() + q.parked.len()
            };
            if let Some(limit) = self.shared.max_queue_depth {
                if depth >= limit {
                    lock(&self.shared.counters).rejected += 1;
                    return Err(AdmissionError::Overloaded { depth, limit });
                }
            }
            if let Some(budget) = deadline {
                let deadline_ns = budget.as_nanos().min(u128::from(u64::MAX)) as u64;
                // Per-job service-time estimate: the sum of the four
                // stage p95s from the always-on histograms, times the
                // jobs that must drain first (plus this one). No
                // samples yet → estimate 0 → admit optimistically.
                let per_job_ns: u64 = StageKind::ALL
                    .iter()
                    .map(|s| self.shared.metrics.stage[s.index()].summary().p95)
                    .sum();
                let estimated_ns = per_job_ns.saturating_mul(depth as u64 + 1);
                if deadline_ns == 0 || estimated_ns > deadline_ns {
                    lock(&self.shared.counters).rejected += 1;
                    return Err(AdmissionError::DeadlineUnmeetable {
                        deadline_ns,
                        estimated_ns,
                    });
                }
            }
        }
        let cancel = cancel.unwrap_or_default();
        let deadline = deadline.map(|d| Instant::now() + d);
        let attempts = Arc::new(AtomicU32::new(1));
        {
            let mut c = lock(&self.shared.counters);
            if admission {
                if let Some(&limit) = self.shared.quotas.get(&tenant) {
                    let in_flight = c.tenant_in_flight.get(&tenant).copied().unwrap_or(0);
                    if in_flight >= limit {
                        c.rejected += 1;
                        return Err(AdmissionError::QuotaExceeded {
                            tenant,
                            in_flight,
                            limit,
                        });
                    }
                }
            }
            c.submitted += 1;
            c.submitted_by_priority[priority as usize] += 1;
            *c.tenant_submitted.entry(tenant).or_insert(0) += 1;
            *c.tenant_in_flight.entry(tenant).or_insert(0) += 1;
        }
        let id = JobId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        lock(&self.shared.results).pending.insert(
            id,
            PendingJob {
                cancel: cancel.clone(),
                attempts: Arc::clone(&attempts),
                tenant,
            },
        );
        // Register the observer and emit `Submitted` before the job
        // becomes poppable, so no event can precede the subscription
        // and `Submitted` is always seq 0.
        let events = observe.then(|| self.shared.telemetry.subscribe(Some(id), None));
        if self.shared.telemetry.armed() {
            self.shared
                .telemetry
                .emit(Some(id), EventKind::Submitted { priority });
        }
        // Keyed on the store's buffer of these content bytes when one is
        // resident, so a pattern compiled under many configurations
        // keeps one copy of its bytes in the memory tier.
        let content = self.shared.store.intern(match &source {
            Source::Pattern(pattern) => content_of(pattern),
            Source::Wire { content, .. } => content.clone(),
        });
        let key = ArtifactKey::with_pattern(
            &config.fingerprint_bytes(),
            Arc::clone(&content.0),
            content.1,
        );
        // Resident warm hit: a `Scheduled` artifact in the memory tier
        // is the whole answer, so the job ends `Done` here, on the
        // submitting thread — no queue entry, worker hand-off or stage
        // task. A job whose token already fired or whose deadline
        // already lapsed skips the probe and meets that verdict at its
        // queue pop, as it would without a stored artifact.
        if lapsed(id.0, &cancel, deadline).is_none() {
            let start = Instant::now();
            if let Some(bytes) = executor::resident_schedule(&self.shared, &key) {
                let elapsed_ns = start.elapsed().as_nanos() as u64;
                self.shared.metrics.warm_hit.record(elapsed_ns);
                lock(&self.shared.counters).hits_scheduled += 1;
                executor::emit_cache_hit(&self.shared, id);
                self.shared.publish_terminal(id.0, Ok(bytes), elapsed_ns);
                if let Source::Wire {
                    bytes,
                    decoded: Some(_),
                    ..
                } = source
                {
                    // `content` is the resident key's buffer, so later
                    // keys built from this entry compare by pointer.
                    lock(&self.memo).insert(bytes, content);
                }
                return Ok(JobHandle { id, events });
            }
        }
        // The job needs its pattern. Shared, never copied: every stage
        // artifact of the job holds a reference count on this one
        // pattern.
        let pattern = Arc::new(match source {
            Source::Pattern(pattern)
            | Source::Wire {
                decoded: Some(pattern),
                ..
            } => pattern,
            Source::Wire { bytes, .. } => Pattern::from_bytes(bytes)
                .expect("memoized wire bytes decoded when they entered the memo"),
        });
        let state = JobState {
            pattern,
            config,
            priority,
            tenant,
            key,
            counted: false,
            carried: Carried::NotStarted,
            latency_ns: 0,
            cancel,
            deadline,
            retry,
            attempt: 1,
            attempts,
        };
        let entry = ReadyJob::new(id.0, &state);
        let mut q = lock(&self.shared.queue);
        q.jobs.insert(id.0, state);
        q.push_ready(entry);
        drop(q);
        self.shared.queue_cv.notify_one();
        Ok(JobHandle { id, events })
    }

    /// Requests cancellation of a job. Returns `true` when the request
    /// was registered before the job reached a terminal state: the job
    /// will terminate [`Cancelled`](ServiceError::Cancelled) — dropped
    /// from the queue immediately if it was waiting, stopped at its
    /// next task boundary if a worker holds it — unless a concurrent
    /// terminal event wins the race: its final task completing, or
    /// its submit answering it from a resident artifact (the job is
    /// then `Done` and its result stays available), or, for a deadline
    /// job, a pop observing the lapsed deadline first (then
    /// [`Expired`](ServiceError::Expired)). Returns `false` for
    /// unknown ids and jobs already in a terminal state: cancelling
    /// those is a no-op, never an error.
    pub fn cancel(&self, id: JobId) -> bool {
        let token = {
            let results = lock(&self.shared.results);
            match results.pending.get(&id) {
                Some(p) => p.cancel.clone(),
                None => return false,
            }
        };
        // Fire the flag first: a worker holding the job observes it at
        // the next task boundary even if the queue no longer knows it.
        token.cancel();
        // Drop the job immediately if it is still queued — in the
        // ready queue or parked between retry attempts (its remaining
        // stage tasks die with the dropped state). Whoever removes the
        // `JobState` publishes the terminal result — here, or the
        // worker/pop that already holds it.
        let queued = {
            let mut q = lock(&self.shared.queue);
            let parked_len = q.parked.len();
            q.parked.retain(|p| p.seq != id.0);
            q.jobs.remove(&id.0).is_some() || q.parked.len() != parked_len
        };
        if queued {
            self.shared
                .finish_dropped(id.0, ServiceError::Cancelled(id));
        }
        true
    }

    /// Blocks until the job reaches a terminal state and takes its
    /// result. A second `wait` on the same id returns
    /// [`ServiceError::UnknownJob`]. The schedule is decoded here, from
    /// the bytes the job finished with ([`ScheduleBytes::decode`]).
    ///
    /// # Errors
    ///
    /// Returns the job's compilation error,
    /// [`ServiceError::Cancelled`] / [`ServiceError::Expired`] for
    /// dropped jobs, or [`ServiceError::UnknownJob`] for ids never
    /// submitted or already taken.
    pub fn wait(&self, id: JobId) -> Result<DistributedSchedule, ServiceError> {
        decoded(
            self.take(id, None)
                .expect("an unbounded wait ends terminal"),
        )
    }

    /// [`wait`](Self::wait) with a timeout: blocks until the job
    /// reaches a terminal state or `timeout` elapses. `None` means the
    /// job is still queued or running — its result is untouched and a
    /// later `wait`/`wait_timeout`/`try_poll` can still take it.
    #[must_use]
    pub fn wait_timeout(
        &self,
        id: JobId,
        timeout: Duration,
    ) -> Option<Result<DistributedSchedule, ServiceError>> {
        self.take(id, Some(timeout)).map(decoded)
    }

    /// [`wait_timeout`](Self::wait_timeout) without the decode: the
    /// job's schedule as the [`ScheduleBytes`] the service vouches for,
    /// shared with its store. A zero `timeout` polls, like
    /// [`try_poll`](Self::try_poll). This is how the network server
    /// answers `Poll` and `Wait` requests: it writes the bytes into its
    /// reply as they are, without decoding or re-encoding them.
    #[must_use]
    pub fn wait_bytes_timeout(
        &self,
        id: JobId,
        timeout: Duration,
    ) -> Option<Result<ScheduleBytes, ServiceError>> {
        self.take(id, Some(timeout))
    }

    /// Attempts the job has used so far: 1 until its first retry,
    /// frozen at the terminal count once the job ends. `None` for ids
    /// never submitted or whose result was already taken.
    #[must_use]
    pub fn attempts(&self, id: JobId) -> Option<u32> {
        let results = lock(&self.shared.results);
        results
            .pending
            .get(&id)
            .map(|p| p.attempts.load(Ordering::Relaxed))
            .or_else(|| results.done.get(&id).map(|d| d.attempts))
    }

    /// Takes the job's result if it already reached a terminal state
    /// (`None` while it is still queued or running).
    #[must_use]
    pub fn try_poll(&self, id: JobId) -> Option<Result<DistributedSchedule, ServiceError>> {
        self.take(id, Some(Duration::ZERO)).map(decoded)
    }

    /// Takes the job's result once it is terminal, waiting at most
    /// `timeout` (`None`: without bound). `None` means the job is still
    /// queued or running; an id that is neither pending nor done is
    /// [`ServiceError::UnknownJob`].
    fn take(
        &self,
        id: JobId,
        timeout: Option<Duration>,
    ) -> Option<Result<ScheduleBytes, ServiceError>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut results = lock(&self.shared.results);
        loop {
            if let Some(r) = results.done.remove(&id) {
                return Some(r.result);
            }
            if !results.pending.contains_key(&id) {
                return Some(Err(ServiceError::UnknownJob(id)));
            }
            results = match deadline {
                None => wait(&self.shared.results_cv, results),
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        return None;
                    }
                    wait_timeout(&self.shared.results_cv, results, remaining).0
                }
            };
        }
    }

    /// Reads an artifact straight out of the service's store — cache
    /// introspection for operational tooling, and how the lifecycle
    /// property tests audit that cancelled jobs published nothing and
    /// that every resident artifact is bit-exact.
    #[must_use]
    pub fn store_get(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        self.shared.store.get(key).map(|bytes| bytes.to_vec())
    }

    /// A consistent snapshot of the service counters.
    ///
    /// Every job counter — `submitted` (and its per-priority split),
    /// the terminal-state counters, hit/compile classification,
    /// `total_latency_ns` — is read in one pass under the single
    /// counter lock every writer uses, so the snapshot is mutually
    /// consistent: `completed + cancelled + expired <= submitted`
    /// holds in any snapshot, with equality exactly when the service
    /// is drained. The latency summaries and store counters are
    /// separate monotone instruments sampled alongside (a histogram
    /// cannot be "torn" — each sample is atomic — but its `count` may
    /// run slightly ahead of or behind the job counters); the queue
    /// depth and running-task gauge are read together under the queue
    /// lock.
    #[must_use]
    pub fn stats(&self) -> ServiceStats {
        let store = self.shared.store.stats();
        let m = &self.shared.metrics;
        let stage_latency = std::array::from_fn(|i| m.stage[i].summary());
        let queue_wait = m.queue_wait.summary();
        let warm_hit = m.warm_hit.summary();
        let (queue_depth, running) = {
            let q = lock(&self.shared.queue);
            (q.jobs.len() + q.parked.len(), q.running)
        };
        let c = lock(&self.shared.counters);
        let mut tenants: Vec<TenantStat> = c
            .tenant_submitted
            .iter()
            .map(|(&tenant, &submitted)| TenantStat {
                tenant,
                submitted,
                in_flight: c.tenant_in_flight.get(&tenant).copied().unwrap_or(0),
            })
            .collect();
        tenants.sort_unstable_by_key(|t| t.tenant);
        ServiceStats {
            submitted: c.submitted,
            submitted_by_priority: c.submitted_by_priority,
            completed: c.completed,
            failed: c.failed,
            retries: c.retries,
            cancelled: c.cancelled,
            expired: c.expired,
            tasks_executed: c.tasks_executed,
            dedup_hits: 0,
            hits_scheduled: c.hits_scheduled,
            full_compiles: c.full_compiles,
            total_latency_ns: c.total_latency_ns,
            stage_latency,
            queue_wait,
            warm_hit,
            pool_outstanding: running,
            disk_quarantined: store.disk_quarantined,
            rejected: c.rejected,
            queue_depth,
            tenants,
            store,
        }
    }

    /// Subscribes to telemetry events from now on: every job's events
    /// plus service-scoped store events when `job` is `None`, or one
    /// job's events when it is `Some` (events emitted before the call
    /// are not replayed — submit with [`JobOptions::observe`] for a
    /// guaranteed-complete stream). `capacity` bounds the channel;
    /// `None` uses [`TelemetryConfig::channel_capacity`]. A per-job
    /// stream closes after delivering the job's
    /// [`EventKind::Terminal`] event; a stream for a job that is not
    /// queued or running (already terminal, or an unknown id) is
    /// closed on return and ends once it has delivered any buffered
    /// events. A service-wide stream closes when the service is
    /// dropped. See the crate-level "Observability" section.
    ///
    /// An open subscription arms the telemetry hub: emit sites go from
    /// one relaxed atomic check to actually constructing and delivering
    /// events. Delivery into the bounded channel never blocks a worker
    /// — on overflow, events are dropped and counted
    /// ([`EventStream::dropped`]).
    #[must_use]
    pub fn subscribe(&self, job: Option<JobId>, capacity: Option<usize>) -> EventStream {
        let stream = self.shared.telemetry.subscribe(job, capacity);
        // Register first, then check: a job whose terminal event was
        // emitted before the registration is no longer pending here
        // (`publish_terminal` emits and unpends under one lock), so
        // the stream can never wait for an event that already passed.
        if let Some(id) = job {
            if !lock(&self.shared.results).pending.contains_key(&id) {
                self.shared.telemetry.unsubscribe(&stream);
            }
        }
        stream
    }
}

/// What a submit returns: the job's id and, when submitted with
/// [`JobOptions::observe`], its event stream. Plain owned data — wait,
/// poll, cancel and count attempts through the id-keyed
/// [`CompileService`] methods.
#[derive(Debug)]
pub struct JobHandle {
    id: JobId,
    events: Option<EventStream>,
}

impl JobHandle {
    /// The job's id (usable with every id-based service method).
    #[must_use]
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Takes the event stream registered at submit: `Some` once for a
    /// job submitted with [`JobOptions::observe`], `None` otherwise.
    pub fn take_events(&mut self) -> Option<EventStream> {
        self.events.take()
    }
}

impl Drop for CompileService {
    /// Drains the queue (queued jobs still complete), then stops the
    /// workers.
    fn drop(&mut self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Every event is emitted (the queue is drained): close the
        // subscription channels so blocked receivers and stream
        // iterators terminate.
        self.shared.telemetry.close();
    }
}

/// A taken result with its schedule decoded, for the in-process API.
fn decoded(
    result: Result<ScheduleBytes, ServiceError>,
) -> Result<DistributedSchedule, ServiceError> {
    result.map(|bytes| bytes.decode())
}

/// Builds the [`ServiceError::Internal`] for a caught worker panic.
pub(crate) fn internal_error(
    stage: StageKind,
    panic: &Box<dyn std::any::Any + Send>,
) -> ServiceError {
    ServiceError::Internal {
        stage,
        message: panic_message(panic),
    }
}

/// Renders a panic payload for [`ServiceError::Internal`].
///
/// `panic!` payloads are strings and render verbatim. For
/// [`panic_any`](std::panic::panic_any) payloads the true type name is
/// unrecoverable from a `dyn Any`, so known service types are
/// downcast and rendered with their type name — notably
/// [`InjectedFault`](crate::fault::InjectedFault), so chaos-test
/// failures are self-describing — and anything else falls back to the
/// payload's opaque [`TypeId`](std::any::TypeId).
pub(crate) fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else if let Some(fault) = panic.downcast_ref::<crate::fault::InjectedFault>() {
        format!("{fault} (payload type mbqc_service::fault::InjectedFault)")
    } else {
        format!(
            "non-string panic payload (type id {:?})",
            std::any::Any::type_id(&**panic)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use proptest::prelude::*;

    fn rj(tenant: u32, priority: Priority, seq: u64) -> ReadyJob {
        ReadyJob {
            priority,
            seq,
            tenant,
            enqueued: Instant::now(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// With a single tenant the fair lanes are plain priority-then-
        /// submission order: under any interleaving of pushes and pops
        /// across the three classes, every pop returns the maximum by
        /// (priority desc, seq asc) among the entries still queued.
        #[test]
        fn single_tenant_pops_follow_priority_then_submission_order(
            // Each op is a push into class `v` (v < 3) or a pop (v >= 3)
            // — the vendored proptest shim has no tuple strategies.
            ops in prop::collection::vec(0usize..6, 1..200),
        ) {
            let mut q = QueueState::default();
            let mut queued: Vec<(Priority, u64)> = Vec::new();
            let mut seq = 0;
            for op in ops {
                if op < 3 {
                    let priority = Priority::ALL[op];
                    q.push_ready(rj(0, priority, seq));
                    queued.push((priority, seq));
                    seq += 1;
                } else {
                    let best = queued
                        .iter()
                        .copied()
                        .enumerate()
                        .max_by(|(_, a), (_, b)| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
                        .map(|(i, _)| i);
                    let popped = q.pop_ready().map(|r| (r.priority, r.seq));
                    prop_assert_eq!(popped, best.map(|i| queued.swap_remove(i)));
                }
            }
        }
    }

    /// The queue routes entries through the fair lanes; priority still
    /// dominates across classes, and two equal-weight tenants in one
    /// class interleave.
    #[test]
    fn weighted_fair_queue_interleaves_tenants_and_keeps_priority() {
        let mut q = QueueState::default();
        q.push_ready(rj(0, Priority::Normal, 0));
        q.push_ready(rj(0, Priority::Normal, 1));
        q.push_ready(rj(1, Priority::Normal, 2));
        q.push_ready(rj(1, Priority::Normal, 3));
        q.push_ready(rj(0, Priority::Interactive, 4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_ready())
            .map(|r| r.seq)
            .collect();
        // Interactive first, then Normal alternates tenants 0/1.
        assert_eq!(order, vec![4, 0, 2, 1, 3]);
    }

    /// A zero tenant weight (guaranteed starvation) and a duplicate
    /// tenant entry are configuration errors, rejected at service
    /// construction — not silently accepted.
    #[test]
    fn malformed_admission_config_rejected_at_construction() {
        let bad_weight = ServiceConfig {
            admission: AdmissionConfig {
                tenants: vec![TenantQuota::new(3).with_weight(0)],
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        };
        let err = CompileService::new(bad_weight).expect_err("zero weight must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("tenant 3"), "{err}");

        let duplicate = ServiceConfig {
            admission: AdmissionConfig {
                tenants: vec![TenantQuota::new(7), TenantQuota::new(7).with_weight(2)],
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        };
        let err = CompileService::new(duplicate).expect_err("duplicate tenant must be rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("tenant 7"), "{err}");
    }

    /// Every admission error renders the identifying details a client
    /// needs to react — notably the tenant id on quota rejections.
    #[test]
    fn admission_errors_render_details() {
        let e = AdmissionError::QuotaExceeded {
            tenant: 42,
            in_flight: 8,
            limit: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains("tenant 42"), "{msg}");
        assert!(msg.contains("limit 8"), "{msg}");
        let e = AdmissionError::Overloaded {
            depth: 10,
            limit: 10,
        };
        assert!(e.to_string().contains("limit 10"), "{e}");
        let e = AdmissionError::DeadlineUnmeetable {
            deadline_ns: 5,
            estimated_ns: 9,
        };
        let msg = e.to_string();
        assert!(msg.contains('5') && msg.contains('9'), "{msg}");
    }

    /// The key of a job's `Scheduled` artifact.
    fn key_of(pattern: &Pattern, config: &DcMbqcConfig) -> ArtifactKey {
        let (bytes, hash) = content_of(pattern);
        ArtifactKey::with_pattern(&config.fingerprint_bytes(), bytes, hash)
    }

    /// A job's key is built on the pattern's cached content buffer,
    /// which its clones share; equal inputs give equal keys and hashes,
    /// a one-byte change in the pattern or the configuration gives
    /// unequal ones, and the key is the key [`ArtifactKey::new`] builds
    /// from the same bytes.
    #[test]
    fn stage_keys_share_one_pattern_buffer() {
        use std::hash::BuildHasher;

        use mbqc_circuit::bench;
        use mbqc_hardware::DistributedHardware;
        use mbqc_pattern::transpile::transpile;

        let pattern = transpile(&bench::qft(4));
        let config = DcMbqcConfig::new(DistributedHardware::builder().num_qpus(2).build());
        let key = key_of(&pattern, &config);
        assert!(Arc::ptr_eq(key.pattern_buffer(), &pattern.content_bytes()));
        // A clone's key shares the pattern's cached content buffer.
        let cloned = key_of(&pattern.clone(), &config);
        assert!(Arc::ptr_eq(cloned.pattern_buffer(), key.pattern_buffer()));

        // The key of an equal pattern, transpiled separately (a clone
        // would share the pattern's cached content buffer): equal by
        // bytes, not by pointer.
        let hasher = std::collections::hash_map::RandomState::new();
        let again = key_of(&transpile(&bench::qft(4)), &config.clone());
        assert!(!Arc::ptr_eq(again.pattern_buffer(), key.pattern_buffer()));
        assert_eq!(again, key);
        assert_eq!(hasher.hash_one(&again), hasher.hash_one(&key));

        let pattern_bytes = pattern.content_bytes();
        let config_bytes = config.fingerprint_bytes();
        let direct = ArtifactKey::new(&config_bytes, &pattern_bytes);
        assert_eq!(key, direct);
        assert_eq!(key.fingerprint(), direct.fingerprint());
        assert_eq!(hasher.hash_one(&key), hasher.hash_one(&direct));
        // One byte off in the pattern or the configuration.
        for i in [0, pattern_bytes.len() / 2, pattern_bytes.len() - 1] {
            let mut bytes = pattern_bytes.to_vec();
            bytes[i] ^= 1;
            assert_ne!(key, ArtifactKey::new(&config_bytes, &bytes));
        }
        for i in 0..config_bytes.len() {
            let mut bytes = config_bytes.clone();
            bytes[i] ^= 1;
            assert_ne!(key, ArtifactKey::new(&bytes, &pattern_bytes));
        }
        // A real one-field change: another seed keys the job anew.
        assert_ne!(
            key,
            key_of(&pattern, &config.clone().with_seed(config.seed + 1))
        );
    }

    /// The disk file a real job's key names: a shift here would orphan
    /// every existing artifact directory.
    #[test]
    fn stage_keys_name_pinned_disk_files() {
        use mbqc_circuit::bench;
        use mbqc_hardware::DistributedHardware;
        use mbqc_pattern::transpile::transpile;

        let pattern = transpile(&bench::qft(4));
        let config = DcMbqcConfig::new(DistributedHardware::builder().num_qpus(2).build());
        assert_eq!(
            key_of(&pattern, &config).fingerprint().to_hex(),
            "9beedd8b3dc7a96df0f97cce5e5b73e4"
        );
    }

    /// A `Scheduled` artifact whose stored cost lies (structurally
    /// valid bytes, checksummed by the store as written) is never
    /// served: the warm-hit probes' validating decode rejects it and
    /// the job recompiles to the correct result.
    #[test]
    fn warm_hit_probe_rejects_a_cost_tampered_artifact() {
        use mbqc_circuit::bench;
        use mbqc_hardware::{DistributedHardware, ResourceStateKind};
        use mbqc_pattern::transpile::transpile;

        let pattern = transpile(&bench::qft(6));
        let hw = DistributedHardware::builder()
            .num_qpus(2)
            .grid_width(bench::grid_size_for(6))
            .resource_state(ResourceStateKind::FIVE_STAR)
            .kmax(4)
            .build();
        let config = DcMbqcConfig::new(hw);
        let expected = dc_mbqc::DcMbqcCompiler::new(config.clone())
            .compile_pattern(&pattern)
            .expect("compiles");
        // `makespan` is the third cost word, bytes 16..24.
        let mut tampered = expected.to_bytes();
        let makespan = u64::from_le_bytes(tampered[16..24].try_into().unwrap());
        tampered[16..24].copy_from_slice(&(makespan + 1).to_le_bytes());
        assert!(DistributedSchedule::from_bytes_trusted(&tampered).is_ok());

        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        service
            .shared
            .store
            .put(&key_of(&pattern, &config), tampered);
        let id = service.submit(pattern, config);
        assert_eq!(service.wait(id).expect("job compiles"), expected);
        let stats = service.stats();
        assert_eq!(stats.hits_scheduled, 0, "the lying artifact was served");
        assert_eq!(stats.full_compiles, 1);
    }

    /// A QFT-6 job on two QPUs and its direct compile.
    fn qft6_job() -> (Pattern, DcMbqcConfig, DistributedSchedule) {
        use mbqc_circuit::bench;
        use mbqc_hardware::{DistributedHardware, ResourceStateKind};
        use mbqc_pattern::transpile::transpile;

        let pattern = transpile(&bench::qft(6));
        let hw = DistributedHardware::builder()
            .num_qpus(2)
            .grid_width(bench::grid_size_for(6))
            .resource_state(ResourceStateKind::FIVE_STAR)
            .kmax(4)
            .build();
        let config = DcMbqcConfig::new(hw);
        let expected = dc_mbqc::DcMbqcCompiler::new(config.clone())
            .compile_pattern(&pattern)
            .expect("compiles");
        (pattern, config, expected)
    }

    /// A compiled job's stored schedule sits in an allocation of
    /// exactly its length.
    #[test]
    fn stored_artifacts_carry_no_spare_capacity() {
        let (pattern, config, expected) = qft6_job();
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let id = service.submit(pattern.clone(), config.clone());
        assert_eq!(service.wait(id).expect("job compiles"), expected);
        let value = service
            .shared
            .store
            .get(&key_of(&pattern, &config))
            .expect("stored");
        assert_eq!(value.capacity(), value.len());
    }

    /// A finished miss stores exactly one artifact, its schedule: one
    /// memory-tier entry and, with a disk tier, one `.art` file.
    #[test]
    fn a_finished_miss_stores_one_schedule() {
        let (pattern, config, expected) = qft6_job();
        let dir =
            std::env::temp_dir().join(format!("mbqc-service-test-one-art-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for disk_dir in [None, Some(dir.clone())] {
            let service = CompileService::new(ServiceConfig {
                workers: 1,
                store: StoreConfig {
                    disk_dir: disk_dir.clone(),
                    ..StoreConfig::default()
                },
                ..ServiceConfig::default()
            })
            .expect("service starts");
            let id = service.submit(pattern.clone(), config.clone());
            assert_eq!(service.wait(id).expect("job compiles"), expected);
            let stats = service.stats();
            assert_eq!((stats.full_compiles, stats.store.entries), (1, 1));
            let (bytes, trusted, _) = service
                .shared
                .store
                .get_resident(&key_of(&pattern, &config))
                .expect("the schedule is resident");
            assert!(trusted);
            assert_eq!(*bytes, expected.to_bytes());
            if let Some(dir) = disk_dir {
                let files: Vec<_> = std::fs::read_dir(&dir)
                    .expect("disk tier exists")
                    .map(|e| e.expect("entry").file_name())
                    .collect();
                let name = format!("{}.art", key_of(&pattern, &config).fingerprint().to_hex());
                assert_eq!(files, [std::ffi::OsString::from(name)]);
                assert_eq!(stats.store.disk_entries, 1);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Jobs of one pattern under several seeds, submitted back to back
    /// (a job submitted before the pattern is resident keys its own
    /// copy of the content bytes), leave one content buffer in the
    /// memory tier: the key of every seed is built on it, and a later
    /// submit's key is too.
    #[test]
    fn one_pattern_under_many_seeds_keeps_one_content_buffer() {
        let (pattern, config, _) = qft6_job();
        let service = CompileService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let configs: Vec<DcMbqcConfig> = (0..4).map(|s| config.clone().with_seed(s)).collect();
        let ids: Vec<JobId> = configs
            .iter()
            .map(|c| service.submit(pattern.clone(), c.clone()))
            .collect();
        for id in ids {
            service.wait(id).expect("job compiles");
        }
        let store = &service.shared.store;
        assert_eq!(store.interned_patterns(), 1);
        assert_eq!(store.stats().entries, configs.len());
        let (shared, _) = store.intern(content_of(&pattern));
        for c in &configs {
            let resident = store.resident_key(&key_of(&pattern, c)).expect("resident");
            assert!(Arc::ptr_eq(resident.pattern_buffer(), &shared));
        }
    }

    /// Two patterns one angle bit apart, submitted as wire bytes, are
    /// keyed and stored apart: neither job is the other's hit, and each
    /// keeps its own content buffer.
    #[test]
    fn patterns_one_angle_bit_apart_keep_their_own_buffers() {
        let (pattern, config, expected) = qft6_job();
        let wire = pattern.to_bytes();
        // The angle column follows the framed graph blob.
        let angles = 8 + pattern.graph().encoded_len();
        let mut flipped = wire.clone();
        flipped[angles] ^= 1;
        let twin = Pattern::from_bytes(&flipped).expect("still a pattern");
        assert_ne!(twin, pattern);
        assert_eq!(twin.content_bytes().len(), pattern.content_bytes().len());

        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        for bytes in [&wire, &flipped] {
            let handle = service
                .submit_checked(bytes, config.clone(), JobOptions::default())
                .expect("decodes")
                .expect("admitted");
            service.wait(handle.id()).expect("job compiles");
        }
        assert_eq!(service.stats().full_compiles, 2);
        let store = &service.shared.store;
        assert_eq!(store.interned_patterns(), 2);
        let (a, b) = (
            store.resident_key(&key_of(&pattern, &config)).unwrap(),
            store.resident_key(&key_of(&twin, &config)).unwrap(),
        );
        assert!(!Arc::ptr_eq(a.pattern_buffer(), b.pattern_buffer()));
        let id = service.submit(pattern, config);
        assert_eq!(service.wait(id).expect("served"), expected);
    }

    /// `schedule`'s bytes with the stored makespan (the third cost word)
    /// off by one: structurally valid, semantically a lie.
    fn cost_tampered(schedule: &DistributedSchedule) -> Vec<u8> {
        let mut bytes = schedule.to_bytes();
        let makespan = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
        bytes[16..24].copy_from_slice(&(makespan + 1).to_le_bytes());
        assert!(DistributedSchedule::from_bytes_trusted(&bytes).is_ok());
        assert!(DistributedSchedule::from_bytes(&bytes).is_err());
        bytes
    }

    /// The schedule task stores its bytes trusted, and a hit on them is
    /// served without a decode. A public `put` over the same key drops
    /// that trust: the lying bytes it writes are validated, rejected,
    /// and replaced by a recompile.
    #[test]
    fn put_over_a_trusted_schedule_is_validated_again() {
        let (pattern, config, expected) = qft6_job();
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let key = key_of(&pattern, &config);
        let resident = || service.shared.store.get_resident(&key).unwrap();
        for round in 0..2 {
            let id = service.submit(pattern.clone(), config.clone());
            assert_eq!(service.wait(id).expect("served"), expected);
            assert_eq!(service.stats().hits_scheduled, round);
            let (bytes, trusted, _) = resident();
            assert!(trusted, "round {round}");
            assert_eq!(*bytes, expected.to_bytes());
        }

        service.shared.store.put(&key, cost_tampered(&expected));
        assert!(!resident().1, "put is untrusted");
        let id = service.submit(pattern.clone(), config.clone());
        assert_eq!(service.wait(id).expect("recompiles"), expected);
        let stats = service.stats();
        assert_eq!(stats.hits_scheduled, 1, "the lying artifact was served");
        assert_eq!(
            (stats.full_compiles, stats.tasks_executed),
            (2, 8),
            "{stats:?}"
        );
        let (bytes, trusted, _) = resident();
        assert!(trusted, "the recompile stored its own bytes");
        assert_eq!(*bytes, expected.to_bytes());
    }

    /// A cost-tampered `Scheduled` artifact on the disk tier (written
    /// through `put`, so its frame checksum holds) is promoted untrusted
    /// and served by no probe: not by the planning task that reads it
    /// off the disk, and not by a submit-time probe that finds it
    /// resident after a disk read promoted it. Each job recompiles from
    /// scratch, and the recompiled schedule is then served from memory.
    #[test]
    fn restart_serves_no_cost_tampered_disk_schedule() {
        let (pattern, config, expected) = qft6_job();
        let dir =
            std::env::temp_dir().join(format!("mbqc-service-test-tampered-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store_config = StoreConfig {
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        };
        let service_config = || ServiceConfig {
            workers: 1,
            store: store_config.clone(),
            ..ServiceConfig::default()
        };
        {
            let cold = CompileService::new(service_config()).expect("service starts");
            let id = cold.submit(pattern.clone(), config.clone());
            assert_eq!(cold.wait(id).expect("compiles"), expected);
        }
        let key = key_of(&pattern, &config);
        let plant_lie = || {
            ArtifactStore::new(store_config.clone())
                .expect("store opens")
                .put(&key, cost_tampered(&expected));
        };
        for promote_first in [false, true] {
            plant_lie();
            let warm = CompileService::new(service_config()).expect("service reopens");
            if promote_first {
                // A disk read promotes the lie into the memory tier, where
                // the submit-time probe finds it.
                assert!(warm.shared.store.get(&key).is_some());
                assert!(!warm.shared.store.get_resident(&key).unwrap().1);
            }
            let id = warm.submit(pattern.clone(), config.clone());
            assert_eq!(warm.wait(id).expect("recompiles"), expected);
            let stats = warm.stats();
            assert_eq!(
                (
                    stats.hits_scheduled,
                    stats.full_compiles,
                    stats.tasks_executed
                ),
                (0, 1, 4),
                "promote_first {promote_first}: {stats:?}"
            );
            let id = warm.submit(pattern.clone(), config.clone());
            assert_eq!(warm.wait(id).expect("served"), expected);
            assert_eq!(warm.stats().hits_scheduled, 1);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_serves_a_disk_schedule_hit_then_a_memory_hit() {
        use mbqc_circuit::bench;
        use mbqc_hardware::{DistributedHardware, ResourceStateKind};
        use mbqc_pattern::transpile::transpile;

        let pattern = transpile(&bench::qft(6));
        let hw = DistributedHardware::builder()
            .num_qpus(2)
            .grid_width(bench::grid_size_for(6))
            .resource_state(ResourceStateKind::FIVE_STAR)
            .kmax(4)
            .build();
        let config = DcMbqcConfig::new(hw);
        let dir =
            std::env::temp_dir().join(format!("mbqc-service-test-promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let service_config = || ServiceConfig {
            workers: 1,
            store: StoreConfig {
                disk_dir: Some(dir.clone()),
                ..StoreConfig::default()
            },
            ..ServiceConfig::default()
        };
        let expected = {
            let cold = CompileService::new(service_config()).expect("service starts");
            let id = cold.submit(pattern.clone(), config.clone());
            cold.wait(id).expect("job compiles")
        };
        // A fresh service over the populated directory: the first read
        // of the `Schedule` artifact is a disk hit that promotes it, so
        // the second is a memory hit.
        let warm = CompileService::new(service_config()).expect("service reopens");
        for (round, (disk_hits, memory_hits)) in [(1, 0), (1, 1)].into_iter().enumerate() {
            let id = warm.submit(pattern.clone(), config.clone());
            assert_eq!(warm.wait(id).expect("job is served"), expected);
            let stats = warm.stats();
            assert_eq!(stats.hits_scheduled, round as u64 + 1);
            assert_eq!(stats.full_compiles, 0);
            assert_eq!(
                (stats.store.disk_hits, stats.store.memory_hits),
                (disk_hits, memory_hits),
                "round {round}"
            );
        }
        assert_eq!(warm.stats().store.entries, 1, "only the schedule was read");
        drop(warm);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The offset of the angle column in `Pattern::to_bytes` output:
    /// it follows the length-framed graph blob.
    fn angle_offset(wire: &[u8]) -> usize {
        let mut d = mbqc_util::codec::Decoder::new(wire);
        d.bytes().expect("graph blob");
        wire.len() - d.remaining()
    }

    /// A wire submit through the memo, waited on.
    fn wire_submit(
        service: &CompileService,
        wire: &[u8],
        config: &DcMbqcConfig,
    ) -> DistributedSchedule {
        let handle = service
            .submit_checked(wire, config.clone(), JobOptions::default())
            .expect("pattern decodes")
            .expect("admitted");
        service.wait(handle.id()).expect("job is served")
    }

    #[test]
    fn memo_keeps_equal_length_twins_apart() {
        let (pattern, config, expected) = qft6_job();
        let wire = pattern.to_bytes();
        let mut twin_wire = wire.clone();
        twin_wire[angle_offset(&wire)] ^= 1;
        let twin = Pattern::from_bytes(&twin_wire).expect("twin decodes");
        let twin_expected = dc_mbqc::DcMbqcCompiler::new(config.clone())
            .compile_pattern(&twin)
            .expect("twin compiles");
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        for p in [&pattern, &twin] {
            let id = service.submit(p.clone(), config.clone());
            service.wait(id).expect("cold compile");
        }
        for round in 0..3 {
            for (wire, want) in [(&wire, &expected), (&twin_wire, &twin_expected)] {
                assert_eq!(&wire_submit(&service, wire, &config), want, "round {round}");
            }
        }
        let stats = service.stats();
        assert_eq!((stats.hits_scheduled, stats.full_compiles), (6, 2));
        assert_eq!(lock(&service.memo).len(), 2, "one entry per twin");
    }

    #[test]
    fn memo_hit_whose_schedule_was_evicted_compiles_again() {
        let (pattern, config, expected) = qft6_job();
        let capacity = 4 << 20;
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            store: StoreConfig {
                memory_capacity: capacity,
                ..StoreConfig::default()
            },
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let wire = pattern.to_bytes();
        // Cold compile, then a resident hit that memoizes the bytes.
        for _ in 0..2 {
            assert_eq!(wire_submit(&service, &wire, &config), expected);
        }
        assert_eq!(lock(&service.memo).len(), 1);
        // One artifact that fills the memory tier evicts every other.
        let junk = ArtifactKey::new(b"junk", b"junk");
        service.shared.store.put(&junk, vec![0; capacity - 64]);
        assert_eq!(service.stats().store.entries, 1);

        let before = service.stats();
        assert_eq!(wire_submit(&service, &wire, &config), expected);
        let after = service.stats();
        assert_eq!(after.full_compiles, before.full_compiles + 1);
        assert_eq!(after.hits_scheduled, before.hits_scheduled);
        // The recompiled schedule is resident again and served.
        assert_eq!(wire_submit(&service, &wire, &config), expected);
        assert_eq!(service.stats().hits_scheduled, after.hits_scheduled + 1);
        assert_eq!(lock(&service.memo).len(), 1);
    }

    #[test]
    fn rejected_or_malformed_submits_memoize_nothing() {
        let (pattern, config, expected) = qft6_job();
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            admission: AdmissionConfig {
                tenants: vec![TenantQuota::new(1).with_max_in_flight(0)],
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let id = service.submit(pattern.clone(), config.clone());
        service.wait(id).expect("cold compile");
        let wire = pattern.to_bytes();
        let refused = JobOptions {
            tenant: 1,
            ..JobOptions::default()
        };
        let submit = |options: &JobOptions| {
            service
                .submit_checked(&wire, config.clone(), options.clone())
                .expect("pattern decodes")
        };
        assert!(matches!(
            submit(&refused),
            Err(AdmissionError::QuotaExceeded { tenant: 1, .. })
        ));
        assert_eq!(
            lock(&service.memo).len(),
            0,
            "a refused submit inserts nothing"
        );

        // Bytes that fail to decode: an out-of-range wire successor.
        let n = pattern.node_count();
        let mut malformed = wire.clone();
        let succ = angle_offset(&wire) + 9 * n;
        malformed[succ..succ + 8].copy_from_slice(&(n as u64).to_le_bytes());
        let before = service.stats();
        for _ in 0..2 {
            assert!(service
                .submit_checked(&malformed, config.clone(), JobOptions::default())
                .is_err());
        }
        assert_eq!(service.stats().submitted, before.submitted);
        assert_eq!(
            lock(&service.memo).len(),
            0,
            "malformed bytes are not memoized"
        );

        assert_eq!(wire_submit(&service, &wire, &config), expected);
        assert_eq!(lock(&service.memo).len(), 1);
        assert!(submit(&refused).is_err());
        assert_eq!(lock(&service.memo).len(), 1);
    }

    #[test]
    fn cancel_token_is_shared_and_idempotent() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!t.is_cancelled());
        clone.cancel();
        clone.cancel();
        assert!(t.is_cancelled(), "clones share one flag");
    }
}
