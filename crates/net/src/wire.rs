//! Wire-level request/response/event types and their codecs.
//!
//! Everything here is a hand-rolled reversible binary encoding over
//! [`mbqc_util::codec`] (the build box is offline — no serde), carried
//! in the checksummed frames of [`mbqc_util::frame`]. Decoders treat
//! their input as hostile: every malformed byte sequence returns a
//! typed [`CodecError`], never a panic — the server decodes whatever a
//! TCP peer sends, and the client decodes whatever claims to be a
//! server. See the crate docs for the frame layout and verb table.

use dc_mbqc::{DcMbqcConfig, DistributedSchedule, StageKind};
use mbqc_pattern::Pattern;
use mbqc_service::{
    AdmissionError, EventKind, JobId, JobOptions, Priority, RetryPolicy, ScheduleBytes,
    ServiceError, ServiceStats, StoreStats, TelemetryEvent, TenantStat, TerminalState,
};
use mbqc_util::codec::{CodecError, Decoder, Encoder};
use mbqc_util::frame::{frame_checksum_parts, write_frame, write_frame_parts, FrameError};
use mbqc_util::metrics::Summary;
use std::io::Write;
use std::time::Duration;

/// Frame kind: a client request (payload decodes with
/// [`Request::parse`]).
pub const KIND_REQUEST: u8 = 1;
/// Frame kind: the server's reply to one request (payload decodes with
/// [`Response::from_bytes`]).
pub const KIND_REPLY: u8 = 2;
/// Frame kind: one telemetry event on an open event stream (payload
/// decodes with [`decode_event`]).
pub const KIND_EVENT: u8 = 3;
/// Frame kind: closes an event stream (empty payload); the connection
/// is request/reply again afterwards.
pub const KIND_STREAM_END: u8 = 4;

// ---------------------------------------------------------------------------
// Enum tag helpers
// ---------------------------------------------------------------------------

fn priority_tag(p: Priority) -> u8 {
    match p {
        Priority::Batch => 0,
        Priority::Normal => 1,
        Priority::Interactive => 2,
    }
}

fn priority_from(tag: u8) -> Result<Priority, CodecError> {
    match tag {
        0 => Ok(Priority::Batch),
        1 => Ok(Priority::Normal),
        2 => Ok(Priority::Interactive),
        _ => Err(CodecError::Invalid("unknown priority tag")),
    }
}

fn stage_kind_tag(s: StageKind) -> u8 {
    s.index() as u8
}

fn stage_kind_from(tag: u8) -> Result<StageKind, CodecError> {
    StageKind::ALL
        .get(tag as usize)
        .copied()
        .ok_or(CodecError::Invalid("unknown stage tag"))
}

fn opt_u64(e: &mut Encoder, v: Option<u64>) {
    match v {
        Some(v) => {
            e.bool(true);
            e.u64(v);
        }
        None => e.bool(false),
    }
}

fn opt_u64_from(d: &mut Decoder<'_>) -> Result<Option<u64>, CodecError> {
    Ok(if d.bool()? { Some(d.u64()?) } else { None })
}

fn string(e: &mut Encoder, s: &str) {
    e.bytes(s.as_bytes());
}

fn string_from(d: &mut Decoder<'_>) -> Result<String, CodecError> {
    String::from_utf8(d.bytes()?.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
}

// ---------------------------------------------------------------------------
// Job options on the wire
// ---------------------------------------------------------------------------

/// [`JobOptions`] minus the process-local [`CancelToken`]
/// (remote cancellation goes through [`Request::Cancel`] by id).
///
/// [`CancelToken`]: mbqc_service::CancelToken
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireJobOptions {
    /// Queue priority.
    pub priority: Priority,
    /// Optional deadline, nanoseconds from submit.
    pub deadline_ns: Option<u64>,
    /// Submitting tenant (quota + fair-share identity).
    pub tenant: u32,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
}

impl WireJobOptions {
    /// The equivalent in-process [`JobOptions`]: no cancel token (the
    /// server cancels by id), and not observed (the verb decides that).
    #[must_use]
    pub fn to_job_options(&self) -> JobOptions {
        JobOptions {
            priority: self.priority,
            deadline: self.deadline_ns.map(Duration::from_nanos),
            retry: self.retry,
            tenant: self.tenant,
            ..JobOptions::default()
        }
    }

    fn encode(&self, e: &mut Encoder) {
        e.u8(priority_tag(self.priority));
        opt_u64(e, self.deadline_ns);
        e.u64(u64::from(self.tenant));
        e.u64(u64::from(self.retry.max_attempts));
        e.u64(self.retry.backoff.as_nanos().min(u128::from(u64::MAX)) as u64);
        e.u64(self.retry.max_backoff.as_nanos().min(u128::from(u64::MAX)) as u64);
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let priority = priority_from(d.u8()?)?;
        let deadline_ns = opt_u64_from(d)?;
        let tenant = u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("tenant id"))?;
        let max_attempts =
            u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("retry attempts"))?;
        let backoff = Duration::from_nanos(d.u64()?);
        let max_backoff = Duration::from_nanos(d.u64()?);
        Ok(Self {
            priority,
            deadline_ns,
            tenant,
            retry: RetryPolicy {
                max_attempts: max_attempts.max(1),
                backoff,
                max_backoff,
            },
        })
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One client request (the payload of a [`KIND_REQUEST`] frame).
///
/// `P` is the submit verbs' pattern: a decoded [`Pattern`] by default,
/// or its wire bytes, `&[u8]`, as the server reads it
/// ([`Request::parse`]), so that it can key a repeat pattern without
/// decoding it.
#[derive(Debug, Clone)]
pub enum Request<P = Pattern> {
    /// Submit a job through the admission-checked path; replied with
    /// [`Response::Submitted`] or [`Response::Rejected`].
    Submit {
        /// The measurement pattern to compile.
        pattern: P,
        /// The pipeline configuration.
        config: DcMbqcConfig,
        /// Lifecycle options.
        options: WireJobOptions,
    },
    /// [`Submit`](Self::Submit) + a guaranteed-complete event stream:
    /// after [`Response::Submitted`] the server streams the job's
    /// events as [`KIND_EVENT`] frames (registered *before* the job's
    /// first event, so `Submitted` is seq 0 and the stream is
    /// gap-free) and closes with [`KIND_STREAM_END`] after `Terminal`.
    SubmitObserved {
        /// The measurement pattern to compile.
        pattern: P,
        /// The pipeline configuration.
        config: DcMbqcConfig,
        /// Lifecycle options.
        options: WireJobOptions,
    },
    /// Request cancellation of a job by id; replied with
    /// [`Response::CancelAck`].
    Cancel {
        /// The job to cancel.
        id: u64,
    },
    /// Take the job's result if it is already terminal; replied with
    /// [`Response::Outcome`] or [`Response::Pending`].
    Poll {
        /// The job to poll.
        id: u64,
    },
    /// Block until the job is terminal (bounded by `timeout_ns` when
    /// given) and take its result; replied with [`Response::Outcome`],
    /// or [`Response::Pending`] on timeout.
    Wait {
        /// The job to wait on.
        id: u64,
        /// Optional bound, nanoseconds.
        timeout_ns: Option<u64>,
    },
    /// Snapshot the service counters; replied with
    /// [`Response::Stats`].
    Stats,
    /// Stream a job's events from now on ([`KIND_EVENT`] frames until
    /// [`KIND_STREAM_END`]); replied with [`Response::Subscribed`]
    /// first. Unlike [`SubmitObserved`](Self::SubmitObserved) this
    /// observes from the moment of the request; for a job that is
    /// already terminal or unknown the stream ends at once.
    SubscribeEvents {
        /// The job to observe.
        id: u64,
    },
}

const VERB_SUBMIT: u8 = 0;
const VERB_SUBMIT_OBSERVED: u8 = 1;
const VERB_CANCEL: u8 = 2;
const VERB_POLL: u8 = 3;
const VERB_WAIT: u8 = 4;
const VERB_STATS: u8 = 5;
const VERB_SUBSCRIBE_EVENTS: u8 = 6;

/// A submit verb's request payload as three parts: the verb and the
/// pattern's length prefix, the pattern's wire bytes as the pattern
/// caches them ([`Pattern::wire_bytes`]), and the framed configuration
/// and options. Their concatenation is [`Request::to_bytes`] of a
/// [`Request::Submit`] (or, with `observe`, a
/// [`Request::SubmitObserved`]) holding the same values, built without
/// that request and without encoding the pattern again.
pub(crate) struct SubmitPayload<'a> {
    head: [u8; 9],
    pattern: &'a [u8],
    tail: Vec<u8>,
}

impl<'a> SubmitPayload<'a> {
    pub(crate) fn new(
        observe: bool,
        pattern: &'a Pattern,
        config: &DcMbqcConfig,
        options: &WireJobOptions,
    ) -> Self {
        let pattern = pattern.wire_bytes();
        let mut head = [0u8; 9];
        head[0] = if observe {
            VERB_SUBMIT_OBSERVED
        } else {
            VERB_SUBMIT
        };
        head[1..].copy_from_slice(&(pattern.len() as u64).to_le_bytes());
        let mut tail = Encoder::new();
        tail.bytes(&config.to_bytes());
        options.encode(&mut tail);
        Self {
            head,
            pattern,
            tail: tail.into_bytes(),
        }
    }

    /// The payload's parts, in wire order.
    pub(crate) fn parts(&self) -> [&[u8]; 3] {
        [&self.head, self.pattern, &self.tail]
    }
}

impl Request {
    /// Serializes the request (the payload of a [`KIND_REQUEST`]
    /// frame).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Request::Submit {
                pattern,
                config,
                options,
            }
            | Request::SubmitObserved {
                pattern,
                config,
                options,
            } => {
                let observe = matches!(self, Request::SubmitObserved { .. });
                return SubmitPayload::new(observe, pattern, config, options)
                    .parts()
                    .concat();
            }
            Request::Cancel { id } => {
                e.u8(VERB_CANCEL);
                e.u64(*id);
            }
            Request::Poll { id } => {
                e.u8(VERB_POLL);
                e.u64(*id);
            }
            Request::Wait { id, timeout_ns } => {
                e.u8(VERB_WAIT);
                e.u64(*id);
                opt_u64(&mut e, *timeout_ns);
            }
            Request::Stats => e.u8(VERB_STATS),
            Request::SubscribeEvents { id } => {
                e.u8(VERB_SUBSCRIBE_EVENTS);
                e.u64(*id);
            }
        }
        e.into_bytes()
    }
}

impl<'a> Request<&'a [u8]> {
    /// Decodes a request off the wire as the server reads it: every
    /// field is validated except a submit's pattern, which stays in its
    /// wire bytes (length-checked, borrowed from `bytes`) for the
    /// service to key or decode.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on an unknown verb, a truncated or overlong
    /// payload, or a malformed configuration or options block.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let verb = d.u8()?;
        let req = match verb {
            VERB_SUBMIT | VERB_SUBMIT_OBSERVED => {
                let pattern = d.bytes()?;
                let config = DcMbqcConfig::from_bytes(d.bytes()?)?;
                let options = WireJobOptions::decode(&mut d)?;
                if verb == VERB_SUBMIT {
                    Request::Submit {
                        pattern,
                        config,
                        options,
                    }
                } else {
                    Request::SubmitObserved {
                        pattern,
                        config,
                        options,
                    }
                }
            }
            VERB_CANCEL => Request::Cancel { id: d.u64()? },
            VERB_POLL => Request::Poll { id: d.u64()? },
            VERB_WAIT => Request::Wait {
                id: d.u64()?,
                timeout_ns: opt_u64_from(&mut d)?,
            },
            VERB_STATS => Request::Stats,
            VERB_SUBSCRIBE_EVENTS => Request::SubscribeEvents { id: d.u64()? },
            _ => return Err(CodecError::Invalid("unknown request verb")),
        };
        d.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Terminal outcomes
// ---------------------------------------------------------------------------

/// A job's terminal result in wire form: the status-code ↔
/// terminal-state mapping of the protocol (see the crate docs table).
/// `Ok` carries the full schedule bytes; error variants carry what a
/// remote client needs to mirror [`ServiceError`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireOutcome {
    /// Status 0: terminal `Done` — the compiled schedule (boxed: a
    /// schedule dwarfs every error variant).
    Ok(Box<DistributedSchedule>),
    /// Status 1: terminal `Failed` by a deterministic pipeline
    /// rejection (the rendered [`DcMbqcError`]).
    ///
    /// [`DcMbqcError`]: dc_mbqc::DcMbqcError
    Compile(String),
    /// Status 2: terminal `Cancelled`.
    Cancelled(u64),
    /// Status 3: terminal `Expired`.
    Expired(u64),
    /// Status 4: terminal `Failed` by a worker panic.
    Internal {
        /// The pipeline stage whose task panicked.
        stage: StageKind,
        /// Rendered panic payload.
        message: String,
    },
    /// Status 5: the id was never submitted or its result was already
    /// taken.
    UnknownJob(u64),
}

/// Outcome status 0: terminal `Done`, followed by the schedule bytes.
const STATUS_OK: u8 = 0;

impl WireOutcome {
    /// Wire form of an in-process failure.
    fn from_error(err: ServiceError) -> Self {
        match err {
            ServiceError::Compile(e) => WireOutcome::Compile(e.to_string()),
            ServiceError::Cancelled(id) => WireOutcome::Cancelled(id.as_u64()),
            ServiceError::Expired(id) => WireOutcome::Expired(id.as_u64()),
            ServiceError::Internal { stage, message } => WireOutcome::Internal { stage, message },
            ServiceError::UnknownJob(id) => WireOutcome::UnknownJob(id.as_u64()),
        }
    }

    fn encode(&self, e: &mut Encoder) {
        match self {
            WireOutcome::Ok(s) => {
                e.u8(STATUS_OK);
                e.bytes(&s.to_bytes());
            }
            WireOutcome::Compile(msg) => {
                e.u8(1);
                string(e, msg);
            }
            WireOutcome::Cancelled(id) => {
                e.u8(2);
                e.u64(*id);
            }
            WireOutcome::Expired(id) => {
                e.u8(3);
                e.u64(*id);
            }
            WireOutcome::Internal { stage, message } => {
                e.u8(4);
                // Stage-present flag, always set; decode rejects a
                // frame with it clear.
                e.bool(true);
                e.u8(stage_kind_tag(*stage));
                string(e, message);
            }
            WireOutcome::UnknownJob(id) => {
                e.u8(5);
                e.u64(*id);
            }
        }
    }

    fn decode(d: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(match d.u8()? {
            // The server sends only schedule bytes its service vouches
            // for (computed by a stage task, or validated once by
            // `from_bytes`), and the frame checksum covers transport
            // corruption — so the client skips the semantic
            // cross-checks and pays only the structural decode. All
            // range checks stay: hostile bytes still get a typed error.
            STATUS_OK => WireOutcome::Ok(Box::new(DistributedSchedule::from_bytes_trusted(
                d.bytes()?,
            )?)),
            1 => WireOutcome::Compile(string_from(d)?),
            2 => WireOutcome::Cancelled(d.u64()?),
            3 => WireOutcome::Expired(d.u64()?),
            4 => {
                if !d.bool()? {
                    return Err(CodecError::Invalid("internal outcome without a stage"));
                }
                WireOutcome::Internal {
                    stage: stage_kind_from(d.u8()?)?,
                    message: string_from(d)?,
                }
            }
            5 => WireOutcome::UnknownJob(d.u64()?),
            _ => return Err(CodecError::Invalid("unknown outcome status")),
        })
    }
}

/// Writes the [`KIND_REPLY`] frame answering a `Poll` or `Wait` with a
/// job's taken result. A schedule is spliced in: one gather write of
/// the frame header, the 10-byte outcome prefix (response tag, `Ok`
/// status, the schedule's length) and the service's bytes as they are,
/// with no decode, re-encode or copy. The frame checksum covers prefix
/// and bytes, so it is a function of the stored buffer alone: it is
/// computed the first time that buffer is served and cached with it
/// ([`ScheduleBytes::reply_checksum`]). The frame is byte-identical to
/// one carrying `Response::Outcome(WireOutcome::Ok(schedule)).to_bytes()`.
pub(crate) fn write_outcome<W: Write>(
    w: &mut W,
    result: Result<ScheduleBytes, ServiceError>,
) -> Result<(), FrameError> {
    match result {
        Ok(schedule) => {
            let bytes = schedule.as_bytes();
            let mut prefix = [0u8; 10];
            prefix[0] = RESP_OUTCOME;
            prefix[1] = STATUS_OK;
            prefix[2..].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
            let checksum = schedule.reply_checksum(|bytes| frame_checksum_parts(&[&prefix, bytes]));
            write_frame_parts(w, KIND_REPLY, &[&prefix, bytes], checksum)
        }
        Err(err) => {
            let reply = Response::Outcome(WireOutcome::from_error(err));
            write_frame(w, KIND_REPLY, &reply.to_bytes())
        }
    }
}

// ---------------------------------------------------------------------------
// Admission rejections on the wire
// ---------------------------------------------------------------------------

fn encode_admission(e: &mut Encoder, err: &AdmissionError) {
    match err {
        AdmissionError::Overloaded { depth, limit } => {
            e.u8(0);
            e.u64(*depth as u64);
            e.u64(*limit as u64);
        }
        AdmissionError::QuotaExceeded {
            tenant,
            in_flight,
            limit,
        } => {
            e.u8(1);
            e.u64(u64::from(*tenant));
            e.u64(*in_flight);
            e.u64(*limit);
        }
        AdmissionError::DeadlineUnmeetable {
            deadline_ns,
            estimated_ns,
        } => {
            e.u8(2);
            e.u64(*deadline_ns);
            e.u64(*estimated_ns);
        }
    }
}

fn decode_admission(d: &mut Decoder<'_>) -> Result<AdmissionError, CodecError> {
    Ok(match d.u8()? {
        0 => AdmissionError::Overloaded {
            depth: d.u64()? as usize,
            limit: d.u64()? as usize,
        },
        1 => AdmissionError::QuotaExceeded {
            tenant: u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("tenant id"))?,
            in_flight: d.u64()?,
            limit: d.u64()?,
        },
        2 => AdmissionError::DeadlineUnmeetable {
            deadline_ns: d.u64()?,
            estimated_ns: d.u64()?,
        },
        _ => return Err(CodecError::Invalid("unknown admission status")),
    })
}

// ---------------------------------------------------------------------------
// Stats on the wire
// ---------------------------------------------------------------------------

fn encode_summary(e: &mut Encoder, s: &Summary) {
    e.u64(s.count);
    e.u64(s.sum);
    e.u64(s.p50);
    e.u64(s.p95);
    e.u64(s.p99);
    e.u64(s.max);
}

fn decode_summary(d: &mut Decoder<'_>) -> Result<Summary, CodecError> {
    Ok(Summary {
        count: d.u64()?,
        sum: d.u64()?,
        p50: d.u64()?,
        p95: d.u64()?,
        p99: d.u64()?,
        max: d.u64()?,
    })
}

/// A [`ServiceStats`] snapshot's fields grouped by wire type, in wire
/// order: counters, sizes, flags, latency summaries. Tenant rows travel
/// separately.
type StatsFields<'a> = (
    [&'a mut u64; 25],
    [&'a mut usize; 6],
    [&'a mut bool; 2],
    [&'a mut Summary; 6],
);

/// Splits `s` into its [`StatsFields`] and tenant rows. The
/// destructuring is exhaustive, so a field added to `ServiceStats` or
/// `StoreStats` does not compile until it is put on the wire, and the
/// encoder and decoder share this one field order.
fn stats_fields(s: &mut ServiceStats) -> (StatsFields<'_>, &mut Vec<TenantStat>) {
    let ServiceStats {
        submitted,
        submitted_by_priority: [batch, normal, interactive],
        completed,
        failed,
        retries,
        cancelled,
        expired,
        tasks_executed,
        dedup_hits,
        hits_scheduled,
        full_compiles,
        total_latency_ns,
        stage_latency: [transpile, partition, map, schedule],
        queue_wait,
        warm_hit,
        pool_outstanding,
        disk_quarantined,
        store,
        rejected,
        queue_depth,
        tenants,
    } = s;
    let StoreStats {
        entries,
        bytes,
        evictions,
        memory_hits,
        disk_hits,
        misses,
        disk_writes,
        disk_entries,
        disk_bytes,
        disk_evictions,
        disk_errors,
        disk_corrupt,
        disk_quarantined: store_quarantined,
        disk_quarantines,
        disk_probes,
    } = store;
    let counters = [
        submitted,
        batch,
        normal,
        interactive,
        completed,
        failed,
        retries,
        cancelled,
        expired,
        tasks_executed,
        dedup_hits,
        hits_scheduled,
        full_compiles,
        total_latency_ns,
        rejected,
        evictions,
        memory_hits,
        disk_hits,
        misses,
        disk_writes,
        disk_evictions,
        disk_errors,
        disk_corrupt,
        disk_quarantines,
        disk_probes,
    ];
    let sizes = [
        pool_outstanding,
        queue_depth,
        entries,
        bytes,
        disk_entries,
        disk_bytes,
    ];
    let flags = [disk_quarantined, store_quarantined];
    let summaries = [transpile, partition, map, schedule, queue_wait, warm_hit];
    ((counters, sizes, flags, summaries), tenants)
}

/// Encodes a [`ServiceStats`] snapshot, store counters included (the
/// payload of [`Response::Stats`]).
fn encode_stats(e: &mut Encoder, stats: &ServiceStats) {
    let mut stats = stats.clone();
    let ((counters, sizes, flags, summaries), tenants) = stats_fields(&mut stats);
    for v in counters {
        e.u64(*v);
    }
    for v in sizes {
        e.usize(*v);
    }
    for v in flags {
        e.bool(*v);
    }
    for v in summaries {
        encode_summary(e, v);
    }
    e.usize(tenants.len());
    for t in tenants.iter() {
        e.u64(u64::from(t.tenant));
        e.u64(t.submitted);
        e.u64(t.in_flight);
    }
}

fn decode_stats(d: &mut Decoder<'_>) -> Result<ServiceStats, CodecError> {
    let mut stats = ServiceStats::default();
    let ((counters, sizes, flags, summaries), tenants) = stats_fields(&mut stats);
    for v in counters {
        *v = d.u64()?;
    }
    for v in sizes {
        *v = d.usize()?;
    }
    for v in flags {
        *v = d.bool()?;
    }
    for v in summaries {
        *v = decode_summary(d)?;
    }
    let n = d.len_hint()?;
    tenants.reserve(n);
    let mut prev: Option<u32> = None;
    for _ in 0..n {
        let tenant = u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("tenant id"))?;
        if prev.is_some_and(|p| p >= tenant) {
            return Err(CodecError::Invalid("tenant rows not strictly sorted"));
        }
        prev = Some(tenant);
        tenants.push(TenantStat {
            tenant,
            submitted: d.u64()?,
            in_flight: d.u64()?,
        });
    }
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// One server reply (the payload of a [`KIND_REPLY`] frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted and enqueued.
    Submitted {
        /// The allocated job id.
        id: u64,
    },
    /// The admission-checked submit refused the job (never enqueued).
    Rejected(AdmissionError),
    /// Reply to [`Request::Cancel`]: whether the request registered
    /// before a terminal state.
    CancelAck {
        /// `false` for unknown ids and already-terminal jobs.
        acknowledged: bool,
    },
    /// The job's terminal result (reply to `Poll`/`Wait`; taking it
    /// consumes it server-side, exactly like the in-process `wait`).
    Outcome(WireOutcome),
    /// Not terminal yet: a `Poll` on a live job, or a `Wait` whose
    /// timeout elapsed. The result stays available.
    Pending,
    /// The service's counter snapshot (boxed: a stats block dwarfs
    /// every other reply).
    Stats(Box<ServiceStats>),
    /// The event stream is registered; [`KIND_EVENT`] frames follow.
    Subscribed {
        /// The observed job id.
        id: u64,
    },
    /// The server failed to process the request (rendered reason).
    /// Protocol-level errors (malformed frames) close the connection
    /// instead — after a framing desync nothing later on the stream
    /// can be trusted.
    Error {
        /// What went wrong.
        message: String,
    },
}

const RESP_SUBMITTED: u8 = 0;
const RESP_REJECTED: u8 = 1;
const RESP_CANCEL_ACK: u8 = 2;
const RESP_OUTCOME: u8 = 3;
const RESP_PENDING: u8 = 4;
const RESP_STATS: u8 = 5;
const RESP_SUBSCRIBED: u8 = 6;
const RESP_ERROR: u8 = 7;

impl Response {
    /// Serializes the response (the payload of a [`KIND_REPLY`]
    /// frame).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        match self {
            Response::Submitted { id } => {
                e.u8(RESP_SUBMITTED);
                e.u64(*id);
            }
            Response::Rejected(err) => {
                e.u8(RESP_REJECTED);
                encode_admission(&mut e, err);
            }
            Response::CancelAck { acknowledged } => {
                e.u8(RESP_CANCEL_ACK);
                e.bool(*acknowledged);
            }
            Response::Outcome(outcome) => {
                e.u8(RESP_OUTCOME);
                outcome.encode(&mut e);
            }
            Response::Pending => e.u8(RESP_PENDING),
            Response::Stats(stats) => {
                e.u8(RESP_STATS);
                encode_stats(&mut e, stats);
            }
            Response::Subscribed { id } => {
                e.u8(RESP_SUBSCRIBED);
                e.u64(*id);
            }
            Response::Error { message } => {
                e.u8(RESP_ERROR);
                string(&mut e, message);
            }
        }
        e.into_bytes()
    }

    /// Decodes a response off the wire.
    ///
    /// # Errors
    ///
    /// [`CodecError`] on any malformed payload.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let resp = match d.u8()? {
            RESP_SUBMITTED => Response::Submitted { id: d.u64()? },
            RESP_REJECTED => Response::Rejected(decode_admission(&mut d)?),
            RESP_CANCEL_ACK => Response::CancelAck {
                acknowledged: d.bool()?,
            },
            RESP_OUTCOME => Response::Outcome(WireOutcome::decode(&mut d)?),
            RESP_PENDING => Response::Pending,
            RESP_STATS => Response::Stats(Box::new(decode_stats(&mut d)?)),
            RESP_SUBSCRIBED => Response::Subscribed { id: d.u64()? },
            RESP_ERROR => Response::Error {
                message: string_from(&mut d)?,
            },
            _ => return Err(CodecError::Invalid("unknown response tag")),
        };
        d.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// Telemetry events on the wire
// ---------------------------------------------------------------------------

const EVT_SUBMITTED: u8 = 0;
const EVT_TASK_STARTED: u8 = 1;
const EVT_TASK_FINISHED: u8 = 2;
const EVT_CACHE_HIT: u8 = 3;
// Tag 4 is retired with the event kind it carried: it decodes as an
// unknown tag, and no other tag moves.
const EVT_RETRY_SCHEDULED: u8 = 5;
const EVT_QUARANTINE_OPENED: u8 = 6;
const EVT_QUARANTINE_CLOSED: u8 = 7;
const EVT_TERMINAL: u8 = 8;

fn terminal_tag(s: TerminalState) -> u8 {
    match s {
        TerminalState::Done => 0,
        TerminalState::Failed => 1,
        TerminalState::Cancelled => 2,
        TerminalState::Expired => 3,
    }
}

fn terminal_from(tag: u8) -> Result<TerminalState, CodecError> {
    match tag {
        0 => Ok(TerminalState::Done),
        1 => Ok(TerminalState::Failed),
        2 => Ok(TerminalState::Cancelled),
        3 => Ok(TerminalState::Expired),
        _ => Err(CodecError::Invalid("unknown terminal-state tag")),
    }
}

/// Serializes one [`TelemetryEvent`] (the payload of a [`KIND_EVENT`]
/// frame).
#[must_use]
pub fn encode_event(event: &TelemetryEvent) -> Vec<u8> {
    let mut e = Encoder::new();
    opt_u64(&mut e, event.job.map(JobId::as_u64));
    e.u64(u64::from(event.seq));
    e.u64(event.at_ns);
    match &event.kind {
        EventKind::Submitted { priority } => {
            e.u8(EVT_SUBMITTED);
            e.u8(priority_tag(*priority));
        }
        EventKind::TaskStarted { stage, attempt } => {
            e.u8(EVT_TASK_STARTED);
            e.u8(stage_kind_tag(*stage));
            e.u64(u64::from(*attempt));
        }
        EventKind::TaskFinished {
            stage,
            attempt,
            duration_ns,
        } => {
            e.u8(EVT_TASK_FINISHED);
            e.u8(stage_kind_tag(*stage));
            e.u64(u64::from(*attempt));
            e.u64(*duration_ns);
        }
        EventKind::CacheHit => e.u8(EVT_CACHE_HIT),
        EventKind::RetryScheduled { attempt, delay_ns } => {
            e.u8(EVT_RETRY_SCHEDULED);
            e.u64(u64::from(*attempt));
            e.u64(*delay_ns);
        }
        EventKind::QuarantineOpened => e.u8(EVT_QUARANTINE_OPENED),
        EventKind::QuarantineClosed => e.u8(EVT_QUARANTINE_CLOSED),
        EventKind::Terminal { state } => {
            e.u8(EVT_TERMINAL);
            e.u8(terminal_tag(*state));
        }
    }
    e.into_bytes()
}

/// Decodes one [`TelemetryEvent`] off the wire.
///
/// # Errors
///
/// [`CodecError`] on any malformed payload.
pub fn decode_event(bytes: &[u8]) -> Result<TelemetryEvent, CodecError> {
    let mut d = Decoder::new(bytes);
    let job = opt_u64_from(&mut d)?.map(JobId::from_raw);
    let seq = u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("event seq"))?;
    let at_ns = d.u64()?;
    let kind = match d.u8()? {
        EVT_SUBMITTED => EventKind::Submitted {
            priority: priority_from(d.u8()?)?,
        },
        EVT_TASK_STARTED => EventKind::TaskStarted {
            stage: stage_kind_from(d.u8()?)?,
            attempt: u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("attempt"))?,
        },
        EVT_TASK_FINISHED => EventKind::TaskFinished {
            stage: stage_kind_from(d.u8()?)?,
            attempt: u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("attempt"))?,
            duration_ns: d.u64()?,
        },
        EVT_CACHE_HIT => EventKind::CacheHit,
        EVT_RETRY_SCHEDULED => EventKind::RetryScheduled {
            attempt: u32::try_from(d.u64()?).map_err(|_| CodecError::Invalid("attempt"))?,
            delay_ns: d.u64()?,
        },
        EVT_QUARANTINE_OPENED => EventKind::QuarantineOpened,
        EVT_QUARANTINE_CLOSED => EventKind::QuarantineClosed,
        EVT_TERMINAL => EventKind::Terminal {
            state: terminal_from(d.u8()?)?,
        },
        _ => return Err(CodecError::Invalid("unknown event tag")),
    };
    d.finish()?;
    Ok(TelemetryEvent {
        job,
        seq,
        at_ns,
        kind,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_util::frame::{encode_frame, FRAME_HEADER_LEN};

    fn opts() -> WireJobOptions {
        WireJobOptions {
            priority: Priority::Interactive,
            deadline_ns: Some(5_000_000_000),
            tenant: 9,
            retry: RetryPolicy::attempts(3).with_backoff(Duration::from_millis(7)),
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Cancel { id: 4 },
            Request::Poll { id: 0 },
            Request::Wait {
                id: 17,
                timeout_ns: Some(1_000),
            },
            Request::Wait {
                id: 17,
                timeout_ns: None,
            },
            Request::Stats,
            Request::SubscribeEvents { id: 2 },
        ];
        for req in &reqs {
            let bytes = req.to_bytes();
            let back = Request::parse(&bytes).expect("round trip");
            assert_eq!(format!("{back:?}"), format!("{req:?}"));
        }
    }

    #[test]
    fn job_options_round_trip() {
        let mut e = Encoder::new();
        opts().encode(&mut e);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = WireJobOptions::decode(&mut d).expect("round trip");
        d.finish().expect("no trailing bytes");
        assert_eq!(back, opts());
        let jo = back.to_job_options();
        assert_eq!(jo.priority, Priority::Interactive);
        assert_eq!(jo.deadline, Some(Duration::from_secs(5)));
        assert_eq!(jo.tenant, 9);
        assert_eq!(jo.retry.max_attempts, 3);
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            Response::Submitted { id: 11 },
            Response::Rejected(AdmissionError::QuotaExceeded {
                tenant: 4,
                in_flight: 2,
                limit: 2,
            }),
            Response::Rejected(AdmissionError::Overloaded { depth: 9, limit: 8 }),
            Response::Rejected(AdmissionError::DeadlineUnmeetable {
                deadline_ns: 3,
                estimated_ns: 40,
            }),
            Response::CancelAck { acknowledged: true },
            Response::Outcome(WireOutcome::Cancelled(3)),
            Response::Outcome(WireOutcome::Expired(4)),
            Response::Outcome(WireOutcome::UnknownJob(5)),
            Response::Outcome(WireOutcome::Compile("k too large".into())),
            Response::Outcome(WireOutcome::Internal {
                stage: StageKind::Map,
                message: "boom".into(),
            }),
            Response::Pending,
            Response::Stats(Box::new(ServiceStats {
                submitted: 3,
                pool_outstanding: 2,
                store: StoreStats {
                    entries: 7,
                    disk_corrupt: 1,
                    disk_quarantined: true,
                    ..StoreStats::default()
                },
                tenants: vec![
                    TenantStat {
                        tenant: 1,
                        submitted: 2,
                        in_flight: 1,
                    },
                    TenantStat {
                        tenant: 5,
                        submitted: 1,
                        in_flight: 0,
                    },
                ],
                ..ServiceStats::default()
            })),
            Response::Subscribed { id: 0 },
            Response::Error {
                message: "internal".into(),
            },
        ];
        for resp in &resps {
            let back = Response::from_bytes(&resp.to_bytes()).expect("round trip");
            assert_eq!(&back, resp);
        }
    }

    /// The `Poll`/`Wait` reply spliced from a job's result is
    /// byte-identical to encoding the decoded outcome: for a computed
    /// schedule, for a resident hit on its stored bytes, and for every
    /// error variant.
    #[test]
    fn spliced_outcome_replies_match_the_encoded_outcome() {
        use dc_mbqc::{DcMbqcCompiler, DcMbqcError};
        use mbqc_circuit::bench;
        use mbqc_hardware::{DistributedHardware, ResourceStateKind};
        use mbqc_pattern::transpile::transpile;
        use mbqc_service::{CompileService, ServiceConfig};

        let hw = DistributedHardware::builder()
            .num_qpus(2)
            .grid_width(bench::grid_size_for(5))
            .resource_state(ResourceStateKind::FIVE_STAR)
            .kmax(4)
            .build();
        let config = DcMbqcConfig::new(hw);
        let pattern = transpile(&bench::qft(5));
        let direct = DcMbqcCompiler::new(config.clone())
            .compile_pattern(&pattern)
            .expect("compiles");
        let encoded = Response::Outcome(WireOutcome::Ok(Box::new(direct))).to_bytes();
        let spliced = |result| {
            let mut frame = Vec::new();
            write_outcome(&mut frame, result).expect("a Vec takes every byte");
            frame
        };
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        for hits in 0..3 {
            let id = service.submit(pattern.clone(), config.clone());
            let result = service
                .wait_bytes_timeout(id, Duration::from_secs(300))
                .expect("terminal");
            assert_eq!(service.stats().hits_scheduled, hits);
            assert_eq!(
                spliced(result),
                encode_frame(KIND_REPLY, &encoded),
                "hits {hits}"
            );
        }

        let errors = [
            (
                ServiceError::Compile(DcMbqcError::NoFlow),
                WireOutcome::Compile(DcMbqcError::NoFlow.to_string()),
            ),
            (
                ServiceError::Cancelled(JobId::from_raw(3)),
                WireOutcome::Cancelled(3),
            ),
            (
                ServiceError::Expired(JobId::from_raw(4)),
                WireOutcome::Expired(4),
            ),
            (
                ServiceError::Internal {
                    stage: StageKind::Map,
                    message: "boom".into(),
                },
                WireOutcome::Internal {
                    stage: StageKind::Map,
                    message: "boom".into(),
                },
            ),
            (
                ServiceError::UnknownJob(JobId::from_raw(5)),
                WireOutcome::UnknownJob(5),
            ),
        ];
        for (err, outcome) in errors {
            let what = format!("{err:?}");
            let expected = Response::Outcome(outcome);
            let frame = spliced(Err(err));
            assert_eq!(
                frame,
                encode_frame(KIND_REPLY, &expected.to_bytes()),
                "{what}"
            );
            let payload = &frame[FRAME_HEADER_LEN..];
            assert_eq!(Response::from_bytes(payload).unwrap(), expected, "{what}");
        }
    }

    #[test]
    fn events_round_trip() {
        let kinds = [
            EventKind::Submitted {
                priority: Priority::Batch,
            },
            EventKind::TaskStarted {
                stage: StageKind::Partition,
                attempt: 2,
            },
            EventKind::TaskFinished {
                stage: StageKind::Schedule,
                attempt: 1,
                duration_ns: 123,
            },
            EventKind::CacheHit,
            EventKind::RetryScheduled {
                attempt: 3,
                delay_ns: 10,
            },
            EventKind::QuarantineOpened,
            EventKind::QuarantineClosed,
            EventKind::Terminal {
                state: TerminalState::Expired,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let event = TelemetryEvent {
                job: (i % 2 == 0).then(|| JobId::from_raw(i as u64)),
                seq: i as u32,
                at_ns: 1000 + i as u64,
                kind,
            };
            let back = decode_event(&encode_event(&event)).expect("round trip");
            assert_eq!(back.job, event.job);
            assert_eq!(back.seq, event.seq);
            assert_eq!(back.at_ns, event.at_ns);
            assert_eq!(format!("{:?}", back.kind), format!("{:?}", event.kind));
        }
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            Request::parse(&[200]),
            Err(CodecError::Invalid("unknown request verb"))
        ));
        assert!(matches!(
            Response::from_bytes(&[200]),
            Err(CodecError::Invalid("unknown response tag"))
        ));
        assert!(decode_event(&[0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // The retired event tag 4, framed as its event once was (job,
        // seq, time, tag, then a job id).
        let mut e = Encoder::new();
        opt_u64(&mut e, Some(1));
        e.u64(0);
        e.u64(10);
        e.u8(4);
        e.u64(0);
        assert!(matches!(
            decode_event(&e.into_bytes()),
            Err(CodecError::Invalid("unknown event tag"))
        ));
        assert!(Request::parse(&[]).is_err(), "empty payload");
        assert!(Response::from_bytes(&[]).is_err(), "empty payload");
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Stats.to_bytes();
        bytes.push(0);
        assert!(matches!(
            Request::parse(&bytes),
            Err(CodecError::TrailingBytes)
        ));
    }
}
