//! Flight-recorder telemetry: structured per-job event streams, a
//! bounded-channel subscription fabric, a fixed-capacity ring buffer of
//! recent events, and a Chrome trace-event JSON exporter.
//!
//! The design constraint is **zero cost when nobody is listening**:
//! every emit site in the service does exactly one relaxed atomic load
//! (`TelemetryHub::armed`) before constructing an event. Only when a
//! subscriber exists (or the flight recorder is enabled) does an emit
//! take the hub lock, stamp a monotonic timestamp and a per-job
//! sequence number, and fan the event out. Delivery is strictly
//! non-blocking: a full subscription channel drops the event and counts
//! the drop ([`EventStream::dropped`]); a subscriber that went away is
//! pruned at the next emit. Emitters can therefore never be blocked or
//! leaked by a slow or dead consumer.
//!
//! Ordering guarantee: because sequence numbers are assigned and events
//! delivered under one hub lock, every subscriber observes each job's
//! events in sequence order with no gaps (from the point the
//! subscription existed), ending with exactly one
//! [`EventKind::Terminal`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dc_mbqc::{PipelineStage, StageKind};
use mbqc_util::sync::{lock, wait, wait_timeout};

use crate::service::{JobId, Priority};

/// The terminal state a job's last event reports. Mirrors the service's
/// job lifecycle: every job reaches exactly one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminalState {
    /// Compilation succeeded; the result is (or was) available.
    Done,
    /// Compilation failed (pipeline error or exhausted retries).
    Failed,
    /// The job was cancelled before completing.
    Cancelled,
    /// The job's deadline passed before it ran.
    Expired,
}

impl TerminalState {
    /// Human-readable name, used by trace export and log output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TerminalState::Done => "done",
            TerminalState::Failed => "failed",
            TerminalState::Cancelled => "cancelled",
            TerminalState::Expired => "expired",
        }
    }
}

/// What happened, for one [`TelemetryEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The job entered the queue.
    Submitted {
        /// The job's scheduling class.
        priority: Priority,
    },
    /// A worker started executing one stage task.
    TaskStarted {
        /// The stage being executed.
        stage: StageKind,
        /// 1-based attempt this execution belongs to (> 1 after a
        /// retry — same numbering as `CompileService::attempts`).
        attempt: u32,
    },
    /// The stage task finished (successfully or by handing the job a
    /// failure — panics lose their finish event, which the trace
    /// exporter renders as an unclosed attempt).
    TaskFinished {
        /// The stage that finished.
        stage: StageKind,
        /// 1-based attempt this execution belonged to.
        attempt: u32,
        /// Wall time the task ran, in nanoseconds.
        duration_ns: u64,
    },
    /// The artifact store answered a probe with a reusable stage
    /// artifact (deepest stage reported).
    CacheHit {
        /// The deepest pipeline stage the cached artifact covers.
        stage: PipelineStage,
    },
    /// The job joined a concurrent identical in-flight job instead of
    /// entering the queue (`ServiceConfig::dedup`): it runs zero tasks
    /// and receives a clone of the leader's result at the leader's
    /// terminal event. Emitted right after [`Submitted`](Self::Submitted).
    Deduplicated {
        /// The in-flight job this submit collapsed into.
        leader: JobId,
    },
    /// A transient failure was absorbed by the retry policy; the job
    /// will re-enter the queue after the backoff delay.
    RetryScheduled {
        /// 1-based attempt that will run next (2 on the first retry).
        attempt: u32,
        /// Backoff delay before the job is runnable again.
        delay_ns: u64,
    },
    /// The store's disk-tier circuit breaker opened (service-scoped
    /// event: `job` is `None`).
    QuarantineOpened,
    /// The disk-tier circuit breaker closed after a successful probe
    /// (service-scoped event: `job` is `None`).
    QuarantineClosed,
    /// The job reached its terminal state. Always the last event of a
    /// job's stream; per-job subscriptions close after delivering it.
    Terminal {
        /// Which terminal state.
        state: TerminalState,
    },
}

/// One structured telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// The job this event belongs to; `None` for service-scoped events
    /// (store quarantine transitions).
    pub job: Option<JobId>,
    /// Per-job (or, for service-scoped events, service-wide) sequence
    /// number, starting at 0 and gap-free for the lifetime of the
    /// subscription.
    pub seq: u32,
    /// Monotonic nanoseconds since the service was created.
    pub at_ns: u64,
    /// What happened.
    pub kind: EventKind,
}

// ---------------------------------------------------------------------------
// Bounded subscription channel
// ---------------------------------------------------------------------------

struct ChanState {
    buf: VecDeque<TelemetryEvent>,
    /// Sender side closed (job terminal for per-job streams, or the
    /// service dropped): receivers drain what is buffered, then end.
    closed: bool,
    /// Receiver dropped: the hub prunes this subscription at its next
    /// emit and stops paying for it.
    receiver_gone: bool,
    /// Events discarded because the buffer was full when they arrived.
    dropped: u64,
}

struct Channel {
    state: Mutex<ChanState>,
    cv: Condvar,
    cap: usize,
}

impl Channel {
    fn new(cap: usize) -> Arc<Self> {
        Arc::new(Channel {
            state: Mutex::new(ChanState {
                buf: VecDeque::new(),
                closed: false,
                receiver_gone: false,
                dropped: 0,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        })
    }

    /// Non-blocking send. Returns `false` when the receiver is gone
    /// (the subscription should be pruned).
    fn send(&self, ev: TelemetryEvent) -> bool {
        let mut st = lock(&self.state);
        if st.receiver_gone {
            return false;
        }
        if st.buf.len() >= self.cap {
            st.dropped += 1;
        } else {
            st.buf.push_back(ev);
            self.cv.notify_one();
        }
        true
    }

    fn close(&self) {
        let mut st = lock(&self.state);
        st.closed = true;
        self.cv.notify_all();
    }
}

/// The receiving half of a telemetry subscription (bounded channel).
///
/// Obtained from `CompileService::subscribe` (service-wide or one job)
/// or from a submit with `JobOptions::observe` set (one job, complete
/// from its first event). Iterating the stream yields events
/// until the stream closes: per-job streams close after delivering the
/// job's [`EventKind::Terminal`] event, service-wide streams close when
/// the service is dropped.
///
/// Dropping an `EventStream` never affects the service — the hub prunes
/// the subscription at its next emit.
pub struct EventStream {
    chan: Arc<Channel>,
}

impl std::fmt::Debug for EventStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = lock(&self.chan.state);
        f.debug_struct("EventStream")
            .field("buffered", &st.buf.len())
            .field("closed", &st.closed)
            .field("dropped", &st.dropped)
            .finish()
    }
}

impl EventStream {
    /// Block until the next event arrives, or return `None` once the
    /// stream is closed *and* drained.
    pub fn recv(&self) -> Option<TelemetryEvent> {
        let mut st = lock(&self.chan.state);
        loop {
            if let Some(ev) = st.buf.pop_front() {
                return Some(ev);
            }
            if st.closed {
                return None;
            }
            st = wait(&self.chan.cv, st);
        }
    }

    /// Like [`recv`](Self::recv) but gives up after `timeout`,
    /// returning `None` with events possibly still to come.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<TelemetryEvent> {
        let deadline = Instant::now() + timeout;
        let mut st = lock(&self.chan.state);
        loop {
            if let Some(ev) = st.buf.pop_front() {
                return Some(ev);
            }
            if st.closed {
                return None;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _timed_out) = wait_timeout(&self.chan.cv, st, deadline - now);
            st = guard;
        }
    }

    /// Non-blocking receive: `None` when nothing is buffered right now.
    pub fn try_recv(&self) -> Option<TelemetryEvent> {
        lock(&self.chan.state).buf.pop_front()
    }

    /// Number of events discarded because this subscription's buffer
    /// was full when they arrived. Delivery is lossy by design — a slow
    /// subscriber can never block an emitter.
    pub fn dropped(&self) -> u64 {
        lock(&self.chan.state).dropped
    }

    /// Whether the sender side has closed (job terminal / service
    /// dropped). Buffered events may still be pending.
    pub fn is_closed(&self) -> bool {
        lock(&self.chan.state).closed
    }
}

impl Iterator for EventStream {
    type Item = TelemetryEvent;

    fn next(&mut self) -> Option<TelemetryEvent> {
        self.recv()
    }
}

impl Drop for EventStream {
    fn drop(&mut self) {
        let mut st = lock(&self.chan.state);
        st.receiver_gone = true;
        st.buf.clear();
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// Fixed-capacity ring buffer of the most recent events.
struct FlightRecorder {
    buf: Vec<TelemetryEvent>,
    cap: usize,
    /// Overwrite position once the buffer is full (= index of the
    /// oldest retained event).
    next: usize,
    total: u64,
}

impl FlightRecorder {
    fn new(cap: usize) -> Self {
        FlightRecorder {
            buf: Vec::with_capacity(cap.min(4096)),
            cap,
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, ev: TelemetryEvent) {
        self.total += 1;
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
    }

    fn dump(&self) -> Vec<TelemetryEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }
}

// ---------------------------------------------------------------------------
// Hub
// ---------------------------------------------------------------------------

struct Subscription {
    /// `None` = service-wide; `Some(job)` = that job's events only.
    filter: Option<JobId>,
    chan: Arc<Channel>,
}

struct HubInner {
    subs: Vec<Subscription>,
    /// Next sequence number per live job. Entries are created on a
    /// job's first (observed) event and removed at its terminal event;
    /// the map is cleared outright whenever the hub goes dormant, so it
    /// can never grow without an observer attached.
    job_seq: HashMap<u64, u32>,
    /// Sequence stream for service-scoped (`job: None`) events.
    service_seq: u32,
    recorder: Option<FlightRecorder>,
}

/// The service-wide telemetry fan-out point.
///
/// Emit sites call [`armed`](Self::armed) (one relaxed atomic load) and
/// construct an event only when it returns `true` — the hub keeps the
/// flag equal to "at least one subscription or the flight recorder
/// exists".
pub(crate) struct TelemetryHub {
    enabled: AtomicBool,
    epoch: Instant,
    /// Default bound of subscription channels (overridable per
    /// subscription).
    channel_capacity: usize,
    inner: Mutex<HubInner>,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = lock(&self.inner);
        f.debug_struct("TelemetryHub")
            .field("armed", &self.armed())
            .field("subscriptions", &inner.subs.len())
            .field("recorder", &inner.recorder.is_some())
            .finish()
    }
}

impl TelemetryHub {
    pub(crate) fn new(recorder_capacity: usize, channel_capacity: usize) -> Self {
        TelemetryHub {
            enabled: AtomicBool::new(recorder_capacity > 0),
            epoch: Instant::now(),
            channel_capacity: channel_capacity.max(1),
            inner: Mutex::new(HubInner {
                subs: Vec::new(),
                job_seq: HashMap::new(),
                service_seq: 0,
                recorder: (recorder_capacity > 0).then(|| FlightRecorder::new(recorder_capacity)),
            }),
        }
    }

    /// The one relaxed check every emit site performs. `#[inline]` so
    /// the dormant path is a single load+branch.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Record + fan out one event. Callers gate on [`armed`](Self::armed)
    /// first; calling while dormant is correct but wastes a lock.
    pub(crate) fn emit(&self, job: Option<JobId>, kind: EventKind) {
        let at_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = lock(&self.inner);
        let seq = match job {
            Some(j) => {
                let s = inner.job_seq.entry(j.0).or_insert(0);
                let v = *s;
                *s += 1;
                v
            }
            None => {
                let v = inner.service_seq;
                inner.service_seq += 1;
                v
            }
        };
        let ev = TelemetryEvent {
            job,
            seq,
            at_ns,
            kind,
        };
        if let Some(rec) = inner.recorder.as_mut() {
            rec.push(ev);
        }
        let mut prune = false;
        for sub in &inner.subs {
            if (sub.filter.is_none() || sub.filter == job) && !sub.chan.send(ev) {
                prune = true;
            }
        }
        if let (Some(j), EventKind::Terminal { .. }) = (job, kind) {
            inner.job_seq.remove(&j.0);
            // A job's stream is complete: close its per-job
            // subscriptions so iterators terminate.
            inner.subs.retain(|s| {
                if s.filter == Some(j) {
                    s.chan.close();
                    false
                } else {
                    true
                }
            });
        }
        if prune {
            inner.subs.retain(|s| !lock(&s.chan.state).receiver_gone);
        }
        self.refresh(&mut inner);
    }

    pub(crate) fn subscribe(&self, filter: Option<JobId>, capacity: Option<usize>) -> EventStream {
        let chan = Channel::new(capacity.unwrap_or(self.channel_capacity));
        let mut inner = lock(&self.inner);
        inner.subs.push(Subscription {
            filter,
            chan: Arc::clone(&chan),
        });
        self.enabled.store(true, Ordering::Relaxed);
        EventStream { chan }
    }

    /// Closes one subscription and stops delivering to it: its stream
    /// drains what is buffered, then ends.
    pub(crate) fn unsubscribe(&self, stream: &EventStream) {
        let mut inner = lock(&self.inner);
        inner.subs.retain(|s| !Arc::ptr_eq(&s.chan, &stream.chan));
        stream.chan.close();
        self.refresh(&mut inner);
    }

    /// Snapshot the flight recorder (oldest first). Empty when the
    /// recorder is disabled.
    pub(crate) fn recorder_dump(&self) -> Vec<TelemetryEvent> {
        lock(&self.inner)
            .recorder
            .as_ref()
            .map(FlightRecorder::dump)
            .unwrap_or_default()
    }

    /// Close every subscription (service shutdown): streams drain their
    /// buffers, then iterators end.
    pub(crate) fn close(&self) {
        let mut inner = lock(&self.inner);
        for sub in inner.subs.drain(..) {
            sub.chan.close();
        }
        inner.job_seq.clear();
        self.refresh(&mut inner);
    }

    fn refresh(&self, inner: &mut HubInner) {
        let live = !inner.subs.is_empty() || inner.recorder.is_some();
        if !live {
            // Dormant again: forget per-job sequence state so the map
            // cannot leak across unobserved traffic.
            inner.job_seq.clear();
        }
        self.enabled.store(live, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// ns → trace-format µs with sub-µs precision preserved.
fn push_us(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

struct TraceWriter {
    out: String,
    first: bool,
}

impl TraceWriter {
    fn new() -> Self {
        TraceWriter {
            out: String::from("{\"traceEvents\":["),
            first: true,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn span(&mut self, name: &str, cat: &str, tid: u64, ts_ns: u64, dur_ns: u64, args: &str) {
        self.sep();
        self.out.push_str("{\"name\":");
        push_json_str(&mut self.out, name);
        self.out.push_str(",\"cat\":");
        push_json_str(&mut self.out, cat);
        self.out.push_str(",\"ph\":\"X\",\"pid\":1,\"tid\":");
        self.out.push_str(&tid.to_string());
        self.out.push_str(",\"ts\":");
        push_us(&mut self.out, ts_ns);
        self.out.push_str(",\"dur\":");
        push_us(&mut self.out, dur_ns);
        if !args.is_empty() {
            self.out.push_str(",\"args\":{");
            self.out.push_str(args);
            self.out.push('}');
        }
        self.out.push('}');
    }

    fn instant(&mut self, name: &str, cat: &str, tid: u64, ts_ns: u64) {
        self.sep();
        self.out.push_str("{\"name\":");
        push_json_str(&mut self.out, name);
        self.out.push_str(",\"cat\":");
        push_json_str(&mut self.out, cat);
        self.out
            .push_str(",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":");
        self.out.push_str(&tid.to_string());
        self.out.push_str(",\"ts\":");
        push_us(&mut self.out, ts_ns);
        self.out.push('}');
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.out.push(',');
        }
    }

    fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

/// Render a collection of [`TelemetryEvent`]s (e.g. everything drained
/// from a service-wide subscription, or a flight-recorder dump) as
/// Chrome trace-event JSON — loadable in `chrome://tracing` / Perfetto.
///
/// The span tree is **job → attempt → stage-task**: each job becomes a
/// trace "thread" (`tid` = job id) carrying one job-level span, one
/// span per retry attempt, and one span per stage task (reconstructed
/// from [`EventKind::TaskFinished`] durations). Cache hits and retry
/// scheduling render as instant events; store quarantine transitions
/// render on `tid` 0.
#[must_use]
pub fn chrome_trace_json(events: &[TelemetryEvent]) -> String {
    let mut by_job: Vec<(u64, Vec<&TelemetryEvent>)> = Vec::new();
    let mut service_events: Vec<&TelemetryEvent> = Vec::new();
    for ev in events {
        match ev.job {
            None => service_events.push(ev),
            Some(j) => match by_job.binary_search_by_key(&j.0, |(id, _)| *id) {
                Ok(i) => by_job[i].1.push(ev),
                Err(i) => by_job.insert(i, (j.0, vec![ev])),
            },
        }
    }

    let mut w = TraceWriter::new();
    for (id, mut evs) in by_job {
        evs.sort_by_key(|e| e.seq);
        let start = evs.first().map_or(0, |e| e.at_ns);
        let end = evs.last().map_or(start, |e| e.at_ns);
        let mut args = String::new();
        for ev in &evs {
            match ev.kind {
                EventKind::Submitted { priority } => {
                    args = format!("\"priority\":\"{priority:?}\"");
                }
                EventKind::Terminal { state } => {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    args.push_str(&format!("\"terminal\":\"{}\"", state.name()));
                }
                _ => {}
            }
        }
        w.span(
            &format!("job {id}"),
            "job",
            id,
            start,
            end.saturating_sub(start),
            &args,
        );

        // Attempt spans: bounded by the first/last stage-task event of
        // each attempt (a panicked attempt keeps its started events).
        let mut attempts: Vec<(u32, u64, u64)> = Vec::new(); // (attempt, start, end)
        for ev in &evs {
            let a = match ev.kind {
                EventKind::TaskStarted { attempt, .. }
                | EventKind::TaskFinished { attempt, .. } => attempt,
                _ => continue,
            };
            match attempts.iter_mut().find(|(at, _, _)| *at == a) {
                Some(slot) => {
                    slot.1 = slot.1.min(ev.at_ns);
                    slot.2 = slot.2.max(ev.at_ns);
                }
                None => attempts.push((a, ev.at_ns, ev.at_ns)),
            }
        }
        for (a, s, e) in &attempts {
            w.span(&format!("attempt {a}"), "attempt", id, *s, e - s, "");
        }

        for ev in &evs {
            match ev.kind {
                EventKind::TaskFinished {
                    stage, duration_ns, ..
                } => {
                    w.span(
                        stage.name(),
                        "stage",
                        id,
                        ev.at_ns.saturating_sub(duration_ns),
                        duration_ns,
                        "",
                    );
                }
                EventKind::CacheHit { stage } => {
                    w.instant(
                        &format!("cache hit: {}", stage.name()),
                        "cache",
                        id,
                        ev.at_ns,
                    );
                }
                EventKind::RetryScheduled { attempt, .. } => {
                    w.instant(
                        &format!("retry scheduled (attempt {attempt})"),
                        "retry",
                        id,
                        ev.at_ns,
                    );
                }
                EventKind::Deduplicated { leader } => {
                    w.instant(
                        &format!("deduplicated into job {}", leader.0),
                        "dedup",
                        id,
                        ev.at_ns,
                    );
                }
                _ => {}
            }
        }
    }

    for ev in service_events {
        match ev.kind {
            EventKind::QuarantineOpened => w.instant("quarantine opened", "store", 0, ev.at_ns),
            EventKind::QuarantineClosed => w.instant("quarantine closed", "store", 0, ev.at_ns),
            _ => {}
        }
    }

    w.finish()
}

// ---------------------------------------------------------------------------
// Trace schema validation (hand-rolled JSON — the box is offline)
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum Json {
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
    Str(String),
    Num(f64),
    Bool(#[allow(dead_code)] bool),
    Null,
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.i)
    }

    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.s.get(self.i) else {
                return Err(self.err("unterminated string"));
            };
            self.i += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.s.get(self.i) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Copy the raw UTF-8 byte run for this char.
                    let start = self.i - 1;
                    while self.i < self.s.len() && (self.s[self.i] & 0xc0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i])
                            .map_err(|_| self.err("invalid utf-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

/// Parse `json` and check it against the Chrome trace-event schema the
/// exporter targets: a root object with a `traceEvents` array whose
/// every element has a `name`, a known `ph` (`X` duration span with a
/// non-negative `dur`, or `i` instant), non-negative `ts`, and
/// `pid`/`tid`. Returns the event count.
///
/// Used by CI as the round-trip sanity check on
/// [`chrome_trace_json`] output; also handy for asserting on traces in
/// tests.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let mut p = Parser::new(json);
    let root = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(p.err("trailing garbage"));
    }
    let events = root.get("traceEvents").ok_or("missing traceEvents")?;
    let Json::Arr(events) = events else {
        return Err("traceEvents is not an array".into());
    };
    for (i, ev) in events.iter().enumerate() {
        let ctx = |msg: &str| format!("event {i}: {msg}");
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing name"))?;
        if name.is_empty() {
            return Err(ctx("empty name"));
        }
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("missing ph"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::as_num)
            .ok_or_else(|| ctx("missing ts"))?;
        if ts < 0.0 {
            return Err(ctx("negative ts"));
        }
        for key in ["pid", "tid"] {
            ev.get(key)
                .and_then(Json::as_num)
                .ok_or_else(|| ctx(&format!("missing {key}")))?;
        }
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_num)
                    .ok_or_else(|| ctx("X span missing dur"))?;
                if dur < 0.0 {
                    return Err(ctx("negative dur"));
                }
            }
            "i" => {}
            other => return Err(ctx(&format!("unknown ph {other:?}"))),
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(job: u64, seq: u32, at_ns: u64, kind: EventKind) -> TelemetryEvent {
        TelemetryEvent {
            job: Some(JobId(job)),
            seq,
            at_ns,
            kind,
        }
    }

    #[test]
    fn flight_recorder_keeps_most_recent_in_order() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.push(ev(1, i as u32, i * 100, EventKind::QuarantineOpened));
        }
        let dump = rec.dump();
        assert_eq!(dump.len(), 3);
        assert_eq!(
            dump.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert_eq!(rec.total, 5);
    }

    #[test]
    fn hub_assigns_gap_free_sequences_and_closes_per_job_streams() {
        let hub = TelemetryHub::new(0, 1024);
        assert!(!hub.armed());
        let all = hub.subscribe(None, Some(64));
        let only_two = hub.subscribe(Some(JobId(2)), Some(64));
        assert!(hub.armed());

        for j in [1u64, 2, 1, 2] {
            hub.emit(
                Some(JobId(j)),
                EventKind::Submitted {
                    priority: Priority::Normal,
                },
            );
        }
        hub.emit(
            Some(JobId(2)),
            EventKind::Terminal {
                state: TerminalState::Done,
            },
        );

        let got: Vec<_> = only_two.collect(); // closes at terminal
        assert_eq!(got.len(), 3);
        assert_eq!(got.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert!(got.iter().all(|e| e.job == Some(JobId(2))));

        let mut seen = Vec::new();
        while let Some(e) = all.try_recv() {
            seen.push(e);
        }
        assert_eq!(seen.len(), 5);
        hub.close();
        assert!(!hub.armed());
        assert_eq!(all.recv(), None);
    }

    #[test]
    fn full_channel_drops_and_dead_receiver_is_pruned() {
        let hub = TelemetryHub::new(0, 1024);
        let stream = hub.subscribe(None, Some(2));
        for _ in 0..5 {
            hub.emit(None, EventKind::QuarantineOpened);
        }
        assert_eq!(stream.dropped(), 3);
        drop(stream);
        // Next emit prunes the dead subscription and disarms the hub.
        hub.emit(None, EventKind::QuarantineClosed);
        assert!(!hub.armed());
    }

    #[test]
    fn recorder_keeps_hub_armed() {
        let hub = TelemetryHub::new(8, 1024);
        assert!(hub.armed());
        hub.emit(None, EventKind::QuarantineOpened);
        let s = hub.subscribe(None, Some(4));
        drop(s);
        hub.emit(None, EventKind::QuarantineClosed);
        assert!(hub.armed(), "recorder alone must keep the hub armed");
        assert_eq!(hub.recorder_dump().len(), 2);
    }

    #[test]
    fn trace_export_round_trips_schema_validation() {
        let events = vec![
            ev(
                3,
                0,
                1_000,
                EventKind::Submitted {
                    priority: Priority::Interactive,
                },
            ),
            ev(
                3,
                1,
                2_000,
                EventKind::TaskStarted {
                    stage: StageKind::Transpile,
                    attempt: 0,
                },
            ),
            ev(
                3,
                2,
                9_000,
                EventKind::TaskFinished {
                    stage: StageKind::Transpile,
                    attempt: 0,
                    duration_ns: 7_000,
                },
            ),
            ev(
                3,
                3,
                9_500,
                EventKind::CacheHit {
                    stage: PipelineStage::Schedule,
                },
            ),
            ev(
                3,
                4,
                10_000,
                EventKind::RetryScheduled {
                    attempt: 1,
                    delay_ns: 500,
                },
            ),
            ev(
                3,
                5,
                20_000,
                EventKind::Terminal {
                    state: TerminalState::Done,
                },
            ),
            TelemetryEvent {
                job: None,
                seq: 0,
                at_ns: 5_000,
                kind: EventKind::QuarantineOpened,
            },
        ];
        let json = chrome_trace_json(&events);
        let n = validate_chrome_trace(&json).expect("exporter output must validate");
        // job span + attempt span + stage span + 2 instants + quarantine.
        assert_eq!(n, 6);
        assert!(json.contains("\"terminal\":\"done\""));
        assert!(json.contains("\"priority\":\"Interactive\""));
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_chrome_trace("").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
        assert!(validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Z\",\"ts\":0,\"pid\":1,\"tid\":1}]}"
        )
        .is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":[]} trailing").is_err());
        assert_eq!(
            validate_chrome_trace(
                "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":0.5,\"pid\":1,\"tid\":7}]}"
            ),
            Ok(1)
        );
    }

    #[test]
    fn json_parser_handles_escapes_and_unicode() {
        let doc = "{\"traceEvents\":[{\"name\":\"caf\\u00e9 \\\"x\\\" \\n µs\",\"ph\":\"i\",\"ts\":1e3,\"pid\":1,\"tid\":2}]}";
        assert_eq!(validate_chrome_trace(doc), Ok(1));
    }
}
