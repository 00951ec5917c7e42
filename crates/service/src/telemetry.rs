//! Telemetry: structured per-job event streams, a bounded-channel
//! subscription fabric, and a Chrome trace-event JSON exporter.
//!
//! The design constraint is **zero cost when nobody is listening**:
//! every emit site in the service does exactly one relaxed atomic load
//! (`TelemetryHub::armed`) before constructing an event. Only when a
//! subscriber exists does an emit
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

use dc_mbqc::StageKind;
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
    /// The artifact store answered the job with its stored schedule.
    CacheHit,
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
}

/// The service-wide telemetry fan-out point.
///
/// Emit sites call [`armed`](Self::armed) (one relaxed atomic load) and
/// construct an event only when it returns `true` — the hub keeps the
/// flag equal to "at least one subscription exists".
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
            .finish()
    }
}

impl TelemetryHub {
    pub(crate) fn new(channel_capacity: usize) -> Self {
        TelemetryHub {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            channel_capacity: channel_capacity.max(1),
            inner: Mutex::new(HubInner {
                subs: Vec::new(),
                job_seq: HashMap::new(),
                service_seq: 0,
            }),
        }
    }

    /// The one relaxed check every emit site performs. `#[inline]` so
    /// the dormant path is a single load+branch.
    #[inline]
    pub(crate) fn armed(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Fans out one event. Callers gate on [`armed`](Self::armed)
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
        let live = !inner.subs.is_empty();
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
/// from a service-wide subscription) as
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
                EventKind::CacheHit => {
                    w.instant("cache hit: schedule", "cache", id, ev.at_ns);
                }
                EventKind::RetryScheduled { attempt, .. } => {
                    w.instant(
                        &format!("retry scheduled (attempt {attempt})"),
                        "retry",
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hub_assigns_gap_free_sequences_and_closes_per_job_streams() {
        let hub = TelemetryHub::new(1024);
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
        while let Some(e) = all.recv_timeout(Duration::ZERO) {
            seen.push(e);
        }
        assert_eq!(seen.len(), 5);
        hub.close();
        assert!(!hub.armed());
        assert_eq!(all.recv(), None);
    }

    #[test]
    fn full_channel_drops_and_dead_receiver_is_pruned() {
        let hub = TelemetryHub::new(1024);
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
}
