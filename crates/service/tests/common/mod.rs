//! Shared telemetry plumbing for the service test targets.
//!
//! Three roles:
//!
//! * **Live subscriber** — `MBQC_LIVE_SUBSCRIBER=1` attaches a
//!   service-wide event subscriber to every matrix service and drains
//!   it from a background thread. CI runs the release-mode proptest
//!   matrices in this mode so the armed emit paths (fan-out under the
//!   hub lock, bounded-channel backpressure, terminal auto-close) are
//!   exercised under the same churn the dormant runs pin.
//! * **Recent-event dump** — [`RecentEvents`] keeps the last events of
//!   a service-wide subscription, and on a failing matrix cell
//!   [`audited`] prints them, giving the shrunk counterexample a causal
//!   event history instead of a bare assertion message.
//! * **Trace schema check** — [`chrome_trace::validate_chrome_trace`]
//!   parses exported Chrome trace JSON and checks its event schema.

#![allow(dead_code)]

pub mod chrome_trace;

use mbqc_service::{CompileService, EventStream, TelemetryEvent};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;

/// Drains an event stream until the service closes it. Receiving in a
/// loop (rather than letting the channel hit its bound) keeps the
/// subscriber "live": every armed emit site runs its fan-out push.
fn drain(stream: EventStream) -> u64 {
    let mut n = 0u64;
    while stream.recv().is_some() {
        n += 1;
    }
    n
}

/// A live service-wide subscriber (when `MBQC_LIVE_SUBSCRIBER` is set
/// in the environment): subscribes *before* any submission and drains
/// from a background thread until the service drops. Returns `None`
/// (and arms nothing) otherwise, keeping the default matrices on the
/// dormant fast path.
pub fn live_subscriber(service: &CompileService) -> Option<JoinHandle<u64>> {
    std::env::var_os("MBQC_LIVE_SUBSCRIBER")?;
    let stream = service.subscribe(None, Some(1 << 14));
    Some(std::thread::spawn(move || drain(stream)))
}

/// The most recent events of one service, oldest first: a service-wide
/// subscription drained into a bounded ring by a background thread
/// until the service drops. Attach it before the first submission. Its
/// subscription keeps the telemetry hub armed, so a matrix that keeps
/// one runs the armed emit paths in every cell.
pub struct RecentEvents {
    ring: Arc<Mutex<VecDeque<TelemetryEvent>>>,
}

impl RecentEvents {
    /// Subscribes to `service` and keeps its last `capacity` events.
    pub fn attach(service: &CompileService, capacity: usize) -> Self {
        let ring = Arc::new(Mutex::new(VecDeque::with_capacity(capacity)));
        let stream = service.subscribe(None, Some(1 << 14));
        let sink = Arc::clone(&ring);
        std::thread::spawn(move || {
            for event in stream {
                let mut ring = sink.lock().unwrap_or_else(PoisonError::into_inner);
                if ring.len() == capacity {
                    ring.pop_front();
                }
                ring.push_back(event);
            }
        });
        Self { ring }
    }
}

/// Wraps a matrix-cell audit: on `Err`, prints the service's recent
/// events to stderr before propagating the failure.
pub fn audited<T, E>(recent: &RecentEvents, what: &str, result: Result<T, E>) -> Result<T, E> {
    if result.is_err() {
        let events = recent.ring.lock().unwrap_or_else(PoisonError::into_inner);
        eprintln!("--- recent events ({what}): {} event(s) ---", events.len());
        for event in events.iter() {
            eprintln!("  {event:?}");
        }
        eprintln!("--- end recent events ---");
    }
    result
}
