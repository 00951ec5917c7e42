//! Shared telemetry plumbing for the service test targets.
//!
//! Two roles:
//!
//! * **Live subscriber** — `MBQC_LIVE_SUBSCRIBER=1` attaches a
//!   service-wide event subscriber to every matrix service and drains
//!   it from a background thread. CI runs the release-mode proptest
//!   matrices in this mode so the armed emit paths (fan-out under the
//!   hub lock, bounded-channel backpressure, terminal auto-close) are
//!   exercised under the same churn the dormant runs pin.
//! * **Flight-recorder dump** — on a failing matrix cell the last
//!   events of the service's flight recorder are printed, giving the
//!   shrunk counterexample a causal event history instead of a bare
//!   assertion message.

#![allow(dead_code)]

use mbqc_service::{CompileService, EventStream};
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

/// Prints the service's flight recorder (most recent events, oldest
/// first) to stderr. Called on matrix-cell failure so the shrunk
/// counterexample carries its own event history.
pub fn dump_flight_recorder(service: &CompileService, what: &str) {
    let events = service.flight_recorder();
    eprintln!(
        "--- flight recorder ({}): {} event(s) ---",
        what,
        events.len()
    );
    for ev in &events {
        eprintln!("  {ev:?}");
    }
    eprintln!("--- end flight recorder ---");
}

/// Wraps a matrix-cell audit: on `Err`, dumps the flight recorder
/// before propagating the failure.
pub fn audited<T, E>(service: &CompileService, what: &str, result: Result<T, E>) -> Result<T, E> {
    if result.is_err() {
        dump_flight_recorder(service, what);
    }
    result
}
