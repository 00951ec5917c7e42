//! Shared utilities for the DC-MBQC workspace.
//!
//! This crate has no external dependencies and provides the building
//! blocks used across every other crate in the workspace:
//!
//! * [`rng`] — deterministic, seedable pseudo-random number generation
//!   (SplitMix64 and Xoshiro256\*\*). All stochastic components of the
//!   compiler (simulated annealing, random benchmark instances, tie
//!   breaking) draw from these generators so that every experiment in the
//!   paper reproduction is bit-for-bit repeatable from a seed.
//! * [`table`] — plain-text / CSV table rendering used by the
//!   `repro` binary to print the paper's tables and figure series.
//! * [`codec`] — the hand-rolled binary encoder/decoder behind every
//!   stage-artifact `to_bytes`/`from_bytes` pair (the build box is
//!   offline, so there is no serde).
//! * [`fingerprint`] — stable 128-bit content hashing for the
//!   content-addressed artifact store of `mbqc-service`.
//! * [`frame`] — checksummed, length-prefixed message frames over byte
//!   streams: the transport layer under the `mbqc-net` wire protocol.
//! * [`metrics`] — atomic counters and fixed-size log-bucketed
//!   histograms with p50/p95/p99 summaries, the offline-box stand-in
//!   for a metrics crate; `mbqc-service` records per-stage latency,
//!   queue wait, and warm-hit latency through them.
//! * [`sync`] — poison-recovering lock/condvar helpers, so one
//!   panicking worker degrades to its own failure instead of
//!   cascading a poisoned mutex through every other worker.
//!
//! # Examples
//!
//! ```
//! use mbqc_util::rng::Rng;
//!
//! let mut rng = Rng::seed_from_u64(42);
//! let x = rng.next_f64();
//! assert!((0.0..1.0).contains(&x));
//! let i = rng.range(10);
//! assert!(i < 10);
//! ```

pub mod codec;
pub mod fingerprint;
pub mod frame;
pub mod metrics;
pub mod rng;
pub mod sync;
pub mod table;

pub use codec::{CodecError, Decoder, Encoder};
pub use fingerprint::Fingerprint;
pub use rng::Rng;
pub use table::TextTable;
