//! # mbqc-net — the framed TCP front door for the compilation service
//!
//! Exposes a [`CompileService`] over TCP: a hand-rolled, checksummed,
//! length-prefixed binary protocol (the build environment is offline —
//! no serde, no tonic), a thread-per-connection [`Server`], and a
//! typed blocking [`Client`]. Remote jobs are **bit-identical** to
//! in-process ones — the remote-equivalence test matrix pins loopback
//! submissions against `compile_pattern` across worker counts,
//! tenants, and cache states.
//!
//! ## Frame layout
//!
//! Every message travels in one frame (see [`mbqc_util::frame`]):
//!
//! ```text
//! offset  size  field
//! 0       4     magic       b"MBQ1"
//! 4       1     kind        (table below)
//! 5       4     payload len u32 LE, checked against the 64 MiB cap
//!                           before any allocation
//! 9       8     checksum    u64 LE, low 64 bits of the payload's
//!                           FNV-1a fingerprint
//! 17      len   payload
//! ```
//!
//! | kind | name       | payload                        | direction |
//! |------|------------|--------------------------------|-----------|
//! | 1    | REQUEST    | [`Request`]                    | C → S     |
//! | 2    | REPLY      | [`Response`]                   | S → C     |
//! | 3    | EVENT      | one [`TelemetryEvent`]         | S → C     |
//! | 4    | STREAM_END | empty                          | S → C     |
//!
//! A malformed frame (truncation, bad magic, oversized length, bad
//! checksum) is a **desync**: both sides close the connection. A
//! well-framed payload that fails to decode is a **typed error**: the
//! server answers [`Response::Error`] and the connection stays usable.
//!
//! ## Verbs
//!
//! | tag | verb            | reply                                   |
//! |-----|-----------------|-----------------------------------------|
//! | 0   | Submit          | `Submitted{id}` \| `Rejected(…)`        |
//! | 1   | SubmitObserved  | `Submitted{id}`, then EVENT* STREAM_END |
//! | 2   | Cancel          | `CancelAck{acknowledged}`               |
//! | 3   | Poll            | `Outcome(…)` \| `Pending`               |
//! | 4   | Wait            | `Outcome(…)` \| `Pending` (timeout)     |
//! | 5   | Stats           | `Stats(…)`                              |
//! | 6   | SubscribeEvents | `Subscribed{id}`, then EVENT* STREAM_END|
//!
//! ## Outcome status codes ↔ terminal states
//!
//! | status | [`WireOutcome`] | terminal state | carries            |
//! |--------|-----------------|----------------|--------------------|
//! | 0      | `Ok`            | `Done`         | schedule bytes     |
//! | 1      | `Compile`       | `Failed`       | rendered error     |
//! | 2      | `Cancelled`     | `Cancelled`    | job id             |
//! | 3      | `Expired`       | `Expired`      | job id             |
//! | 4      | `Internal`      | `Failed`       | stage + message    |
//! | 5      | `UnknownJob`    | —              | job id             |
//!
//! Admission rejections (`Rejected`) use their own statuses: 0
//! `Overloaded`, 1 `QuotaExceeded`, 2 `DeadlineUnmeetable` — mirroring
//! [`AdmissionError`](mbqc_service::AdmissionError) field for field.
//!
//! ## Client example
//!
//! ```
//! use std::sync::Arc;
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_net::{Client, Server, WireJobOptions, WireOutcome};
//! use mbqc_pattern::transpile::transpile;
//! use mbqc_service::{CompileService, ServiceConfig};
//!
//! // A service behind a listener on an ephemeral port…
//! let service = Arc::new(CompileService::new(ServiceConfig::default()).unwrap());
//! let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
//!
//! // …and a remote client compiling a pattern through it.
//! let hw = DistributedHardware::builder()
//!     .num_qpus(2)
//!     .grid_width(bench::grid_size_for(6))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let pattern = transpile(&bench::qft(6));
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let id = client
//!     .submit(&pattern, &dc_mbqc::DcMbqcConfig::new(hw), WireJobOptions::default())
//!     .unwrap();
//! match client.wait(id, None).unwrap() {
//!     Some(WireOutcome::Ok(schedule)) => assert!(schedule.execution_time() > 0),
//!     other => panic!("job should compile, got {other:?}"),
//! }
//! drop(server);
//! ```
//!
//! ## Semantics worth pinning
//!
//! * **Jobs are server-scoped.** A disconnect mid-job leaves the job
//!   running; any connection can `Wait`/`Poll`/`Cancel` it by id.
//! * **Results are take-once**, exactly like the in-process API: the
//!   first `Wait`/`Poll` that sees a terminal state consumes the
//!   result, and later calls answer `UnknownJob`.
//! * **`SubmitObserved` streams are gap-free**: the subscription is
//!   registered before the job's first event, so the remote stream is
//!   (seq, kind)-identical to the stream of an in-process submit with
//!   [`JobOptions::observe`](mbqc_service::JobOptions::observe) set —
//!   the equivalence matrix checks this event for event.
//! * **Streaming takes over the connection** until `STREAM_END`;
//!   [`RemoteEvents::finish`] hands the connection back.
//!
//! [`CompileService`]: mbqc_service::CompileService
//! [`TelemetryEvent`]: mbqc_service::TelemetryEvent

pub mod client;
pub mod server;
pub mod wire;

pub use client::{Client, ClientError, RemoteEvents};
pub use server::Server;
pub use wire::{
    decode_event, encode_event, Request, Response, WireJobOptions, WireOutcome, KIND_EVENT,
    KIND_REPLY, KIND_REQUEST, KIND_STREAM_END,
};
