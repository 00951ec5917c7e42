//! # mbqc-service
//!
//! A pipelined compilation service over the DC-MBQC staged pipeline,
//! with a priority-aware stage-task scheduler and a content-addressed
//! stage-artifact cache.
//!
//! # Architecture
//!
//! ## Job → stage-task decomposition
//!
//! A submitted job `(pattern, config, priority)` is not executed as one
//! monolithic pipeline run. The stage-task executor — the service's
//! only execution engine ([`executor`]) — runs it as four stage tasks,
//! each consuming the previous one's artifact,
//!
//! > `Transpile` → `Partition` → `Map` → `Schedule`
//!
//! All jobs' ready tasks sit in one shared priority queue that every
//! worker drains: worker A can partition job 2 while worker B schedules
//! job 1. The service wraps the submitted pattern in an `Arc` once, and
//! between tasks a job carries exactly one thing: its latest stage
//! artifact ([`dc_mbqc::Transpiled`], [`dc_mbqc::Partitioned`] or
//! [`dc_mbqc::Mapped`], built with [`dc_mbqc::Transpiled::shared`] so it
//! owns a reference to the pattern instead of a borrow). The artifact
//! names the next task. That task moves it into the matching stage
//! function ([`dc_mbqc::partition_stage`] & co.), runs on workspaces
//! checked out of a shared [`dc_mbqc::WorkspacePool`], and stores the
//! result. Nothing is rebuilt or copied between tasks; the re-entry
//! constructors ([`dc_mbqc::Partitioned::with_partition`],
//! [`dc_mbqc::Mapped::from_parts`]) run only when a stored artifact
//! answers a stage.
//!
//! ## Priority semantics
//!
//! Jobs carry a [`Priority`] (`Interactive` > `Normal` > `Batch`).
//! The ready-queue pops the highest priority first and submission
//! order within a class. Because the executor schedules *stage tasks*,
//! an interactive job submitted behind a deep batch backlog waits for
//! at most one in-flight task per worker before its own first task
//! runs — it does not wait for whole batch pipelines. Priority never
//! changes any job's result (property-tested), only when it runs.
//!
//! ## Cache re-entry points
//!
//! Production traffic repeats itself: the same circuit families, the
//! same hardware configurations, shared prefixes of both. Each stage
//! output is addressed by `(stage, stage-scoped config fingerprint,
//! pattern content)`, so a repeat job short-circuits at the deepest
//! cached stage:
//!
//! | cache hit at | work skipped |
//! |---|---|
//! | `Scheduled` | everything — the artifact decodes straight back |
//! | `Mapped` | partitioning *and* per-QPU grid mapping |
//! | `Partitioned` | partitioning (the α-search of Algorithm 2) |
//!
//! The store is consulted *per task*, not per job: the job's first
//! task probes deepest-artifact-first and re-enters the pipeline at
//! the deepest hit, every later task re-checks its own stage key before
//! computing (catching artifacts published mid-flight by concurrent
//! duplicate jobs), and every computed artifact is published the
//! moment its task completes. Because configuration fingerprints are
//! *stage-scoped*, changing a late-stage knob (say the BDIR budget)
//! still hits the `Partitioned` and `Mapped` artifacts computed under
//! the old configuration.
//!
//! ## Store architecture
//!
//! The [`ArtifactStore`] behind those re-entry points is two tiers
//! under one API (hand-rolled binary codecs; the build box is offline,
//! so there is no serde): a byte-budgeted in-memory LRU
//! ([`StoreConfig::memory_capacity`]) whose entries are `Arc`-shared,
//! and an optional on-disk tier ([`StoreConfig::disk_dir`]) of
//! content-checksummed frames, one `<fingerprint>.art` file per
//! artifact. Disk artifacts survive restarts — a fresh service pointed
//! at the same directory scans it and starts warm — and the tier is
//! bounded by a byte budget with least-recently-accessed eviction
//! ([`StoreConfig::disk_capacity`]). Every artifact is recomputable, so
//! the disk tier is only a cache and the directory is its only index.
//!
//! **One read path.** [`ArtifactStore::get`] is the store's only read.
//! A memory-tier hit hands out the LRU's `Arc`-shared bytes without
//! copying them. A disk-tier hit reads the file, verifies the embedded
//! key and the checksum, and promotes the value into the memory tier,
//! so the next read of the same artifact is a memory hit. The
//! `Scheduled` warm-hit probe decodes the bytes once with
//! [`dc_mbqc::DistributedSchedule::from_bytes`], which runs every
//! structural and semantic check and produces the job's owned result.
//!
//! **In-flight dedup** ([`ServiceConfig::dedup`], on by default).
//! Concurrent submits of an identical `(pattern, config)` collapse
//! into one compilation: the first in flight is the *leader*; later
//! ones become *followers* that run zero tasks and receive a clone of
//! the leader's result at its terminal event
//! ([`ServiceStats::dedup_hits`], [`EventKind::Deduplicated`]).
//! Followers keep their own lifecycle — a follower's fired cancel or
//! lapsed deadline wins over the shared result at delivery — and a
//! leader that ends `Cancelled`/`Expired`/`Internal` (artifacts of
//! *its* lifecycle, not of the computation) promotes its first live
//! follower to a fresh leader instead of failing the group. Exactly
//! one compilation, whatever the interleaving:
//!
//! ```
//! use dc_mbqc::DcMbqcConfig;
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_pattern::transpile::transpile;
//! use mbqc_service::{CompileService, ServiceConfig};
//!
//! let hw = DistributedHardware::builder()
//!     .num_qpus(2)
//!     .grid_width(bench::grid_size_for(8))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let config = DcMbqcConfig::new(hw);
//! let service = CompileService::new(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! // A blocker occupies the lone worker, so the identical burst below
//! // is all in flight at once.
//! let blocker = service.submit(transpile(&bench::qft(10)), config.clone());
//! let burst: Vec<_> = (0..3)
//!     .map(|_| service.submit(transpile(&bench::qft(8)), config.clone()))
//!     .collect();
//!
//! let results: Vec<_> = burst.iter().map(|&id| service.wait(id).unwrap()).collect();
//! assert!(results.windows(2).all(|w| w[0] == w[1]), "bit-identical");
//! service.wait(blocker).unwrap();
//!
//! // One compilation for the whole burst (the blocker is the other):
//! // the two duplicates either joined the leader in flight, or — had
//! // the leader already finished — warm-hit its stored artifact.
//! let stats = service.stats();
//! assert_eq!(stats.full_compiles, 2, "{stats:?}");
//! assert_eq!(stats.dedup_hits + stats.hits_scheduled, 2, "{stats:?}");
//! ```
//!
//! ## Job lifecycle
//!
//! Production traffic abandons work constantly — clients disconnect,
//! time out, and resubmit — so jobs are first-class lifecycle objects.
//! Every submitted job ends in exactly one **terminal state**:
//!
//! | terminal state | how | surfaced as |
//! |---|---|---|
//! | `Done` | the pipeline (or cache) produced the result | `Ok(schedule)` |
//! | `Failed` | pipeline error or worker panic | [`ServiceError::Compile`] / [`ServiceError::Internal`] |
//! | `Cancelled` | [`CompileService::cancel`] or a shared [`CancelToken`] | [`ServiceError::Cancelled`] |
//! | `Expired` | the [`JobOptions::deadline`] of a [`CompileService::submit_with`] job lapsed while queued | [`ServiceError::Expired`] |
//!
//! **Three ways to submit.** [`CompileService::submit`] takes default
//! options and returns the [`JobId`]. [`CompileService::submit_with`]
//! takes [`JobOptions`] and always enqueues. [`CompileService::submit_checked`]
//! takes [`JobOptions`] and first enforces [`ServiceConfig::admission`],
//! so it can reject the job; the `mbqc-net` front door uses it. Both
//! return a [`JobHandle`]: the id, plus the job's event stream when
//! [`JobOptions::observe`] is set. Wait, poll and cancel by id.
//!
//! **Cancellation is boundary-checked.** Stages are deterministic and
//! are never interrupted mid-computation: a queued job is dropped from
//! the queue immediately, an in-flight job finishes its current stage
//! task and is dropped at the boundary instead of being requeued, and
//! a job whose *final* task already produced the result stays `Done`.
//! A task that observes its job's cancellation does not publish its
//! artifact — the store only ever holds artifacts a non-cancelled job
//! produced (property-tested).
//!
//! **Deadlines are lazy.** Nothing wakes up to expire a job: the
//! deadline is checked when the job's next task would be popped, so an
//! expired job costs exactly one queue pop and never a stage
//! execution. The flip side: expiry latency is bounded by the queue's
//! pop rate, not wall-clock — an expired job parked behind a long
//! backlog reports `Expired` only when its turn comes (or when it is
//! cancelled, or at service drain).
//!
//! **The queue has one order.** Priority classes pop highest first.
//! Within a class, each tenant ([`JobOptions::tenant`]) has a FIFO
//! lane, and a credit scheduler shares the class's pops between
//! backlogged tenants by weight ([`TenantQuota::weight`], default 1),
//! within one task of the exact share. With one tenant this is plain
//! priority-then-submission order. Queue order is pure scheduling — no
//! order, cancellation interleaving, or deadline can change a
//! surviving job's bits.
//!
//! ```
//! use dc_mbqc::DcMbqcConfig;
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_pattern::transpile::transpile;
//! use mbqc_service::{CompileService, ServiceConfig, ServiceError};
//!
//! let hw = DistributedHardware::builder()
//!     .num_qpus(2)
//!     .grid_width(bench::grid_size_for(16))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let config = DcMbqcConfig::new(hw);
//! let service = CompileService::new(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! // A blocker keeps the lone worker busy while the client changes
//! // its mind about the second job.
//! let keep = service.submit(transpile(&bench::qft(12)), config.clone());
//! let abandon = service.submit(transpile(&bench::qft(16)), config.clone());
//! assert!(service.cancel(abandon), "registered before a terminal state");
//!
//! assert!(matches!(service.wait(abandon), Err(ServiceError::Cancelled(_))));
//! let schedule = service.wait(keep).expect("unaffected by the cancel");
//! assert!(schedule.execution_time() > 0);
//!
//! let stats = service.stats();
//! assert_eq!((stats.completed, stats.cancelled), (1, 1));
//! assert_eq!(stats.pool_outstanding, 0, "no workspace leaked");
//! ```
//!
//! **Determinism is the contract**: for any worker count,
//! priority and tenant mix, and cache state — cold, warm,
//! disk-restored — results are bit-identical to a direct
//! [`dc_mbqc::DcMbqcCompiler::compile_pattern`] call, and lifecycle
//! churn (cancellation/expiry at arbitrary points) never perturbs a
//! surviving job, leaks a pooled workspace, or leaves a partial
//! artifact in the store (property-tested in
//! `tests/proptest_lifecycle.rs`).
//!
//! ## Failure model and recovery
//!
//! The service classifies every failure by *whether trying again could
//! help*, and only ever retries the ones where it could:
//!
//! | error | meaning | retried? |
//! |---|---|---|
//! | [`ServiceError::Internal`] | a worker task panicked — environmental / transient | yes, up to [`RetryPolicy::max_attempts`] |
//! | [`ServiceError::Compile`] | the pipeline rejected the input — deterministic | never (same input, same rejection) |
//! | [`ServiceError::Cancelled`] | the client abandoned the job | never |
//! | [`ServiceError::Expired`] | the client's deadline lapsed | never |
//!
//! **Retries are opt-in and bounded.** [`JobOptions::retry`] carries a
//! [`RetryPolicy`]: a maximum attempt count and an exponential backoff
//! (doubling per retry, capped at [`RetryPolicy::max_backoff`]). A
//! retried job drops its carried artifact, is parked until its backoff
//! elapses, then re-enqueued from `Transpile` — no state from the
//! failed attempt leaks into the next one, and stage artifacts the failed attempt already
//! published still short-circuit the redo. Every retry increments
//! [`ServiceStats::retries`], and [`CompileService::attempts`] reports
//! a job's attempt count (frozen at its terminal state) until the
//! result is taken. A panic is reported with the panicking stage and a
//! rendered payload ([`ServiceError::Internal`]'s `stage` / `message`),
//! whatever type the payload was thrown with.
//!
//! **The disk tier heals itself.** Every disk artifact is framed with
//! a content checksum; a torn, truncated, or bit-flipped file is
//! detected on read, deleted, and served as a miss — the store never
//! returns bytes that don't decode ([`StoreStats::disk_corrupt`]).
//! Corruption is a *data* problem and is not a breaker event. IO
//! errors are: [`StoreConfig::disk_error_threshold`] *consecutive*
//! read/write failures quarantine the disk tier
//! ([`StoreStats::disk_quarantined`]), and the service degrades to
//! memory-only caching — slower on repeats, still correct, still
//! serving. Every [`StoreConfig::disk_probe_interval`] the breaker
//! lets one operation through as a probe; the first success closes it
//! and the tier resumes ([`StoreStats::disk_quarantines`] /
//! [`StoreStats::disk_probes`] count the transitions).
//!
//! **Locks never poison.** Workers take every shared lock through a
//! poison-recovering helper (`mbqc_util::sync`), so a panicking task —
//! injected or real — can never wedge the queue, the store, or the
//! stats for everyone else.
//!
//! Attaching a retry budget, and the classification in action — the
//! deterministic rejection is *not* retried:
//!
//! ```
//! use std::time::Duration;
//!
//! use dc_mbqc::DcMbqcConfig;
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_pattern::transpile::transpile;
//! use mbqc_service::{
//!     CompileService, JobOptions, RetryPolicy, ServiceConfig, ServiceError,
//! };
//!
//! // A 2x2 grid with boundary reservation cannot map this circuit:
//! // the pipeline rejects it deterministically.
//! let hw = DistributedHardware::builder()
//!     .num_qpus(2)
//!     .grid_width(2)
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let config = DcMbqcConfig::new(hw).with_boundary_reservation(true);
//! let service = CompileService::new(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! let handle = service.submit_with(
//!     transpile(&bench::qft(6)),
//!     config,
//!     JobOptions {
//!         // Up to 4 attempts, 10ms before the first retry, doubling.
//!         retry: RetryPolicy::attempts(4).with_backoff(Duration::from_millis(10)),
//!         ..JobOptions::default()
//!     },
//! );
//! assert!(matches!(service.wait(handle.id()), Err(ServiceError::Compile(_))));
//!
//! // Deterministic rejection: one attempt, the retry budget unused.
//! let stats = service.stats();
//! assert_eq!((stats.failed, stats.retries), (1, 0));
//! ```
//!
//! Injected-failure coverage (disk IO errors, artifact corruption,
//! task panics, stage delays) lives behind the `fault-inject` cargo
//! feature: a seeded [`FaultPlan`] in [`ServiceConfig::faults`] /
//! [`StoreConfig::faults`] drives the chaos determinism matrix in
//! `tests/proptest_chaos.rs`, which demands exactly one terminal state
//! per job, bit-identical surviving results, zero leaked workspaces,
//! and no torn bytes under every plan. With the feature off (the
//! default) the injection sites compile to nothing.
//!
//! ## Observability
//!
//! Three layers, all hand-rolled (the build box is offline):
//!
//! * **Event streams.** Every lifecycle transition emits a
//!   [`TelemetryEvent`] — submitted, stage task started/finished,
//!   cache hit, retry scheduled, quarantine opened/closed, terminal —
//!   with a monotonic timestamp and a gap-free per-job sequence
//!   number. [`CompileService::subscribe`] observes from now on,
//!   service-wide or for one job; a submit with
//!   [`JobOptions::observe`] set registers a guaranteed-complete
//!   per-job stream ([`JobHandle::take_events`]). Streams are bounded
//!   channels: a slow or abandoned
//!   subscriber overflows (counted, [`EventStream::dropped`]) or is
//!   pruned — it never blocks a worker. **Emission is zero-cost when
//!   nobody listens**: with no subscriber and no flight recorder, an
//!   emit site is one relaxed atomic load.
//! * **Latency histograms.** Always-on `mbqc_util::metrics` log-bucketed
//!   histograms (relaxed atomics, ≤12.5% relative quantile error)
//!   record per-stage execution latency, queue wait, and warm-hit
//!   serving latency; [`CompileService::stats`] exports them as
//!   p50/p95/p99 [`ServiceStats::stage_latency`] /
//!   [`ServiceStats::queue_wait`] / [`ServiceStats::warm_hit`]
//!   summaries.
//! * **Flight recorder and traces.** [`TelemetryConfig::flight_recorder`]
//!   keeps the last N events in a ring ([`CompileService::flight_recorder`])
//!   — the lifecycle/chaos proptests dump it on failure. Any captured
//!   event slice renders to Chrome trace-event JSON
//!   ([`chrome_trace_json`], schema-checked by
//!   [`validate_chrome_trace`]) as a job → attempt → stage-task span
//!   tree for `chrome://tracing` / Perfetto; the `service_demo`
//!   example's `--trace <path>` flag writes one.
//!
//! A complete per-job stream, and the quantile summaries:
//!
//! ```
//! use dc_mbqc::DcMbqcConfig;
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_pattern::transpile::transpile;
//! use mbqc_service::{
//!     CompileService, EventKind, JobOptions, ServiceConfig, TerminalState,
//! };
//!
//! let hw = DistributedHardware::builder()
//!     .num_qpus(2)
//!     .grid_width(bench::grid_size_for(8))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let config = DcMbqcConfig::new(hw);
//! let service = CompileService::new(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! // A per-job stream registered before the job's first event.
//! let mut handle = service.submit_with(
//!     transpile(&bench::qft(8)),
//!     config,
//!     JobOptions {
//!         observe: true,
//!         ..JobOptions::default()
//!     },
//! );
//! let events = handle.take_events().expect("observed submit");
//! service.wait(handle.id()).unwrap();
//!
//! // `wait` returning implies the terminal event is already delivered:
//! // the stream drains Submitted → 4 × (TaskStarted, TaskFinished) →
//! // Terminal, gap-free.
//! let captured: Vec<_> = events.collect();
//! assert!(matches!(captured[0].kind, EventKind::Submitted { .. }));
//! assert!(matches!(
//!     captured.last().unwrap().kind,
//!     EventKind::Terminal { state: TerminalState::Done }
//! ));
//! assert!(captured.iter().enumerate().all(|(i, e)| e.seq as usize == i));
//!
//! // The always-on histograms: every executed stage left a sample.
//! let stats = service.stats();
//! assert!(stats.stage_latency.iter().all(|s| s.count == 1), "{stats:?}");
//! assert!(stats.queue_wait.count >= 1);
//! assert!(stats.queue_wait.p50 <= stats.queue_wait.p99);
//! ```
//!
//! # Example
//!
//! An interactive job submitted after a pile of batch work still pops
//! first, and repeat traffic is answered from the cache:
//!
//! ```
//! use dc_mbqc::DcMbqcConfig;
//! use mbqc_circuit::bench;
//! use mbqc_hardware::{DistributedHardware, ResourceStateKind};
//! use mbqc_pattern::transpile::transpile;
//! use mbqc_service::{CompileService, JobOptions, Priority, ServiceConfig};
//!
//! let hw = DistributedHardware::builder()
//!     .num_qpus(2)
//!     .grid_width(bench::grid_size_for(8))
//!     .resource_state(ResourceStateKind::FIVE_STAR)
//!     .kmax(4)
//!     .build();
//! let config = DcMbqcConfig::new(hw);
//! let service = CompileService::new(ServiceConfig {
//!     workers: 1,
//!     ..ServiceConfig::default()
//! })
//! .unwrap();
//!
//! let batch = transpile(&bench::qft(8));
//! let interactive = transpile(&bench::qft(7));
//! let at = |priority| JobOptions {
//!     priority,
//!     ..JobOptions::default()
//! };
//! let batch_ids: Vec<_> = (0..2)
//!     .map(|_| service.submit_with(batch.clone(), config.clone(), at(Priority::Batch)).id())
//!     .collect();
//! let hot = service.submit_with(interactive, config.clone(), at(Priority::Interactive)).id();
//!
//! // Same results as a direct compile, whatever the queue order…
//! let got = service.wait(hot).unwrap();
//! let direct = dc_mbqc::DcMbqcCompiler::new(config.clone())
//!     .compile_pattern(&transpile(&bench::qft(7)))
//!     .unwrap();
//! assert_eq!(got, direct);
//!
//! // …and the duplicate batch job is answered without recompiling —
//! // deduplicated while its twin is in flight, or from the cache.
//! for id in batch_ids {
//!     service.wait(id).unwrap();
//! }
//! let stats = service.stats();
//! assert_eq!(stats.completed, 3);
//! assert_eq!(stats.submitted_by_priority, [2, 0, 1]);
//! assert!(
//!     stats.dedup_hits + stats.hits_scheduled + stats.task_store_hits >= 1,
//!     "{stats:?}"
//! );
//! ```

pub mod executor;
pub(crate) mod fair;
pub mod fault;
pub mod service;
pub mod store;
pub mod telemetry;

pub use dc_mbqc::{PipelineStage, StageKind};
pub use fault::{FaultConfig, FaultPlan, InjectedFault};
pub use service::{
    AdmissionConfig, AdmissionError, CancelToken, CompileService, JobHandle, JobId, JobOptions,
    Priority, RetryPolicy, ServiceConfig, ServiceError, ServiceStats, TelemetryConfig, TenantQuota,
    TenantStat,
};
pub use store::{ArtifactKey, ArtifactStore, StoreConfig, StoreStats};
pub use telemetry::{
    chrome_trace_json, validate_chrome_trace, EventKind, EventStream, TelemetryEvent, TerminalState,
};
