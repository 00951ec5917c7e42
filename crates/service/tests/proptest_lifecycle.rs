//! The lifecycle determinism matrix: cancellation and expiry at
//! arbitrary points must never corrupt the service.
//!
//! The headline property pins, for partitioner probe workers {1, 2} ×
//! workers {1, 2, 8} × cache state {cold, warm, disk-restored}, under a
//! mixed workload split across two tenants (job `i` runs as tenant
//! `i % 2`, so every priority class has two fair lanes to churn) where
//! jobs are cancelled (by id and by shared token) and expired (lazy
//! deadlines) at random points:
//!
//! * the service never deadlocks — every `wait` returns;
//! * every job reaches exactly one terminal state
//!   (`Done`/`Failed`/`Cancelled`/`Expired`), and the state is
//!   plausible for what the test did to the job;
//! * surviving (`Done`) jobs are **bit-identical** to a direct
//!   `compile_pattern` — no cancellation interleaving, queue order, or
//!   cache state can perturb a result;
//! * the `WorkspacePool` is fully returned (no workspace leaks on the
//!   abandon path);
//! * every artifact resident in the store is bit-exact for its key —
//!   cancelled jobs never published a torn or partial artifact.
//!
//! Deterministic companions cover the exact-semantics corners the
//! racy matrix cannot pin: a job cancelled while queued (or expired
//! before running) executes zero tasks and leaves zero artifacts, a
//! shared token drops a whole group, terminal/unknown cancels are
//! no-op `false`, and a generous deadline never fires.

mod common;

use std::time::Duration;

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig, DistributedSchedule, PipelineStage};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::Partition;
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_service::{
    ArtifactKey, CancelToken, CompileService, JobId, JobOptions, Priority, ServiceConfig,
    ServiceError, StoreConfig, TelemetryConfig,
};
use mbqc_util::Rng;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn hardware(qpus: usize, qubits: usize) -> DistributedHardware {
    DistributedHardware::builder()
        .num_qpus(qpus)
        .grid_width(bench::grid_size_for(qubits))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build()
}

fn pattern_for(kind_idx: usize, qubits: usize) -> Pattern {
    let kinds = BenchmarkKind::all();
    transpile(&kinds[kind_idx % kinds.len()].generate(qubits, 1))
}

/// A unique scratch directory per call (tests may run concurrently).
fn scratch_dir() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mbqc-lifecycle-proptest-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Default options with a time budget measured from submission.
fn deadline(budget: Duration) -> JobOptions {
    JobOptions {
        deadline: Some(budget),
        ..JobOptions::default()
    }
}

/// The three content-addressed keys of one `(pattern, config)` job.
fn keys_of(pattern: &Pattern, config: &DcMbqcConfig) -> [ArtifactKey; 3] {
    let pattern_bytes = pattern.content_bytes();
    [
        PipelineStage::Partition,
        PipelineStage::Map,
        PipelineStage::Schedule,
    ]
    .map(|stage| {
        ArtifactKey::new(
            stage,
            &config.stage_fingerprint_bytes(stage),
            &pattern_bytes,
        )
    })
}

/// What the test did to a job, hence which terminal states are legal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Untouched (or generous deadline): must complete `Done`.
    RunsFree,
    /// Cancellation requested at some point: `Cancelled`, or `Done`
    /// with a bit-identical result when the final task won the race.
    CancelRequested,
    /// Submitted with an already-lapsed deadline: never runs a task —
    /// `Expired` (or `Cancelled` when a cancel was also requested).
    DeadlineLapsed { also_cancelled: bool },
}

/// Audits one terminal result against the job's fate and the expected
/// schedule. Returns whether the job survived (`Done`).
fn check_terminal(
    what: &str,
    fate: Fate,
    result: &Result<DistributedSchedule, ServiceError>,
    expected: &DistributedSchedule,
) -> Result<bool, TestCaseError> {
    match (fate, result) {
        (Fate::RunsFree, Ok(got)) | (Fate::CancelRequested, Ok(got)) => {
            prop_assert_eq!(
                got,
                expected,
                "{}: surviving job must be bit-identical",
                what
            );
            Ok(true)
        }
        (Fate::CancelRequested, Err(ServiceError::Cancelled(_))) => Ok(false),
        (Fate::DeadlineLapsed { .. }, Err(ServiceError::Expired(_))) => Ok(false),
        (
            Fate::DeadlineLapsed {
                also_cancelled: true,
            },
            Err(ServiceError::Cancelled(_)),
        ) => Ok(false),
        _ => {
            prop_assert!(false, "{}: fate {:?} got {:?}", what, fate, result);
            Ok(false)
        }
    }
}

/// Audits the whole store against the workload: every resident
/// artifact must be bit-exact for its key (a cancelled job must never
/// have published a torn or partial artifact).
fn check_store(
    service: &CompileService,
    workload: &[(Pattern, DistributedSchedule)],
    config: &DcMbqcConfig,
    what: &str,
) -> Result<(), TestCaseError> {
    for (pattern, expected) in workload {
        let [part_key, map_key, sched_key] = keys_of(pattern, config);
        if let Some(bytes) = service.store_get(&sched_key) {
            let decoded = DistributedSchedule::from_bytes(&bytes);
            prop_assert!(decoded.is_ok(), "{}: torn Scheduled artifact", what);
            prop_assert_eq!(
                &decoded.unwrap(),
                expected,
                "{}: wrong Scheduled bits",
                what
            );
        }
        if let Some(bytes) = service.store_get(&part_key) {
            let decoded = Partition::from_bytes(&bytes);
            prop_assert!(decoded.is_ok(), "{}: torn Partition artifact", what);
            prop_assert_eq!(
                &decoded.unwrap(),
                expected.partition(),
                "{}: wrong Partition bits",
                what
            );
        }
        if let Some(bytes) = service.store_get(&map_key) {
            // The Mapped payload is partition + per-QPU programs; the
            // partition half is cross-checkable against the expected
            // schedule, the programs must at least frame-decode.
            let mut d = mbqc_util::codec::Decoder::new(&bytes);
            let part = d.bytes().ok().and_then(|b| Partition::from_bytes(b).ok());
            prop_assert!(part.is_some(), "{}: torn Mapped artifact", what);
            prop_assert_eq!(
                &part.unwrap(),
                expected.partition(),
                "{}: wrong Mapped partition bits",
                what
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance matrix (see the module docs).
    #[test]
    fn lifecycle_matrix_terminal_deterministic_and_leak_free(
        qubits in 6usize..10,
        qpus in 2usize..5,
        seed in 0u64..1000,
    ) {
        let patterns: Vec<Pattern> =
            (0..5).map(|i| pattern_for(i, qubits + (i % 3))).collect();
        // An explicit probe-worker axis (never the one-per-core
        // default): every host runs both the sequential and the
        // speculative α-walk.
        for probe_workers in [1usize, 2] {
            let config = DcMbqcConfig::new(hardware(qpus, qubits + 2))
                .with_seed(seed)
                .with_probe_workers(probe_workers);
            let workload: Vec<(Pattern, DistributedSchedule)> = {
                let compiler = DcMbqcCompiler::new(config.clone());
                patterns
                    .iter()
                    .map(|p| (p.clone(), compiler.compile_pattern(p).expect("compiles")))
                    .collect()
            };
            // One disk dir per probe-worker count: workers=1 runs cold
            // then warm; workers=2/8 start disk-restored.
            let dir = scratch_dir();
            for workers in [1usize, 2, 8] {
                let service = CompileService::new(ServiceConfig {
                    workers,
                    store: StoreConfig {
                        memory_capacity: 8 << 20,
                        disk_dir: Some(dir.clone()),
                        ..StoreConfig::default()
                    },
                    // Flight recorder on: a failing cell below
                    // dumps the recent event history alongside the
                    // assertion (see `common::audited`).
                    telemetry: TelemetryConfig {
                        flight_recorder: 128,
                        ..TelemetryConfig::default()
                    },
                    ..ServiceConfig::default()
                })
                .expect("service starts");
                // CI's release-mode pass sets MBQC_LIVE_SUBSCRIBER:
                // the armed fan-out path then runs under the full
                // lifecycle churn instead of only the happy paths.
                let _live = common::live_subscriber(&service);
                let cell = (|| -> Result<(), TestCaseError> {
                let rounds = if workers == 1 { 2 } else { 1 };
                for round in 0..rounds {
                    // Deterministic churn plan from the seed; the
                    // *timing* of each cancel is inherently racy —
                    // which is the point: any interleaving must be
                    // safe.
                    let mut rng = Rng::seed_from_u64(
                        seed ^ (workers as u64) << 3 ^ (round as u64) << 9,
                    );
                    let group = CancelToken::new();
                    let mut jobs: Vec<(JobId, usize, Fate)> = Vec::new();
                    let mut cancel_late: Vec<JobId> = Vec::new();
                    for (i, (pattern, _)) in workload.iter().enumerate() {
                        let priority = Priority::ALL[rng.range(3)];
                        // Two tenants: every class churns two fair
                        // lanes.
                        let tenant = (i % 2) as u32;
                        let fate = rng.range(10);
                        let (id, fate) = match fate {
                            // ~30% cancellations, at varied points.
                            0 => {
                                // Cancel immediately after submit.
                                let h = service.submit_with(
                                    pattern.clone(),
                                    config.clone(),
                                    JobOptions {
                                        priority,
                                        tenant,
                                        ..JobOptions::default()
                                    },
                                );
                                service.cancel(h.id());
                                (h.id(), Fate::CancelRequested)
                            }
                            1 => {
                                // Shared token, fired after all
                                // submissions.
                                let h = service.submit_with(
                                    pattern.clone(),
                                    config.clone(),
                                    JobOptions {
                                        priority,
                                        tenant,
                                        cancel: Some(group.clone()),
                                        ..JobOptions::default()
                                    },
                                );
                                (h.id(), Fate::CancelRequested)
                            }
                            2 => {
                                // Cancel after the first wait (some
                                // jobs will be mid-flight by then).
                                let id = service
                                    .submit_with(
                                        pattern.clone(),
                                        config.clone(),
                                        JobOptions {
                                            priority,
                                            tenant,
                                            ..JobOptions::default()
                                        },
                                    )
                                    .id();
                                cancel_late.push(id);
                                (id, Fate::CancelRequested)
                            }
                            3 => {
                                // Already-lapsed deadline: expires
                                // at its first pop, runs nothing.
                                let also_cancelled = rng.bernoulli(0.3);
                                let h = service.submit_with(
                                    pattern.clone(),
                                    config.clone(),
                                    JobOptions {
                                        priority,
                                        tenant,
                                        deadline: Some(Duration::ZERO),
                                        ..JobOptions::default()
                                    },
                                );
                                if also_cancelled {
                                    service.cancel(h.id());
                                }
                                (h.id(), Fate::DeadlineLapsed { also_cancelled })
                            }
                            4 => {
                                // Generous deadline: never fires.
                                let h = service.submit_with(
                                    pattern.clone(),
                                    config.clone(),
                                    JobOptions {
                                        tenant,
                                        deadline: Some(Duration::from_secs(3600)),
                                        ..JobOptions::default()
                                    },
                                );
                                (h.id(), Fate::RunsFree)
                            }
                            _ => (
                                service
                                    .submit_with(
                                        pattern.clone(),
                                        config.clone(),
                                        JobOptions {
                                            priority,
                                            tenant,
                                            ..JobOptions::default()
                                        },
                                    )
                                    .id(),
                                Fate::RunsFree,
                            ),
                        };
                        jobs.push((id, i, fate));
                    }
                    group.cancel();
                    let mut first_wait_done = false;
                    let mut survivors = 0usize;
                    for &(id, i, fate) in &jobs {
                        let result = service.wait(id);
                        if !first_wait_done {
                            // Mid-flight cancellations: the rest of
                            // the queue is in arbitrary progress now.
                            for &late in &cancel_late {
                                service.cancel(late);
                            }
                            first_wait_done = true;
                        }
                        let what = format!(
                            "probe={probe_workers} workers={workers} \
                             round={round} job={i}"
                        );
                        survivors += usize::from(check_terminal(
                            &what,
                            // A late cancel may arrive after the
                            // job completed: Done is legal for
                            // CancelRequested either way.
                            fate,
                            &result,
                            &workload[i].1,
                        )?);
                    }
                    prop_assert!(survivors <= jobs.len());
                }
                let stats = service.stats();
                let what = format!("probe={probe_workers} workers={workers}");
                prop_assert_eq!(
                    stats.completed + stats.cancelled + stats.expired,
                    stats.submitted,
                    "{}: every job terminal: {:?}",
                    &what,
                    stats
                );
                prop_assert_eq!(stats.failed, 0, "{}: {:?}", &what, stats);
                prop_assert!(
                    stats.tenants.len() == 2 && stats.tenants.iter().all(|t| t.in_flight == 0),
                    "{}: both tenants ran and drained: {:?}",
                    &what,
                    stats.tenants
                );
                prop_assert_eq!(
                    stats.pool_outstanding,
                    0,
                    "{}: workspace leaked: {:?}",
                    &what,
                    stats
                );
                check_store(&service, &workload, &config, &what)?;
                Ok(())
                })();
                common::audited(
                    &service,
                    &format!("probe={probe_workers} workers={workers}"),
                    cell,
                )?;
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A job cancelled while queued reaches `Cancelled`, executes zero
/// stage tasks, and leaves zero artifacts in the store.
#[test]
fn cancelled_while_queued_runs_nothing_and_publishes_nothing() {
    let config = DcMbqcConfig::new(hardware(2, 18));
    // A heavyweight blocker keeps the lone worker busy for many
    // milliseconds — the victim stays queued while we cancel it.
    let blocker = transpile(&bench::qft(16));
    let victim = transpile(&BenchmarkKind::Qaoa.generate(12, 1));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let blocker_id = service.submit(blocker, config.clone());
    let victim_handle = service.submit_with(victim.clone(), config.clone(), JobOptions::default());
    assert!(
        service.cancel(victim_handle.id()),
        "cancel lands while queued"
    );
    assert!(matches!(
        service.wait(victim_handle.id()),
        Err(ServiceError::Cancelled(_))
    ));
    service.wait(blocker_id).expect("blocker unaffected");
    let stats = service.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.pool_outstanding, 0);
    for key in keys_of(&victim, &config) {
        assert!(
            service.store_get(&key).is_none(),
            "cancelled job published an artifact"
        );
    }
}

/// A job whose deadline lapsed before submission returning runs zero
/// tasks: terminal `Expired`, empty store, `tasks_executed == 0`.
#[test]
fn lapsed_deadline_expires_without_running() {
    let config = DcMbqcConfig::new(hardware(2, 10));
    let pattern = transpile(&bench::qft(8));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let handle = service.submit_with(pattern.clone(), config.clone(), deadline(Duration::ZERO));
    assert!(matches!(
        service.wait(handle.id()),
        Err(ServiceError::Expired(_))
    ));
    let stats = service.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.completed, 0);
    assert_eq!(stats.tasks_executed, 0, "expiry costs a pop, not a stage");
    for key in keys_of(&pattern, &config) {
        assert!(service.store_get(&key).is_none());
    }
    // A second wait on the taken id is UnknownJob, like any other
    // terminal state.
    assert!(matches!(
        service.wait(handle.id()),
        Err(ServiceError::UnknownJob(_))
    ));
}

/// A generous deadline never fires: the job completes bit-identically.
#[test]
fn generous_deadline_completes_identically() {
    let config = DcMbqcConfig::new(hardware(2, 10));
    let pattern = transpile(&bench::rca(8));
    let direct = DcMbqcCompiler::new(config.clone())
        .compile_pattern(&pattern)
        .unwrap();
    let service = CompileService::new(ServiceConfig::default()).unwrap();
    let handle = service.submit_with(pattern, config, deadline(Duration::from_secs(3600)));
    assert_eq!(service.wait(handle.id()).expect("completes"), direct);
    let stats = service.stats();
    assert_eq!(stats.expired, 0);
    assert_eq!(stats.completed, 1);
}

/// One shared token drops a whole group of queued jobs at once.
#[test]
fn shared_token_cancels_a_group() {
    let config = DcMbqcConfig::new(hardware(2, 18));
    let blocker = transpile(&bench::qft(16));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let blocker_id = service.submit(blocker, config.clone());
    let token = CancelToken::new();
    let group: Vec<JobId> = (0..3)
        .map(|i| {
            service
                .submit_with(
                    pattern_for(i, 8 + i),
                    config.clone(),
                    JobOptions {
                        cancel: Some(token.clone()),
                        ..JobOptions::default()
                    },
                )
                .id()
        })
        .collect();
    token.cancel();
    for id in group {
        assert!(matches!(service.wait(id), Err(ServiceError::Cancelled(_))));
    }
    service.wait(blocker_id).expect("blocker unaffected");
    assert_eq!(service.stats().cancelled, 3);
}

/// Cancels of unknown ids and already-terminal jobs are no-op `false`;
/// a completed job's result survives a late cancel.
#[test]
fn cancel_is_noop_after_terminal_state() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let pattern = transpile(&bench::qft(8));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();

    let id = service.submit(pattern, config);
    // Let the job reach Done before cancelling (poll the counters, not
    // try_poll — try_poll would take the result).
    while service.stats().completed == 0 {
        std::thread::yield_now();
    }
    assert!(!service.cancel(id), "terminal job cannot be cancelled");
    service.wait(id).expect("result survives the late cancel");
    assert!(!service.cancel(id), "taken (unknown) id is a no-op too");

    // A cancelled job's id is equally terminal.
    let blocker = service.submit(
        transpile(&bench::qft(16)),
        DcMbqcConfig::new(hardware(2, 18)),
    );
    let victim = service.submit(
        transpile(&bench::qft(10)),
        DcMbqcConfig::new(hardware(2, 12)),
    );
    assert!(service.cancel(victim), "first cancel lands");
    assert!(
        matches!(service.wait(victim), Err(ServiceError::Cancelled(_))),
        "victim cancelled"
    );
    assert!(!service.cancel(victim), "second cancel is a no-op");
    service.wait(blocker).expect("blocker unaffected");
}

/// Priority dominates the tenant lanes: an interactive job overtakes
/// another tenant's batch backlog on a single worker.
#[test]
fn interactive_overtakes_other_tenants_batch_backlog() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let batch_patterns = [
        pattern_for(0, 8),
        pattern_for(1, 8),
        pattern_for(2, 8),
        pattern_for(3, 8),
        pattern_for(0, 10),
        pattern_for(1, 10),
    ];
    let hot_pattern = pattern_for(0, 9);
    let batch_ids: Vec<JobId> = batch_patterns
        .iter()
        .map(|p| {
            service
                .submit_with(
                    p.clone(),
                    config.clone(),
                    JobOptions {
                        priority: Priority::Batch,
                        tenant: 1,
                        ..JobOptions::default()
                    },
                )
                .id()
        })
        .collect();
    let hot = service
        .submit_with(
            hot_pattern,
            config.clone(),
            JobOptions {
                priority: Priority::Interactive,
                ..JobOptions::default()
            },
        )
        .id();
    service.wait(hot).expect("interactive job compiles");
    let mut still_pending = Vec::new();
    for id in batch_ids {
        match service.try_poll(id) {
            Some(result) => {
                result.expect("batch job compiles");
            }
            None => still_pending.push(id),
        }
    }
    assert!(
        !still_pending.is_empty(),
        "interactive job did not overtake the batch backlog"
    );
    for id in still_pending {
        service.wait(id).expect("batch job compiles");
    }
    assert_eq!(service.stats().completed, 7);
}
