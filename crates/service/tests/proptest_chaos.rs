//! The chaos determinism matrix: deterministic fault injection
//! (`--features fault-inject`) across the whole service.
//!
//! The headline property pins, for random [`FaultConfig`]s (injected
//! disk IO errors, artifact byte corruption, task panics, stage
//! delays) × workers {1, 2, 8} × cache state {cold,
//! warm/disk-restored}, with per-job retry policies
//! and jobs split across two tenants (retries re-enter their tenant's
//! fair lane):
//!
//! * the service never deadlocks — every `wait` returns;
//! * every job reaches **exactly one** terminal state: `Done`, or
//!   `Failed` with [`ServiceError::Internal`] once its retry budget is
//!   exhausted — injected faults can never surface as anything else;
//! * every successful job — first try or via retry — is
//!   **bit-identical** to a direct `compile_pattern`;
//! * no task still running on the drained service
//!   (`pool_outstanding == 0`, even though injected panics unwind tasks
//!   mid-stage);
//! * the store never serves torn or corrupt bytes: every resident
//!   artifact decodes bit-exact for its key, and every injected
//!   corruption was detected (counted, served as a miss);
//! * the counters balance: every retry is counted, attempt counts stay
//!   within each job's budget, and `completed + cancelled + expired ==
//!   submitted`.
//!
//! Deterministic companions pin the exact-semantics corners: a
//! certain-panic plan exhausts its retry budget and fails with the
//! panicking stage attributed; a half-panic plan recovers via retries
//! to a bit-identical result; deterministic `Compile` rejections are
//! *never* retried even with a generous policy; and injected read
//! errors quarantine the disk tier while jobs keep completing
//! correctly from memory (degraded mode).

#![cfg(feature = "fault-inject")]

mod common;

use std::time::Duration;

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig, DistributedSchedule};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_service::{
    ArtifactKey, CompileService, FaultConfig, FaultPlan, JobId, JobOptions, RetryPolicy,
    ServiceConfig, ServiceError, StoreConfig,
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
        "mbqc-chaos-proptest-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The content-addressed key of one `(pattern, config)` job: its
/// `Scheduled` artifact's, the only one the store keeps.
fn key_of(pattern: &Pattern, config: &DcMbqcConfig) -> ArtifactKey {
    ArtifactKey::new(&config.fingerprint_bytes(), &pattern.content_bytes())
}

/// Audits the whole store: every resident artifact must be bit-exact
/// for its key. Injected write corruption makes files unreadable, not
/// wrong — a corrupt artifact must *never* be served.
fn check_store(
    service: &CompileService,
    workload: &[(Pattern, DistributedSchedule)],
    config: &DcMbqcConfig,
    what: &str,
) -> Result<(), TestCaseError> {
    for (pattern, expected) in workload {
        if let Some(bytes) = service.store_get(&key_of(pattern, config)) {
            let decoded = DistributedSchedule::from_bytes(&bytes);
            prop_assert!(decoded.is_ok(), "{}: torn Scheduled artifact", what);
            prop_assert_eq!(
                &decoded.unwrap(),
                expected,
                "{}: wrong Scheduled bits",
                what
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The acceptance matrix (see the module docs).
    #[test]
    fn chaos_matrix_terminal_deterministic_and_leak_free(
        qubits in 6usize..9,
        qpus in 2usize..4,
        seed in 0u64..1000,
    ) {
        let patterns: Vec<Pattern> =
            (0..4).map(|i| pattern_for(i, qubits + (i % 3))).collect();
        let mut plan_rng = Rng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let config = DcMbqcConfig::new(hardware(qpus, qubits + 2)).with_seed(seed);
        let workload: Vec<(Pattern, DistributedSchedule)> = {
            let compiler = DcMbqcCompiler::new(config.clone());
            patterns
                .iter()
                .map(|p| (p.clone(), compiler.compile_pattern(p).expect("compiles")))
                .collect()
        };
        // One disk dir per cell: workers=1 runs cold then warm;
        // workers=2/8 start disk-restored (possibly with files a
        // corrupting run left behind — they must read as misses).
        let dir = scratch_dir();
        for workers in [1usize, 2, 8] {
            // A fresh random fault mix per service: moderate
            // probabilities so most jobs see at least one fault
            // but retries can still win.
            let fault_config = FaultConfig {
                seed: plan_rng.next_u64(),
                disk_read_error: plan_rng.next_f64() * 0.3,
                disk_write_error: plan_rng.next_f64() * 0.3,
                disk_corrupt: plan_rng.next_f64() * 0.3,
                task_panic: plan_rng.next_f64() * 0.2,
                stage_delay: plan_rng.next_f64() * 0.3,
                delay: Duration::from_micros(50 + plan_rng.range(200) as u64),
            };
            // One plan drives the store sites and the task sites.
            let plan = FaultPlan::new(fault_config);
            let service = CompileService::new(ServiceConfig {
                workers,
                store: StoreConfig {
                    memory_capacity: 8 << 20,
                    disk_dir: Some(dir.clone()),
                    disk_error_threshold: 4,
                    disk_probe_interval: Duration::from_millis(5),
                    faults: plan.clone(),
                    ..StoreConfig::default()
                },
                faults: plan,
                ..ServiceConfig::default()
            })
            .expect("service starts");
            // CI's release-mode pass sets MBQC_LIVE_SUBSCRIBER: the
            // armed emit paths then run under injected faults too.
            let _live = common::live_subscriber(&service);
            // A failing cell dumps the recent event history
            // alongside the assertion (see `common::audited`).
            let recent = common::RecentEvents::attach(&service, 128);
            let cell = (|| -> Result<(), TestCaseError> {
            let rounds = if workers == 1 { 2 } else { 1 };
            for round in 0..rounds {
                let mut rng = Rng::seed_from_u64(
                    seed ^ (workers as u64) << 3 ^ (round as u64) << 9,
                );
                let mut jobs: Vec<(JobId, usize, u32)> = Vec::new();
                for (i, (pattern, _)) in workload.iter().enumerate() {
                    // Mixed retry budgets, including none.
                    let max_attempts = 1 + rng.range(4) as u32;
                    let retry = RetryPolicy::attempts(max_attempts)
                        .with_backoff(Duration::from_micros(rng.range(500) as u64));
                    let h = service.submit_with(
                        pattern.clone(),
                        config.clone(),
                        JobOptions {
                            retry,
                            tenant: (i % 2) as u32,
                            ..JobOptions::default()
                        },
                    );
                    jobs.push((h.id(), i, max_attempts));
                }
                for &(id, i, max_attempts) in &jobs {
                    let what = format!(
                        "workers={workers} \
                         round={round} job={i} faults={fault_config:?}"
                    );
                    let attempts =
                        service.attempts(id).expect("job known until taken");
                    prop_assert!(
                        (1..=max_attempts).contains(&attempts),
                        "{}: attempts {} outside budget {}",
                        &what, attempts, max_attempts
                    );
                    // Exactly one terminal state, and the only
                    // legal failure is an exhausted retry budget
                    // on an injected panic.
                    match service.wait(id) {
                        Ok(got) => prop_assert_eq!(
                            &got,
                            &workload[i].1,
                            "{}: surviving job must be bit-identical",
                            &what
                        ),
                        Err(ServiceError::Internal { message, .. }) => prop_assert!(
                            message.contains("InjectedFault"),
                            "{}: non-injected panic: {}",
                            &what,
                            message
                        ),
                        Err(other) => prop_assert!(
                            false,
                            "{}: illegal terminal state {:?}",
                            &what,
                            other
                        ),
                    }
                }
            }
            let stats = service.stats();
            let what =
                format!("workers={workers}");
            prop_assert_eq!(
                stats.completed + stats.cancelled + stats.expired,
                stats.submitted,
                "{}: every job terminal: {:?}",
                &what,
                stats
            );
            prop_assert_eq!(
                stats.pool_outstanding,
                0,
                "{}: task still running after drain under injected panics: {:?}",
                &what,
                stats
            );
            // Retries fit inside the submitted budgets (each job
            // allowed at most 4 attempts, i.e. 3 retries).
            prop_assert!(
                stats.retries <= stats.submitted * 3,
                "{}: runaway retries: {:?}",
                &what,
                stats
            );
            // The store never decoded an injected corruption into
            // a foreign artifact; whatever survived is bit-exact.
            check_store(&service, &workload, &config, &what)?;
            Ok(())
            })();
            common::audited(&recent, &format!("workers={workers}"), cell)?;
            drop(service);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Blocks until `n` jobs are terminal-with-result (`completed` counts
/// `Done` and `Failed` alike) *without* taking any result — so the
/// frozen attempt counters are still readable via
/// [`CompileService::attempts`].
fn await_completed(service: &CompileService, n: u64) {
    while service.stats().completed < n {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A certain-panic plan exhausts the retry budget: the job fails with
/// `Internal`, the panicking stage attributed, the attempt counter
/// frozen at the budget, and every retry counted.
#[test]
fn injected_panics_exhaust_retries_then_fail() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let pattern = pattern_for(0, 7);
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        faults: FaultPlan::new(FaultConfig {
            seed: 1,
            task_panic: 1.0,
            ..FaultConfig::default()
        }),
        ..ServiceConfig::default()
    })
    .unwrap();
    let h = service.submit_with(
        pattern,
        config,
        JobOptions {
            retry: RetryPolicy::attempts(3),
            ..JobOptions::default()
        },
    );
    await_completed(&service, 1);
    assert_eq!(service.attempts(h.id()), Some(3));
    let err = service.wait(h.id()).unwrap_err();
    let rendered = err.to_string();
    match err {
        ServiceError::Internal { stage, message } => {
            assert!(
                rendered.contains(&format!("{stage:?} task")),
                "rendered error names the panicking stage, got: {rendered}"
            );
            assert!(
                message.contains("injected fault") && message.contains("InjectedFault"),
                "self-describing payload, got: {message}"
            );
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    let stats = service.stats();
    assert_eq!(
        (stats.retries, stats.failed, stats.completed),
        (2, 1, 1),
        "{stats:?}"
    );
    assert_eq!(stats.pool_outstanding, 0);
}

/// A half-panic plan recovers through retries: with a generous budget
/// the job eventually completes bit-identical, and the retry counter
/// agrees with the attempts used.
#[test]
fn retries_recover_from_transient_panics() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let pattern = pattern_for(1, 7);
    let expected = DcMbqcCompiler::new(config.clone())
        .compile_pattern(&pattern)
        .unwrap();
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        faults: FaultPlan::new(FaultConfig {
            // This seed's Panic-site decision stream at p = 0.25
            // fails attempts 1-13 and lets attempt 14 through (every
            // attempt draws at each stage-task entry and at the
            // mid-task site of each stage it computes), so the recovery
            // path is genuinely walked, not merely possible.
            seed: 13,
            task_panic: 0.25,
            ..FaultConfig::default()
        }),
        ..ServiceConfig::default()
    })
    .unwrap();
    let h = service.submit_with(
        pattern,
        config,
        JobOptions {
            // Headroom past the 14 attempts this seed's stream needs.
            retry: RetryPolicy::attempts(24).with_backoff(Duration::from_micros(100)),
            ..JobOptions::default()
        },
    );
    await_completed(&service, 1);
    let attempts = service.attempts(h.id()).unwrap();
    let got = service.wait(h.id()).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(got, expected, "recovered result bit-identical");
    let stats = service.stats();
    assert_eq!(stats.retries, u64::from(attempts - 1), "{stats:?}");
    assert_eq!((stats.completed, stats.failed), (1, 0), "{stats:?}");
    assert_eq!(stats.pool_outstanding, 0);
    // The single worker and seeded plan make the draw order
    // reproducible, so this pins the recovery path rather than hoping
    // for it.
    assert!(attempts > 1, "no retry exercised: {attempts} attempt(s)");
}

/// Deterministic `Compile` rejections are never retried, even with a
/// generous retry policy: one attempt, zero retries.
#[test]
fn compile_errors_are_never_retried() {
    // Boundary reservation on a 2×2 grid leaves no usable sites.
    let hw = DistributedHardware::builder()
        .num_qpus(2)
        .grid_width(2)
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let config = DcMbqcConfig::new(hw).with_boundary_reservation(true);
    let pattern = transpile(&bench::qft(6));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let h = service.submit_with(
        pattern,
        config,
        JobOptions {
            retry: RetryPolicy::attempts(5),
            ..JobOptions::default()
        },
    );
    await_completed(&service, 1);
    assert_eq!(service.attempts(h.id()), Some(1));
    assert!(matches!(
        service.wait(h.id()),
        Err(ServiceError::Compile(_))
    ));
    let stats = service.stats();
    assert_eq!((stats.retries, stats.failed), (0, 1), "{stats:?}");
}

/// Injected disk read errors quarantine the disk tier; the service
/// keeps completing jobs bit-identically from the memory tier
/// (degraded mode), and the quarantine surfaces in `ServiceStats`.
#[test]
fn disk_quarantine_degrades_to_memory_only() {
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let config = DcMbqcConfig::new(hardware(2, 9));
    let patterns: Vec<Pattern> = (0..3).map(|i| pattern_for(i, 7)).collect();
    let expected: Vec<DistributedSchedule> = {
        let compiler = DcMbqcCompiler::new(config.clone());
        patterns
            .iter()
            .map(|p| compiler.compile_pattern(p).unwrap())
            .collect()
    };
    let service = CompileService::new(ServiceConfig {
        workers: 2,
        store: StoreConfig {
            memory_capacity: 8 << 20,
            disk_dir: Some(dir.clone()),
            // Each job reads the disk once, at planning, and a write
            // already in flight when the breaker opens closes it again.
            // The first disk operation is always a read, so opening on
            // the first error leaves no write a way in.
            disk_error_threshold: 1,
            disk_probe_interval: Duration::from_secs(3600),
            faults: FaultPlan::new(FaultConfig {
                seed: 9,
                disk_read_error: 1.0,
                ..FaultConfig::default()
            }),
            ..StoreConfig::default()
        },
        ..ServiceConfig::default()
    })
    .unwrap();
    // Two rounds: the warm round is answered by the *memory* tier
    // even though every disk read the cold round attempted errored.
    for _round in 0..2 {
        let ids: Vec<_> = patterns
            .iter()
            .map(|p| service.submit(p.clone(), config.clone()))
            .collect();
        for (id, want) in ids.iter().zip(&expected) {
            assert_eq!(&service.wait(*id).unwrap(), want);
        }
    }
    let stats = service.stats();
    assert!(stats.disk_quarantined, "{stats:?}");
    assert!(stats.store.disk_quarantines >= 1, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// A job whose first attempt panics after its planning task ran, and
/// whose second attempt succeeds, is counted once: each job's planning
/// outcome is counted by its first planning task, not per attempt.
#[test]
fn a_job_that_panics_once_is_counted_once() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let pattern = pattern_for(1, 7);
    let expected = DcMbqcCompiler::new(config.clone())
        .compile_pattern(&pattern)
        .unwrap();
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        faults: FaultPlan::new(FaultConfig {
            // With one worker the draws are deterministic: this seed's
            // stream at p = 0.2 lets attempt 1 plan and partition,
            // panics its map task, and lets attempt 2 through.
            seed: 17,
            task_panic: 0.2,
            ..FaultConfig::default()
        }),
        ..ServiceConfig::default()
    })
    .unwrap();
    let h = service.submit_with(
        pattern,
        config,
        JobOptions {
            retry: RetryPolicy::attempts(4).with_backoff(Duration::from_micros(100)),
            ..JobOptions::default()
        },
    );
    await_completed(&service, 1);
    assert_eq!(service.attempts(h.id()), Some(2));
    assert_eq!(service.wait(h.id()).unwrap(), expected);
    let stats = service.stats();
    // Attempt 1 ran three tasks (the third panicked), attempt 2 four.
    assert_eq!((stats.retries, stats.tasks_executed), (1, 7), "{stats:?}");
    assert_eq!(
        (stats.full_compiles, stats.hits_scheduled),
        (1, 0),
        "counted once: {stats:?}"
    );
}
