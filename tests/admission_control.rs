//! Deterministic pins for the admission-control surface
//! (`CompileService::submit_checked`) and for the consistency of
//! `stats()` snapshots under churn.
//!
//! * deadline-aware admission: an unmeetable deadline is rejected at
//!   submit — the job is never enqueued — while a generous one is
//!   admitted;
//! * backpressure: a bounded submit queue answers `Overloaded` with
//!   typed depth/limit once full, and drains back to accepting;
//! * quotas: an over-quota tenant is rejected with its tenant id in
//!   the error, and admitted again once its jobs drain;
//! * observed checked submits: an admitted job's stream is complete
//!   and gap-free, and a rejected one registers nothing;
//! * `stats()` consistency: a hammer thread snapshots during heavy
//!   churn and every snapshot satisfies
//!   `Σ tenant_in_flight == submitted − completed − cancelled − expired`.

use dc_mbqc::DcMbqcConfig;
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::transpile::transpile;
use mbqc_pattern::Pattern;
use mbqc_service::{
    AdmissionConfig, AdmissionError, CompileService, EventKind, JobOptions, ServiceConfig,
    TelemetryEvent, TenantQuota, TerminalState,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn config(qubits: usize) -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(3)
        .grid_width(bench::grid_size_for(qubits))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw)
}

/// A pattern slow enough that a submit loop always outruns the
/// worker, in debug and release builds alike.
fn slow_pattern() -> Pattern {
    transpile(&bench::qft(12))
}

fn tenant_opts(tenant: u32) -> JobOptions {
    JobOptions {
        tenant,
        ..JobOptions::default()
    }
}

#[test]
fn unmeetable_deadline_rejected_at_submit_and_never_enqueued() {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let pattern = transpile(&bench::qft(8));

    // A zero deadline is unmeetable by definition — rejected even on a
    // fresh service with empty latency histograms.
    let err = service
        .submit_checked(
            &pattern.to_bytes(),
            config(8),
            JobOptions {
                deadline: Some(Duration::ZERO),
                ..JobOptions::default()
            },
        )
        .expect("pattern decodes")
        .expect_err("zero deadline can never be met");
    assert!(matches!(err, AdmissionError::DeadlineUnmeetable { .. }));

    // Warm the stage-latency histograms with two real compilations so
    // the admission estimator has p95s to work with.
    for _ in 0..2 {
        let id = service.submit(pattern.clone(), config(8));
        service.wait(id).expect("compiles");
    }
    let before = service.stats();

    // One nanosecond against a multi-microsecond p95 estimate: reject.
    let err = service
        .submit_checked(
            &pattern.to_bytes(),
            config(8),
            JobOptions {
                deadline: Some(Duration::from_nanos(1)),
                ..JobOptions::default()
            },
        )
        .expect("pattern decodes")
        .expect_err("1 ns deadline is unmeetable once histograms have samples");
    match err {
        AdmissionError::DeadlineUnmeetable {
            deadline_ns,
            estimated_ns,
        } => {
            assert_eq!(deadline_ns, 1);
            assert!(estimated_ns > 1, "estimate must exceed the deadline");
            let rendered = err.to_string();
            assert!(rendered.contains("cannot be met"), "got: {rendered}");
        }
        other => panic!("expected DeadlineUnmeetable, got {other:?}"),
    }

    // Never enqueued: submitted unchanged, rejection counted.
    let after = service.stats();
    assert_eq!(
        after.submitted, before.submitted,
        "rejected job was enqueued"
    );
    assert_eq!(after.rejected, before.rejected + 1);

    // A generous deadline sails through and compiles.
    let handle = service
        .submit_checked(
            &pattern.to_bytes(),
            config(8),
            JobOptions {
                deadline: Some(Duration::from_secs(120)),
                ..JobOptions::default()
            },
        )
        .expect("pattern decodes")
        .expect("generous deadline admitted");
    service
        .wait(handle.id())
        .expect("compiles within its budget");
}

#[test]
fn bounded_queue_overloads_exactly_at_limit_and_drains_to_accepting() {
    const LIMIT: usize = 2;
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        admission: AdmissionConfig {
            max_queue_depth: Some(LIMIT),
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    })
    .expect("service starts");

    // The first submit always lands: the queue is empty. The pattern
    // is encoded once, so each submit below costs only its decode.
    // Every submit has its own compiler seed: none can be answered
    // from an earlier job's stored schedule, so only compiles drain
    // the queue.
    let slow = slow_pattern().to_bytes();
    let first = service
        .submit_checked(&slow, config(12).with_seed(0), JobOptions::default())
        .expect("pattern decodes")
        .expect("empty queue admits");

    // Keep submitting: the single worker is busy compiling, so the
    // queue must fill to the limit and reject with typed depth/limit
    // long before 100 attempts.
    let mut admitted = vec![first];
    let mut overload = None;
    for seed in 1..=100 {
        match service
            .submit_checked(&slow, config(12).with_seed(seed), JobOptions::default())
            .expect("pattern decodes")
        {
            Ok(h) => admitted.push(h),
            Err(e) => {
                overload = Some(e);
                break;
            }
        }
    }
    match overload.expect("bounded queue must overload") {
        AdmissionError::Overloaded { depth, limit } => {
            assert_eq!(limit, LIMIT);
            assert!(depth >= LIMIT, "rejected below the limit: depth {depth}");
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert!(service.stats().rejected >= 1);

    // Drain every admitted job; the queue empties and accepts again.
    let ids: Vec<_> = admitted.iter().map(|h| h.id()).collect();
    for id in ids {
        service.wait(id).expect("admitted jobs compile");
    }
    let again = service
        .submit_checked(&slow, config(12).with_seed(101), JobOptions::default())
        .expect("pattern decodes")
        .expect("drained queue admits again");
    service.wait(again.id()).expect("compiles");
}

#[test]
fn quota_exceeded_rejected_with_tenant_id_and_drains() {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        admission: AdmissionConfig {
            tenants: vec![TenantQuota::new(7).with_max_in_flight(1)],
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    })
    .expect("service starts");

    let first = service
        .submit_checked(&slow_pattern().to_bytes(), config(12), tenant_opts(7))
        .expect("pattern decodes")
        .expect("first job within quota");

    let err = service
        .submit_checked(&slow_pattern().to_bytes(), config(12), tenant_opts(7))
        .expect("pattern decodes")
        .expect_err("second in-flight job exceeds quota 1");
    match &err {
        AdmissionError::QuotaExceeded {
            tenant,
            in_flight,
            limit,
        } => {
            assert_eq!(*tenant, 7);
            assert_eq!(*in_flight, 1);
            assert_eq!(*limit, 1);
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    assert!(
        err.to_string().contains("tenant 7"),
        "error must name the tenant: {err}"
    );

    // An unconfigured tenant is unconstrained.
    let other = service
        .submit_checked(&slow_pattern().to_bytes(), config(12), tenant_opts(8))
        .expect("pattern decodes")
        .expect("tenant without a quota is not limited");

    // Once tenant 7's job drains, its quota frees up.
    service.wait(first.id()).expect("compiles");
    let again = service
        .submit_checked(&slow_pattern().to_bytes(), config(12), tenant_opts(7))
        .expect("pattern decodes")
        .expect("drained tenant admits again");
    service.wait(again.id()).expect("compiles");
    service.wait(other.id()).expect("compiles");
}

/// `submit_checked` with `observe` set, in process: an admitted job's
/// stream runs gap-free from `Submitted` (seq 0) to `Terminal`, and a
/// rejected submit returns `Err`, enqueues nothing and counts one
/// rejection.
#[test]
fn observed_checked_submit_streams_or_rejects() {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        admission: AdmissionConfig {
            tenants: vec![TenantQuota::new(7).with_max_in_flight(1)],
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let observed = JobOptions {
        observe: true,
        ..tenant_opts(7)
    };

    let mut admitted = service
        .submit_checked(&slow_pattern().to_bytes(), config(12), observed.clone())
        .expect("pattern decodes")
        .expect("first job within quota");
    let events = admitted
        .take_events()
        .expect("observed submit registers a stream");

    // Tenant 7 is at its quota while the first job is in flight.
    let before = service.stats();
    let err = service
        .submit_checked(&slow_pattern().to_bytes(), config(12), observed)
        .expect("pattern decodes")
        .expect_err("second in-flight job exceeds quota 1");
    assert!(
        matches!(err, AdmissionError::QuotaExceeded { tenant: 7, .. }),
        "{err:?}"
    );
    let after = service.stats();
    assert_eq!(
        after.submitted, before.submitted,
        "rejected job was enqueued"
    );
    assert_eq!(after.rejected, before.rejected + 1);

    // `wait` returning implies the terminal event is already delivered
    // and the per-job stream closed.
    service.wait(admitted.id()).expect("compiles");
    let captured: Vec<TelemetryEvent> = events.collect();
    assert!(
        matches!(captured[0].kind, EventKind::Submitted { .. }),
        "{captured:?}"
    );
    assert!(
        captured
            .iter()
            .enumerate()
            .all(|(i, e)| e.seq as usize == i),
        "gap-free from seq 0: {captured:?}"
    );
    assert!(
        captured.iter().all(|e| e.job == Some(admitted.id())),
        "{captured:?}"
    );
    assert!(
        matches!(
            captured.last().unwrap().kind,
            EventKind::Terminal {
                state: TerminalState::Done
            }
        ),
        "{captured:?}"
    );
}

/// Hammer `stats()` during churn: every snapshot must be internally
/// consistent — the per-tenant in-flight gauges and the terminal
/// counters are updated in one critical section, so
/// `Σ tenant_in_flight == submitted − completed − cancelled − expired`
/// holds in *every* snapshot, not just at quiescence.
#[test]
fn stats_snapshots_stay_consistent_under_churn() {
    let service = Arc::new(
        CompileService::new(ServiceConfig {
            workers: 4,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let stop = Arc::new(AtomicBool::new(false));

    // Churn threads: submit small jobs across three tenants, cancel
    // every third one.
    let churners: Vec<_> = (0..3u32)
        .map(|tenant| {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let pattern = transpile(&bench::qft(8));
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let handle = match service
                        .submit_checked(&pattern.to_bytes(), config(8), tenant_opts(tenant))
                        .expect("pattern decodes")
                    {
                        Ok(h) => h,
                        Err(_) => continue,
                    };
                    n += 1;
                    if n.is_multiple_of(3) {
                        service.cancel(handle.id());
                    }
                    let _ = service.wait(handle.id());
                }
            })
        })
        .collect();

    // The hammer: snapshot as fast as possible and check the invariant
    // on every single snapshot.
    let mut snapshots = 0u64;
    let deadline = std::time::Instant::now() + Duration::from_millis(500);
    while std::time::Instant::now() < deadline {
        let s = service.stats();
        let in_flight: u64 = s.tenants.iter().map(|t| t.in_flight).sum();
        let settled = s.completed + s.cancelled + s.expired;
        assert!(
            settled <= s.submitted,
            "snapshot {snapshots}: more terminals than submissions ({settled} > {})",
            s.submitted
        );
        assert_eq!(
            in_flight,
            s.submitted - settled,
            "snapshot {snapshots}: tenant gauges disagree with job counters \
             (submitted {} completed {} cancelled {} expired {})",
            s.submitted,
            s.completed,
            s.cancelled,
            s.expired
        );
        snapshots += 1;
    }
    stop.store(true, Ordering::Relaxed);
    for t in churners {
        t.join().expect("churner exits cleanly");
    }
    assert!(snapshots > 100, "hammer must observe real churn");

    // Quiescent: everything accounted for, nothing left in flight.
    let s = service.stats();
    assert_eq!(s.completed + s.cancelled + s.expired, s.submitted);
    for t in &s.tenants {
        assert_eq!(t.in_flight, 0, "tenant {} leaked in-flight", t.tenant);
    }
    assert_eq!(s.pool_outstanding, 0);
}
