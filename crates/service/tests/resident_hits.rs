//! Resident warm hits: a job whose `Scheduled` artifact sits in the
//! store's memory tier is answered inside the submit call, on the
//! submitting thread.
//!
//! Pinned here:
//!
//! * the hit is terminal when `submit` returns, equals the direct
//!   `compile_pattern` result, and costs no stage task, no queue wait
//!   and no store miss or disk read;
//! * a job whose cancel token already fired, or whose deadline already
//!   lapsed, still ends `Cancelled` / `Expired` and is not a hit;
//! * an observed hit streams exactly `Submitted`, `CacheHit`,
//!   `Terminal` and closes;
//! * admission runs first: a refused submit reads nothing from the
//!   store.

use std::path::PathBuf;
use std::time::Duration;

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig, DistributedSchedule};
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_service::{
    AdmissionConfig, AdmissionError, CancelToken, CompileService, EventKind, JobOptions,
    ServiceConfig, ServiceError, StoreConfig, TenantQuota, TerminalState,
};

fn job() -> (Pattern, DcMbqcConfig) {
    let hw = DistributedHardware::builder()
        .num_qpus(2)
        .grid_width(bench::grid_size_for(6))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    (transpile(&bench::qft(6)), DcMbqcConfig::new(hw))
}

fn direct(pattern: &Pattern, config: &DcMbqcConfig) -> DistributedSchedule {
    DcMbqcCompiler::new(config.clone())
        .compile_pattern(pattern)
        .expect("compiles")
}

/// A one-worker service whose store already holds the job's schedule
/// (one cold compile ran through it).
fn warm_service(config: ServiceConfig) -> CompileService {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..config
    })
    .expect("service starts");
    let (pattern, config) = job();
    let id = service.submit(pattern, config);
    service.wait(id).expect("cold compile");
    service
}

/// A fresh, empty disk-tier directory for one test.
fn disk_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mbqc-resident-hits-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resident_hit_completes_inside_submit() {
    let dir = disk_dir("inside-submit");
    let service = warm_service(ServiceConfig {
        store: StoreConfig {
            disk_dir: Some(dir.clone()),
            ..StoreConfig::default()
        },
        ..ServiceConfig::default()
    });
    let (pattern, config) = job();
    let expected = direct(&pattern, &config);
    let before = service.stats();
    // The cold compile's planning task probed the job's one key: the
    // submit-time probe added no miss.
    assert_eq!(before.store.misses, 1, "{before:?}");

    let id = service.submit(pattern, config);
    let got = service
        .try_poll(id)
        .expect("terminal when submit returns")
        .expect("served");
    assert_eq!(got, expected);

    let after = service.stats();
    assert_eq!(after.hits_scheduled, before.hits_scheduled + 1);
    assert_eq!(after.store.memory_hits, before.store.memory_hits + 1);
    assert_eq!(after.warm_hit.count, before.warm_hit.count + 1);
    assert_eq!(after.completed, before.completed + 1);
    // No task, no queue entry, no miss, no disk read.
    assert_eq!(after.tasks_executed, before.tasks_executed);
    assert_eq!(after.queue_wait.count, before.queue_wait.count);
    assert_eq!(after.stage_latency, before.stage_latency);
    assert_eq!(after.dedup_hits, before.dedup_hits);
    assert_eq!(after.store.misses, before.store.misses);
    assert_eq!(
        (
            after.store.disk_hits,
            after.store.disk_errors,
            after.store.disk_writes
        ),
        (
            before.store.disk_hits,
            before.store.disk_errors,
            before.store.disk_writes
        )
    );
    assert_eq!(after.pool_outstanding, 0);
    drop(service);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fired_token_and_lapsed_deadline_are_not_hits() {
    let service = warm_service(ServiceConfig::default());
    let before = service.stats();
    let (pattern, config) = job();

    let token = CancelToken::new();
    token.cancel();
    let cancelled = service.submit_with(
        pattern.clone(),
        config.clone(),
        JobOptions {
            cancel: Some(token),
            ..JobOptions::default()
        },
    );
    assert!(matches!(
        service.wait(cancelled.id()),
        Err(ServiceError::Cancelled(id)) if id == cancelled.id()
    ));

    let expired = service.submit_with(
        pattern,
        config,
        JobOptions {
            deadline: Some(Duration::ZERO),
            ..JobOptions::default()
        },
    );
    assert!(matches!(
        service.wait(expired.id()),
        Err(ServiceError::Expired(id)) if id == expired.id()
    ));

    let after = service.stats();
    assert_eq!(after.hits_scheduled, before.hits_scheduled);
    assert_eq!(after.store.memory_hits, before.store.memory_hits);
    assert_eq!(after.warm_hit.count, before.warm_hit.count);
    assert_eq!(after.tasks_executed, before.tasks_executed);
    assert_eq!(
        (after.cancelled, after.expired),
        (before.cancelled + 1, before.expired + 1)
    );
}

#[test]
fn observed_resident_hit_streams_three_events() {
    let service = warm_service(ServiceConfig::default());
    let (pattern, config) = job();
    let mut handle = service.submit_with(
        pattern,
        config,
        JobOptions {
            observe: true,
            ..JobOptions::default()
        },
    );
    let mut events = handle.take_events().expect("observed submit");
    let captured: Vec<_> = events.by_ref().collect();
    assert!(events.is_closed(), "the stream closes after Terminal");
    let kinds: Vec<EventKind> = captured.iter().map(|e| e.kind).collect();
    assert!(
        matches!(
            kinds.as_slice(),
            [
                EventKind::Submitted { .. },
                EventKind::CacheHit,
                EventKind::Terminal {
                    state: TerminalState::Done
                },
            ]
        ),
        "{captured:?}"
    );
    assert!(captured
        .iter()
        .enumerate()
        .all(|(i, e)| e.seq as usize == i));
    assert!(captured.iter().all(|e| e.job == Some(handle.id())));
    service.wait(handle.id()).expect("served");
}

#[test]
fn admission_refuses_a_warm_hit_before_reading_the_store() {
    let service = warm_service(ServiceConfig {
        admission: AdmissionConfig {
            // Tenant 1 may hold no job in flight: its quota is reached
            // before it submits anything.
            tenants: vec![TenantQuota::new(1).with_max_in_flight(0)],
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::default()
    });
    let before = service.stats();
    let (pattern, config) = job();
    let refused = service
        .submit_checked(
            &pattern.to_bytes(),
            config.clone(),
            JobOptions {
                tenant: 1,
                ..JobOptions::default()
            },
        )
        .expect("pattern decodes");
    assert!(matches!(
        refused,
        Err(AdmissionError::QuotaExceeded {
            tenant: 1,
            limit: 0,
            ..
        })
    ));
    let after = service.stats();
    assert_eq!(after.rejected, before.rejected + 1);
    assert_eq!(after.submitted, before.submitted);
    assert_eq!(after.hits_scheduled, before.hits_scheduled);
    assert_eq!(after.store.memory_hits, before.store.memory_hits);

    // The same job from a tenant with room is served at submit.
    let admitted = service
        .submit_checked(&pattern.to_bytes(), config.clone(), JobOptions::default())
        .expect("pattern decodes")
        .expect("admitted");
    let got = service.try_poll(admitted.id()).expect("terminal");
    assert_eq!(got.expect("served"), direct(&pattern, &config));
}
