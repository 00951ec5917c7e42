//! The telemetry correctness matrix: the event stream must be a
//! faithful, ordered, gap-free account of every job's lifecycle —
//! under lifecycle churn — and observers must never perturb the
//! service.
//!
//! The headline property pins, under a mixed two-tenant workload with
//! cancellations and lapsed deadlines:
//!
//! * every job's events arrive in sequence order with **gap-free**
//!   `seq` starting at 0;
//! * the first event is `Submitted`, the last is `Terminal`, nothing
//!   follows `Terminal`, and the terminal state **matches** what
//!   `wait` returned;
//! * per-job timestamps are non-decreasing, every `TaskFinished` pairs
//!   with a preceding `TaskStarted` of the same stage and attempt, and
//!   `Expired` jobs ran zero tasks;
//! * a service-wide subscriber created before any submission misses
//!   nothing, and the whole capture round-trips the Chrome trace
//!   exporter's schema check.
//!
//! Deterministic companions pin the subscriber-robustness corners: a
//! full (undrained) bounded subscription counts drops but never blocks
//! or corrupts job results; a subscriber dropped mid-run never wedges
//! the service; per-job streams close themselves after `Terminal`, or
//! at once for a job that is already terminal or unknown; and a dormant
//! service (no subscribers) emits nothing.

mod common;

use std::collections::HashMap;
use std::time::Duration;

use common::chrome_trace::validate_chrome_trace;
use dc_mbqc::DcMbqcConfig;
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_service::{
    chrome_trace_json, CompileService, EventKind, JobId, JobOptions, PipelineStage, Priority,
    ServiceConfig, ServiceError, StageKind, TelemetryEvent, TerminalState,
};
use mbqc_util::Rng;
use proptest::prelude::*;

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

/// The terminal state the event stream must report for a `wait` result.
fn expected_terminal(result: &Result<dc_mbqc::DistributedSchedule, ServiceError>) -> TerminalState {
    match result {
        Ok(_) => TerminalState::Done,
        Err(ServiceError::Cancelled(_)) => TerminalState::Cancelled,
        Err(ServiceError::Expired(_)) => TerminalState::Expired,
        Err(_) => TerminalState::Failed,
    }
}

/// Audits one job's captured event slice against the stream contract.
fn check_job_stream(
    what: &str,
    events: &[TelemetryEvent],
    terminal: TerminalState,
) -> Result<(), TestCaseError> {
    prop_assert!(!events.is_empty(), "{}: job emitted no events", what);
    for (i, ev) in events.iter().enumerate() {
        prop_assert_eq!(ev.seq as usize, i, "{}: seq gap at {}: {:?}", what, i, ev);
    }
    for pair in events.windows(2) {
        prop_assert!(
            pair[0].at_ns <= pair[1].at_ns,
            "{}: timestamps regressed: {:?}",
            what,
            pair
        );
    }
    prop_assert!(
        matches!(events[0].kind, EventKind::Submitted { .. }),
        "{}: first event not Submitted: {:?}",
        what,
        events[0]
    );
    let last = events.last().unwrap();
    match last.kind {
        EventKind::Terminal { state } => {
            prop_assert_eq!(
                state,
                terminal,
                "{}: terminal event disagrees with wait()",
                what
            );
        }
        other => prop_assert!(false, "{}: last event not Terminal: {:?}", what, other),
    }
    let terminals = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Terminal { .. }))
        .count();
    prop_assert_eq!(terminals, 1, "{}: {} terminal events", what, terminals);
    // Every finish pairs with an earlier start of the same (stage,
    // attempt); an expired job ran nothing.
    let mut started: Vec<(dc_mbqc::StageKind, u32)> = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::TaskStarted { stage, attempt } => started.push((stage, attempt)),
            EventKind::TaskFinished { stage, attempt, .. } => {
                prop_assert!(
                    started.contains(&(stage, attempt)),
                    "{}: finish without start: {:?}",
                    what,
                    ev
                );
            }
            _ => {}
        }
    }
    if terminal == TerminalState::Expired {
        prop_assert!(
            started.is_empty(),
            "{}: expired job ran {} task(s)",
            what,
            started.len()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance matrix (see the module docs).
    #[test]
    fn event_streams_are_ordered_gap_free_and_terminal_consistent(
        qubits in 6usize..9,
        qpus in 2usize..4,
        seed in 0u64..1000,
    ) {
        let config = DcMbqcConfig::new(hardware(qpus, qubits + 2)).with_seed(seed);
        let patterns: Vec<Pattern> =
            (0..4).map(|i| pattern_for(i, qubits + (i % 3))).collect();
        let service = CompileService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let recent = common::RecentEvents::attach(&service, 64);
        let what = format!("seed={seed}");
        let cell = (|| -> Result<(), TestCaseError> {
            // Service-wide subscriber registered before any
            // submission: it must miss nothing.
            let all = service.subscribe(None, Some(1 << 14));
            let mut rng = Rng::seed_from_u64(seed ^ 0xC0FF_EE00);
            let mut jobs: Vec<(JobId, u64)> = Vec::new();
            for (i, pattern) in patterns.iter().enumerate() {
                let priority = Priority::ALL[rng.range(3)];
                let churn = rng.range(10);
                let options = JobOptions {
                    priority,
                    tenant: (i % 2) as u32,
                    // ~20% lapsed deadlines exercise `Expired`.
                    deadline: (churn == 0).then_some(Duration::ZERO),
                    ..JobOptions::default()
                };
                let h = service.submit_with(pattern.clone(), config.clone(), options);
                // ~20% cancels land at arbitrary points.
                if churn == 1 {
                    service.cancel(h.id());
                }
                jobs.push((h.id(), i as u64));
            }
            let mut terminal: HashMap<JobId, TerminalState> = HashMap::new();
            for &(id, _) in &jobs {
                terminal.insert(id, expected_terminal(&service.wait(id)));
            }
            // `wait` returning implies the terminal event was
            // already delivered to the pre-registered
            // subscriber, so a non-blocking drain is complete.
            let mut captured: Vec<TelemetryEvent> = Vec::new();
            while let Some(ev) = all.recv_timeout(Duration::ZERO) {
                captured.push(ev);
            }
            prop_assert_eq!(all.dropped(), 0, "{}: capacity overrun", &what);
            let mut by_job: HashMap<JobId, Vec<TelemetryEvent>> = HashMap::new();
            for ev in &captured {
                if let Some(id) = ev.job {
                    by_job.entry(id).or_default().push(*ev);
                }
            }
            for (&id, &state) in &terminal {
                let events = by_job.get(&id);
                prop_assert!(events.is_some(), "{}: job {:?} unseen", &what, id);
                check_job_stream(
                    &format!("{what} job={id:?}"),
                    events.unwrap(),
                    state,
                )?;
            }
            // The whole capture round-trips the trace schema.
            let json = chrome_trace_json(&captured);
            let spans = validate_chrome_trace(&json);
            prop_assert!(spans.is_ok(), "{}: {:?}", &what, spans);
            prop_assert!(spans.unwrap() > 0, "{}: empty trace", &what);
            Ok(())
        })();
        common::audited(&recent, &what, cell)?;
    }
}

/// A per-job stream from an observed submit is complete (`Submitted`
/// at seq 0 through `Terminal`) and closes itself after the terminal
/// event.
#[test]
fn observed_stream_is_complete_and_self_closing() {
    let config = DcMbqcConfig::new(hardware(2, 10));
    let pattern = transpile(&bench::qft(8));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut handle = service.submit_with(pattern, config, observed());
    let mut events = handle
        .take_events()
        .expect("observed submit registers a stream");
    service.wait(handle.id()).expect("job completes");
    let captured: Vec<TelemetryEvent> = events.by_ref().collect();
    assert!(
        events.is_closed(),
        "per-job stream stays open after Terminal"
    );
    assert!(captured.len() >= 2);
    assert!(
        matches!(captured[0].kind, EventKind::Submitted { .. }),
        "{:?}",
        captured[0]
    );
    assert_eq!(captured[0].seq, 0);
    assert!(
        matches!(
            captured.last().unwrap().kind,
            EventKind::Terminal {
                state: TerminalState::Done
            }
        ),
        "{:?}",
        captured.last()
    );
    // Four stages ran and finished exactly once each (cold cache).
    let finished = captured
        .iter()
        .filter(|e| matches!(e.kind, EventKind::TaskFinished { .. }))
        .count();
    assert_eq!(finished, 4, "{captured:?}");
}

/// A per-job subscription made after the job ended, or for an id that
/// was never submitted, is closed on return: it can never see a
/// `Terminal` event, so it must not wait for one.
#[test]
fn subscription_to_a_finished_or_unknown_job_is_closed() {
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let id = service.submit(pattern_for(0, 7), DcMbqcConfig::new(hardware(2, 9)));
    service.wait(id).expect("job completes");
    let unknown = mbqc_service::JobId::from_raw(id.as_u64() + 1_000);
    for job in [id, unknown] {
        let stream = service.subscribe(Some(job), None);
        assert!(stream.is_closed(), "{job:?}: stream left open");
        assert!(stream.recv().is_none(), "{job:?}: events after the end");
    }
}

/// An undrained capacity-1 subscriber counts drops but never blocks a
/// worker or perturbs results; dropping a subscriber mid-run never
/// wedges the service; and a fresh subscription after all that still
/// works.
#[test]
fn slow_and_dropped_subscribers_never_block() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let patterns: Vec<Pattern> = (0..4).map(|i| pattern_for(i, 7)).collect();
    let service = CompileService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    // Subscriber A: bound 1, never drained — overflow must be counted,
    // not waited on.
    let starved = service.subscribe(None, Some(1));
    // Subscriber B: dropped while jobs are in flight — the hub must
    // prune it and stop paying for it.
    let doomed = service.subscribe(None, Some(4));
    let ids: Vec<_> = patterns
        .iter()
        .map(|p| service.submit(p.clone(), config.clone()))
        .collect();
    drop(doomed);
    for id in ids {
        service
            .wait(id)
            .expect("jobs complete despite slow subscribers");
    }
    assert!(
        starved.dropped() > 0,
        "capacity-1 subscriber never overflowed"
    );
    assert_eq!(lockstep_len(&starved), 1, "bound holds");
    drop(starved);
    // The service is still healthy: a fresh per-job stream sees a full
    // lifecycle.
    let mut h = service.submit_with(patterns[0].clone(), config.clone(), observed());
    let events = h.take_events().expect("observed submit registers a stream");
    service.wait(h.id()).expect("post-churn job completes");
    let captured: Vec<TelemetryEvent> = events.collect();
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

/// Default options with a per-job stream registered at submit.
fn observed() -> JobOptions {
    JobOptions {
        observe: true,
        ..JobOptions::default()
    }
}

/// Number of buffered events a stream currently holds (drains it).
fn lockstep_len(stream: &mbqc_service::EventStream) -> usize {
    let mut n = 0;
    while stream.recv_timeout(Duration::ZERO).is_some() {
        n += 1;
    }
    n
}

/// With no subscriber the service emits nothing and allocates nothing:
/// a stream subscribed *after* the workload saw none of it.
#[test]
fn dormant_service_emits_nothing() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let pattern = pattern_for(0, 7);
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let id = service.submit(pattern, config);
    service.wait(id).expect("completes");
    let late = service.subscribe(None, None);
    assert!(
        late.recv_timeout(Duration::ZERO).is_none(),
        "late subscriber saw stale events"
    );
    drop(service);
}

/// A service-wide subscriber outliving the service drains its buffer,
/// then observes the closed channel (no deadlock on `recv`).
#[test]
fn subscriber_outliving_service_sees_close() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let pattern = pattern_for(1, 7);
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut stream = service.subscribe(None, None);
    let id = service.submit(pattern, config);
    service.wait(id).expect("completes");
    drop(service);
    let captured: Vec<TelemetryEvent> = stream.by_ref().collect();
    assert!(stream.is_closed());
    assert!(
        captured
            .iter()
            .any(|e| matches!(e.kind, EventKind::Terminal { .. })),
        "{captured:?}"
    );
}

/// A job-scoped event for the trace-exporter tests.
fn trace_event(job: u64, seq: u32, at_ns: u64, kind: EventKind) -> TelemetryEvent {
    TelemetryEvent {
        job: Some(JobId::from_raw(job)),
        seq,
        at_ns,
        kind,
    }
}

#[test]
fn trace_export_round_trips_schema_validation() {
    let events = vec![
        trace_event(
            3,
            0,
            1_000,
            EventKind::Submitted {
                priority: Priority::Interactive,
            },
        ),
        trace_event(
            3,
            1,
            2_000,
            EventKind::TaskStarted {
                stage: StageKind::Transpile,
                attempt: 0,
            },
        ),
        trace_event(
            3,
            2,
            9_000,
            EventKind::TaskFinished {
                stage: StageKind::Transpile,
                attempt: 0,
                duration_ns: 7_000,
            },
        ),
        trace_event(
            3,
            3,
            9_500,
            EventKind::CacheHit {
                stage: PipelineStage::Schedule,
            },
        ),
        trace_event(
            3,
            4,
            10_000,
            EventKind::RetryScheduled {
                attempt: 1,
                delay_ns: 500,
            },
        ),
        trace_event(
            3,
            5,
            20_000,
            EventKind::Terminal {
                state: TerminalState::Done,
            },
        ),
        TelemetryEvent {
            job: None,
            seq: 0,
            at_ns: 5_000,
            kind: EventKind::QuarantineOpened,
        },
    ];
    let json = chrome_trace_json(&events);
    let n = validate_chrome_trace(&json).expect("exporter output must validate");
    // job span + attempt span + stage span + 2 instants + quarantine.
    assert_eq!(n, 6);
    assert!(json.contains("\"terminal\":\"done\""));
    assert!(json.contains("\"priority\":\"Interactive\""));
}

#[test]
fn validator_rejects_malformed_documents() {
    assert!(validate_chrome_trace("").is_err());
    assert!(validate_chrome_trace("{}").is_err());
    assert!(validate_chrome_trace("{\"traceEvents\":{}}").is_err());
    assert!(validate_chrome_trace("{\"traceEvents\":[{\"ph\":\"X\"}]}").is_err());
    assert!(validate_chrome_trace(
        "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"Z\",\"ts\":0,\"pid\":1,\"tid\":1}]}"
    )
    .is_err());
    assert!(validate_chrome_trace("{\"traceEvents\":[]} trailing").is_err());
    assert_eq!(
        validate_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"a\",\"ph\":\"i\",\"ts\":0.5,\"pid\":1,\"tid\":7}]}"
        ),
        Ok(1)
    );
}

#[test]
fn json_parser_handles_escapes_and_unicode() {
    let doc = "{\"traceEvents\":[{\"name\":\"caf\\u00e9 \\\"x\\\" \\n µs\",\"ph\":\"i\",\"ts\":1e3,\"pid\":1,\"tid\":2}]}";
    assert_eq!(validate_chrome_trace(doc), Ok(1));
}
