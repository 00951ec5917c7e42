//! Resident warm hits over the wire: the server's `submit_checked`
//! answers a job whose schedule is resident in the store before it
//! replies `Submitted`, so a `Poll` sent right after never sees
//! `Pending`, and an observed submit streams exactly `Submitted`,
//! `CacheHit`, `Terminal` before the end-of-stream frame.

use std::sync::Arc;

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig, PipelineStage};
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{Client, Server, WireJobOptions, WireOutcome};
use mbqc_pattern::transpile::transpile;
use mbqc_service::{CompileService, EventKind, ServiceConfig, TerminalState};

#[test]
fn warm_submit_is_answered_before_its_reply() {
    let hw = DistributedHardware::builder()
        .num_qpus(2)
        .grid_width(bench::grid_size_for(6))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let config = DcMbqcConfig::new(hw);
    let pattern = transpile(&bench::qft(6));
    let expected = DcMbqcCompiler::new(config.clone())
        .compile_pattern(&pattern)
        .expect("compiles");

    let service = Arc::new(
        CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let mut server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let served = |outcome: Option<WireOutcome>| match outcome {
        Some(WireOutcome::Ok(s)) => *s,
        other => panic!("not served: {other:?}"),
    };

    // The cold compile fills the store.
    let id = client
        .submit(&pattern, &config, WireJobOptions::default())
        .expect("admitted");
    assert_eq!(served(client.wait(id, None).expect("wait")), expected);

    for round in 0..3 {
        let id = client
            .submit(&pattern, &config, WireJobOptions::default())
            .expect("admitted");
        let outcome = client.poll(id).expect("poll");
        assert!(outcome.is_some(), "round {round}: warm poll was Pending");
        assert_eq!(served(outcome), expected, "round {round}");
    }

    let events = client
        .submit_observed(&pattern, &config, WireJobOptions::default())
        .expect("admitted");
    let id = events.job_id();
    // `finish` returns once the end-of-stream frame arrived.
    let (captured, mut client) = events.finish().expect("stream ends cleanly");
    let kinds: Vec<EventKind> = captured.iter().map(|e| e.kind).collect();
    assert!(
        matches!(
            kinds.as_slice(),
            [
                EventKind::Submitted { .. },
                EventKind::CacheHit {
                    stage: PipelineStage::Schedule
                },
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
    assert_eq!(served(client.wait(id, None).expect("wait")), expected);

    let stats = client.stats().expect("stats");
    assert_eq!((stats.hits_scheduled, stats.full_compiles), (4, 1));
    assert_eq!(stats.tasks_executed, 4, "only the cold compile ran tasks");
    server.shutdown();
}
