//! A remote `SubscribeEvents` for a job that is not queued or running
//! must end: the server answers `Subscribed`, streams whatever is
//! buffered (nothing, for a finished or unknown job) and closes the
//! stream, leaving the connection usable.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use dc_mbqc::DcMbqcConfig;
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{Client, Server, WireJobOptions, WireOutcome};
use mbqc_pattern::transpile::transpile;
use mbqc_service::{CompileService, ServiceConfig};

/// How long a stream for a finished job may take to end. It should end
/// at once; the bound only keeps a regression from hanging the suite.
const STREAM_END_TIMEOUT: Duration = Duration::from_secs(10);

fn config() -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(2)
        .grid_width(bench::grid_size_for(6))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw)
}

/// Subscribes to `id` on a fresh connection and drains the stream on
/// a helper thread. Returns the events received before end-of-stream,
/// or `None` when the stream did not end within the timeout.
fn drain_subscription(addr: std::net::SocketAddr, id: u64) -> Option<usize> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let client = Client::connect(addr).expect("connect");
        let stream = client.subscribe_events(id).expect("subscribed");
        let (events, mut client) = stream.finish().expect("stream ends cleanly");
        // The connection is back in request/reply mode.
        client.stats().expect("connection still usable");
        let _ = tx.send(events.len());
    });
    rx.recv_timeout(STREAM_END_TIMEOUT).ok()
}

#[test]
fn subscribing_to_a_finished_or_unknown_job_ends_the_stream() {
    let service = Arc::new(
        CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let mut server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let id = client
        .submit(
            &transpile(&bench::qft(6)),
            &config(),
            WireJobOptions::default(),
        )
        .expect("admitted");
    match client.wait(id, None).expect("wait") {
        Some(WireOutcome::Ok(_)) => {}
        other => panic!("job did not compile: {other:?}"),
    }

    for (what, id) in [("finished job", id), ("unknown job", 999_999)] {
        let events = drain_subscription(addr, id)
            .unwrap_or_else(|| panic!("{what}: stream did not end within {STREAM_END_TIMEOUT:?}"));
        assert_eq!(events, 0, "{what}: no events after the job ended");
    }
    server.shutdown();
}
