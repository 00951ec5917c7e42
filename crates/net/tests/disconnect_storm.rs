//! Disconnect-storm smoke: clients that vanish mid-stream, mid-frame,
//! or mid-handshake must not leak jobs or server threads, or strand a
//! stage task. Jobs are service-scoped — a storm of dead sockets leaves
//! every submitted job reachable by id from a fresh connection.

use dc_mbqc::DcMbqcConfig;
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{Client, Server, WireJobOptions, WireOutcome, KIND_REQUEST};
use mbqc_pattern::transpile::transpile;
use mbqc_service::{CompileService, ServiceConfig};
use mbqc_util::frame::encode_frame;
use std::io::Write;
use std::net::TcpStream;
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

#[test]
fn disconnect_storm_leaks_no_jobs_or_workspaces() {
    let service = Arc::new(
        CompileService::new(ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let pattern = transpile(&bench::qft(8));

    // Wave 1: observed submissions whose sockets die mid-stream, at
    // varying points of the event sequence.
    let mut storm_ids = Vec::new();
    for i in 0..8 {
        let client = Client::connect(addr).expect("connect");
        let mut events = client
            .submit_observed(&pattern, &config(8), WireJobOptions::default())
            .expect("admitted");
        storm_ids.push(events.job_id());
        for _ in 0..(i % 3) {
            // Consume a few events before vanishing; `None` just means
            // the job already finished — still a valid storm member.
            if events.next_event().expect("stream alive").is_none() {
                break;
            }
        }
        drop(events); // socket closed mid-stream
    }

    // Wave 2: protocol abuse. Half a frame then EOF; garbage bytes;
    // a valid frame with an unknown verb then EOF. None of these may
    // wedge the server.
    {
        let frame = encode_frame(KIND_REQUEST, &[0u8; 16]);
        let mut half = TcpStream::connect(addr).expect("connect");
        half.write_all(&frame[..frame.len() / 2]).expect("write");
        drop(half);

        let mut garbage = TcpStream::connect(addr).expect("connect");
        garbage
            .write_all(b"this is not a frame at all")
            .expect("write");
        drop(garbage);

        let mut unknown = TcpStream::connect(addr).expect("connect");
        unknown
            .write_all(&encode_frame(KIND_REQUEST, &[250u8]))
            .expect("write");
        drop(unknown);
    }

    // Wave 3: plain submits whose connections die before waiting.
    for _ in 0..4 {
        let mut client = Client::connect(addr).expect("connect");
        let id = client
            .submit(&pattern, &config(8), WireJobOptions::default())
            .expect("admitted");
        storm_ids.push(id);
        drop(client);
    }

    // The server survived: a fresh connection collects every storm
    // job's terminal result by id.
    let mut survivor = Client::connect(addr).expect("server still accepting");
    for id in &storm_ids {
        match survivor
            .wait(*id, Some(Duration::from_secs(60)))
            .expect("transport")
        {
            Some(WireOutcome::Ok(_)) => {}
            other => panic!("storm job {id} should still compile, got {other:?}"),
        }
    }

    // Nothing leaked: every job accounted for, no task running, queue
    // empty, no tenant stuck in flight.
    let stats = survivor.stats().expect("stats over the wire");
    assert_eq!(stats.submitted, storm_ids.len() as u64);
    assert_eq!(
        stats.completed + stats.cancelled + stats.expired,
        stats.submitted,
        "storm left unaccounted jobs"
    );
    assert_eq!(stats.pool_outstanding, 0, "storm left a stage task running");
    assert_eq!(stats.queue_depth, 0);
    for t in &stats.tenants {
        assert_eq!(t.in_flight, 0, "tenant {} leaked in-flight", t.tenant);
    }

    // Orderly teardown joins every connection thread, including those
    // whose peers vanished.
    drop(server);
    assert_eq!(service.stats().pool_outstanding, 0);
}
