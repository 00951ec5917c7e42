//! The network front door in action: a [`CompileService`] behind a
//! loopback TCP [`Server`], driven entirely through the framed wire
//! protocol by typed [`Client`]s. Three tenants with weighted fair
//! shares and an in-flight quota submit a mixed workload; one job is
//! watched live over a remote event stream; admission control rejects
//! an over-quota tenant and an unmeetable deadline at the door; a
//! client vanishes mid-stream and its job is collected by id from a
//! fresh connection; and a warm repeat round shows the artifact cache
//! working across the wire. Ends with the server-side counter
//! snapshot fetched over the `Stats` verb.
//!
//! On the server, both submit verbs go through one admission-checked
//! call, `CompileService::submit_checked`. `SubmitObserved` sets
//! `JobOptions::observe`, so the job's stream is registered before its
//! first event. `SubscribeEvents` calls `CompileService::subscribe` for
//! one job id.
//!
//! Run with:
//! ```text
//! cargo run --release --example remote_demo
//! ```
//!
//! [`CompileService`]: mbqc_service::CompileService

use std::sync::Arc;
use std::time::{Duration, Instant};

use dc_mbqc::DcMbqcConfig;
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{Client, ClientError, Server, WireJobOptions, WireOutcome};
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_service::{AdmissionConfig, CompileService, Priority, ServiceConfig, TenantQuota};

const QUBITS: usize = 12;

fn config() -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(4)
        .grid_width(bench::grid_size_for(QUBITS))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw)
}

fn workload() -> Vec<(&'static str, Pattern)> {
    vec![
        ("qft", transpile(&bench::qft(QUBITS))),
        ("vqe", transpile(&bench::vqe(QUBITS, 1))),
        ("rca", transpile(&bench::rca(QUBITS))),
    ]
}

/// Prints one collected result (and insists it compiled).
fn report(outcome: Option<WireOutcome>, tenant: u32, name: &str, id: u64) {
    match outcome {
        Some(WireOutcome::Ok(schedule)) => println!(
            "  tenant {tenant} {name:>4} (job {id}): T = {} layers, lifetime = {} cycles",
            schedule.execution_time(),
            schedule.required_photon_lifetime()
        ),
        other => panic!("job {id} should compile, got {other:?}"),
    }
}

fn main() {
    // 1. A weighted-fair service with per-tenant quotas behind a
    //    loopback listener on an ephemeral port. Tenant 0 carries
    //    twice the weight; tenant 2 may hold at most two jobs in
    //    flight at a time.
    let service = Arc::new(
        CompileService::new(ServiceConfig {
            workers: 2,
            admission: AdmissionConfig {
                max_queue_depth: Some(64),
                tenants: vec![
                    TenantQuota::new(0).with_weight(2),
                    TenantQuota::new(1),
                    TenantQuota::new(2).with_max_in_flight(2),
                ],
            },
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    println!("server: listening on {addr} (2 workers, weighted-fair, quota on tenant 2)\n");

    // 2. Cold round: each tenant submits the workload over its own
    //    connection, then collects results by id. Jobs are
    //    server-scoped — any connection could collect them.
    let t = Instant::now();
    let mut clients: Vec<Client> = (0..3)
        .map(|_| Client::connect(addr).expect("connect"))
        .collect();
    let mut ids: Vec<(u32, &'static str, u64)> = Vec::new();
    for (tenant, client) in clients.iter_mut().enumerate() {
        for (name, pattern) in &workload() {
            let opts = WireJobOptions {
                priority: Priority::Normal,
                tenant: tenant as u32,
                ..WireJobOptions::default()
            };
            // Quota-aware submit: when admission answers
            // `QuotaExceeded`, drain this tenant's oldest outstanding
            // job and retry — the natural client-side response to
            // per-tenant backpressure.
            let id = loop {
                match client.submit(pattern, &config(), opts) {
                    Ok(id) => break id,
                    Err(ClientError::Rejected(e)) => {
                        println!("  [backpressure] {e}; draining one job first");
                        let pos = ids
                            .iter()
                            .position(|&(t, _, _)| t == tenant as u32)
                            .expect("quota implies an outstanding job");
                        let (t, n, oldest) = ids.remove(pos);
                        report(client.wait(oldest, None).expect("transport"), t, n, oldest);
                    }
                    Err(other) => panic!("submit failed: {other}"),
                }
            };
            ids.push((tenant as u32, name, id));
        }
    }
    let total = 3 * workload().len();
    for (tenant, name, id) in ids {
        report(
            clients[tenant as usize].wait(id, None).expect("transport"),
            tenant,
            name,
            id,
        );
    }
    println!("cold round: {total} jobs in {:?}\n", t.elapsed());

    // 3. A live remote event stream: submit observed (server side:
    //    `submit_checked` with `observe` set) and print the job's full
    //    telemetry as it arrives, gap-free from seq 0.
    let (name, pattern) = &workload()[0];
    let observer = Client::connect(addr).expect("connect");
    let events = observer
        .submit_observed(pattern, &config(), WireJobOptions::default())
        .expect("admitted");
    println!("observing job {} ({name}) over the wire:", events.job_id());
    let (stream, mut observer) = events.finish().expect("stream drains");
    for ev in &stream {
        println!("  seq {:>2}  {:?}", ev.seq, ev.kind);
    }
    match observer.wait(stream[0].job.map_or(0, |j| j.as_u64()), None) {
        Ok(Some(WireOutcome::Ok(_))) => println!("  → schedule collected on the same connection\n"),
        other => panic!("observed job should compile, got {other:?}"),
    }

    // 4. Admission control at the door. Tenant 2 fills its quota with
    //    two in-flight jobs; the third is rejected with the tenant id
    //    in the error. A 1 µs deadline is rejected against the p95
    //    latency estimate (the histograms are warm by now).
    let mut quota_client = Client::connect(addr).expect("connect");
    let opts2 = WireJobOptions {
        tenant: 2,
        ..WireJobOptions::default()
    };
    // Fresh 16-qubit patterns, nothing cached; transpiled up front so
    // the submits land back-to-back. Six filler jobs from the
    // unconstrained tenant 1 backlog both workers first, so tenant 2's
    // held jobs are still in flight (queued counts) when the third
    // submit arrives — deterministic regardless of compile speed.
    let hw16 = DistributedHardware::builder()
        .num_qpus(4)
        .grid_width(bench::grid_size_for(16))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let config16 = DcMbqcConfig::new(hw16);
    let fillers: Vec<Pattern> = (0..6).map(|s| transpile(&bench::vqe(16, 10 + s))).collect();
    let big = [
        transpile(&bench::vqe(16, 7)),
        transpile(&bench::rca(16)),
        transpile(&bench::qft(16)),
    ];
    let mut backlog = Vec::new();
    for p in &fillers {
        backlog.push(
            quota_client
                .submit(
                    p,
                    &config16,
                    WireJobOptions {
                        tenant: 1,
                        ..WireJobOptions::default()
                    },
                )
                .expect("tenant 1 is unconstrained"),
        );
    }
    let held: Vec<u64> = big[..2]
        .iter()
        .map(|p| {
            quota_client
                .submit(p, &config16, opts2)
                .expect("within quota")
        })
        .collect();
    match quota_client.submit(&big[2], &config16, opts2) {
        Err(ClientError::Rejected(e)) => println!("quota rejection: {e}"),
        other => panic!("third in-flight job should exceed the quota, got {other:?}"),
    }
    match quota_client.submit(
        &workload()[0].1,
        &config(),
        WireJobOptions {
            deadline_ns: Some(1_000),
            ..WireJobOptions::default()
        },
    ) {
        Err(ClientError::Rejected(e)) => println!("deadline rejection: {e}\n"),
        other => panic!("1 µs deadline should be unmeetable, got {other:?}"),
    }
    for id in backlog.into_iter().chain(held) {
        quota_client.wait(id, None).expect("transport");
    }

    // 5. Disconnect resilience: a client submits with an observer
    //    stream and vanishes after the first event. The job keeps
    //    running server-side; a fresh connection collects it by id.
    let vanished_id = {
        let c = Client::connect(addr).expect("connect");
        let mut events = c
            .submit_observed(&workload()[1].1, &config(), WireJobOptions::default())
            .expect("admitted");
        let _ = events.next_event().expect("stream alive");
        events.job_id()
        // connection dropped here, mid-stream
    };
    let mut survivor = Client::connect(addr).expect("connect");
    match survivor
        .wait(vanished_id, Some(Duration::from_secs(60)))
        .expect("transport")
    {
        Some(WireOutcome::Ok(_)) => {
            println!("disconnect: job {vanished_id} survived its client and compiled\n");
        }
        other => panic!("orphaned job should compile, got {other:?}"),
    }

    // 6. Warm repeat round: same workload again — served from the
    //    artifact cache, visible in the wire-level stats.
    let t = Instant::now();
    let warm_ids: Vec<u64> = workload()
        .iter()
        .map(|(_, p)| {
            survivor
                .submit(p, &config(), WireJobOptions::default())
                .expect("admitted")
        })
        .collect();
    for id in warm_ids {
        survivor.wait(id, None).expect("transport");
    }
    println!("warm round: 3 jobs in {:?}", t.elapsed());

    let stats = survivor.stats().expect("stats over the wire");
    println!(
        "server stats: submitted {} | completed {} | rejected {} | cache hits {} | \
         dedup {} | pool outstanding {}",
        stats.submitted,
        stats.completed,
        stats.rejected,
        stats.hits_scheduled + stats.hits_mapped + stats.hits_partitioned,
        stats.dedup_hits,
        stats.pool_outstanding
    );
    println!("per tenant:");
    for t in &stats.tenants {
        println!(
            "  tenant {}: submitted {}, in flight {}",
            t.tenant, t.submitted, t.in_flight
        );
    }
    assert_eq!(stats.pool_outstanding, 0, "drained server leaks nothing");
}
