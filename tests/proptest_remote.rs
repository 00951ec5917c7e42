//! The remote-equivalence matrix: jobs submitted over loopback TCP
//! through `mbqc-net` must be **bit-identical** to in-process
//! `compile_pattern`, across worker counts × tenants × cache states,
//! and must stay exactly-once-terminal under churn (cancels,
//! lapsed deadlines, disconnects mid-job).
//!
//! Pinned here:
//!
//! * worker counts {1, 2, 8} × cache states {cold, warm, warm and
//!   keyed from the server's wire-pattern memo, disk-restored}, with
//!   jobs spread over three tenants and all three priorities: every
//!   remote schedule's bytes equal the in-process compiler's bytes;
//! * remote `SubmitObserved` event streams are gap-free (consecutive
//!   seq from 0) and (seq, kind)-equal to in-process
//!   observed-submit streams;
//! * every churned job reaches exactly one terminal state (the first
//!   wait takes it; a second poll answers `UnknownJob`);
//! * no stage task still running after every cell
//!   (`pool_outstanding == 0`);
//! * a proptest sweep over random workloads and churn masks, whose
//!   patterns are then resubmitted on a second connection, so the
//!   server's wire-pattern memo answers inside the matrix too.

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig};
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{Client, Server, WireJobOptions, WireOutcome};
use mbqc_pattern::transpile::transpile;
use mbqc_pattern::Pattern;
use mbqc_service::{
    CompileService, EventKind, JobOptions, Priority, ServiceConfig, TelemetryEvent, TerminalState,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const QUBITS: usize = 8;

/// The terminal state a wire outcome maps to (`None` for `UnknownJob`,
/// which is not a terminal state: the job may never have existed).
fn terminal_state(outcome: &WireOutcome) -> Option<TerminalState> {
    match outcome {
        WireOutcome::Ok(_) => Some(TerminalState::Done),
        WireOutcome::Compile(_) | WireOutcome::Internal { .. } => Some(TerminalState::Failed),
        WireOutcome::Cancelled(_) => Some(TerminalState::Cancelled),
        WireOutcome::Expired(_) => Some(TerminalState::Expired),
        WireOutcome::UnknownJob(_) => None,
    }
}

fn config() -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(3)
        .grid_width(bench::grid_size_for(QUBITS))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw)
}

/// The workload and its in-process ground truth, computed once per
/// test process.
fn workload() -> &'static [(Pattern, Vec<u8>)] {
    static WORKLOAD: OnceLock<Vec<(Pattern, Vec<u8>)>> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let compiler = DcMbqcCompiler::new(config());
        [
            transpile(&bench::qft(QUBITS)),
            transpile(&bench::vqe(QUBITS, 1)),
            transpile(&bench::rca(QUBITS)),
        ]
        .into_iter()
        .map(|p| {
            let expected = compiler.compile_pattern(&p).expect("compiles").to_bytes();
            (p, expected)
        })
        .collect()
    })
}

fn service(workers: usize, disk: Option<PathBuf>) -> Arc<CompileService> {
    let mut cfg = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    cfg.store.disk_dir = disk;
    Arc::new(CompileService::new(cfg).expect("service starts"))
}

fn options(i: usize) -> WireJobOptions {
    WireJobOptions {
        priority: [Priority::Batch, Priority::Normal, Priority::Interactive][i % 3],
        tenant: (i % 3) as u32,
        ..WireJobOptions::default()
    }
}

/// Submits the whole workload through one client and checks every
/// schedule bit-for-bit against the in-process compiler.
fn submit_round(addr: std::net::SocketAddr, tag: &str) {
    let mut client = Client::connect(addr).expect("connect");
    let ids: Vec<(u64, &Vec<u8>)> = workload()
        .iter()
        .enumerate()
        .map(|(i, (pattern, expected))| {
            let id = client
                .submit(pattern, &config(), options(i))
                .expect("admitted");
            (id, expected)
        })
        .collect();
    for (id, expected) in ids {
        match client.wait(id, None).expect("transport") {
            Some(WireOutcome::Ok(schedule)) => {
                assert_eq!(
                    &schedule.to_bytes(),
                    expected,
                    "{tag}: remote job {id} not bit-identical to compile_pattern"
                );
            }
            other => panic!("{tag}: job {id} should compile, got {other:?}"),
        }
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mbqc-remote-{tag}-{}", std::process::id()))
}

/// The matrix: workers × {cold, warm, disk-restored}, every
/// cell bit-identical and leak-free.
#[test]
fn remote_matrix_bit_identical_across_workers_policies_and_cache_states() {
    for workers in [1usize, 2, 8] {
        let tag = format!("w{workers}");
        let disk = temp_dir(&tag);
        let _ = std::fs::remove_dir_all(&disk);

        {
            let service = service(workers, Some(disk.clone()));
            let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
            submit_round(server.local_addr(), &format!("{tag}-cold"));
            submit_round(server.local_addr(), &format!("{tag}-warm"));
            // The warm round's hits taught the server the patterns'
            // wire bytes: this round is keyed from its memo.
            submit_round(server.local_addr(), &format!("{tag}-memo"));
            let stats = service.stats();
            assert_eq!(
                stats.pool_outstanding, 0,
                "{tag}: task still running after drain"
            );
            assert!(
                stats.hits_scheduled >= 2 * workload().len() as u64,
                "{tag}: warm and memo rounds should be served from cache"
            );
        }

        // Disk-restored: a brand-new service over the same disk
        // tier answers from restored artifacts, still bit-exact.
        {
            let service = service(workers, Some(disk.clone()));
            let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
            submit_round(server.local_addr(), &format!("{tag}-restored"));
            let stats = service.stats();
            assert_eq!(
                stats.pool_outstanding, 0,
                "{tag}: task still running after restored round"
            );
            assert!(
                stats.hits_scheduled >= workload().len() as u64,
                "{tag}: restored round should hit the disk tier \
                 (hits_scheduled = {})",
                stats.hits_scheduled
            );
        }
        let _ = std::fs::remove_dir_all(&disk);
    }
}

/// A comparable key for one event: seq plus the kind with
/// non-deterministic fields (wall-clock durations, delays) erased.
fn event_key(ev: &TelemetryEvent) -> (u32, String) {
    let kind = match &ev.kind {
        EventKind::TaskFinished { stage, attempt, .. } => {
            format!("TaskFinished({stage:?}, {attempt})")
        }
        EventKind::RetryScheduled { attempt, .. } => format!("RetryScheduled({attempt})"),
        other => format!("{other:?}"),
    };
    (ev.seq, kind)
}

/// Remote `SubmitObserved` streams are gap-free and (seq, kind)-equal
/// to in-process observed-submit streams, cold and warm.
#[test]
fn remote_event_streams_match_in_process() {
    // Two fresh single-worker services with identical configuration:
    // one observed in-process, one observed over loopback. Single
    // worker + sequential submits make the event sequence per job
    // deterministic.
    let local = service(1, None);
    let remote = service(1, None);
    let server = Server::bind(Arc::clone(&remote), "127.0.0.1:0").expect("bind");

    for round in ["cold", "warm"] {
        for (i, (pattern, _)) in workload().iter().enumerate() {
            let observed = JobOptions {
                observe: true,
                ..options(i).to_job_options()
            };
            let mut handle = local.submit_with(pattern.clone(), config(), observed);
            let stream = handle
                .take_events()
                .expect("observed submit registers a stream");
            local.wait(handle.id()).expect("local job compiles");
            let local_events: Vec<TelemetryEvent> = stream.collect();

            let client = Client::connect(server.local_addr()).expect("connect");
            let events = client
                .submit_observed(pattern, &config(), options(i))
                .expect("admitted");
            let (remote_events, _client) = events.finish().expect("stream drains");

            // Gap-free: consecutive seq from 0, closed by Terminal.
            for (n, ev) in remote_events.iter().enumerate() {
                assert_eq!(
                    ev.seq, n as u32,
                    "{round} pattern {i}: gap in remote stream"
                );
            }
            assert!(
                matches!(
                    remote_events.last().map(|e| &e.kind),
                    Some(EventKind::Terminal { .. })
                ),
                "{round} pattern {i}: remote stream must close on Terminal"
            );

            let local_keys: Vec<_> = local_events.iter().map(event_key).collect();
            let remote_keys: Vec<_> = remote_events.iter().map(event_key).collect();
            assert_eq!(
                local_keys, remote_keys,
                "{round} pattern {i}: remote stream diverges from in-process"
            );
        }
    }
    assert_eq!(local.stats().pool_outstanding, 0);
    assert_eq!(remote.stats().pool_outstanding, 0);
}

/// Churn: cancels, lapsed deadlines, and disconnects mid-job. Every
/// job reaches exactly one terminal state; the service leaks nothing.
#[test]
fn remote_churn_every_job_exactly_one_terminal_state() {
    let service = service(2, None);
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // Lapsed deadline first, while the latency histograms are empty
    // (so admission optimistically admits): a 1 ns budget has always
    // elapsed by the first queue pop — the job must terminate Expired.
    let (pattern, _) = &workload()[0];
    let doomed = client
        .submit(
            pattern,
            &config(),
            WireJobOptions {
                deadline_ns: Some(1),
                ..options(0)
            },
        )
        .expect("admitted while histograms are empty");

    // A batch to churn: submit all, cancel every other one from a
    // *different* connection (jobs are server-scoped).
    let ids: Vec<u64> = workload()
        .iter()
        .cycle()
        .take(9)
        .enumerate()
        .map(|(i, (p, _))| client.submit(p, &config(), options(i)).expect("admitted"))
        .collect();
    let mut canceller = Client::connect(addr).expect("connect");
    for id in ids.iter().step_by(2) {
        // Ack may be true (caught in time) or false (already
        // terminal) — both are valid under racing workers.
        let _ = canceller.cancel(*id).expect("transport");
    }

    // Disconnect mid-job: observe a stream, read the first event, and
    // drop the socket. The job keeps running server-side.
    let dropped_id = {
        let observer = Client::connect(addr).expect("connect");
        let mut events = observer
            .submit_observed(pattern, &config(), options(1))
            .expect("admitted");
        let first = events.next_event().expect("stream alive");
        assert!(first.is_some(), "stream delivers before disconnect");
        events.job_id()
        // `events` dropped here: socket closes mid-stream.
    };

    // Every job: first wait takes exactly one terminal outcome...
    let mut all = vec![doomed, dropped_id];
    all.extend(&ids);
    let mut terminal_counts = std::collections::HashMap::new();
    for id in &all {
        let outcome = client
            .wait(*id, Some(Duration::from_secs(60)))
            .expect("transport")
            .expect("job terminates");
        let state = terminal_state(&outcome).expect("first wait sees a real terminal state");
        *terminal_counts.entry(format!("{state:?}")).or_insert(0u32) += 1;
        // ...and a second poll answers UnknownJob: the result was
        // consumed exactly once, there is no second terminal state.
        match client.poll(*id).expect("transport") {
            Some(WireOutcome::UnknownJob(seen)) => assert_eq!(seen, *id),
            other => panic!("job {id}: second take should be UnknownJob, got {other:?}"),
        }
    }
    assert_eq!(terminal_counts.values().sum::<u32>() as usize, all.len());

    // The doomed job specifically must have expired, not compiled.
    // (It is in `all`, so its state is already counted above.)
    assert!(
        terminal_counts.contains_key("Expired"),
        "1 ns deadline must lapse: {terminal_counts:?}"
    );

    // Drained service: counters consistent, nothing leaked.
    let stats = service.stats();
    assert_eq!(stats.pool_outstanding, 0, "task still running after drain");
    assert_eq!(
        stats.completed + stats.cancelled + stats.expired,
        stats.submitted,
        "drained service must account for every submitted job"
    );
    assert_eq!(stats.queue_depth, 0);
    for t in &stats.tenants {
        assert_eq!(t.in_flight, 0, "tenant {} still in flight", t.tenant);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random workloads and cancel masks over random matrix cells:
    /// surviving jobs stay bit-identical, cancelled jobs never
    /// produce a schedule, and nothing leaks.
    #[test]
    fn random_churn_stays_bit_identical(
        workers in 1usize..4,
        // Each draw encodes (pattern index, cancel?) as v % 3 and
        // v >= 3 — the vendored proptest shim has no tuple strategies.
        jobs in prop::collection::vec(0usize..6, 1..8),
    ) {
        let service = service(workers, None);
        let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");

        let submitted: Vec<(u64, usize, bool)> = jobs
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let (pat_ix, cancel) = (v % 3, v >= 3);
                let (pattern, _) = &workload()[pat_ix];
                let id = client.submit(pattern, &config(), options(i)).expect("admitted");
                (id, pat_ix, cancel)
            })
            .collect();
        for &(id, _, cancel) in &submitted {
            if cancel {
                let _ = client.cancel(id).expect("transport");
            }
        }
        for &(id, pat_ix, cancel) in &submitted {
            let outcome = client
                .wait(id, Some(Duration::from_secs(60)))
                .expect("transport")
                .expect("terminates");
            match outcome {
                WireOutcome::Ok(schedule) => prop_assert_eq!(
                    &schedule.to_bytes(),
                    &workload()[pat_ix].1,
                    "job {} diverged from compile_pattern", id
                ),
                WireOutcome::Cancelled(cid) => {
                    prop_assert!(cancel, "job {} cancelled without a cancel request", id);
                    prop_assert_eq!(cid, id);
                }
                other => prop_assert!(false, "job {} unexpected outcome {:?}", id, other),
            }
        }
        // Resubmit the case's patterns twice on a second connection:
        // the first resubmit of each is a resident hit that the server
        // memoizes, the second is keyed from the memo. Both must stay
        // bit-identical.
        let mut second = Client::connect(server.local_addr()).expect("connect");
        for round in 0..2 {
            for (i, &v) in jobs.iter().enumerate() {
                let (pattern, expected) = &workload()[v % 3];
                let id = second.submit(pattern, &config(), options(i)).expect("admitted");
                match second.wait(id, None).expect("transport") {
                    Some(WireOutcome::Ok(schedule)) => prop_assert_eq!(
                        &schedule.to_bytes(),
                        expected,
                        "round {} job {} diverged from compile_pattern", round, id
                    ),
                    other => prop_assert!(false, "round {} job {} unexpected outcome {:?}", round, id, other),
                }
            }
        }
        prop_assert_eq!(service.stats().pool_outstanding, 0);
    }
}
