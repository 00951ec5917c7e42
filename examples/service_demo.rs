//! The compilation service in action: a mixed QFT / QAOA / RCA workload
//! submitted twice through a sharded [`CompileService`], showing the
//! content-addressed stage-artifact cache turn the repeat traffic into
//! near-free `Scheduled`-artifact hits — plus a BDIR-budget change that
//! re-enters the pipeline mid-way from the cached `Mapped` artifacts,
//! and a lifecycle round where clients abandon work: cancellations (by
//! id and by shared token) and deadlines drop jobs without
//! disturbing the rest of the queue (a job whose last task finishes
//! before its cancel lands ends `Done`, with the same bits as a direct
//! compile). A persistence round then runs a disk-backed service: a
//! storm of identical submits runs as ordinary jobs that reuse each
//! other's stored artifacts, cold traffic fills the disk tier with one
//! file per artifact, and a restart re-indexes that directory with one
//! scan and serves the warm repeat round from the disk tier, promoting
//! each artifact into memory on its first read. The run ends with the
//! service's per-stage latency distributions (p50/p95/p99 from the
//! always-on histograms).
//!
//! Run with:
//! ```text
//! cargo run --release --example service_demo
//! ```
//!
//! Pass `--trace <path>` to also capture the full telemetry event
//! stream and write it as a Chrome trace-event JSON file — open it in
//! `chrome://tracing` or <https://ui.perfetto.dev> to see the
//! job → attempt → stage-task span tree.

use std::time::{Duration, Instant};

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_service::{
    chrome_trace_json, CancelToken, CompileService, FaultConfig, FaultPlan, InjectedFault, JobId,
    JobOptions, Priority, RetryPolicy, ServiceConfig, ServiceError, ServiceStats, StoreConfig,
};
use mbqc_util::TextTable;

/// Submits one job per pattern at `priority`, all before any wait,
/// through the infallible `submit_with`; ids are in input order.
fn submit_all(
    service: &CompileService,
    patterns: &[Pattern],
    config: &DcMbqcConfig,
    priority: Priority,
) -> Vec<JobId> {
    patterns
        .iter()
        .map(|p| {
            let options = JobOptions {
                priority,
                ..JobOptions::default()
            };
            service.submit_with(p.clone(), config.clone(), options).id()
        })
        .collect()
}

/// Renders the service's latency distributions — per-stage execution,
/// queue wait, and warm-hit serving — as a p50/p95/p99 table in µs.
fn latency_table(stats: &ServiceStats) -> String {
    let us = |ns: u64| format!("{:.1}", ns as f64 / 1e3);
    let mut table = TextTable::new(vec![
        "metric", "count", "p50 µs", "p95 µs", "p99 µs", "max µs",
    ]);
    let rows = [
        ("stage: transpile", stats.stage_latency[0]),
        ("stage: partition", stats.stage_latency[1]),
        ("stage: map", stats.stage_latency[2]),
        ("stage: schedule", stats.stage_latency[3]),
        ("queue wait", stats.queue_wait),
        ("warm hit", stats.warm_hit),
    ];
    for (name, summary) in rows {
        table.row(vec![
            name.to_string(),
            summary.count.to_string(),
            us(summary.p50),
            us(summary.p95),
            us(summary.p99),
            us(summary.max),
        ]);
    }
    table.title("latency distributions (log-bucketed histograms)");
    table.render()
}

fn main() {
    // `--trace <path>` captures the telemetry event stream and writes
    // a Chrome trace-event JSON file at exit.
    let trace_path = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--trace")
            .map(|i| args.get(i + 1).expect("--trace needs a path").clone())
    };
    // 1. A mixed production-style workload: QFT instances alongside
    //    QAOA Max-Cut and ripple-carry-adder programs, with repeats —
    //    exactly the traffic shape a service sees.
    let mut patterns: Vec<(String, Pattern)> = Vec::new();
    for (kind, sizes) in [
        (BenchmarkKind::Qft, [12usize, 14, 16].as_slice()),
        (BenchmarkKind::Qaoa, &[12, 14]),
        (BenchmarkKind::Rca, &[12, 16]),
    ] {
        for &n in sizes {
            patterns.push((
                format!("{}-{n}", kind.name()),
                transpile(&kind.generate(n, 1)),
            ));
        }
    }
    let just_patterns: Vec<Pattern> = patterns.iter().map(|(_, p)| p.clone()).collect();

    // 2. Hardware and service: 4 QPUs, two shard workers, in-memory
    //    artifact cache (point `store.disk_dir` at a directory to make
    //    the cache survive restarts).
    let hw = DistributedHardware::builder()
        .num_qpus(4)
        .grid_width(bench::grid_size_for(16))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let config = DcMbqcConfig::new(hw);
    let service = CompileService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .expect("service starts");
    // Subscribe before the first submission so the trace misses
    // nothing; a background thread keeps the bounded channel drained.
    let observer = trace_path.is_some().then(|| {
        let stream = service.subscribe(None, Some(1 << 14));
        std::thread::spawn(move || {
            let mut events = Vec::new();
            while let Some(ev) = stream.recv() {
                events.push(ev);
            }
            events
        })
    });
    println!(
        "service: {} workers (stage-graph executor), {} jobs per round\n",
        service.workers(),
        patterns.len()
    );

    // 3. Submit the whole workload twice: cold (as batch backfill),
    //    then warm (as interactive traffic — priority orders the
    //    stage-task ready-queue but never changes results).
    for (round, priority) in [("cold", Priority::Batch), ("warm", Priority::Interactive)] {
        let t = Instant::now();
        let ids = submit_all(&service, &just_patterns, &config, priority);
        for ((name, _), id) in patterns.iter().zip(ids) {
            let result = service.wait(id).expect("job compiles");
            if round == "cold" {
                println!(
                    "  {name:>8}: T = {} layers, lifetime = {} cycles, {} cut edges",
                    result.execution_time(),
                    result.required_photon_lifetime(),
                    result.cut_edges()
                );
            }
        }
        let stats = service.stats();
        println!(
            "{round} round: {:.1} ms wall, cache hit-rate {:.0}%, mean in-shard latency {:.2} ms",
            t.elapsed().as_secs_f64() * 1e3,
            stats.hit_rate() * 100.0,
            stats.mean_latency_ns() / 1e6,
        );
    }

    // 4. Change a *scheduling* knob: the partition and mapping
    //    artifacts still hit (their stage-scoped fingerprints ignore
    //    BDIR), so only the scheduler reruns.
    let core_only = config.clone().without_bdir();
    let t = Instant::now();
    for id in submit_all(&service, &just_patterns, &core_only, Priority::Normal) {
        service.wait(id).expect("job compiles");
    }
    let stats = service.stats();
    println!(
        "re-schedule round (BDIR off): {:.1} ms wall — {} mapped-artifact re-entries, {} full compiles total",
        t.elapsed().as_secs_f64() * 1e3,
        stats.hits_mapped,
        stats.full_compiles,
    );
    println!(
        "\nstore: {} artifacts, {:.1} KiB in memory, {} evictions, {} scheduled hits / {} jobs",
        stats.store.entries,
        stats.store.bytes as f64 / 1024.0,
        stats.store.evictions,
        stats.hits_scheduled,
        stats.completed,
    );
    println!(
        "executor: {} stage tasks for {} jobs (cache hits skip stages), priorities [batch, normal, interactive] = {:?}",
        stats.tasks_executed, stats.submitted, stats.submitted_by_priority,
    );

    // 5. Lifecycle round: clients abandon work. A fresh batch of
    //    *novel* patterns (nothing cached) is submitted and then mostly
    //    walked away from — one job cancelled by id, a
    //    token-grouped pair cancelled in one shot, one job submitted
    //    with an already-hopeless deadline. Only the surviving job
    //    costs compile time; the rest are queue bookkeeping — unless a
    //    cancel lands after the job's last task finished, which
    //    `CompileService::cancel` allows: that job ends `Done`.
    let novel: Vec<Pattern> = [18usize, 19, 20, 21, 17]
        .iter()
        .map(|&n| transpile(&bench::qft(n)))
        .collect();
    let t = Instant::now();
    let survivor = service.submit(novel[4].clone(), config.clone());
    let handle = service.submit_with(novel[0].clone(), config.clone(), JobOptions::default());
    service.cancel(handle.id());
    let group = CancelToken::new();
    let grouped: Vec<_> = novel[1..3]
        .iter()
        .map(|p| {
            service
                .submit_with(
                    p.clone(),
                    config.clone(),
                    JobOptions {
                        cancel: Some(group.clone()),
                        ..JobOptions::default()
                    },
                )
                .id()
        })
        .collect();
    group.cancel();
    let hopeless = service.submit_with(
        novel[3].clone(),
        config.clone(),
        JobOptions {
            deadline: Some(Duration::ZERO),
            ..JobOptions::default()
        },
    );
    service.wait(survivor).expect("survivor compiles");
    // An abandoned job ends `Cancelled` or `Expired`, or, when its
    // last task won the race with the cancel, `Done` with exactly the
    // bits of a direct compile.
    let abandoned = [
        (novel[1].clone(), grouped[0]),
        (novel[2].clone(), grouped[1]),
        (novel[0].clone(), handle.id()),
        (novel[3].clone(), hopeless.id()),
    ];
    let (mut cancelled, mut expired, mut finished) = (0, 0, 0);
    for (pattern, id) in abandoned {
        match service.wait(id) {
            Err(ServiceError::Cancelled(_)) => cancelled += 1,
            Err(ServiceError::Expired(_)) => expired += 1,
            Ok(schedule) => {
                let direct = DcMbqcCompiler::new(config.clone())
                    .compile_pattern(&pattern)
                    .expect("direct compile");
                assert_eq!(
                    schedule, direct,
                    "a finished abandoned job is bit-identical"
                );
                finished += 1;
            }
            Err(e) => panic!("abandoned job failed: {e}"),
        }
    }
    let stats = service.stats();
    println!(
        "\nlifecycle round: {:.1} ms wall for 1 survivor + 4 abandoned jobs — {cancelled} cancelled, {expired} expired, {finished} finished before the cancel landed (cancelled work costs bookkeeping, not compile time)",
        t.elapsed().as_secs_f64() * 1e3,
    );

    // The always-on metrics registry: per-stage execution latency,
    // queue wait, and warm-hit serving latency as quantile summaries
    // over the whole mixed workload above.
    println!("\n{}", latency_table(&stats));

    // 6. Persistence round: a disk-backed service. First a burst of
    //    identical submits: each is an ordinary job, and the later
    //    ones are answered from the first one's schedule (at submit
    //    once it is resident, else by their planning task) or pick up
    //    its artifacts stage by stage. Then the mixed workload
    //    cold-fills the disk tier, one `.art` file per artifact.
    //    Finally the service is dropped and reopened over the same
    //    directory: one directory scan re-indexes the artifacts and
    //    the repeat traffic is served from the disk tier — a checksum
    //    walk plus one decode — and promoted into the memory tier.
    let store_dir =
        std::env::temp_dir().join(format!("mbqc-service-demo-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let disk_config = || ServiceConfig {
        workers: 2,
        store: StoreConfig {
            disk_dir: Some(store_dir.clone()),
            ..StoreConfig::default()
        },
        ..ServiceConfig::default()
    };
    let persistent = CompileService::new(disk_config()).expect("service starts");
    let storm_pattern = transpile(&bench::qft(18));
    let t = Instant::now();
    let storm: Vec<_> = (0..10)
        .map(|_| persistent.submit(storm_pattern.clone(), config.clone()))
        .collect();
    for id in storm {
        persistent.wait(id).expect("storm job compiles");
    }
    let storm_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = persistent.stats();
    println!(
        "\nidentical-submit storm: 10 submits -> {} full compile(s), {} scheduled hits, {} partial re-entries, {} stage tasks answered by a twin's artifact, {:.1} ms wall",
        stats.full_compiles,
        stats.hits_scheduled,
        stats.hits_mapped + stats.hits_partitioned,
        stats.task_store_hits,
        storm_ms,
    );
    let t = Instant::now();
    for id in submit_all(&persistent, &just_patterns, &config, Priority::Normal) {
        persistent.wait(id).expect("cold job compiles");
    }
    let cold_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = persistent.stats();
    println!(
        "cold fill: {:.1} ms wall -> {} artifacts on disk ({:.1} KiB)",
        cold_ms,
        stats.store.disk_entries,
        stats.store.disk_bytes as f64 / 1024.0,
    );
    drop(persistent);
    let reopened = CompileService::new(disk_config()).expect("service reopens");
    let reindexed = reopened.stats().store.disk_entries;
    let t = Instant::now();
    for id in submit_all(&reopened, &just_patterns, &config, Priority::Normal) {
        reopened.wait(id).expect("warm job compiles");
    }
    let warm_ms = t.elapsed().as_secs_f64() * 1e3;
    let stats = reopened.stats();
    println!(
        "restart: directory scan re-indexed {} artifacts; warm round {:.1} ms vs {:.1} ms cold ({} scheduled hits, {} disk reads promoted into memory)",
        reindexed,
        warm_ms,
        cold_ms,
        stats.hits_scheduled,
        stats.store.disk_hits,
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&store_dir);

    // 7. Fault round: a seeded chaos plan — injected task panics,
    //    stage delays, and disk read errors — against a fresh
    //    disk-backed service whose jobs carry retry budgets. Transient
    //    panics are retried with exponential backoff; enough
    //    consecutive disk IO errors trip the circuit breaker and the
    //    store degrades to memory-only until a re-probe succeeds.
    //    Without the `fault-inject` feature (the default) the plan is
    //    inert and this round is simply one more clean pass; run with
    //    `--features fault-inject` to watch the service absorb faults.
    let faults = FaultPlan::new(FaultConfig {
        seed: 7,
        task_panic: 0.2,
        stage_delay: 0.2,
        disk_read_error: 0.8,
        ..FaultConfig::default()
    });
    let disk_dir = std::env::temp_dir().join(format!("mbqc-service-demo-{}", std::process::id()));
    let chaotic = CompileService::new(ServiceConfig {
        workers: 2,
        store: StoreConfig {
            disk_dir: Some(disk_dir.clone()),
            disk_error_threshold: 3,
            faults: faults.clone(),
            ..StoreConfig::default()
        },
        faults: faults.clone(),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    // Injected panics are caught at the task boundary and retried;
    // keep the default hook's backtrace chatter out of the output
    // (real panics still print).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedFault>().is_none() {
            default_hook(info);
        }
    }));
    let retry = RetryPolicy::attempts(10).with_backoff(Duration::from_micros(200));
    let small: Vec<Pattern> = [10usize, 11, 12]
        .iter()
        .map(|&n| transpile(&bench::qft(n)))
        .collect();
    let t = Instant::now();
    let handles: Vec<_> = small
        .iter()
        .chain(small.iter()) // repeats exercise the (faulty) cache path
        .map(|p| {
            chaotic.submit_with(
                p.clone(),
                config.clone(),
                JobOptions {
                    retry,
                    ..JobOptions::default()
                },
            )
        })
        .collect();
    let (mut survived, mut gave_up) = (0u32, 0u32);
    for h in handles {
        match chaotic.wait(h.id()) {
            Ok(_) => survived += 1,
            Err(e) => {
                gave_up += 1;
                println!("  retry budget exhausted: {e}");
            }
        }
    }
    let stats = chaotic.stats();
    println!(
        "\nfault round ({}): {:.1} ms wall — {}/{} jobs survived, {} retries absorbed",
        if faults.is_active() {
            "fault-inject"
        } else {
            "faults compiled out"
        },
        t.elapsed().as_secs_f64() * 1e3,
        survived,
        survived + gave_up,
        stats.retries,
    );
    println!(
        "  disk tier: {} IO errors, quarantined now: {}, {} quarantines, {} re-probes",
        stats.store.disk_errors,
        stats.store.disk_quarantined,
        stats.store.disk_quarantines,
        stats.store.disk_probes,
    );
    drop(chaotic);
    let _ = std::fs::remove_dir_all(&disk_dir);

    // Close the main service so the observer's stream ends, then write
    // the Chrome trace.
    if let (Some(path), Some(observer)) = (trace_path, observer) {
        drop(service);
        let events = observer.join().expect("observer exits");
        let json = chrome_trace_json(&events);
        std::fs::write(&path, &json).expect("trace file writes");
        println!(
            "\ntrace: {} events -> {path} (open in chrome://tracing or ui.perfetto.dev)",
            events.len()
        );
    }
}
