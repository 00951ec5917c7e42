//! `served_mix`: a loopback `mbqc_net::Server` over a `CompileService`
//! (two workers, memory-only store) driven by closed-loop `Client`s.
//! Nine requests in ten ask for one of eight hot programs compiled
//! during set-up, so the store answers them; the tenth is a fresh
//! QAOA-16 instance that runs the whole pipeline.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use dc_mbqc::{DcMbqcCompiler, DistributedSchedule};
use mbqc_circuit::bench::BenchmarkKind;
use mbqc_net::{Client, Request, Server, WireJobOptions, WireOutcome};
use mbqc_service::{CompileService, ServiceConfig, ServiceStats};

use crate::metrics::{peak_rss_mib, percentile, Latencies, Outcome};
use crate::programs::{check, contain, mix, program, set_cycle_sums, Program, COMPILER_SEED};
use crate::{median, ms, Run};

/// Whole passes per client per second of `--seconds`; a pass is
/// [`NOVEL_EVERY`] requests.
const PASSES_PER_SECOND: f64 = 40.0;
const SERVICE_WORKERS: usize = 2;
/// Load-generator threads (one connection each), capped at `nproc`.
const MAX_CLIENTS: usize = 2;
/// One request in `NOVEL_EVERY` is a fresh program; the rest are hot.
const NOVEL_EVERY: usize = 10;
/// Repetitions of each in-process probe of the traced run.
const PROBES: usize = 50;

/// {QFT, QAOA, VQE, RCA} × {16, 36}: the paper's table-III instances
/// (`repro`'s seed), the same in every run.
fn hot_set() -> Vec<Program> {
    use BenchmarkKind::{Qaoa, Qft, Rca, Vqe};
    [Qft, Qaoa, Vqe, Rca]
        .into_iter()
        .flat_map(|kind| [16, 36].map(|n| program(kind, n, COMPILER_SEED)))
        .collect()
}

/// The fresh QAOA-16 instance of client `c`'s `i`-th request.
fn novel(seed: u64, c: usize, i: usize) -> Program {
    let salt = (1 << 40) | ((c as u64) << 32) | i as u64;
    program(BenchmarkKind::Qaoa, 16, mix(seed, salt))
}

/// Submits over the wire, then waits; returns the reply and the two
/// call times, ms.
fn request(client: &mut Client, p: &Program) -> (Result<DistributedSchedule, String>, f64, f64) {
    let t0 = Instant::now();
    let id = client.submit(&p.pattern, &p.config, WireJobOptions::default());
    let t1 = Instant::now();
    let reply = id.map_err(|e| e.to_string()).and_then(|id| {
        match client.wait(id, None).map_err(|e| e.to_string())? {
            Some(WireOutcome::Ok(s)) => Ok(*s),
            other => Err(format!("job ended {other:?}")),
        }
    });
    let t2 = Instant::now();
    (reply, ms(t1 - t0), ms(t2 - t1))
}

/// A reply must equal the set-up's in-process compile bit for bit.
fn same(
    got: Result<DistributedSchedule, String>,
    want: Option<&DistributedSchedule>,
) -> Result<(), String> {
    match (got?, want) {
        (got, Some(want)) if got == *want => Ok(()),
        (_, Some(_)) => Err("reply differs from the in-process compile".into()),
        (_, None) => Err("no in-process reference".into()),
    }
}

struct Ready {
    service: Arc<CompileService>,
    server: Server,
    hot: Vec<Program>,
    reference: Vec<Option<DistributedSchedule>>,
}

fn set_up(out: &mut Outcome) -> Ready {
    let service = Arc::new(
        CompileService::new(ServiceConfig {
            workers: SERVICE_WORKERS,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind loopback");
    let hot = hot_set();
    let reference: Vec<Option<DistributedSchedule>> = hot
        .iter()
        .map(|p| {
            let compiled =
                contain(|| DcMbqcCompiler::new(p.config.clone()).compile_pattern(&p.pattern))
                    .and_then(|r| r.map_err(|e| e.to_string()))
                    .and_then(|s| check(&p.pattern, &p.config, &s).map(|()| s));
            let verdict = compiled.as_ref().map(|_| ()).map_err(Clone::clone);
            out.record(&format!("in-process compile of {}", p.name), verdict);
            compiled.ok()
        })
        .collect();
    // The hot set's first requests miss and fill the store.
    match Client::connect(server.local_addr()) {
        Ok(mut client) => {
            for (p, want) in hot.iter().zip(&reference) {
                let verdict = same(request(&mut client, p).0, want.as_ref());
                out.record(&format!("warming {}", p.name), verdict);
            }
        }
        Err(e) => out.record("connect", Err(e.to_string())),
    }
    Ready {
        service,
        server,
        hot,
        reference,
    }
}

/// What one load-generator thread saw.
#[derive(Default)]
struct Log {
    hits: Latencies,
    misses: Latencies,
    submit: Vec<f64>,
    wait: Vec<f64>,
    busy_s: f64,
    done: u64,
    out: Outcome,
}

fn client_loop(addr: SocketAddr, ready: &Ready, seed: u64, c: usize, requests: usize) -> Log {
    let mut log = Log::default();
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            log.out.record("connect", Err(e.to_string()));
            return log;
        }
    };
    // Clients start on different hot programs.
    let mut next_hot = c * ready.hot.len() / MAX_CLIENTS;
    for i in 0..requests {
        if i % NOVEL_EVERY == NOVEL_EVERY - 1 {
            let p = novel(seed, c, i);
            let (got, submit, wait) = request(&mut client, &p);
            let verdict = got.and_then(|s| {
                log.misses.push(&p.name, submit + wait);
                log.busy_s += (submit + wait) / 1e3;
                log.done += 1;
                check(&p.pattern, &p.config, &s)
            });
            log.out.record("novel request", verdict);
        } else {
            let k = next_hot % ready.hot.len();
            next_hot += 1;
            let p = &ready.hot[k];
            let (got, submit, wait) = request(&mut client, p);
            if got.is_ok() {
                log.hits.push(&p.name, submit + wait);
                log.submit.push(submit);
                log.wait.push(wait);
                log.busy_s += (submit + wait) / 1e3;
                log.done += 1;
            }
            log.out.record(
                &format!("hot request for {}", p.name),
                same(got, ready.reference[k].as_ref()),
            );
        }
    }
    log
}

/// Per-layer service metrics from `ServiceStats`: log-bucketed
/// quantiles (up to 12.5% error) of the whole service lifetime, and
/// counter deltas over the measured phase.
pub fn service_layers(out: &mut Outcome, before: &ServiceStats, after: &ServiceStats) {
    let ns_ms = |ns: u64| ns as f64 / 1e6;
    out.set("service.warm_hit_ms_p50", ns_ms(after.warm_hit.p50));
    out.set("service.queue_wait_ms_p50", ns_ms(after.queue_wait.p50));
    out.set("service.queue_wait_ms_p99", ns_ms(after.queue_wait.p99));
    // Indexed like `StageKind::ALL`.
    for (stage, s) in ["transpile", "partition", "map", "schedule"]
        .iter()
        .zip(&after.stage_latency)
    {
        out.set(&format!("service.stage_ms_p50.{stage}"), ns_ms(s.p50));
    }
    let delta = |f: fn(&ServiceStats) -> u64| (f(after) - f(before)) as f64;
    out.set(
        "store.hit_ratio",
        delta(|s| s.hits_scheduled) / delta(|s| s.submitted).max(1.0),
    );
    out.set("store.evictions", delta(|s| s.store.evictions));
    out.set("service.full_compiles", delta(|s| s.full_compiles));
    out.set("service.dedup_hits", delta(|s| s.dedup_hits));
    out.set("service.tasks_executed", delta(|s| s.tasks_executed));
    out.set("service.pool_outstanding", after.pool_outstanding as f64);
}

/// A drained service must have returned every pooled workspace.
pub fn check_drained(out: &mut Outcome, stats: &ServiceStats) {
    out.record(
        "pool drained",
        match stats.pool_outstanding {
            0 => Ok(()),
            n => Err(format!("{n} workspaces still checked out")),
        },
    );
}

/// In-process probes of the traced run: the same hot requests without
/// the wire, and the codec calls a hot reply pays for.
fn probe_layers(ready: &Ready, out: &mut Outcome) {
    let mut hits = Latencies::default();
    for _ in 0..PROBES {
        for (p, want) in ready.hot.iter().zip(&ready.reference) {
            let (pattern, config) = (p.pattern.clone(), p.config.clone());
            let t = Instant::now();
            let id = ready.service.submit(pattern, config);
            let got = ready.service.wait(id);
            hits.push(&p.name, ms(t.elapsed()));
            out.record(
                "in-process hot request",
                same(got.map_err(|e| e.to_string()), want.as_ref()),
            );
        }
    }
    out.set("service.hit_ms_p50", hits.geomean_pct(50));

    let requests: Vec<Request> = ready
        .hot
        .iter()
        .map(|p| Request::Submit {
            pattern: p.pattern.clone(),
            config: p.config.clone(),
            options: WireJobOptions::default(),
        })
        .collect();
    let replies: Vec<&DistributedSchedule> = ready.reference.iter().flatten().collect();
    let n = requests.len() as f64;
    let (mut encode, mut reply_encode, mut reply_decode) = (Vec::new(), Vec::new(), Vec::new());
    let (mut request_bytes, mut reply_bytes) = (0, 0);
    for _ in 0..PROBES {
        let t = Instant::now();
        request_bytes = requests.iter().map(|r| r.to_bytes().len()).sum::<usize>();
        encode.push(ms(t.elapsed()) * 1e3 / n);
        let t = Instant::now();
        let encoded: Vec<Vec<u8>> = replies.iter().map(|s| s.to_bytes()).collect();
        reply_encode.push(ms(t.elapsed()) * 1e3 / n);
        reply_bytes = encoded.iter().map(Vec::len).sum::<usize>();
        let t = Instant::now();
        let decoded: Vec<_> = encoded
            .iter()
            .map(|b| DistributedSchedule::from_bytes_trusted(b))
            .collect();
        reply_decode.push(ms(t.elapsed()) * 1e3 / n);
        let intact = decoded
            .iter()
            .zip(&replies)
            .all(|(d, s)| d.as_ref().is_ok_and(|d| d == *s));
        out.record(
            "reply codec round trip",
            if intact {
                Ok(())
            } else {
                Err("decoded reply differs".into())
            },
        );
    }
    out.set("codec.request_encode_us", median(&encode));
    out.set("codec.reply_encode_us", median(&reply_encode));
    out.set("codec.reply_decode_us", median(&reply_decode));
    out.set("codec.request_bytes", request_bytes as f64 / n);
    out.set("codec.reply_bytes", reply_bytes as f64 / n);
}

pub fn run(run: &Run, nproc: usize, out: &mut Outcome) {
    let clients = MAX_CLIENTS.min(nproc);
    let requests = run.passes(PASSES_PER_SECOND) * NOVEL_EVERY;
    println!(
        "# workers: service workers = {SERVICE_WORKERS} (probe_workers = 1, map_workers = 1), \
         load threads = connections = {clients}"
    );
    println!("# loop: closed, {requests} requests per client, 1 in {NOVEL_EVERY} novel QAOA-16");

    let ready = crate::set_up(out, set_up);
    set_cycle_sums(out, ready.reference.iter().flatten());

    let addr = ready.server.local_addr();
    let before = ready.service.stats();
    let logs: Vec<Log> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let ready = &ready;
                s.spawn(move || client_loop(addr, ready, run.seed, c, requests))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load-generator thread panicked"))
            .collect()
    });
    let after = ready.service.stats();

    let mut hits = Latencies::default();
    let mut misses = Latencies::default();
    let (mut submit, mut wait) = (Vec::new(), Vec::new());
    let (mut busy_s, mut done) = (0.0, 0);
    for log in logs {
        hits.absorb(log.hits);
        misses.absorb(log.misses);
        submit.extend(log.submit);
        wait.extend(log.wait);
        busy_s += log.busy_s;
        done += log.done;
        out.attempted += log.out.attempted;
        out.failed += log.out.failed;
    }
    check_drained(out, &after);
    println!("{}", hits.describe("fast_ms (hot requests, hits)"));
    println!("{}", misses.describe("compile_ms (novel requests, misses)"));
    out.set_latency("compile_ms", run.trace, &misses);
    out.set_latency("fast_ms", run.trace, &hits);
    if done > 0 {
        out.set("ops_per_s", done as f64 * clients as f64 / busy_s);
    }
    if run.trace {
        service_layers(out, &before, &after);
        if !submit.is_empty() {
            out.set("net.submit_ms_p50", percentile(&submit, 50));
            out.set("net.submit_ms_p99", percentile(&submit, 99));
            out.set("net.wait_ms_p50", percentile(&wait, 50));
        }
        probe_layers(&ready, out);
    }
    out.set("peak_rss_mib", peak_rss_mib());
}
