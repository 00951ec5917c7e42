//! `cold_burst`: an in-process `CompileService` (two workers, no
//! network) fed rounds of 16 jobs submitted at once — four each of
//! QFT-16, QFT-36, QAOA-36 and RCA-36, every job under a fresh compiler
//! seed so that every stage misses the store. Every fourth job is
//! `Interactive`, the rest `Batch`, so jobs contend for the workers.

use std::time::{Duration, Instant};

use dc_mbqc::{DcMbqcConfig, DistributedSchedule};
use mbqc_circuit::bench::BenchmarkKind;
use mbqc_service::{CompileService, JobOptions, Priority, ServiceConfig, ServiceError};

use crate::metrics::{peak_rss_mib, Latencies, Outcome};
use crate::programs::{check, mix, program, Program, COMPILER_SEED};
use crate::served_mix::{check_drained, service_layers};
use crate::{ms, Run};

/// Measured rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 4.8;
const SERVICE_WORKERS: usize = 2;
const JOBS_PER_SHAPE: usize = 4;
/// How long the collector blocks on one job before sweeping the rest,
/// which bounds the error of each job's completion time.
const POLL: Duration = Duration::from_micros(500);

/// The paper's instances; the workload seed varies the compiler seeds.
fn shapes() -> Vec<Program> {
    use BenchmarkKind::{Qaoa, Qft, Rca};
    [(Qft, 16), (Qft, 36), (Qaoa, 36), (Rca, 36)]
        .into_iter()
        .map(|(kind, n)| program(kind, n, COMPILER_SEED))
        .collect()
}

struct Job {
    shape: usize,
    priority: Priority,
    config: DcMbqcConfig,
}

/// Round `round`'s jobs, shape-major; each gets its own compiler seed.
fn burst(shapes: &[Program], seed: u64, round: u64) -> Vec<Job> {
    (0..shapes.len() * JOBS_PER_SHAPE)
        .map(|j| {
            let shape = j / JOBS_PER_SHAPE;
            Job {
                shape,
                priority: if j % 4 == 3 {
                    Priority::Interactive
                } else {
                    Priority::Batch
                },
                config: shapes[shape]
                    .config
                    .clone()
                    .with_seed(mix(seed, (round << 16) | j as u64)),
            }
        })
        .collect()
}

type Finished = (f64, Result<DistributedSchedule, ServiceError>);

/// Submits a burst back to back and collects every job as it finishes.
/// Returns each job's submit-to-result latency (ms) and result, and the
/// burst's wall time (s).
fn run_burst(service: &CompileService, shapes: &[Program], jobs: &[Job]) -> (Vec<Finished>, f64) {
    let inputs: Vec<_> = jobs
        .iter()
        .map(|j| (shapes[j.shape].pattern.clone(), j.config.clone()))
        .collect();
    let start = Instant::now();
    let submitted: Vec<_> = jobs
        .iter()
        .zip(inputs)
        .map(|(job, (pattern, config))| {
            let at = Instant::now();
            let options = JobOptions {
                priority: job.priority,
                ..JobOptions::default()
            };
            (service.submit_with(pattern, config, options).id(), at)
        })
        .collect();
    let mut finished: Vec<Option<Finished>> = jobs.iter().map(|_| None).collect();
    let mut open: Vec<usize> = (0..jobs.len()).collect();
    while let Some(&first) = open.first() {
        let (id, at) = submitted[first];
        if let Some(r) = service.wait_timeout(id, POLL) {
            finished[first] = Some((ms(at.elapsed()), r));
        }
        open.retain(|&j| {
            if finished[j].is_some() {
                return false;
            }
            let (id, at) = submitted[j];
            match service.try_poll(id) {
                Some(r) => {
                    finished[j] = Some((ms(at.elapsed()), r));
                    false
                }
                None => true,
            }
        });
    }
    let wall = start.elapsed().as_secs_f64();
    let finished = finished
        .into_iter()
        .map(|f| f.expect("every job collected"))
        .collect();
    (finished, wall)
}

/// Checks a burst's results; returns its execution-time and
/// photon-lifetime sums.
fn check_burst(
    shapes: &[Program],
    jobs: &[Job],
    finished: &[Finished],
    out: &mut Outcome,
) -> (usize, usize) {
    let (mut exec, mut lifetime) = (0, 0);
    for (job, (_, result)) in jobs.iter().zip(finished) {
        let p = &shapes[job.shape];
        let verdict = match result {
            Ok(s) => {
                exec += s.execution_time();
                lifetime += s.required_photon_lifetime();
                check(&p.pattern, &job.config, s)
            }
            Err(e) => Err(e.to_string()),
        };
        out.record(&format!("job {} ({:?})", p.name, job.priority), verdict);
    }
    (exec, lifetime)
}

pub fn run(run: &Run, out: &mut Outcome) {
    let rounds = run.passes(ROUNDS_PER_SECOND);
    println!("# workers: service workers = {SERVICE_WORKERS} (probe_workers = 1, map_workers = 1), load threads = 1");
    println!(
        "# loop: closed, {rounds} rounds of {} jobs submitted at once",
        4 * JOBS_PER_SHAPE
    );

    let (service, shapes) = crate::set_up(out, |out| {
        let service = CompileService::new(ServiceConfig {
            workers: SERVICE_WORKERS,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        let shapes = shapes();
        // Round 0 warms the workers and the workspace pool.
        let jobs = burst(&shapes, run.seed, 0);
        let (finished, _) = run_burst(&service, &shapes, &jobs);
        check_burst(&shapes, &jobs, &finished, out);
        (service, shapes)
    });

    let mut batch = Latencies::default();
    let mut interactive = Latencies::default();
    let (mut busy_s, mut done) = (0.0, 0);
    let (mut exec, mut lifetime) = (0, 0);
    let before = service.stats();
    for round in 1..=rounds as u64 {
        let jobs = burst(&shapes, run.seed, round);
        let (finished, wall) = run_burst(&service, &shapes, &jobs);
        busy_s += wall;
        for (job, (latency, result)) in jobs.iter().zip(&finished) {
            if result.is_ok() {
                done += 1;
                let class = match job.priority {
                    Priority::Interactive => &mut interactive,
                    _ => &mut batch,
                };
                class.push(&shapes[job.shape].name, *latency);
            }
        }
        let (e, l) = check_burst(&shapes, &jobs, &finished, out);
        exec += e;
        lifetime += l;
    }
    let after = service.stats();
    // Per-round sums, averaged over every measured round's fresh seeds.
    out.set("exec_cycles", exec as f64 / rounds as f64);
    out.set("lifetime_cycles", lifetime as f64 / rounds as f64);
    check_drained(out, &after);

    println!("{}", batch.describe("compile_ms (Batch jobs)"));
    println!("{}", interactive.describe("fast_ms (Interactive jobs)"));
    out.set_latency("compile_ms", run.trace, &batch);
    out.set_latency("fast_ms", run.trace, &interactive);
    if done > 0 {
        out.set("ops_per_s", done as f64 / busy_s);
    }
    if run.trace {
        service_layers(out, &before, &after);
        crate::stages::probe_all(&shapes, out);
    }
    out.set("peak_rss_mib", peak_rss_mib());
}
