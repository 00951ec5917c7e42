//! In-process stage probes of a traced run: each program is compiled on
//! one thread by driving the pipeline's four stages one call at a time,
//! and list scheduling, BDIR and transpiling are re-run on their own.
//! They run after the workload's measured loop, so they do not disturb
//! it.

use std::time::Instant;

use dc_mbqc::{CompileSession, DcMbqcError, DistributedSchedule, Transpiled};
use mbqc_pattern::transpile;
use mbqc_schedule::{bdir, default_priorities, list_schedule};

use crate::metrics::Outcome;
use crate::programs::{check, contain, Program};
use crate::{median, ms};

/// Staged compiles (and re-schedules, re-transpiles) per program; each
/// per-layer value is the median over them.
const REPEATS: usize = 5;

/// Per-layer timings of one staged compile, ms.
struct Stages {
    flow: f64,
    partition: f64,
    map: f64,
    schedule: f64,
    probes: usize,
}

/// Drives the four stages one call at a time, timing each; the same
/// calls as `CompileSession::compile_pattern`.
fn staged(
    s: &mut CompileSession,
    p: &Program,
) -> Result<(DistributedSchedule, Stages), DcMbqcError> {
    let t0 = Instant::now();
    let transpiled = Transpiled::new(&p.pattern)?;
    let t1 = Instant::now();
    let partitioned = s.partition(transpiled);
    let t2 = Instant::now();
    let probes = partitioned.adaptive().history.len();
    let mapped = s.map(partitioned)?;
    let t3 = Instant::now();
    let scheduled = s.schedule(mapped);
    let t4 = Instant::now();
    let stages = Stages {
        flow: ms(t1 - t0),
        partition: ms(t2 - t1),
        map: ms(t3 - t2),
        schedule: ms(t4 - t3),
        probes,
    };
    Ok((scheduled, stages))
}

/// Re-runs list scheduling and BDIR on the compiled problem; the result
/// must equal the pipeline's schedule. Returns `(list_ms, bdir_ms)`.
fn rescheduled(p: &Program, s: &DistributedSchedule) -> Result<(f64, f64), String> {
    let problem = s.problem();
    let t0 = Instant::now();
    let init = list_schedule(problem, &default_priorities(problem), None);
    let t1 = Instant::now();
    let best = match &p.config.bdir {
        Some(cfg) => {
            let mut cfg = *cfg;
            cfg.seed = p.config.seed;
            bdir(problem, &init, &cfg)
        }
        None => init,
    };
    let t2 = Instant::now();
    if &best != s.schedule() {
        return Err("re-running list scheduling + BDIR gave another schedule".into());
    }
    Ok((ms(t1 - t0), ms(t2 - t1)))
}

/// One staged probe round of `p`: compile, check against `reference`,
/// re-schedule, re-transpile. Pushes one sample into each series.
fn probe(
    session: &mut CompileSession,
    p: &Program,
    reference: &DistributedSchedule,
    series: &mut [Vec<f64>; 7],
    out: &mut Outcome,
) -> Result<(), String> {
    let (s, st) = contain(|| staged(session, p))?.map_err(|e| e.to_string())?;
    if &s != reference {
        return Err("staged compile differs from compile_pattern".into());
    }
    let (list, bdir) = rescheduled(p, &s)?;
    let t = Instant::now();
    let again = transpile(&p.circuit);
    let transpile_ms = ms(t.elapsed());
    if again != p.pattern {
        return Err("re-transpiling gave another pattern".into());
    }
    out.set(&format!("partition.probes.{}", p.name), st.probes as f64);
    let samples = [
        transpile_ms,
        st.flow,
        st.partition,
        st.map,
        st.schedule,
        list,
        bdir,
    ];
    for (v, x) in series.iter_mut().zip(samples) {
        v.push(x);
    }
    Ok(())
}

/// Probes every program and sets its per-layer metrics.
pub fn probe_all(programs: &[Program], out: &mut Outcome) {
    const NAMES: [&str; 7] = [
        "transpile.ms",
        "flow.ms",
        "partition.ms",
        "map.ms",
        "schedule.ms",
        "schedule.list_ms",
        "schedule.bdir_ms",
    ];
    for p in programs {
        let mut session = CompileSession::new(p.config.clone()).with_map_workers(1);
        let reference = contain(|| session.compile_pattern(&p.pattern))
            .and_then(|r| r.map_err(|e| e.to_string()))
            .and_then(|s| check(&p.pattern, &p.config, &s).map(|()| s));
        let reference = match reference {
            Ok(s) => s,
            Err(e) => {
                out.record(&format!("stage probe of {}", p.name), Err(e));
                continue;
            }
        };
        out.set(
            &format!("schedule.sync_tasks.{}", p.name),
            reference.cut_edges() as f64,
        );
        out.set(
            &format!("pattern.nodes.{}", p.name),
            p.pattern.node_count() as f64,
        );
        let mut series: [Vec<f64>; 7] = Default::default();
        for _ in 0..REPEATS {
            let verdict = probe(&mut session, p, &reference, &mut series, out);
            out.record(&format!("stage probe of {}", p.name), verdict);
        }
        for (name, samples) in NAMES.iter().zip(&series) {
            if !samples.is_empty() {
                out.set(&format!("{name}.{}", p.name), median(samples));
            }
        }
    }
}
