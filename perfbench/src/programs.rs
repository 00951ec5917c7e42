//! Benchmark inputs: the paper's programs under the paper's hardware
//! settings, and the output checks every compiled schedule must pass.

use dc_mbqc::{DcMbqcConfig, DistributedSchedule};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_circuit::Circuit;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::{transpile, Pattern};

use crate::metrics::Outcome;

/// Master compiler seed of the paper's experiments (`repro` uses the
/// same one). Workload seeds pick program instances, not this.
pub const COMPILER_SEED: u64 = 2026;

/// A program ready to compile: its circuit, pattern and pipeline
/// configuration.
#[derive(Debug, Clone)]
pub struct Program {
    pub name: String,
    pub circuit: Circuit,
    pub pattern: Pattern,
    pub config: DcMbqcConfig,
}

/// The pipeline configuration `repro` uses for an `n`-qubit program in
/// table III (`RunConfig::table3()`: 4 QPUs, 5-star resource states,
/// `K_max = 4`, `α_max = 1.5`, BDIR on), with every worker count pinned
/// to one thread.
///
/// This must match `mbqc_bench::runner::RunConfig::compiler`. It is a
/// copy rather than a call because `mbqc-bench` pins mbqc-partition's
/// `reference-impls` feature on, which would fix the coarse-rebuild
/// mode of the code under test regardless of the repository's default.
#[must_use]
pub fn config(n: usize) -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(4)
        .grid_width(bench::grid_size_for(n))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw)
        .with_seed(COMPILER_SEED)
        .with_alpha_max(1.5)
        .with_probe_workers(1)
        .with_batch_workers(1)
}

/// Builds and transpiles `kind`-`n`; `seed` picks the QAOA/VQE instance.
#[must_use]
pub fn program(kind: BenchmarkKind, n: usize, seed: u64) -> Program {
    let circuit = kind.generate(n, seed);
    Program {
        name: format!("{}{n}", kind.name().to_lowercase()),
        pattern: transpile(&circuit),
        circuit,
        config: config(n),
    }
}

/// Records `exec_cycles` and `lifetime_cycles`: the sums of
/// `execution_time()` and `required_photon_lifetime()` over `schedules`.
pub fn set_cycle_sums<'a>(
    out: &mut Outcome,
    schedules: impl IntoIterator<Item = &'a DistributedSchedule>,
) {
    let (exec, lifetime) = schedules.into_iter().fold((0, 0), |(e, l), s| {
        (e + s.execution_time(), l + s.required_photon_lifetime())
    });
    out.set("exec_cycles", exec as f64);
    out.set("lifetime_cycles", lifetime as f64);
}

/// SplitMix64 step: derives independent seeds from the workload seed.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Checks a compiled schedule against the pattern and hardware without
/// trusting the compiler: the partition places every node exactly once
/// in `k` parts, its cut matches the reported sync-task count, the
/// schedule is feasible (per-QPU exclusivity, in-order layers, `K_max`),
/// and re-evaluating it reproduces the reported cost.
///
/// # Errors
///
/// Describes the first violated property.
pub fn check(
    pattern: &Pattern,
    config: &DcMbqcConfig,
    s: &DistributedSchedule,
) -> Result<(), String> {
    let k = config.hardware.num_qpus();
    let partition = s.partition();
    if partition.k() != k {
        return Err(format!(
            "partition has {} parts for {k} QPUs",
            partition.k()
        ));
    }
    if partition.len() != pattern.node_count() {
        return Err(format!(
            "partition places {} of {} nodes",
            partition.len(),
            pattern.node_count()
        ));
    }
    if let Some(bad) = partition.assignment().iter().find(|&&p| p >= k) {
        return Err(format!("node assigned to part {bad} of {k}"));
    }
    let cut = pattern
        .graph()
        .edges()
        .filter(|&(u, v, _)| partition.part_of(u) != partition.part_of(v))
        .count();
    if cut != s.cut_edges() {
        return Err(format!("cut is {cut}, reported {}", s.cut_edges()));
    }
    let problem = s.problem();
    let layers: usize = s.per_qpu_layers().iter().sum();
    if layers + cut != problem.task_count() {
        return Err(format!(
            "{layers} layers + {cut} syncs, problem has {} tasks",
            problem.task_count()
        ));
    }
    if !problem.is_feasible(s.schedule()) {
        return Err("schedule is infeasible".into());
    }
    let cost = problem.evaluate(s.schedule());
    let reported = (
        s.execution_time(),
        s.required_photon_lifetime(),
        s.tau_local(),
        s.tau_remote(),
    );
    let recomputed = (
        cost.makespan,
        cost.objective(),
        cost.tau_local,
        cost.tau_remote,
    );
    if reported != recomputed {
        return Err(format!(
            "reported (makespan, lifetime, τ_local, τ_remote) = {reported:?}, \
             re-evaluated {recomputed:?}"
        ));
    }
    Ok(())
}

/// Runs `f`, turning a panic into an error so one bad op cannot end the
/// run.
///
/// # Errors
///
/// The rendered panic payload.
pub fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}
