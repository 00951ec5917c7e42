//! Metric names and units, the percentile rule, and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed with `--trace 0`. Every workload
/// reports every one of them; `BENCHMARK.json` lists the same names
/// and units (pinned by the smoke test). Tail latencies are per-layer
/// (`traced.*_tail`): on a shared 2-vCPU host their run-to-run spread
/// reached the 0.25 bound.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("compile_ms_p50", "ms"),
    ("fast_ms_p50", "ms"),
    ("exec_cycles", "cycles"),
    ("lifetime_cycles", "cycles"),
    ("peak_rss_mib", "MiB"),
];

/// The `cold_burst` program shapes, which its traced run also compiles
/// stage by stage on one thread (`stages.rs`).
pub const STAGE_PROGRAMS: [&str; 4] = ["qft16", "qft36", "qaoa36", "rca36"];

/// Per-program layer metrics of those stage probes, as `(prefix, unit)`;
/// the full name is `<prefix>.<program>`.
pub const STAGE_LAYER: &[(&str, &str)] = &[
    ("transpile.ms", "ms"),
    ("flow.ms", "ms"),
    ("partition.ms", "ms"),
    ("partition.probes", "count"),
    ("map.ms", "ms"),
    ("schedule.ms", "ms"),
    ("schedule.list_ms", "ms"),
    ("schedule.bdir_ms", "ms"),
    ("schedule.sync_tasks", "count"),
    ("pattern.nodes", "count"),
];

/// Layer metrics that are not per program. A workload that does not
/// exercise a layer reports it as 0.
pub const SHARED_LAYER: &[(&str, &str)] = &[
    ("traced.compile_ms_p50", "ms"),
    ("traced.compile_ms_tail", "ms"),
    ("traced.fast_ms_p50", "ms"),
    ("traced.fast_ms_tail", "ms"),
    ("net.submit_ms_p50", "ms"),
    ("net.submit_ms_p99", "ms"),
    ("net.wait_ms_p50", "ms"),
    ("service.hit_ms_p50", "ms"),
    ("codec.request_encode_us", "us"),
    ("codec.reply_encode_us", "us"),
    ("codec.reply_decode_us", "us"),
    ("codec.request_bytes", "bytes"),
    ("codec.reply_bytes", "bytes"),
    ("service.warm_hit_ms_p50", "ms"),
    ("service.queue_wait_ms_p50", "ms"),
    ("service.queue_wait_ms_p99", "ms"),
    ("service.stage_ms_p50.transpile", "ms"),
    ("service.stage_ms_p50.partition", "ms"),
    ("service.stage_ms_p50.map", "ms"),
    ("service.stage_ms_p50.schedule", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.evictions", "count"),
    ("service.full_compiles", "count"),
    ("service.dedup_hits", "count"),
    ("service.tasks_executed", "count"),
    ("service.pool_outstanding", "count"),
];

/// Every per-layer metric, printed with `--trace 1`, in a fixed order.
#[must_use]
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = STAGE_LAYER
        .iter()
        .flat_map(|&(prefix, unit)| {
            STAGE_PROGRAMS
                .iter()
                .map(move |p| (format!("{prefix}.{p}"), unit))
        })
        .collect();
    all.extend(SHARED_LAYER.iter().map(|&(n, u)| (n.to_string(), u)));
    all
}

/// Candidate tail percentiles, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 75];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `pct`-th percentile among `n`
/// samples.
fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// The highest candidate percentile that leaves at least
/// [`MIN_BEYOND`] of `n` samples strictly above its rank; the median
/// when none does.
#[must_use]
pub fn tail_pct(n: usize) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n - rank(n, p).min(n) >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Nearest-rank percentile of unsorted samples.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn percentile(samples: &[f64], pct: u32) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), pct).min(sorted.len()) - 1]
}

/// Latency samples of one op class, grouped by program shape so that
/// percentiles never mix shapes of different cost.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    groups: BTreeMap<String, Vec<f64>>,
}

impl Latencies {
    pub fn push(&mut self, group: &str, ms: f64) {
        self.groups.entry(group.to_string()).or_default().push(ms);
    }

    /// Adds another recorder's samples (e.g. another client's).
    pub fn absorb(&mut self, other: Latencies) {
        for (group, samples) in other.groups {
            self.groups.entry(group).or_default().extend(samples);
        }
    }

    /// Samples in the smallest group (0 when empty).
    #[must_use]
    pub fn min_group_len(&self) -> usize {
        self.groups.values().map(Vec::len).min().unwrap_or(0)
    }

    /// Percentile of one group.
    #[must_use]
    pub fn group_pct(&self, group: &str, pct: u32) -> Option<f64> {
        self.groups.get(group).map(|s| percentile(s, pct))
    }

    /// Geometric mean over groups of each group's `pct`-th percentile.
    #[must_use]
    pub fn geomean_pct(&self, pct: u32) -> f64 {
        let logs: f64 = self.groups.values().map(|s| percentile(s, pct).ln()).sum();
        (logs / self.groups.len() as f64).exp()
    }

    /// The tail percentile every group supports under the
    /// [`MIN_BEYOND`] rule.
    #[must_use]
    pub fn tail(&self) -> u32 {
        tail_pct(self.min_group_len())
    }

    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// One header line describing the class.
    #[must_use]
    pub fn describe(&self, class: &str) -> String {
        format!(
            "# {class}: {} group(s), {} samples per group (min), tail = p{}",
            self.groups.len(),
            self.min_group_len(),
            self.tail()
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// What one run found: op counts and metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Sets the latency metrics of one op class (`compile_ms` or
    /// `fast_ms`): `<class>_p50` untraced; `traced.<class>_p50` and
    /// `traced.<class>_tail` traced. Does nothing without samples.
    pub fn set_latency(&mut self, class: &str, trace: bool, samples: &Latencies) {
        if samples.is_empty() {
            return;
        }
        if trace {
            self.set(&format!("traced.{class}_p50"), samples.geomean_pct(50));
            self.set(
                &format!("traced.{class}_tail"),
                samples.geomean_pct(samples.tail()),
            );
        } else {
            self.set(&format!("{class}_p50"), samples.geomean_pct(50));
        }
    }

    /// Counts one checked op; `Err` marks it failed and reports why.
    pub fn record(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = check {
            self.failed += 1;
            eprintln!("FAILED {what}: {why}");
        }
    }

    /// The final result line. End-to-end metrics must all be present;
    /// per-layer metrics a workload does not exercise read 0.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing, or any value is not
    /// finite.
    #[must_use]
    pub fn result_line(&self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let mut metrics = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if trace => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        // p99 needs 1000 samples (rank 990, 10 beyond); 999 fall to p95.
        assert_eq!(tail_pct(1000), 99);
        assert_eq!(tail_pct(999), 95);
        assert_eq!(tail_pct(200), 95);
        assert_eq!(tail_pct(199), 90);
        assert_eq!(tail_pct(100), 90);
        assert_eq!(tail_pct(99), 75);
        assert_eq!(tail_pct(40), 75);
        assert_eq!(tail_pct(39), 50);
        assert_eq!(tail_pct(1), 50);
        for n in 1..3000 {
            let p = tail_pct(n);
            if p != 50 {
                assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 50.0);
        assert_eq!(percentile(&s, 90), 90.0);
        assert_eq!(percentile(&s, 99), 99.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn geomean_over_groups() {
        let mut l = Latencies::default();
        for _ in 0..3 {
            l.push("a", 2.0);
            l.push("b", 8.0);
        }
        assert!((l.geomean_pct(50) - 4.0).abs() < 1e-12);
        assert_eq!(l.min_group_len(), 3);
    }
}
