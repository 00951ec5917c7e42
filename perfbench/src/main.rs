//! The DC-MBQC benchmark: one command that runs a named workload,
//! checks every output, and prints its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_burst --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload while timing calls into each layer's public functions from
//! here, and prints the per-layer metrics instead. Lines starting with
//! `#` describe the run; the last line is the result.

mod cold_burst;
mod metrics;
mod programs;
mod served_mix;
mod stages;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mbqc_partition::coarsen::CoarseRebuild;

use metrics::Outcome;

/// Times each workload builds its full state; `setup_s` is the median.
const SETUPS: usize = 5;

const WORKLOADS: [&str; 2] = ["served_mix", "cold_burst"];

/// One invocation's arguments.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Run {
    /// Whole passes to run: a fixed count derived from `--seconds`, so
    /// every run of a workload sees the same multiset of inputs.
    #[must_use]
    pub fn passes(&self, per_second: f64) -> usize {
        ((self.seconds as f64 * per_second).round() as usize).max(1)
    }
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median (nearest rank) of unsorted samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    metrics::percentile(samples, 50)
}

/// Builds a workload's state [`SETUPS`] times, each from scratch after
/// dropping the previous one, and records the median time as `setup_s`.
/// Returns the last state.
pub fn set_up<T>(out: &mut Outcome, mut build: impl FnMut(&mut Outcome) -> T) -> T {
    let mut times = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        drop(ready.take());
        let t = Instant::now();
        ready = Some(build(out));
        times.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&times));
    ready.expect("SETUPS is at least one")
}

fn parse(args: &[String]) -> Result<Run, String> {
    let mut run = Run {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => run.workload = value.clone(),
            "--seed" => run.seed = number()?,
            "--seconds" => run.seconds = number()?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if run.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(run)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse(&args) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        run.workload,
        run.seed,
        run.seconds,
        u8::from(run.trace)
    );
    // The coarse-rebuild mode follows the `reference-impls` feature of
    // mbqc-partition and changes partitions, so it is part of the build
    // a result belongs to.
    let reference_impls = CoarseRebuild::default_mode() == CoarseRebuild::MirrorInsertion;
    println!(
        "# build: profile={}, reference-impls={} (coarse rebuild {:?}), nproc={nproc}, set-ups={}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        if reference_impls { "on" } else { "off" },
        CoarseRebuild::default_mode(),
        SETUPS
    );
    let mut out = Outcome::default();
    match run.workload.as_str() {
        "served_mix" => served_mix::run(&run, nproc, &mut out),
        _ => cold_burst::run(&run, &mut out),
    }
    println!("{}", out.result_line(run.trace));
    ExitCode::SUCCESS
}
