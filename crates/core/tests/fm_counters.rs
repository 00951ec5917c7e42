//! FM work counters of whole partition-stage calls, pinned exactly.
//!
//! The counters repeat exactly for fixed inputs, so they show a change
//! in FM's work without timing it: a faster move index must make the
//! same moves (calls, rounds, tentative moves and rollbacks stay equal),
//! and only the leaf layouts may be built less often.

use dc_mbqc::{partition_stage, DcMbqcConfig, Transpiled};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::{FmCounters, KwayWorkspace};
use mbqc_pattern::transpile::transpile;

/// Table III's configuration (4 QPUs, 5-star states, `K_max = 4`,
/// `α_max = 1.5`, the experiments' seed 2026).
fn table3(n: usize) -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(4)
        .grid_width(bench::grid_size_for(n))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw).with_seed(2026).with_alpha_max(1.5)
}

/// The FM counters of partitioning `kind`-`n` twice in one workspace,
/// under table III's configuration: counts are per call, so both calls
/// must read the same.
fn counters(kind: BenchmarkKind, n: usize) -> FmCounters {
    let pattern = transpile(&kind.generate(n, 2026));
    let config = table3(n);
    let mut ws = KwayWorkspace::new();
    let mut got = Vec::new();
    for _ in 0..2 {
        let transpiled = Transpiled::new(&pattern).expect("benchmark patterns have flow");
        let _ = partition_stage(&config, transpiled, &mut ws);
        got.push(ws.counters());
    }
    assert_eq!(got[0], got[1], "{kind:?}-{n}: counts carried across calls");
    got[0]
}

/// `FmCounters` from its five counts.
fn fm(calls: u64, rounds: u64, moves: u64, rollbacks: u64, layouts: u64) -> FmCounters {
    FmCounters {
        calls,
        rounds,
        moves,
        rollbacks,
        layouts,
    }
}

#[test]
fn fm_counters_are_pinned() {
    use BenchmarkKind::{Qaoa, Qft};
    // QAOA-16 is served_mix's fresh-compile shape, QFT-36 a table III
    // program. Partitioning runs on the caller's thread, so the default
    // configuration must count exactly what one probe worker did, on a
    // host of any core count.
    //
    // Calls, rounds, moves and rollbacks were taken from the tree-indexed
    // FM that preceded the block-max index, and must never change
    // without an output change. That FM sorted a layout in every call
    // (layouts = calls: 21, 28, 16 and 24); now each FM-refined level is
    // laid out once per partition call, however many α probes and
    // restarts share it.
    let pins = [
        (Qaoa, 16, fm(21, 31, 956, 840, 4)),
        (Qft, 36, fm(16, 18, 362, 342, 5)),
    ];
    for (kind, n, want) in pins {
        let got = counters(kind, n);
        assert_eq!(got, want, "{kind:?}-{n}");
    }
}
