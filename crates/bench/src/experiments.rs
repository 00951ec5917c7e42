//! Generators for every table and figure of the paper's evaluation.
//!
//! Each function returns a [`TextTable`] with the same rows/series the
//! paper reports. Absolute values differ from the paper (our substrate
//! is a reimplemented compiler stack, not the authors' testbed); the
//! *shapes* — who wins, by what factor, where the elbows fall — are the
//! reproduction target, and `tests/paper_shapes.rs` asserts them.

use std::time::Instant;

use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_circuit::decompose;
use mbqc_hardware::{loss, survey, ResourceStateKind};
use mbqc_pattern::transpile::transpile;
use mbqc_util::table::{fmt_f64, fmt_factor};
use mbqc_util::TextTable;

use crate::runner::{compare, compare_oneadapt, RunConfig, SEED};
use crate::Scale;

/// Dynamic-refresh bound used in the Table V (OneAdapt) comparison.
/// The paper's OneAdapt lifetimes sit in the 9–20 cycle band; our
/// compiled programs run at roughly half the paper's layer counts, so a
/// bound of 8 lands in the same regime.
pub const ONEADAPT_REFRESH: usize = 8;

/// Table I: survey of distributed entangling generation platforms.
#[must_use]
pub fn table1() -> TextTable {
    let mut t = TextTable::new(vec!["Platform", "Fidelity", "Clock speed", "Exp."]);
    t.title("Table I — survey of distributed entangling generation (without distillation)");
    for e in survey::table1_entries() {
        t.row(vec![
            e.platform.to_string(),
            format!(
                "{:.2}%{}",
                e.fidelity * 100.0,
                if e.post_selected { "*" } else { "" }
            ),
            e.clock_speed.to_string(),
            if e.experimental { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// Figure 1: photon loss probability vs. storage cycles for the three
/// resource-state clock rates (100/10/1 ns per cycle).
#[must_use]
pub fn figure1() -> TextTable {
    let mut t = TextTable::new(vec!["Cycles", "loss @100ns", "loss @10ns", "loss @1ns"]);
    t.title("Figure 1 — photon loss vs. storage duration (0.2 dB/km, 2/3 c)");
    for i in 1..=10 {
        let cycles = 500 * i;
        let row: Vec<String> = std::iter::once(cycles.to_string())
            .chain(
                loss::FIGURE1_CLOCK_RATES_NS
                    .iter()
                    .map(|&ns| fmt_f64(loss::loss_probability(cycles, ns), 4)),
            )
            .collect();
        t.row(row);
    }
    t
}

/// Table II: benchmark program statistics. `#2Q gates` counts logical
/// two-qubit interactions (Toffolis decomposed); `#Fusion (graph)` is
/// the computation-graph edge count (OneQ's fusion abstraction);
/// `#Fusion (compiled)` additionally counts the routing and wire
/// fusions our baseline compilation spends.
#[must_use]
pub fn table2(scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec![
        "Program",
        "#Qubits",
        "Grid size",
        "#2Q gates",
        "#Fusion (graph)",
        "#Fusion (compiled)",
    ]);
    t.title("Table II — benchmark programs");
    for kind in BenchmarkKind::all() {
        for &n in scale.limit(kind.paper_sizes()) {
            let circuit = kind.generate(n, SEED);
            let two_q = decompose::decompose_three_qubit(&circuit).two_qubit_gate_count();
            let pattern = transpile(&circuit);
            let stats = pattern.stats();
            let compiled = RunConfig::table3()
                .compiler(n)
                .compile_baseline_pattern(&pattern)
                .expect("baseline compiles");
            let w = bench::grid_size_for(n);
            t.row(vec![
                format!("{kind}-{n}"),
                n.to_string(),
                format!("{w}x{w}"),
                two_q.to_string(),
                stats.edges.to_string(),
                compiled.compiled().fusion_count.to_string(),
            ]);
        }
    }
    t
}

fn comparison_table(title: &str, cfg: &RunConfig, scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec![
        "Program-#Qubits",
        "Baseline Exec.",
        "Our Exec.",
        "Improv.",
        "Baseline Lifetime",
        "Our Lifetime",
        "Improv.",
    ]);
    t.title(title);
    for kind in BenchmarkKind::all() {
        for &n in scale.limit(kind.paper_sizes()) {
            let outcome = compare(kind, n, cfg);
            t.row(outcome.report.table_row());
        }
    }
    t
}

/// Table III: DC-MBQC vs. the OneQ-style baseline with 4 QPUs and
/// 5-star resource states.
#[must_use]
pub fn table3(scale: Scale) -> TextTable {
    comparison_table(
        "Table III — DC-MBQC vs baseline, 4 QPUs, 5-star RSG",
        &RunConfig::table3(),
        scale,
    )
}

/// Table IV: DC-MBQC vs. the OneQ-style baseline with 8 QPUs and 4-ring
/// resource states (the paper's Table IV header says "4-star"; its
/// Figure 7 uses 4-ring — we follow the ring, the only 4-photon kind in
/// Figure 4(a)).
#[must_use]
pub fn table4(scale: Scale) -> TextTable {
    comparison_table(
        "Table IV — DC-MBQC vs baseline, 8 QPUs, 4-ring RSG",
        &RunConfig::table4(),
        scale,
    )
}

/// Table V: DC-MBQC vs. a OneAdapt-style monolithic compiler (dynamic
/// refresh on both sides; boundary resource reservation models the
/// communication interfaces on the distributed side).
#[must_use]
pub fn table5(scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec![
        "#QPUs",
        "Program-#Qubits",
        "OneAdapt Exec.",
        "Our Exec.",
        "Improv.",
        "OneAdapt Lifetime",
        "Our Lifetime",
        "Improv.",
    ]);
    t.title("Table V — DC-MBQC vs OneAdapt (dynamic refresh both sides)");
    let programs: &[(BenchmarkKind, usize)] = &[
        (BenchmarkKind::Vqe, 64),
        (BenchmarkKind::Vqe, 100),
        (BenchmarkKind::Qaoa, 64),
        (BenchmarkKind::Qaoa, 121),
        (BenchmarkKind::Qft, 36),
        (BenchmarkKind::Qft, 64),
    ];
    let programs: &[(BenchmarkKind, usize)] = match scale {
        Scale::Quick => &programs[4..],
        Scale::Full => programs,
    };
    for &qpus in &[4usize, 8] {
        for &(kind, n) in programs {
            let (reference, ours) = compare_oneadapt(kind, n, qpus, ONEADAPT_REFRESH);
            let (re, oe) = (reference.execution_time(), ours.execution_time());
            let (rl, ol) = (
                reference.required_photon_lifetime(),
                ours.required_photon_lifetime(),
            );
            t.row(vec![
                qpus.to_string(),
                format!("{kind}-{n}"),
                re.to_string(),
                oe.to_string(),
                fmt_factor(re as f64 / oe.max(1) as f64),
                rl.to_string(),
                ol.to_string(),
                fmt_factor(rl as f64 / ol.max(1) as f64),
            ]);
        }
    }
    t
}

/// Table VI: BDIR vs. plain list scheduling (full framework with only
/// the scheduling component swapped), QFT programs, 4 QPUs.
#[must_use]
pub fn table6(scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec![
        "Program-#Qubits",
        "Baseline Lifetime",
        "BDIR Lifetime",
        "Improv.",
    ]);
    t.title("Table VI — effectiveness of BDIR (vs list scheduling)");
    let sizes: &[usize] = match scale {
        Scale::Quick => &[16, 25],
        Scale::Full => &[16, 25, 36, 49, 64],
    };
    for &n in sizes {
        let core = RunConfig {
            bdir: false,
            ..RunConfig::table3()
        };
        let base = compare(BenchmarkKind::Qft, n, &core);
        let ours = compare(BenchmarkKind::Qft, n, &RunConfig::table3());
        let (bl, ol) = (
            base.distributed.required_photon_lifetime(),
            ours.distributed.required_photon_lifetime(),
        );
        let pct = if bl == 0 {
            0.0
        } else {
            100.0 * (bl as f64 - ol as f64) / bl as f64
        };
        t.row(vec![
            format!("QFT-{n}"),
            bl.to_string(),
            ol.to_string(),
            format!("{pct:.2}%"),
        ]);
    }
    t
}

/// Figure 7: improvement factors of DC-MBQC over the baseline on the
/// 36-qubit programs with 4 QPUs, across the four resource-state kinds
/// (`f ≡ τ_OneQ / τ_DC-MBQC`, same RSG on both sides).
#[must_use]
pub fn figure7(scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec!["Program", "RSG", "Exec. Improv.", "Lifetime Improv."]);
    t.title("Figure 7 — resource-state comparison (36 qubits, 4 QPUs)");
    let kinds: &[BenchmarkKind] = match scale {
        Scale::Quick => &[BenchmarkKind::Qaoa, BenchmarkKind::Qft],
        Scale::Full => &[
            BenchmarkKind::Qaoa,
            BenchmarkKind::Vqe,
            BenchmarkKind::Qft,
            BenchmarkKind::Rca,
        ],
    };
    for &kind in kinds {
        for rsg in ResourceStateKind::paper_kinds() {
            let cfg = RunConfig {
                rsg,
                ..RunConfig::table3()
            };
            let outcome = compare(kind, 36, &cfg);
            t.row(vec![
                format!("{kind}-36"),
                rsg.to_string(),
                fmt_factor(outcome.report.exec_factor()),
                fmt_factor(outcome.report.lifetime_factor()),
            ]);
        }
    }
    t
}

/// Figure 8: sensitivity to the connection capacity `K_max`
/// (QFT-25 and QFT-36, 4 QPUs).
#[must_use]
pub fn figure8(scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec![
        "Kmax",
        "Exec. Improv. (25q)",
        "Lifetime Improv. (25q)",
        "Exec. Improv. (36q)",
        "Lifetime Improv. (36q)",
    ]);
    t.title("Figure 8 — impact of connection capacity K_max (QFT, 4 QPUs)");
    let kmaxes: &[usize] = match scale {
        Scale::Quick => &[1, 4, 16],
        Scale::Full => &[1, 2, 3, 4, 6, 8, 12, 16],
    };
    for &kmax in kmaxes {
        let mut row = vec![kmax.to_string()];
        for n in [25usize, 36] {
            let cfg = RunConfig {
                kmax,
                ..RunConfig::table3()
            };
            let outcome = compare(BenchmarkKind::Qft, n, &cfg);
            row.push(fmt_factor(outcome.report.exec_factor()));
            row.push(fmt_factor(outcome.report.lifetime_factor()));
        }
        t.row(row);
    }
    t
}

/// Figure 9: robustness against the maximum imbalance factor `α_max`
/// (QFT-36, 4 QPUs). Also reports the partition cut and modularity (the
/// paper observes a constant cut of 60 and modularity 0.74 across the
/// whole sweep).
#[must_use]
pub fn figure9(scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec![
        "alpha_max",
        "Exec. Improv.",
        "Lifetime Improv.",
        "Cut",
        "Modularity",
    ]);
    t.title("Figure 9 — robustness of maximum imbalance factor (QFT-36, 4 QPUs)");
    let alphas: &[f64] = match scale {
        Scale::Quick => &[1.05, 1.5, 4.0],
        Scale::Full => &[1.05, 1.2, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
    };
    for &alpha_max in alphas {
        let cfg = RunConfig {
            alpha_max,
            ..RunConfig::table3()
        };
        let outcome = compare(BenchmarkKind::Qft, 36, &cfg);
        t.row(vec![
            fmt_f64(alpha_max, 2),
            fmt_factor(outcome.report.exec_factor()),
            fmt_factor(outcome.report.lifetime_factor()),
            outcome.distributed.cut_edges().to_string(),
            fmt_f64(outcome.distributed.modularity(), 3),
        ]);
    }
    t
}

/// Figure 10: compilation-runtime scaling on QFT programs — monolithic
/// baseline vs. DC-MBQC (Core) vs. DC-MBQC (Core + BDIR), 8 QPUs,
/// excluding the common transpilation preprocessing.
#[must_use]
pub fn figure10(scale: Scale) -> TextTable {
    let mut t = TextTable::new(vec![
        "#Qubits",
        "Baseline (OneQ-style) [ms]",
        "DC-MBQC (Core) [ms]",
        "DC-MBQC (Core+BDIR) [ms]",
    ]);
    // Core maps the QPUs in parallel with the `CompileSession` default
    // of one map worker per core (capped at the QPU count), so the
    // host's core count is part of the setting.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    t.title(format!(
        "Figure 10 — compilation runtime scaling (QFT, 8 QPUs; Core: one map worker per core, {cores} available)"
    ));
    let sizes: &[usize] = match scale {
        Scale::Quick => &[16, 25],
        Scale::Full => &[16, 25, 36, 49, 64, 81, 100],
    };
    for &n in sizes {
        let circuit = bench::qft(n);
        let pattern = transpile(&circuit); // common preprocessing, untimed
        let base_cfg = RunConfig::table4();
        let core_cfg = RunConfig {
            bdir: false,
            ..RunConfig::table4()
        };

        let t0 = Instant::now();
        let _ = base_cfg
            .compiler(n)
            .compile_baseline_pattern(&pattern)
            .expect("baseline compiles");
        let base_ms = t0.elapsed().as_secs_f64() * 1e3;

        let t1 = Instant::now();
        let _ = core_cfg
            .compiler(n)
            .compile_pattern(&pattern)
            .expect("core compiles");
        let core_ms = t1.elapsed().as_secs_f64() * 1e3;

        let t2 = Instant::now();
        let _ = base_cfg
            .compiler(n)
            .compile_pattern(&pattern)
            .expect("core+bdir compiles");
        let bdir_ms = t2.elapsed().as_secs_f64() * 1e3;

        t.row(vec![
            n.to_string(),
            fmt_f64(base_ms, 1),
            fmt_f64(core_ms, 1),
            fmt_f64(bdir_ms, 1),
        ]);
    }
    t
}
