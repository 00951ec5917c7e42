//! The adaptive α walk (Algorithm 2) stops at its first repeated step.
//!
//! A step's ΔQ, and so the walk's next α, depends only on the previous
//! α and the current one, since each α's modularity is deterministic.
//! A walk that oscillates (ΔQ alternately above `ε_Q` and below `-ε_Q`)
//! would cycle through α values it already probed until the iteration
//! cap; it stops instead when a `(previous α, α)` step repeats, with
//! the same best partition.

use std::sync::Arc;

use dc_mbqc::{partition_stage, DcMbqcConfig, Partitioned, Transpiled};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::{AdaptiveConfig, KwayWorkspace};
use mbqc_pattern::transpile::transpile;

/// Table III's configuration for 16 qubits (4 QPUs, 5-star states,
/// `K_max = 4`, `α_max = 1.5`, the experiments' seed 2026).
fn table3_16() -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(4)
        .grid_width(bench::grid_size_for(16))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw).with_seed(2026).with_alpha_max(1.5)
}

/// The partition stage of QAOA-16 instance `instance`.
fn qaoa16(instance: u64, ws: &mut KwayWorkspace) -> Partitioned<'static> {
    let pattern = Arc::new(transpile(&BenchmarkKind::Qaoa.generate(16, instance)));
    let transpiled = Transpiled::shared(pattern).expect("benchmark patterns have flow");
    partition_stage(&table3_16(), transpiled, ws)
}

/// Instance 18 oscillates between α = γ² and γ³ from its third probe
/// on. It used to run all 64 steps of the cap; it now stops after
/// five, on the best partition the full walk picked.
#[test]
fn oscillating_walk_stops_at_its_first_repeated_step() {
    let partitioned = qaoa16(18, &mut KwayWorkspace::new());
    let r = partitioned.adaptive();
    let alphas: Vec<u64> = r.history.iter().map(|s| s.alpha.to_bits()).collect();
    let (one, g1, g2, g3) = (
        0x3ff0_0000_0000_0000, // 1
        0x3ff0_51eb_851e_b852, // 1.02
        0x3ff0_a57a_786c_2268, // 1.02²
        0x3ff0_fab5_3d64_0e9d, // 1.02³
    );
    // The next step would be (γ², γ³) again, the third one.
    assert_eq!(alphas, [one, g1, g2, g3, g2]);
    assert_eq!(r.alpha.to_bits(), g2);
    assert_eq!(r.modularity.to_bits(), 0x3fe4_3a5b_ae31_5dcc);
    assert_eq!(r.cut, 31);
}

/// On fresh instances (four of these 32 used to run to the cap), no
/// walk repeats a step, stays below the cap, and keeps the first probe
/// of highest modularity.
#[test]
fn walks_never_repeat_a_step() {
    let mut ws = KwayWorkspace::new();
    for instance in 0..32 {
        let partitioned = qaoa16(instance, &mut ws);
        let r = partitioned.adaptive();
        let steps: Vec<(u64, u64)> = r
            .history
            .windows(2)
            .map(|w| (w[0].alpha.to_bits(), w[1].alpha.to_bits()))
            .collect();
        for (i, step) in steps.iter().enumerate() {
            assert!(!steps[..i].contains(step), "instance {instance}: {step:?}");
        }
        assert!(r.history.len() < AdaptiveConfig::new(4).max_iters);
        let best = r
            .history
            .iter()
            .reduce(|best, s| {
                if s.modularity > best.modularity {
                    s
                } else {
                    best
                }
            })
            .expect("at least one probe");
        assert_eq!(
            (best.alpha.to_bits(), best.modularity.to_bits(), best.cut),
            (r.alpha.to_bits(), r.modularity.to_bits(), r.cut),
            "instance {instance}"
        );
    }
}
