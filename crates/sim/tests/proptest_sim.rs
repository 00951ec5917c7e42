//! Property-based equivalence tests: the bit-packed stabilizer tableau
//! against the pre-optimization `Vec<bool>` oracle in `common`, on
//! random Clifford sequences with interleaved measurements.

mod common;

use mbqc_graph::{generate, NodeId};
use mbqc_sim::stabilizer;
use mbqc_util::Rng;
use proptest::prelude::*;

/// One random Clifford operation, chosen identically for both tableaus.
fn apply_random_op(
    packed: &mut stabilizer::Tableau,
    boolean: &mut common::Tableau,
    n: usize,
    rng: &mut Rng,
) {
    match rng.range(6) {
        0 => {
            let q = rng.range(n);
            packed.h(q);
            boolean.h(q);
        }
        1 => {
            let q = rng.range(n);
            packed.s(q);
            boolean.s(q);
        }
        2 => {
            let q = rng.range(n);
            packed.x_gate(q);
            boolean.x_gate(q);
        }
        3 => {
            let q = rng.range(n);
            packed.z_gate(q);
            boolean.z_gate(q);
        }
        4 => {
            let a = rng.range(n);
            let b = (a + 1 + rng.range(n - 1)) % n;
            packed.cnot(a, b);
            boolean.cnot(a, b);
        }
        _ => {
            let a = rng.range(n);
            let b = (a + 1 + rng.range(n - 1)) % n;
            packed.cz(a, b);
            boolean.cz(a, b);
        }
    }
}

/// Asserts the two tableaus describe identical stabilizer rows.
fn assert_rows_equal(
    packed: &stabilizer::Tableau,
    boolean: &common::Tableau,
) -> Result<(), TestCaseError> {
    let n = packed.num_qubits();
    prop_assert_eq!(n, boolean.num_qubits());
    let pg = packed.stabilizer_generators();
    let bg = boolean.stabilizer_generators();
    for (row, (p, b)) in pg.iter().zip(&bg).enumerate() {
        prop_assert_eq!(p.phase(), b.phase(), "row {} phase", row);
        for q in 0..n {
            prop_assert_eq!(p.x_bit(q), b.x_bit(q), "row {} x bit {}", row, q);
            prop_assert_eq!(p.z_bit(q), b.z_bit(q), "row {} z bit {}", row, q);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn packed_tableau_matches_bool_tableau_on_random_cliffords(
        n in 2usize..70,
        ops in 10usize..120,
        seed in 0u64..1000,
    ) {
        // Sizes beyond 64 qubits exercise multi-word rows.
        let mut rng = Rng::seed_from_u64(seed);
        let mut packed = stabilizer::Tableau::new(n);
        let mut boolean = common::Tableau::new(n);
        for _ in 0..ops {
            apply_random_op(&mut packed, &mut boolean, n, &mut rng);
        }
        assert_rows_equal(&packed, &boolean)?;
    }

    #[test]
    fn packed_measurements_match_bool_measurements(
        n in 2usize..40,
        ops in 5usize..60,
        measures in 1usize..20,
        seed in 0u64..1000,
    ) {
        // Both implementations must consume randomness identically: the
        // pivot search and rowsum pattern are the same algorithm, so the
        // same RNG must yield the same outcomes AND the same post-
        // measurement tableau.
        let mut rng = Rng::seed_from_u64(seed);
        let mut packed = stabilizer::Tableau::new(n);
        let mut boolean = common::Tableau::new(n);
        for _ in 0..ops {
            apply_random_op(&mut packed, &mut boolean, n, &mut rng);
        }
        let mut rng_p = Rng::seed_from_u64(seed ^ 0x5eed);
        let mut rng_b = Rng::seed_from_u64(seed ^ 0x5eed);
        for m in 0..measures {
            let q = (m * 7 + 3) % n;
            let a = packed.measure_z(q, &mut rng_p);
            let b = boolean.measure_z(q, &mut rng_b);
            prop_assert_eq!(a, b, "measurement {} on qubit {}", m, q);
            assert_rows_equal(&packed, &boolean)?;
        }
    }

    #[test]
    fn interleaved_gates_and_measurements_match_bool(
        n in 2usize..40,
        steps in 10usize..80,
        seed in 0u64..1000,
    ) {
        // Gates *between* measurements exercise every maintenance path
        // of the packed tableau's first-stabilizer-with-X index: exact
        // rebuilds in `h`/`cnot` sweeps, the rowsum clamp, and the
        // post-measurement reset. Outcomes and rows must stay identical
        // to the reference at every step.
        let mut rng = Rng::seed_from_u64(seed);
        let mut packed = stabilizer::Tableau::new(n);
        let mut boolean = common::Tableau::new(n);
        let mut rng_p = Rng::seed_from_u64(seed ^ 0xfeed);
        let mut rng_b = Rng::seed_from_u64(seed ^ 0xfeed);
        for step in 0..steps {
            if rng.bernoulli(0.35) {
                let q = rng.range(n);
                let a = packed.measure_z(q, &mut rng_p);
                let b = boolean.measure_z(q, &mut rng_b);
                prop_assert_eq!(a, b, "step {} qubit {}", step, q);
            } else {
                apply_random_op(&mut packed, &mut boolean, n, &mut rng);
            }
        }
        assert_rows_equal(&packed, &boolean)?;
    }

    #[test]
    fn measure_sweep_and_remeasure_match_bool(
        side in 2usize..7,
        seed in 0u64..1000,
    ) {
        // The scratch-row deterministic path, exercised hard: a
        // graph-state measure-all sweep turns mostly deterministic as
        // it progresses, and the second sweep (plus interleaved
        // re-measurements) is deterministic end to end — every outcome
        // flows through the shared destabilizer-target collection and
        // the tableau-resident scratch row. Outcomes and rows must
        // match the reference at every step.
        let g = generate::grid_graph(side, side);
        let n = g.node_count();
        let mut packed = stabilizer::Tableau::graph_state(&g);
        let mut boolean = common::Tableau::graph_state(&g);
        let mut rng_p = Rng::seed_from_u64(seed ^ 0xdead);
        let mut rng_b = Rng::seed_from_u64(seed ^ 0xdead);
        let mut rng = Rng::seed_from_u64(seed);
        for sweep in 0..2 {
            for q in 0..n {
                let a = packed.measure_z(q, &mut rng_p);
                let b = boolean.measure_z(q, &mut rng_b);
                prop_assert_eq!(a, b, "sweep {} qubit {}", sweep, q);
                if rng.bernoulli(0.2) {
                    // Immediate re-measurement: deterministic, O(1)
                    // pivot scan, scratch-row outcome.
                    let a2 = packed.measure_z(q, &mut rng_p);
                    let b2 = boolean.measure_z(q, &mut rng_b);
                    prop_assert_eq!(a2, b2, "re-measure sweep {} qubit {}", sweep, q);
                    prop_assert_eq!(a2, a, "re-measurement must repeat the outcome");
                }
            }
            assert_rows_equal(&packed, &boolean)?;
        }
    }

    #[test]
    fn packed_pauli_algebra_matches_bool(
        n in 1usize..130,
        seed in 0u64..2000,
    ) {
        // Random Pauli pair: compare product phase/support and
        // commutation between the packed and boolean representations.
        let mut rng = Rng::seed_from_u64(seed);
        let mut p1 = stabilizer::PauliString::identity(n);
        let mut p2 = stabilizer::PauliString::identity(n);
        let mut b1 = common::PauliString::identity(n);
        let mut b2 = common::PauliString::identity(n);
        for q in 0..n {
            if rng.bernoulli(0.4) {
                p1 = p1.mul(&stabilizer::PauliString::single_x(n, q));
                b1 = b1.mul(&common::PauliString::single_x(n, q));
            }
            if rng.bernoulli(0.4) {
                p1 = p1.mul(&stabilizer::PauliString::single_z(n, q));
                b1 = b1.mul(&common::PauliString::single_z(n, q));
            }
            if rng.bernoulli(0.4) {
                p2 = p2.mul(&stabilizer::PauliString::single_x(n, q));
                b2 = b2.mul(&common::PauliString::single_x(n, q));
            }
            if rng.bernoulli(0.4) {
                p2 = p2.mul(&stabilizer::PauliString::single_z(n, q));
                b2 = b2.mul(&common::PauliString::single_z(n, q));
            }
        }
        prop_assert_eq!(p1.phase(), b1.phase());
        let (pp, bp) = (p1.mul(&p2), b1.mul(&b2));
        prop_assert_eq!(pp.phase(), bp.phase(), "product phase");
        for q in 0..n {
            prop_assert_eq!(pp.x_bit(q), bp.x_bit(q));
            prop_assert_eq!(pp.z_bit(q), bp.z_bit(q));
        }
        prop_assert_eq!(p1.commutes_with(&p2), b1.commutes_with(&b2));
        prop_assert_eq!(pp.is_empty(), bp.is_empty());
    }

    #[test]
    fn graph_state_verification_agrees(side in 2usize..10, seed in 0u64..100) {
        // End-to-end: both tableaus verify (and refute) the same
        // graph-state stabilizers.
        let g = generate::grid_graph(side, side);
        let packed = stabilizer::Tableau::graph_state(&g);
        let boolean = common::Tableau::graph_state(&g);
        let mut rng = Rng::seed_from_u64(seed);
        let i = NodeId::new(rng.range(g.node_count()));
        let k_packed = stabilizer::PauliString::graph_stabilizer(&g, i);
        let k_bool = common::PauliString::graph_stabilizer(&g, i);
        prop_assert!(packed.is_stabilized_by(&k_packed));
        prop_assert!(boolean.is_stabilized_by(&k_bool));
        let x_packed = stabilizer::PauliString::single_x(g.node_count(), i.index());
        let x_bool = common::PauliString::single_x(g.node_count(), i.index());
        prop_assert_eq!(
            packed.is_stabilized_by(&x_packed),
            boolean.is_stabilized_by(&x_bool)
        );
    }

    #[test]
    fn blocked_stabilizer_check_matches_probe_reference(
        n in 2usize..70,
        ops in 10usize..120,
        trials in 1usize..6,
        seed in 0u64..2000,
    ) {
        // The membership pin, three ways: the destabilizer-projection
        // `is_stabilized_by`, the word-blocked elimination, and the
        // probe-based reference must agree on random stabilizer states
        // × (true members, sign-flipped members, random Paulis). Sizes
        // beyond 64 qubits exercise multi-word rows.
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = stabilizer::Tableau::new(n);
        for _ in 0..ops {
            match rng.range(6) {
                0 => t.h(rng.range(n)),
                1 => t.s(rng.range(n)),
                2 => t.x_gate(rng.range(n)),
                3 => t.z_gate(rng.range(n)),
                4 => {
                    let a = rng.range(n);
                    t.cnot(a, (a + 1 + rng.range(n - 1)) % n);
                }
                _ => {
                    let a = rng.range(n);
                    t.cz(a, (a + 1 + rng.range(n - 1)) % n);
                }
            }
        }
        // −I as a PauliString: (X·Z)² = (−iY)² = −I.
        let minus_i_y = stabilizer::PauliString::single_x(n, 0)
            .mul(&stabilizer::PauliString::single_z(n, 0));
        let minus_one = minus_i_y.mul(&minus_i_y);
        let gens = t.stabilizer_generators();
        for _ in 0..trials {
            // A true group member: random subset product of generators.
            let mut member = stabilizer::PauliString::identity(n);
            for g in &gens {
                if rng.bernoulli(0.4) {
                    member = member.mul(g);
                }
            }
            prop_assert!(t.is_stabilized_by(&member));
            prop_assert!(t.is_stabilized_by_elimination(&member));
            prop_assert!(common::is_stabilized_by_reference(&t, &member));
            // Its sign flip: never a member (−P and +P can't both be).
            let flipped = member.mul(&minus_one);
            prop_assert_eq!(
                t.is_stabilized_by(&flipped),
                common::is_stabilized_by_reference(&t, &flipped)
            );
            prop_assert_eq!(
                t.is_stabilized_by_elimination(&flipped),
                common::is_stabilized_by_reference(&t, &flipped)
            );
            prop_assert!(!t.is_stabilized_by(&flipped), "−I is never a stabilizer");
            // A random Pauli string: usually not a member.
            let mut random = stabilizer::PauliString::identity(n);
            for q in 0..n {
                if rng.bernoulli(0.2) {
                    random = random.mul(&stabilizer::PauliString::single_x(n, q));
                }
                if rng.bernoulli(0.2) {
                    random = random.mul(&stabilizer::PauliString::single_z(n, q));
                }
            }
            prop_assert_eq!(
                t.is_stabilized_by(&random),
                common::is_stabilized_by_reference(&t, &random)
            );
            prop_assert_eq!(
                t.is_stabilized_by_elimination(&random),
                common::is_stabilized_by_reference(&t, &random)
            );
        }
    }

    #[test]
    fn fused_circuit_matches_sequential_application(
        n in 1usize..7,
        gates in 0usize..80,
        seed in 0u64..2000,
    ) {
        // The gate-fusion pin: applying a random circuit through the
        // fusing path must match gate-by-gate application within 1e-12
        // per amplitude (fusion only reassociates the same f64
        // products). Heavy on single-qubit runs so fusion actually
        // composes matrices, with enough multi-qubit gates to exercise
        // the flush boundaries.
        use mbqc_circuit::Circuit;
        use mbqc_sim::{FusionWorkspace, StateVector};
        let mut rng = Rng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for _ in 0..gates {
            let q = rng.range(n);
            match rng.range(16) {
                0 => c.h(q),
                1 => c.x(q),
                2 => c.y(q),
                3 => c.z(q),
                4 => c.s(q),
                5 => c.sdg(q),
                6 => c.t(q),
                7 => c.tdg(q),
                8 => c.rx(q, rng.next_f64() * 3.0),
                9 => c.ry(q, rng.next_f64() * 3.0),
                10 => c.rz(q, rng.next_f64() * 3.0),
                11 => c.phase(q, rng.next_f64() * 3.0),
                _ if n >= 2 => {
                    let b = (q + 1 + rng.range(n - 1)) % n;
                    match rng.range(4) {
                        0 => c.cz(q, b),
                        1 => c.cnot(q, b),
                        2 => c.swap(q, b),
                        _ => c.cphase(q, b, rng.next_f64() * 3.0),
                    }
                }
                _ => c.h(q),
            };
        }
        let mut fused = StateVector::plus_state(n);
        let mut ws = FusionWorkspace::new();
        fused.apply_circuit_with(&c, &mut ws);
        let mut sequential = StateVector::plus_state(n);
        common::apply_circuit_reference(&mut sequential, &c);
        for (i, (a, b)) in fused
            .amplitudes()
            .iter()
            .zip(sequential.amplitudes())
            .enumerate()
        {
            prop_assert!(
                (*a - *b).is_near_zero(1e-12),
                "amplitude {} diverged: {} vs {}", i, a, b
            );
        }
    }
}
