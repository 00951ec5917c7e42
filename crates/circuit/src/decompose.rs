//! Gate-decomposition passes.
//!
//! The photonic MBQC transpiler (`mbqc-pattern`) consumes circuits in the
//! `{single-qubit, CZ}` basis, because a CZ between two graph-state qubits
//! is exactly one entangling edge. These passes lower the richer benchmark
//! gate set step by step:
//!
//! 1. [`decompose_three_qubit`] — Toffoli → 6-CNOT + T network
//!    (the textbook decomposition; Table II's RCA node and edge counts
//!    depend on this choice, since a cheaper Toffoli would shrink every
//!    RCA pattern).
//! 2. [`decompose_to_cnot`] — SWAP/CPhase/Rzz → CNOT + rotations.
//! 3. [`to_cz_basis`] — CNOT → H·CZ·H; everything else untouched.

use crate::{Circuit, Gate};

/// Rewrites all three-qubit gates into one- and two-qubit gates.
///
/// Toffoli uses the standard 6-CNOT, 7-T decomposition (Nielsen & Chuang
/// Fig. 4.9).
#[must_use]
pub fn decompose_three_qubit(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.num_qubits());
    for &gate in circuit.gates() {
        match gate {
            Gate::Toffoli { c0, c1, target } => {
                out.h(target)
                    .cnot(c1, target)
                    .tdg(target)
                    .cnot(c0, target)
                    .t(target)
                    .cnot(c1, target)
                    .tdg(target)
                    .cnot(c0, target)
                    .t(c1)
                    .t(target)
                    .h(target)
                    .cnot(c0, c1)
                    .t(c0)
                    .tdg(c1)
                    .cnot(c0, c1);
            }
            g => {
                out.push(g).expect("gate valid in same register");
            }
        }
    }
    out
}

/// Rewrites SWAP, CPhase and Rzz into CNOT plus single-qubit rotations,
/// after first removing three-qubit gates.
///
/// * `SWAP(a,b)      = CNOT(a,b)·CNOT(b,a)·CNOT(a,b)`
/// * `CPhase(a,b,θ)  = Rz_a(θ/2)·CNOT(a,b)·Rz_b(−θ/2)·CNOT(a,b)·Rz_b(θ/2)`
///   (up to global phase)
/// * `Rzz(a,b,θ)     = CNOT(a,b)·Rz_b(θ)·CNOT(a,b)` (exact)
#[must_use]
pub fn decompose_to_cnot(circuit: &Circuit) -> Circuit {
    let lowered = decompose_three_qubit(circuit);
    let mut out = Circuit::new(lowered.num_qubits());
    for &gate in lowered.gates() {
        match gate {
            Gate::Swap(a, b) => {
                out.cnot(a, b).cnot(b, a).cnot(a, b);
            }
            Gate::CPhase(a, b, theta) => {
                // Program order (left-to-right application).
                out.rz(b, theta / 2.0)
                    .cnot(a, b)
                    .rz(b, -theta / 2.0)
                    .cnot(a, b)
                    .rz(a, theta / 2.0);
            }
            Gate::Rzz(a, b, theta) => {
                out.cnot(a, b).rz(b, theta).cnot(a, b);
            }
            g => {
                out.push(g).expect("gate valid in same register");
            }
        }
    }
    out
}

/// Fully lowers a circuit to the `{single-qubit, CZ}` basis consumed by
/// the MBQC transpiler: `CNOT(c,t) = H_t · CZ(c,t) · H_t`.
///
/// # Examples
///
/// ```
/// use mbqc_circuit::{decompose, Circuit};
///
/// let mut c = Circuit::new(3);
/// c.toffoli(0, 1, 2);
/// let cz = decompose::to_cz_basis(&c);
/// assert!(cz.gates().iter().all(|g| g.is_single_qubit() || g.is_cz()));
/// ```
#[must_use]
pub fn to_cz_basis(circuit: &Circuit) -> Circuit {
    let lowered = decompose_to_cnot(circuit);
    let mut out = Circuit::new(lowered.num_qubits());
    for &gate in lowered.gates() {
        match gate {
            Gate::Cnot { control, target } => {
                out.h(target).cz(control, target).h(target);
            }
            Gate::Cz(a, b) => {
                out.cz(a, b);
            }
            g if g.is_single_qubit() => {
                out.push(g).expect("gate valid in same register");
            }
            g => unreachable!("decompose_to_cnot left a non-CNOT multi-qubit gate: {g}"),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toffoli_expansion_counts() {
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let d = decompose_three_qubit(&c);
        assert_eq!(d.two_qubit_gate_count(), 6);
        // 2 H + 7 T/Tdg single-qubit gates.
        assert_eq!(d.gates().iter().filter(|g| g.is_single_qubit()).count(), 9);
    }

    #[test]
    fn swap_is_three_cnots() {
        let mut c = Circuit::new(2);
        c.swap(0, 1);
        let d = decompose_to_cnot(&c);
        assert_eq!(d.two_qubit_gate_count(), 3);
        assert!(d.gates().iter().all(|g| matches!(g, Gate::Cnot { .. })));
    }

    #[test]
    fn cphase_is_two_cnots_three_rz() {
        let mut c = Circuit::new(2);
        c.cphase(0, 1, 0.7);
        let d = decompose_to_cnot(&c);
        assert_eq!(d.two_qubit_gate_count(), 2);
        let rz: Vec<f64> = d
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Rz(_, a) => Some(*a),
                _ => None,
            })
            .collect();
        assert_eq!(rz.len(), 3);
        assert!((rz.iter().sum::<f64>() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn rzz_is_exact_sandwich() {
        let mut c = Circuit::new(2);
        c.rzz(0, 1, 1.3);
        let d = decompose_to_cnot(&c);
        assert_eq!(d.gate_count(), 3);
        assert!(matches!(d.gates()[0], Gate::Cnot { .. }));
        assert!(matches!(d.gates()[1], Gate::Rz(1, a) if (a - 1.3).abs() < 1e-12));
        assert!(matches!(d.gates()[2], Gate::Cnot { .. }));
    }

    #[test]
    fn cz_basis_is_pure() {
        let mut c = Circuit::new(4);
        c.h(0)
            .cnot(0, 1)
            .swap(1, 2)
            .cphase(2, 3, 0.4)
            .rzz(0, 3, 0.9)
            .toffoli(0, 1, 2);
        let d = to_cz_basis(&c);
        assert!(d.gates().iter().all(|g| g.is_single_qubit() || g.is_cz()));
        assert!(d.two_qubit_gate_count() > 0);
    }

    #[test]
    fn cz_basis_preserves_cz_count_for_cnot() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1).cnot(1, 0);
        let d = to_cz_basis(&c);
        let czs = d.gates().iter().filter(|g| g.is_cz()).count();
        assert_eq!(czs, 2);
        let hs = d.gates().iter().filter(|g| matches!(g, Gate::H(_))).count();
        assert_eq!(hs, 4);
    }

    #[test]
    fn single_qubit_gates_pass_through() {
        let mut c = Circuit::new(1);
        c.h(0).t(0).rz(0, 0.2).x(0);
        let d = to_cz_basis(&c);
        assert_eq!(d.gates(), c.gates());
    }
}
