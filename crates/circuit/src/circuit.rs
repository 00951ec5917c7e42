//! The circuit container.

use std::fmt;

use crate::gate::{Angle, Gate, Qubit};

/// Error produced when a gate references an out-of-range or repeated
/// qubit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidGateError {
    /// Index of the offending gate in the circuit.
    pub gate_index: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for InvalidGateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid gate at index {}: {}",
            self.gate_index, self.reason
        )
    }
}

impl std::error::Error for InvalidGateError {}

/// An ordered list of gates over a fixed qubit register.
///
/// The builder methods (`h`, `cnot`, …) return `&mut Self` for chaining
/// and panic on malformed qubit indices, following the "validate your
/// arguments" guideline; [`Circuit::push`] is the non-panicking fallible
/// entry point.
///
/// # Examples
///
/// ```
/// use mbqc_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1);
/// assert_eq!(c.gate_count(), 2);
/// assert_eq!(c.two_qubit_gate_count(), 1);
/// assert_eq!(c.depth(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    #[must_use]
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Number of qubits in the register.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gate list in program order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    #[must_use]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the circuit contains no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of two-qubit gates (three-qubit gates are *not* counted;
    /// decompose them first if you want Table II-style statistics).
    #[must_use]
    pub fn two_qubit_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Circuit depth: length of the longest chain of gates sharing qubits.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut frontier = vec![0usize; self.num_qubits];
        let mut depth = 0;
        for gate in &self.gates {
            let level = gate
                .qubits()
                .iter()
                .map(|&q| frontier[q])
                .max()
                .unwrap_or(0)
                + 1;
            for q in gate.qubits() {
                frontier[q] = level;
            }
            depth = depth.max(level);
        }
        depth
    }

    /// Validates a gate against the register without inserting it.
    fn validate(&self, gate: &Gate) -> Result<(), String> {
        let qs = gate.qubits();
        for &q in &qs {
            if q >= self.num_qubits {
                return Err(format!(
                    "qubit q{q} out of range (register has {} qubits)",
                    self.num_qubits
                ));
            }
        }
        for i in 0..qs.len() {
            for j in (i + 1)..qs.len() {
                if qs[i] == qs[j] {
                    return Err(format!("repeated qubit q{} in {gate}", qs[i]));
                }
            }
        }
        Ok(())
    }

    /// Appends a gate after validation.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidGateError`] if the gate references an out-of-range
    /// or repeated qubit.
    pub fn push(&mut self, gate: Gate) -> Result<(), InvalidGateError> {
        self.validate(&gate).map_err(|reason| InvalidGateError {
            gate_index: self.gates.len(),
            reason,
        })?;
        self.gates.push(gate);
        Ok(())
    }

    fn push_expect(&mut self, gate: Gate) -> &mut Self {
        self.push(gate).expect("builder gate must be valid");
        self
    }

    /// Appends all gates from `other`.
    ///
    /// # Panics
    ///
    /// Panics if `other` uses more qubits than this circuit.
    pub fn append(&mut self, other: &Circuit) -> &mut Self {
        assert!(
            other.num_qubits <= self.num_qubits,
            "appended circuit uses more qubits"
        );
        for g in &other.gates {
            self.push_expect(*g);
        }
        self
    }

    // --- chained builder methods -----------------------------------------

    /// Appends a Hadamard. # Panics — on invalid qubit.
    pub fn h(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::H(q))
    }
    /// Appends a Pauli-X. # Panics — on invalid qubit.
    pub fn x(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::X(q))
    }
    /// Appends a Pauli-Y. # Panics — on invalid qubit.
    pub fn y(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::Y(q))
    }
    /// Appends a Pauli-Z. # Panics — on invalid qubit.
    pub fn z(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::Z(q))
    }
    /// Appends an S gate. # Panics — on invalid qubit.
    pub fn s(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::S(q))
    }
    /// Appends an S† gate. # Panics — on invalid qubit.
    pub fn sdg(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::Sdg(q))
    }
    /// Appends a T gate. # Panics — on invalid qubit.
    pub fn t(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::T(q))
    }
    /// Appends a T† gate. # Panics — on invalid qubit.
    pub fn tdg(&mut self, q: Qubit) -> &mut Self {
        self.push_expect(Gate::Tdg(q))
    }
    /// Appends an Rx rotation. # Panics — on invalid qubit.
    pub fn rx(&mut self, q: Qubit, theta: Angle) -> &mut Self {
        self.push_expect(Gate::Rx(q, theta))
    }
    /// Appends an Ry rotation. # Panics — on invalid qubit.
    pub fn ry(&mut self, q: Qubit, theta: Angle) -> &mut Self {
        self.push_expect(Gate::Ry(q, theta))
    }
    /// Appends an Rz rotation. # Panics — on invalid qubit.
    pub fn rz(&mut self, q: Qubit, theta: Angle) -> &mut Self {
        self.push_expect(Gate::Rz(q, theta))
    }
    /// Appends a phase gate diag(1, e^{iθ}). # Panics — on invalid qubit.
    pub fn phase(&mut self, q: Qubit, theta: Angle) -> &mut Self {
        self.push_expect(Gate::Phase(q, theta))
    }
    /// Appends a CZ. # Panics — on invalid qubits.
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push_expect(Gate::Cz(a, b))
    }
    /// Appends a CNOT. # Panics — on invalid qubits.
    pub fn cnot(&mut self, control: Qubit, target: Qubit) -> &mut Self {
        self.push_expect(Gate::Cnot { control, target })
    }
    /// Appends a SWAP. # Panics — on invalid qubits.
    pub fn swap(&mut self, a: Qubit, b: Qubit) -> &mut Self {
        self.push_expect(Gate::Swap(a, b))
    }
    /// Appends a controlled phase. # Panics — on invalid qubits.
    pub fn cphase(&mut self, a: Qubit, b: Qubit, theta: Angle) -> &mut Self {
        self.push_expect(Gate::CPhase(a, b, theta))
    }
    /// Appends an Rzz interaction. # Panics — on invalid qubits.
    pub fn rzz(&mut self, a: Qubit, b: Qubit, theta: Angle) -> &mut Self {
        self.push_expect(Gate::Rzz(a, b, theta))
    }
    /// Appends a Toffoli. # Panics — on invalid qubits.
    pub fn toffoli(&mut self, c0: Qubit, c1: Qubit, target: Qubit) -> &mut Self {
        self.push_expect(Gate::Toffoli { c0, c1, target })
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} gates]",
            self.num_qubits,
            self.gates.len()
        )?;
        for g in &self.gates {
            writeln!(f, "  {g}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let mut c = Circuit::new(3);
        c.h(0).cnot(0, 1).cz(1, 2).rz(2, 0.25);
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.two_qubit_gate_count(), 2);
        assert_eq!(c.gates().iter().filter(|g| g.is_single_qubit()).count(), 2);
    }

    #[test]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        let err = c.push(Gate::H(5)).unwrap_err();
        assert_eq!(err.gate_index, 0);
        assert!(err.to_string().contains("out of range"));
        assert!(c.is_empty());
    }

    #[test]
    fn push_rejects_repeated_qubit() {
        let mut c = Circuit::new(2);
        let err = c.push(Gate::Cz(1, 1)).unwrap_err();
        assert!(err.to_string().contains("repeated qubit"));
        let err = c
            .push(Gate::Toffoli {
                c0: 0,
                c1: 1,
                target: 0,
            })
            .unwrap_err();
        assert!(err.to_string().contains("repeated qubit"));
    }

    #[test]
    #[should_panic(expected = "builder gate must be valid")]
    fn builder_panics_on_invalid() {
        Circuit::new(1).cnot(0, 1);
    }

    #[test]
    fn depth_parallel_vs_serial() {
        let mut parallel = Circuit::new(4);
        parallel.h(0).h(1).h(2).h(3);
        assert_eq!(parallel.depth(), 1);

        let mut serial = Circuit::new(1);
        serial.h(0).t(0).h(0);
        assert_eq!(serial.depth(), 3);

        let mut mixed = Circuit::new(3);
        mixed.h(0).cnot(0, 1).cnot(1, 2);
        assert_eq!(mixed.depth(), 3);
    }

    #[test]
    fn depth_empty_is_zero() {
        assert_eq!(Circuit::new(5).depth(), 0);
    }

    #[test]
    fn append_copies_gates() {
        let mut a = Circuit::new(2);
        a.h(0);
        let mut b = Circuit::new(2);
        b.cnot(0, 1);
        a.append(&b);
        assert_eq!(a.gate_count(), 2);
        assert_eq!(
            a.gates()[1],
            Gate::Cnot {
                control: 0,
                target: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "more qubits")]
    fn append_larger_register_panics() {
        let mut a = Circuit::new(1);
        let b = Circuit::new(2);
        a.append(&b);
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let s = c.to_string();
        assert!(s.contains("circuit[2 qubits, 2 gates]"));
        assert!(s.contains("h q0"));
        assert!(s.contains("cx q0,q1"));
    }
}
