//! Pre-optimization oracles for the library's simulators.
//!
//! Preserves the original `Vec<bool>` Pauli/tableau representation (one
//! branchy loop iteration per qubit) exactly as it was before the
//! bit-packing overhaul. `proptest_sim.rs` requires the packed tableau
//! to agree with it on random Clifford sequences with interleaved
//! measurements (same outcomes from the same RNG draws).
//!
//! Two free functions keep the pre-optimization algorithms that run on
//! the library's own types: [`is_stabilized_by_reference`] (the
//! probe-based membership check) and [`apply_circuit_reference`]
//! (gate-by-gate application with no fusion).
//!
//! Do not "optimize" this module; its slowness is the point.

use mbqc_circuit::Circuit;
use mbqc_graph::Graph;
use mbqc_sim::stabilizer as packed;
use mbqc_sim::StateVector;
use mbqc_util::Rng;

/// Reference Pauli string: one `bool` per qubit per component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PauliString {
    x: Vec<bool>,
    z: Vec<bool>,
    /// Phase exponent: the operator is `i^phase · (Pauli product)`.
    phase: u8,
}

impl PauliString {
    /// The identity on `n` qubits.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            x: vec![false; n],
            z: vec![false; n],
            phase: 0,
        }
    }

    /// `X_q` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    #[must_use]
    pub fn single_x(n: usize, q: usize) -> Self {
        let mut p = Self::identity(n);
        assert!(q < n, "qubit out of range");
        p.x[q] = true;
        p
    }

    /// `Z_q` on `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `q >= n`.
    #[must_use]
    pub fn single_z(n: usize, q: usize) -> Self {
        let mut p = Self::identity(n);
        assert!(q < n, "qubit out of range");
        p.z[q] = true;
        p
    }

    /// The graph-state stabilizer `K_i = X_i ∏_{j∈N(i)} Z_j`.
    #[must_use]
    pub fn graph_stabilizer(graph: &Graph, i: mbqc_graph::NodeId) -> Self {
        let mut p = Self::single_x(graph.node_count(), i.index());
        for j in graph.neighbors(i) {
            p.z[j.index()] = true;
        }
        p
    }

    /// Number of qubits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// `true` if the string is the identity Pauli (any phase).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        !self.x.iter().any(|&b| b) && !self.z.iter().any(|&b| b)
    }

    /// Phase exponent (operator = `i^phase · Paulis`).
    #[must_use]
    pub fn phase(&self) -> u8 {
        self.phase
    }

    /// X bit of qubit `q`.
    #[must_use]
    pub fn x_bit(&self, q: usize) -> bool {
        self.x[q]
    }

    /// Z bit of qubit `q`.
    #[must_use]
    pub fn z_bit(&self, q: usize) -> bool {
        self.z[q]
    }

    /// Phase exponent of `i` produced when multiplying single-qubit
    /// Paulis `(x1,z1) · (x2,z2)` (Aaronson–Gottesman `g` function, mod 4).
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i8 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => i8::from(z2) - i8::from(x2),
            (true, false) => i8::from(z2) * (2 * i8::from(x2) - 1),
            (false, true) => i8::from(x2) * (1 - 2 * i8::from(z2)),
        }
    }

    /// Product `self · other` with exact phase tracking.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn mul(&self, other: &PauliString) -> PauliString {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let n = self.len();
        let mut phase = i16::from(self.phase) + i16::from(other.phase);
        let mut x = vec![false; n];
        let mut z = vec![false; n];
        for q in 0..n {
            phase += i16::from(Self::g(self.x[q], self.z[q], other.x[q], other.z[q]));
            x[q] = self.x[q] ^ other.x[q];
            z[q] = self.z[q] ^ other.z[q];
        }
        PauliString {
            x,
            z,
            phase: (phase.rem_euclid(4)) as u8,
        }
    }

    /// `true` if the two strings commute.
    #[must_use]
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        let mut anti = 0usize;
        for q in 0..self.len() {
            if (self.x[q] && other.z[q]) ^ (self.z[q] && other.x[q]) {
                anti += 1;
            }
        }
        anti.is_multiple_of(2)
    }
}

/// Reference CHP tableau: row-major `Vec<Vec<bool>>` bit matrices.
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    // Row-major bit matrices of size 2n × n.
    x: Vec<Vec<bool>>,
    z: Vec<Vec<bool>>,
    r: Vec<bool>,
}

impl Tableau {
    /// The `|0…0⟩` tableau: destabilizers `X_i`, stabilizers `Z_i`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let rows = 2 * n;
        let mut t = Self {
            n,
            x: vec![vec![false; n]; rows],
            z: vec![vec![false; n]; rows],
            r: vec![false; rows],
        };
        for i in 0..n {
            t.x[i][i] = true; // destabilizer X_i
            t.z[n + i][i] = true; // stabilizer Z_i
        }
        t
    }

    /// Builds the graph state of `graph`: `H` on every qubit, then CZ per
    /// edge.
    #[must_use]
    pub fn graph_state(graph: &Graph) -> Self {
        let mut t = Self::new(graph.node_count());
        for q in 0..graph.node_count() {
            t.h(q);
        }
        for (a, b, _) in graph.edges() {
            t.cz(a.index(), b.index());
        }
        t
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    fn check(&self, q: usize) {
        assert!(q < self.n, "qubit {q} out of range");
    }

    /// Hadamard on `q`.
    pub fn h(&mut self, q: usize) {
        self.check(q);
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q] && self.z[i][q];
            let tmp = self.x[i][q];
            self.x[i][q] = self.z[i][q];
            self.z[i][q] = tmp;
        }
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        self.check(q);
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][q] && self.z[i][q];
            self.z[i][q] ^= self.x[i][q];
        }
    }

    /// Pauli Z on `q` (= S²).
    pub fn z_gate(&mut self, q: usize) {
        self.s(q);
        self.s(q);
    }

    /// Pauli X on `q` (= H·Z·H).
    pub fn x_gate(&mut self, q: usize) {
        self.h(q);
        self.z_gate(q);
        self.h(q);
    }

    /// CNOT with the given control and target.
    ///
    /// # Panics
    ///
    /// Panics if `control == target` or either is out of range.
    pub fn cnot(&mut self, control: usize, target: usize) {
        self.check(control);
        self.check(target);
        assert_ne!(control, target, "control and target must differ");
        for i in 0..2 * self.n {
            self.r[i] ^= self.x[i][control]
                && self.z[i][target]
                && (self.x[i][target] ^ self.z[i][control] ^ true);
            self.x[i][target] ^= self.x[i][control];
            self.z[i][control] ^= self.z[i][target];
        }
    }

    /// CZ between `a` and `b` (via `H_b · CNOT_{a,b} · H_b`).
    pub fn cz(&mut self, a: usize, b: usize) {
        self.h(b);
        self.cnot(a, b);
        self.h(b);
    }

    /// Phase exponent sum used by `rowsum` (Aaronson–Gottesman).
    fn rowsum_phase(&self, h: usize, i: usize) -> i16 {
        let mut acc = 2 * i16::from(self.r[h]) + 2 * i16::from(self.r[i]);
        for q in 0..self.n {
            acc += i16::from(PauliString::g(
                self.x[i][q],
                self.z[i][q],
                self.x[h][q],
                self.z[h][q],
            ));
        }
        acc.rem_euclid(4)
    }

    /// `row[h] ← row[h] · row[i]` with phase bookkeeping.
    fn rowsum(&mut self, h: usize, i: usize) {
        let phase = self.rowsum_phase(h, i);
        debug_assert!(phase == 0 || phase == 2, "non-Hermitian rowsum");
        self.r[h] = phase == 2;
        for q in 0..self.n {
            self.x[h][q] ^= self.x[i][q];
            self.z[h][q] ^= self.z[i][q];
        }
    }

    /// Measures qubit `q` in the computational basis.
    ///
    /// Random outcomes (when some stabilizer anticommutes with `Z_q`)
    /// draw from `rng`; deterministic outcomes ignore it.
    pub fn measure_z(&mut self, q: usize, rng: &mut Rng) -> bool {
        self.check(q);
        let n = self.n;
        // Find a stabilizer with an X on q (anticommutes with Z_q).
        if let Some(p) = (n..2 * n).find(|&i| self.x[i][q]) {
            // Random outcome. Row p−n (the pivot's partner destabilizer)
            // is skipped: it anticommutes with row p, so the rowsum phase
            // would be imaginary — and the row is overwritten with a copy
            // of row p below anyway, making the rowsum dead work. (The
            // seed rowsummed it, which could trip the Hermiticity
            // debug-assertion; fixed identically in both paths.)
            for i in 0..2 * n {
                if i != p && i != p - n && self.x[i][q] {
                    self.rowsum(i, p);
                }
            }
            // Destabilizer row p−n becomes the old stabilizer row p.
            self.x[p - n] = self.x[p].clone();
            self.z[p - n] = self.z[p].clone();
            self.r[p - n] = self.r[p];
            // Stabilizer row p becomes ±Z_q with the measured sign.
            let outcome = rng.bernoulli(0.5);
            for c in 0..n {
                self.x[p][c] = false;
                self.z[p][c] = false;
            }
            self.z[p][q] = true;
            self.r[p] = outcome;
            outcome
        } else {
            // Deterministic outcome: accumulate into a scratch row.
            self.scratch_row(q)
        }
    }

    /// Computes the deterministic measurement outcome for `Z_q` using a
    /// scratch row (case where no stabilizer has an X on `q`).
    fn scratch_row(&self, q: usize) -> bool {
        let n = self.n;
        let mut sx = vec![false; n];
        let mut sz = vec![false; n];
        let mut sr: i16 = 0;
        for i in 0..n {
            if self.x[i][q] {
                // rowsum(scratch, i + n)
                let stab = i + n;
                let mut acc = 2 * i16::from(self.r[stab]) + sr;
                for c in 0..n {
                    acc += i16::from(PauliString::g(
                        self.x[stab][c],
                        self.z[stab][c],
                        sx[c],
                        sz[c],
                    ));
                }
                sr = acc.rem_euclid(4);
                for c in 0..n {
                    sx[c] ^= self.x[stab][c];
                    sz[c] ^= self.z[stab][c];
                }
            }
        }
        debug_assert!(sr == 0 || sr == 2);
        sr == 2
    }

    /// The current stabilizer generators as [`PauliString`]s (phase 0 for
    /// `+`, 2 for `−`).
    #[must_use]
    pub fn stabilizer_generators(&self) -> Vec<PauliString> {
        (self.n..2 * self.n)
            .map(|i| PauliString {
                x: self.x[i].clone(),
                z: self.z[i].clone(),
                phase: if self.r[i] { 2 } else { 0 },
            })
            .collect()
    }

    /// Returns `true` if `+p` is in the stabilizer group of the current
    /// state (i.e. `p` stabilizes the state).
    ///
    /// # Panics
    ///
    /// Panics if `p` has the wrong qubit count.
    #[must_use]
    pub fn is_stabilized_by(&self, p: &PauliString) -> bool {
        assert_eq!(p.len(), self.n, "qubit count mismatch");
        let mut gens = self.stabilizer_generators();
        let mut target = p.clone();
        let mut pivot_row = 0usize;
        // Columns: first all x-bits, then all z-bits.
        for col in 0..2 * self.n {
            let bit = |g: &PauliString| {
                if col < self.n {
                    g.x[col]
                } else {
                    g.z[col - self.n]
                }
            };
            let Some(r) = (pivot_row..gens.len()).find(|&r| bit(&gens[r])) else {
                continue;
            };
            gens.swap(pivot_row, r);
            let pivot = gens[pivot_row].clone();
            for g in gens.iter_mut().skip(pivot_row + 1) {
                if bit(g) {
                    *g = g.mul(&pivot);
                }
            }
            if bit(&target) {
                target = target.mul(&pivot);
            }
            pivot_row += 1;
        }
        target.is_empty() && target.phase.is_multiple_of(4)
    }
}

/// The pre-optimization `Tableau::is_stabilized_by`: Gaussian
/// elimination over the packed tableau's stabilizer generators, probing
/// one symplectic column bit per row, with per-row exact phase tracking
/// through `mul_inplace`.
///
/// # Panics
///
/// Panics if `p` has the wrong qubit count.
#[must_use]
pub fn is_stabilized_by_reference(t: &packed::Tableau, p: &packed::PauliString) -> bool {
    let n = t.num_qubits();
    assert_eq!(p.len(), n, "qubit count mismatch");
    let mut gens = t.stabilizer_generators();
    let mut target = p.clone();
    let mut pivot_row = 0usize;
    // Columns: first all x-bits, then all z-bits.
    for col in 0..2 * n {
        let bit_of = |g: &packed::PauliString| {
            if col < n {
                g.x_bit(col)
            } else {
                g.z_bit(col - n)
            }
        };
        let Some(r) = (pivot_row..gens.len()).find(|&r| bit_of(&gens[r])) else {
            continue;
        };
        gens.swap(pivot_row, r);
        let (head, tail) = gens.split_at_mut(pivot_row + 1);
        let pivot = &head[pivot_row];
        for g in tail {
            if bit_of(g) {
                g.mul_inplace(pivot);
            }
        }
        if bit_of(&target) {
            target.mul_inplace(pivot);
        }
        pivot_row += 1;
    }
    target.is_empty() && target.phase().is_multiple_of(4)
}

/// The pre-fusion `StateVector::apply_circuit`: every gate of `circuit`
/// applied in order, one amplitude sweep each.
///
/// # Panics
///
/// Panics if the circuit has more qubits than the state.
pub fn apply_circuit_reference(sv: &mut StateVector, circuit: &Circuit) {
    assert!(
        circuit.num_qubits() <= sv.num_qubits(),
        "circuit register larger than state"
    );
    for g in circuit.gates() {
        sv.apply_gate(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::generate;

    #[test]
    fn reference_graph_state_stabilizers() {
        let g = generate::cycle_graph(6);
        let t = Tableau::graph_state(&g);
        for i in g.nodes() {
            assert!(t.is_stabilized_by(&PauliString::graph_stabilizer(&g, i)));
        }
    }

    #[test]
    fn reference_bell_measurement_correlates() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..20 {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            assert_eq!(t.measure_z(0, &mut rng), t.measure_z(1, &mut rng));
        }
    }
}
