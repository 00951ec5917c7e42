//! Dense statevector simulator.

use mbqc_circuit::{Circuit, Gate};
use mbqc_util::Rng;

use crate::C64;

const EPS: f64 = 1e-9;

/// A dense `2^n` statevector over `n` qubits (qubit 0 is the least
/// significant bit of the amplitude index).
///
/// Supports the full benchmark gate set, computational and XY-plane
/// measurements, and — for the MBQC pattern executor — dynamic qubit
/// allocation and removal.
///
/// # Examples
///
/// ```
/// use mbqc_sim::StateVector;
/// use mbqc_circuit::Circuit;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1); // Bell state
/// let mut sv = StateVector::zero_state(2);
/// sv.apply_circuit(&c);
/// assert!((sv.prob_one(0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<C64>,
}

/// Maximum register size of the dense simulator: a 26-qubit state is
/// 1 GiB of amplitudes, the largest that reliably fits benchmark hosts.
pub const MAX_QUBITS: usize = 26;

/// One amplitude pair through a 2×2 matrix, written as explicit f64
/// lane arithmetic: the four complex products are unrolled into their
/// eight real multiplies with the exact association of `C64`'s `Mul`
/// and `Add` (`(re·re − im·im) + …`), so the result is bit-identical
/// to the operator-overloaded form while every lane stays visible to
/// the compiler as straight-line FP code.
#[inline(always)]
fn butterfly(m: &[[C64; 2]; 2], a0: C64, a1: C64) -> (C64, C64) {
    let lo = C64::new(
        (m[0][0].re * a0.re - m[0][0].im * a0.im) + (m[0][1].re * a1.re - m[0][1].im * a1.im),
        (m[0][0].re * a0.im + m[0][0].im * a0.re) + (m[0][1].re * a1.im + m[0][1].im * a1.re),
    );
    let hi = C64::new(
        (m[1][0].re * a0.re - m[1][0].im * a0.im) + (m[1][1].re * a1.re - m[1][1].im * a1.im),
        (m[1][0].re * a0.im + m[1][0].im * a0.re) + (m[1][1].re * a1.im + m[1][1].im * a1.re),
    );
    (lo, hi)
}

/// Row-major 2×2 complex matrix product `a · b`.
#[inline]
fn mat_mul2(a: &[[C64; 2]; 2], b: &[[C64; 2]; 2]) -> [[C64; 2]; 2] {
    [
        [
            a[0][0] * b[0][0] + a[0][1] * b[1][0],
            a[0][0] * b[0][1] + a[0][1] * b[1][1],
        ],
        [
            a[1][0] * b[0][0] + a[1][1] * b[1][0],
            a[1][0] * b[0][1] + a[1][1] * b[1][1],
        ],
    ]
}

/// The 2×2 matrix of a single-qubit gate, or `None` for multi-qubit
/// gates. The matrices match the ones [`StateVector::apply_gate`] uses
/// (phase-convention included), so fusing them is a pure reassociation
/// of the same linear maps.
fn single_qubit_matrix(gate: &Gate) -> Option<(usize, [[C64; 2]; 2])> {
    use std::f64::consts::FRAC_PI_4;
    let inv_sqrt2 = C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
    let diag = |d0: C64, d1: C64| [[d0, C64::ZERO], [C64::ZERO, d1]];
    Some(match *gate {
        Gate::H(q) => (q, [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]]),
        Gate::X(q) => (q, [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]),
        Gate::Y(q) => (q, [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]),
        Gate::Z(q) => (q, diag(C64::ONE, C64::new(-1.0, 0.0))),
        Gate::S(q) => (q, diag(C64::ONE, C64::I)),
        Gate::Sdg(q) => (q, diag(C64::ONE, -C64::I)),
        Gate::T(q) => (q, diag(C64::ONE, C64::from_polar_unit(FRAC_PI_4))),
        Gate::Tdg(q) => (q, diag(C64::ONE, C64::from_polar_unit(-FRAC_PI_4))),
        Gate::Phase(q, a) => (q, diag(C64::ONE, C64::from_polar_unit(a))),
        Gate::Rz(q, a) => (
            q,
            diag(
                C64::from_polar_unit(-a / 2.0),
                C64::from_polar_unit(a / 2.0),
            ),
        ),
        Gate::Rx(q, a) => {
            let c = C64::new((a / 2.0).cos(), 0.0);
            let s = C64::new(0.0, -(a / 2.0).sin());
            (q, [[c, s], [s, c]])
        }
        Gate::Ry(q, a) => {
            let c = C64::new((a / 2.0).cos(), 0.0);
            let s = C64::new((a / 2.0).sin(), 0.0);
            (q, [[c, -s], [s, c]])
        }
        _ => return None,
    })
}

/// Reusable scratch for gate-fused circuit application
/// ([`StateVector::apply_circuit_with`]): one pending 2×2 matrix slot
/// per qubit. Like the partition/mapper workspaces, the buffer survives
/// across circuits so the fused fast path allocates nothing per gate —
/// the allocation-audit test pins that with a counting allocator.
#[derive(Debug, Default)]
pub struct FusionWorkspace {
    pending: Vec<Option<[[C64; 2]; 2]>>,
}

impl FusionWorkspace {
    /// An empty workspace; the per-qubit slots grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl StateVector {
    /// Allocates the zeroed amplitude vector for `n` qubits, enforcing the
    /// [`MAX_QUBITS`] cap. Single checkpoint for every state constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS`.
    fn checked_alloc(n: usize) -> Vec<C64> {
        assert!(
            n <= MAX_QUBITS,
            "statevector limited to {MAX_QUBITS} qubits (requested {n})"
        );
        vec![C64::ZERO; 1 << n]
    }

    /// `|0…0⟩` over `n` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS` (the amplitude vector would not fit in
    /// memory).
    #[must_use]
    pub fn zero_state(n: usize) -> Self {
        let mut amps = Self::checked_alloc(n);
        amps[0] = C64::ONE;
        Self {
            num_qubits: n,
            amps,
        }
    }

    /// `|+⟩^{⊗n}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_QUBITS`.
    #[must_use]
    pub fn plus_state(n: usize) -> Self {
        let mut amps = Self::checked_alloc(n);
        let a = C64::new(1.0 / (amps.len() as f64).sqrt(), 0.0);
        amps.fill(a);
        Self {
            num_qubits: n,
            amps,
        }
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Raw amplitudes (index bit `q` = qubit `q`).
    #[must_use]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    fn check(&self, q: usize) {
        assert!(q < self.num_qubits, "qubit {q} out of range");
    }

    /// Applies a 2×2 matrix (row-major) to qubit `q`.
    ///
    /// The general case walks the amplitude vector in strides of
    /// `2^(q+1)`, splitting each stride block into its low and high
    /// halves and streaming both through `butterfly` — a hand-unrolled
    /// f64-lane formulation of the complex 2×2 product. The halves are
    /// consumed through paired `chunks_exact` iterators (two butterflies
    /// per step), so the compiler sees bounds-check-free, unrolled lane
    /// arithmetic it can keep in vector registers. Bit `q = 0` (adjacent
    /// partners) takes its own aligned-pairs walk. Structured matrices
    /// take dedicated fast paths that cut the flop count: diagonal and
    /// anti-diagonal (Z/S/T/phase, X/Y) touch each amplitude once with
    /// the per-index bit test replaced by half-block sub-loops, and
    /// all-real matrices (H, Ry) drop the butterfly's lane-crossing
    /// terms entirely, leaving lane-uniform multiply–adds the compiler
    /// vectorizes at full register width.
    ///
    /// Every path performs the f64 operations of a plain full-`2^n` scan
    /// (`amps[i], amps[i | bit] = m·(amps[i], amps[i | bit])`) on that
    /// scan's association — each resulting amplitude compares exactly
    /// equal (`==`) to the scan's (the real-matrix path may flip the
    /// sign of a zero where the scan multiplies one by `±0.0`, never a
    /// value), which the unit tests assert with exact equality.
    pub fn apply_single(&mut self, q: usize, m: [[C64; 2]; 2]) {
        self.check(q);
        let bit = 1usize << q;
        let stride = bit << 1;
        if m[0][1] == C64::ZERO && m[1][0] == C64::ZERO {
            // Diagonal gate: amps[i] *= m[b][b] where b = bit q of i.
            // Walking half-blocks makes the lane choice loop-invariant.
            let (d0, d1) = (m[0][0], m[1][1]);
            for block in self.amps.chunks_exact_mut(stride) {
                let (lo, hi) = block.split_at_mut(bit);
                for a in lo {
                    *a *= d0;
                }
                for a in hi {
                    *a *= d1;
                }
            }
            return;
        }
        if m[0][0] == C64::ZERO && m[1][1] == C64::ZERO {
            // Anti-diagonal gate (X-like): swap halves with scaling.
            let (u, l) = (m[0][1], m[1][0]);
            for block in self.amps.chunks_exact_mut(stride) {
                let (lo, hi) = block.split_at_mut(bit);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let (a0, a1) = (*a, *b);
                    *a = u * a1;
                    *b = l * a0;
                }
            }
            return;
        }
        if m[0][0].im == 0.0 && m[0][1].im == 0.0 && m[1][0].im == 0.0 && m[1][1].im == 0.0 {
            // All-real matrix (H, Ry): the butterfly's lane-crossing
            // `re·im` terms vanish, leaving two independent f64 lanes
            // per amplitude — 12 flops per pair instead of 28, and
            // elementwise code the compiler vectorizes at full width.
            // The dropped terms are the plain scan's `± 0.0·im` products,
            // which can flip a zero's sign but never change a value, so
            // every amplitude still compares equal (`==`).
            let (m00, m01, m10, m11) = (m[0][0].re, m[0][1].re, m[1][0].re, m[1][1].re);
            if bit == 1 {
                for pair in self.amps.chunks_exact_mut(2) {
                    let (a0, a1) = (pair[0], pair[1]);
                    pair[0] = C64::new(m00 * a0.re + m01 * a1.re, m00 * a0.im + m01 * a1.im);
                    pair[1] = C64::new(m10 * a0.re + m11 * a1.re, m10 * a0.im + m11 * a1.im);
                }
                return;
            }
            for block in self.amps.chunks_exact_mut(stride) {
                let (lo, hi) = block.split_at_mut(bit);
                for (a, b) in lo.iter_mut().zip(hi.iter_mut()) {
                    let (a0, a1) = (*a, *b);
                    *a = C64::new(m00 * a0.re + m01 * a1.re, m00 * a0.im + m01 * a1.im);
                    *b = C64::new(m10 * a0.re + m11 * a1.re, m10 * a0.im + m11 * a1.im);
                }
            }
            return;
        }
        if bit == 1 {
            // Qubit 0: partners are adjacent, one aligned pair per step.
            for pair in self.amps.chunks_exact_mut(2) {
                let (lo, hi) = butterfly(&m, pair[0], pair[1]);
                pair[0] = lo;
                pair[1] = hi;
            }
            return;
        }
        for block in self.amps.chunks_exact_mut(stride) {
            let (lo_half, hi_half) = block.split_at_mut(bit);
            // `bit` ≥ 2 and a power of two: the chunk pairing is exact.
            for (lo2, hi2) in lo_half.chunks_exact_mut(2).zip(hi_half.chunks_exact_mut(2)) {
                let (l0, h0) = butterfly(&m, lo2[0], hi2[0]);
                let (l1, h1) = butterfly(&m, lo2[1], hi2[1]);
                lo2[0] = l0;
                hi2[0] = h0;
                lo2[1] = l1;
                hi2[1] = h1;
            }
        }
    }

    /// Applies a gate.
    ///
    /// # Panics
    ///
    /// Panics if the gate references out-of-range qubits.
    pub fn apply_gate(&mut self, gate: &Gate) {
        use std::f64::consts::FRAC_PI_4;
        let inv_sqrt2 = C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
        match *gate {
            Gate::H(q) => self.apply_single(q, [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, -inv_sqrt2]]),
            Gate::X(q) => self.apply_single(q, [[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]),
            Gate::Y(q) => self.apply_single(q, [[C64::ZERO, -C64::I], [C64::I, C64::ZERO]]),
            Gate::Z(q) => self.phase_if(|i| i >> q & 1 == 1, C64::new(-1.0, 0.0)),
            Gate::S(q) => self.phase_if(|i| i >> q & 1 == 1, C64::I),
            Gate::Sdg(q) => self.phase_if(|i| i >> q & 1 == 1, -C64::I),
            Gate::T(q) => self.phase_if(|i| i >> q & 1 == 1, C64::from_polar_unit(FRAC_PI_4)),
            Gate::Tdg(q) => self.phase_if(|i| i >> q & 1 == 1, C64::from_polar_unit(-FRAC_PI_4)),
            Gate::Phase(q, a) => self.phase_if(|i| i >> q & 1 == 1, C64::from_polar_unit(a)),
            Gate::Rz(q, a) => {
                let neg = C64::from_polar_unit(-a / 2.0);
                let pos = C64::from_polar_unit(a / 2.0);
                self.phase_map(|i| if i >> q & 1 == 0 { neg } else { pos });
            }
            Gate::Rx(q, a) => {
                let c = C64::new((a / 2.0).cos(), 0.0);
                let s = C64::new(0.0, -(a / 2.0).sin());
                self.apply_single(q, [[c, s], [s, c]]);
            }
            Gate::Ry(q, a) => {
                let c = C64::new((a / 2.0).cos(), 0.0);
                let s = C64::new((a / 2.0).sin(), 0.0);
                self.apply_single(q, [[c, -s], [s, c]]);
            }
            Gate::Cz(a, b) => {
                self.check(a);
                self.check(b);
                self.phase_if(|i| i >> a & 1 == 1 && i >> b & 1 == 1, C64::new(-1.0, 0.0));
            }
            Gate::CPhase(a, b, t) => {
                self.check(a);
                self.check(b);
                self.phase_if(
                    |i| i >> a & 1 == 1 && i >> b & 1 == 1,
                    C64::from_polar_unit(t),
                );
            }
            Gate::Rzz(a, b, t) => {
                self.check(a);
                self.check(b);
                let same = C64::from_polar_unit(-t / 2.0);
                let diff = C64::from_polar_unit(t / 2.0);
                self.phase_map(|i| {
                    if (i >> a & 1) == (i >> b & 1) {
                        same
                    } else {
                        diff
                    }
                });
            }
            Gate::Cnot { control, target } => {
                self.check(control);
                self.check(target);
                let (c, t) = (1usize << control, 1usize << target);
                for i in 0..self.amps.len() {
                    if i & c != 0 && i & t == 0 {
                        self.amps.swap(i, i | t);
                    }
                }
            }
            Gate::Swap(a, b) => {
                self.check(a);
                self.check(b);
                let (ab, bb) = (1usize << a, 1usize << b);
                for i in 0..self.amps.len() {
                    if i & ab != 0 && i & bb == 0 {
                        self.amps.swap(i, (i & !ab) | bb);
                    }
                }
            }
            Gate::Toffoli { c0, c1, target } => {
                self.check(c0);
                self.check(c1);
                self.check(target);
                let (b0, b1, t) = (1usize << c0, 1usize << c1, 1usize << target);
                for i in 0..self.amps.len() {
                    if i & b0 != 0 && i & b1 != 0 && i & t == 0 {
                        self.amps.swap(i, i | t);
                    }
                }
            }
        }
    }

    fn phase_if<F: Fn(usize) -> bool>(&mut self, pred: F, phase: C64) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            if pred(i) {
                *a *= phase;
            }
        }
    }

    fn phase_map<F: Fn(usize) -> C64>(&mut self, f: F) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a *= f(i);
        }
    }

    /// Applies every gate of `circuit`, fusing runs of single-qubit
    /// gates on the same qubit into one 2×2 matrix before touching the
    /// amplitude vector (an internal [`FusionWorkspace`] is allocated
    /// per call; use [`StateVector::apply_circuit_with`] to reuse one).
    ///
    /// The state equals gate-by-gate [`StateVector::apply_gate`]
    /// application up to fp reassociation — within `1e-12` per
    /// amplitude, which the fusion equivalence proptest pins.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        self.apply_circuit_with(circuit, &mut FusionWorkspace::new());
    }

    /// [`StateVector::apply_circuit`] with a caller-owned
    /// [`FusionWorkspace`] — the fused fast path then allocates nothing
    /// per gate (and nothing at all once the workspace is warm).
    ///
    /// Fusion defers each single-qubit gate as a pending 2×2 matrix on
    /// its qubit, composing consecutive ones by matrix product. A
    /// multi-qubit gate flushes the pending matrices of the qubits it
    /// touches (single-qubit gates on *other* qubits commute past it,
    /// so deferring them is exact up to fp reassociation); remaining
    /// matrices flush in qubit order at the end. A fused run costs one
    /// amplitude sweep instead of one per gate, and composed diagonal
    /// runs stay diagonal, so they keep the diagonal fast path.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has more qubits than the state.
    pub fn apply_circuit_with(&mut self, circuit: &Circuit, ws: &mut FusionWorkspace) {
        assert!(
            circuit.num_qubits() <= self.num_qubits,
            "circuit register larger than state"
        );
        ws.pending.clear();
        ws.pending.resize(self.num_qubits, None);
        for g in circuit.gates() {
            if let Some((q, m)) = single_qubit_matrix(g) {
                self.check(q);
                ws.pending[q] = Some(match ws.pending[q] {
                    None => m,
                    Some(p) => mat_mul2(&m, &p),
                });
            } else {
                match *g {
                    Gate::Cz(a, b)
                    | Gate::CPhase(a, b, _)
                    | Gate::Rzz(a, b, _)
                    | Gate::Swap(a, b) => {
                        self.flush_pending(ws, a);
                        self.flush_pending(ws, b);
                    }
                    Gate::Cnot { control, target } => {
                        self.flush_pending(ws, control);
                        self.flush_pending(ws, target);
                    }
                    Gate::Toffoli { c0, c1, target } => {
                        self.flush_pending(ws, c0);
                        self.flush_pending(ws, c1);
                        self.flush_pending(ws, target);
                    }
                    _ => unreachable!("single-qubit gates are fused"),
                }
                self.apply_gate(g);
            }
        }
        for q in 0..ws.pending.len() {
            self.flush_pending(ws, q);
        }
    }

    /// Applies qubit `q`'s pending fused matrix, if any.
    fn flush_pending(&mut self, ws: &mut FusionWorkspace, q: usize) {
        if let Some(m) = ws.pending.get_mut(q).and_then(Option::take) {
            self.apply_single(q, m);
        }
    }

    /// Probability of measuring `1` on qubit `q`.
    #[must_use]
    pub fn prob_one(&self, q: usize) -> f64 {
        self.check(q);
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i >> q & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Measures qubit `q` in the computational basis, collapsing the
    /// state. Returns the outcome.
    pub fn measure_z(&mut self, q: usize, rng: &mut Rng) -> bool {
        let p1 = self.prob_one(q);
        let outcome = rng.next_f64() < p1;
        self.collapse(q, outcome, if outcome { p1 } else { 1.0 - p1 });
        outcome
    }

    /// Measures qubit `q` in the XY-plane basis
    /// `{|±_θ⟩ = (|0⟩ ± e^{iθ}|1⟩)/√2}` (the MBQC `M^θ` measurement),
    /// collapsing the state. Outcome `false` ↔ `|+_θ⟩`.
    pub fn measure_xy(&mut self, q: usize, theta: f64, rng: &mut Rng) -> bool {
        // H · diag(1, e^{−iθ}) maps |±_θ⟩ → |0/1⟩.
        self.apply_gate(&Gate::Phase(q, -theta));
        self.apply_gate(&Gate::H(q));
        self.measure_z(q, rng)
    }

    fn collapse(&mut self, q: usize, outcome: bool, p: f64) {
        assert!(p > 1e-12, "collapsing onto zero-probability branch");
        let bit = 1usize << q;
        let scale = 1.0 / p.sqrt();
        for (i, a) in self.amps.iter_mut().enumerate() {
            if (i & bit != 0) == outcome {
                *a = a.scale(scale);
            } else {
                *a = C64::ZERO;
            }
        }
    }

    /// Appends a fresh qubit in `|+⟩` as the new most significant qubit;
    /// returns its index.
    ///
    /// # Panics
    ///
    /// Panics if the register is already at [`MAX_QUBITS`].
    pub fn add_qubit_plus(&mut self) -> usize {
        assert!(
            self.num_qubits < MAX_QUBITS,
            "statevector limited to {MAX_QUBITS} qubits (requested {})",
            self.num_qubits + 1
        );
        let old = self.amps.len();
        let mut amps = vec![C64::ZERO; old * 2];
        let k = std::f64::consts::FRAC_1_SQRT_2;
        for (i, &a) in self.amps.iter().enumerate() {
            amps[i] = a.scale(k);
            amps[i + old] = a.scale(k);
        }
        self.amps = amps;
        self.num_qubits += 1;
        self.num_qubits - 1
    }

    /// Removes qubit `q`, which must be deterministically in a
    /// computational basis state (as after [`StateVector::measure_z`]).
    ///
    /// # Panics
    ///
    /// Panics if the qubit is still in superposition.
    pub fn remove_qubit(&mut self, q: usize) {
        self.check(q);
        let p1 = self.prob_one(q);
        let value = if p1 > 0.5 { 1usize } else { 0 };
        assert!(
            (p1 - value as f64).abs() < EPS,
            "qubit {q} is in superposition (p1 = {p1})"
        );
        let bit = 1usize << q;
        let mut amps = Vec::with_capacity(self.amps.len() / 2);
        for i in 0..self.amps.len() {
            if (i & bit != 0) == (value == 1) {
                // Drop bit q from the index.
                let _low = i & (bit - 1);
                amps.push(self.amps[i]);
            }
        }
        // Note: indices were visited in increasing order; removing bit q
        // maps them to increasing compact indices, preserving order.
        self.amps = amps;
        self.num_qubits -= 1;
    }

    /// Reorders qubits: `map[new] = old` (a permutation).
    ///
    /// # Panics
    ///
    /// Panics if `map` is not a permutation of `0..n`.
    pub fn reorder_qubits(&mut self, map: &[usize]) {
        assert_eq!(map.len(), self.num_qubits, "permutation size mismatch");
        let mut seen = vec![false; self.num_qubits];
        for &o in map {
            assert!(o < self.num_qubits && !seen[o], "map is not a permutation");
            seen[o] = true;
        }
        let mut amps = vec![C64::ZERO; self.amps.len()];
        for (old_idx, &a) in self.amps.iter().enumerate() {
            let mut new_idx = 0usize;
            for (new_q, &old_q) in map.iter().enumerate() {
                if old_idx >> old_q & 1 == 1 {
                    new_idx |= 1 << new_q;
                }
            }
            amps[new_idx] = a;
        }
        self.amps = amps;
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    #[must_use]
    pub fn inner(&self, other: &StateVector) -> C64 {
        assert_eq!(self.num_qubits, other.num_qubits, "dimension mismatch");
        let mut acc = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Fidelity `|⟨self|other⟩|²` — global-phase invariant.
    #[must_use]
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }

    /// Total probability (should be 1 for valid states).
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    /// The pre-optimization [`StateVector::apply_single`]: a full-`2^n`
    /// scan testing bit `q` of every index. The fast paths must match
    /// it exactly.
    fn apply_single_reference(sv: &mut StateVector, q: usize, m: [[C64; 2]; 2]) {
        sv.check(q);
        let bit = 1usize << q;
        for i in 0..sv.amps.len() {
            if i & bit == 0 {
                let a0 = sv.amps[i];
                let a1 = sv.amps[i | bit];
                sv.amps[i] = m[0][0] * a0 + m[0][1] * a1;
                sv.amps[i | bit] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
    }

    fn bell() -> StateVector {
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let mut sv = StateVector::zero_state(2);
        sv.apply_circuit(&c);
        sv
    }

    #[test]
    fn zero_and_plus_states() {
        let z = StateVector::zero_state(2);
        assert_eq!(z.amplitudes()[0], C64::ONE);
        assert!((z.norm_sqr() - 1.0).abs() < 1e-12);
        let p = StateVector::plus_state(2);
        assert!((p.prob_one(0) - 0.5).abs() < 1e-12);
        assert!((p.prob_one(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let sv = bell();
        assert!((sv.prob_one(0) - 0.5).abs() < 1e-12);
        // Amplitudes |00⟩ and |11⟩ only.
        assert!(sv.amplitudes()[0b01].is_near_zero(1e-12));
        assert!(sv.amplitudes()[0b10].is_near_zero(1e-12));
    }

    #[test]
    fn measure_collapses_bell() {
        let mut rng = Rng::seed_from_u64(11);
        for _ in 0..20 {
            let mut sv = bell();
            let a = sv.measure_z(0, &mut rng);
            let b = sv.measure_z(1, &mut rng);
            assert_eq!(a, b, "Bell outcomes must correlate");
            assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn hh_is_identity() {
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::H(0));
        sv.apply_gate(&Gate::H(0));
        assert!(sv.fidelity(&StateVector::zero_state(1)) > 1.0 - 1e-12);
    }

    #[test]
    fn pauli_algebra_on_states() {
        // X|0⟩ = |1⟩, Z|+⟩ = |−⟩, S² = Z, T² = S.
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::X(0));
        assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);

        let mut a = StateVector::plus_state(1);
        a.apply_gate(&Gate::T(0));
        a.apply_gate(&Gate::T(0));
        let mut b = StateVector::plus_state(1);
        b.apply_gate(&Gate::S(0));
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
        // And the inner product phase matches exactly (same global phase).
        assert!((a.inner(&b).re - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_phase_convention() {
        // Rz(π) = diag(e^{-iπ/2}, e^{iπ/2}) = -iZ.
        let mut sv = StateVector::zero_state(1);
        sv.apply_gate(&Gate::Rz(0, PI));
        let amp = sv.amplitudes()[0];
        assert!((amp - C64::new(0.0, -1.0)).is_near_zero(1e-12));
    }

    #[test]
    fn cnot_vs_h_cz_h() {
        let mut rng = Rng::seed_from_u64(3);
        // Random product state.
        let mut a = StateVector::zero_state(2);
        for q in 0..2 {
            a.apply_gate(&Gate::Ry(q, rng.next_f64() * PI));
            a.apply_gate(&Gate::Rz(q, rng.next_f64() * PI));
        }
        let mut b = a.clone();
        a.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        b.apply_gate(&Gate::H(1));
        b.apply_gate(&Gate::Cz(0, 1));
        b.apply_gate(&Gate::H(1));
        assert!(a.fidelity(&b) > 1.0 - 1e-10);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::X(0));
        sv.apply_gate(&Gate::Swap(0, 1));
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
        assert!(sv.prob_one(0) < 1e-12);
    }

    #[test]
    fn toffoli_truth_table() {
        for (c0, c1) in [(false, false), (true, false), (false, true), (true, true)] {
            let mut sv = StateVector::zero_state(3);
            if c0 {
                sv.apply_gate(&Gate::X(0));
            }
            if c1 {
                sv.apply_gate(&Gate::X(1));
            }
            sv.apply_gate(&Gate::Toffoli {
                c0: 0,
                c1: 1,
                target: 2,
            });
            let expect = if c0 && c1 { 1.0 } else { 0.0 };
            assert!((sv.prob_one(2) - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn rzz_equals_cnot_rz_cnot() {
        let mut rng = Rng::seed_from_u64(5);
        let theta = 1.234;
        let mut a = StateVector::zero_state(2);
        for q in 0..2 {
            a.apply_gate(&Gate::Ry(q, rng.next_f64() * PI));
        }
        let mut b = a.clone();
        a.apply_gate(&Gate::Rzz(0, 1, theta));
        b.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        b.apply_gate(&Gate::Rz(1, theta));
        b.apply_gate(&Gate::Cnot {
            control: 0,
            target: 1,
        });
        // Exact equality including global phase.
        let ip = a.inner(&b);
        assert!((ip.re - 1.0).abs() < 1e-10, "inner product {ip}");
    }

    #[test]
    fn cphase_decomposition_equivalence() {
        use mbqc_circuit::decompose;
        let theta = 0.77;
        let mut c = Circuit::new(2);
        c.cphase(0, 1, theta);
        let d = decompose::decompose_to_cnot(&c);
        let mut rng = Rng::seed_from_u64(6);
        let mut prep = Circuit::new(2);
        for q in 0..2 {
            prep.ry(q, rng.next_f64() * PI).rz(q, rng.next_f64() * PI);
        }
        let mut a = StateVector::zero_state(2);
        a.apply_circuit(&prep);
        let mut b = a.clone();
        a.apply_circuit(&c);
        b.apply_circuit(&d);
        assert!(a.fidelity(&b) > 1.0 - 1e-10);
    }

    #[test]
    fn toffoli_decomposition_equivalence() {
        use mbqc_circuit::decompose;
        let mut c = Circuit::new(3);
        c.toffoli(0, 1, 2);
        let d = decompose::decompose_three_qubit(&c);
        let mut rng = Rng::seed_from_u64(7);
        let mut prep = Circuit::new(3);
        for q in 0..3 {
            prep.ry(q, rng.next_f64() * PI).rz(q, rng.next_f64() * PI);
        }
        let mut a = StateVector::zero_state(3);
        a.apply_circuit(&prep);
        let mut b = a.clone();
        a.apply_circuit(&c);
        b.apply_circuit(&d);
        assert!(a.fidelity(&b) > 1.0 - 1e-10, "fidelity {}", a.fidelity(&b));
    }

    #[test]
    fn measure_xy_plus_state_deterministic() {
        // |+⟩ measured at θ=0 gives outcome 0 with certainty.
        let mut rng = Rng::seed_from_u64(8);
        for _ in 0..10 {
            let mut sv = StateVector::plus_state(1);
            assert!(!sv.measure_xy(0, 0.0, &mut rng));
        }
        // |−⟩ measured at θ=0 gives outcome 1.
        for _ in 0..10 {
            let mut sv = StateVector::plus_state(1);
            sv.apply_gate(&Gate::Z(0));
            assert!(sv.measure_xy(0, 0.0, &mut rng));
        }
    }

    #[test]
    fn add_and_remove_qubit_roundtrip() {
        let mut sv = bell();
        let q = sv.add_qubit_plus();
        assert_eq!(q, 2);
        assert_eq!(sv.num_qubits(), 3);
        assert!((sv.prob_one(q) - 0.5).abs() < 1e-12);
        // Collapse the fresh qubit and remove it: Bell state survives.
        let mut rng = Rng::seed_from_u64(9);
        sv.apply_gate(&Gate::H(q)); // |+⟩ → |0⟩ deterministically
        let _ = sv.measure_z(q, &mut rng);
        sv.remove_qubit(q);
        assert!(sv.fidelity(&bell()) > 1.0 - 1e-10);
    }

    #[test]
    fn remove_middle_qubit_preserves_order() {
        // |q2 q1 q0⟩ = |1 0 1⟩; remove q1 → |1 1⟩ on (q0, new q1=old q2).
        let mut sv = StateVector::zero_state(3);
        sv.apply_gate(&Gate::X(0));
        sv.apply_gate(&Gate::X(2));
        sv.remove_qubit(1);
        assert_eq!(sv.num_qubits(), 2);
        assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "superposition")]
    fn remove_superposed_qubit_panics() {
        let mut sv = StateVector::plus_state(1);
        sv.remove_qubit(0);
    }

    #[test]
    fn reorder_qubits_swaps() {
        let mut sv = StateVector::zero_state(2);
        sv.apply_gate(&Gate::X(0));
        sv.reorder_qubits(&[1, 0]);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
        assert!(sv.prob_one(0) < 1e-12);
    }

    #[test]
    fn strided_apply_single_matches_reference() {
        let mut rng = Rng::seed_from_u64(21);
        for n in 1..=6 {
            // Random state via rotations, then compare a random 2×2 gate
            // applied by both kernels on every qubit.
            let mut a = StateVector::zero_state(n);
            for q in 0..n {
                a.apply_gate(&Gate::Ry(q, rng.next_f64() * PI));
                a.apply_gate(&Gate::Rz(q, rng.next_f64() * PI));
                if q > 0 {
                    a.apply_gate(&Gate::Cnot {
                        control: q - 1,
                        target: q,
                    });
                }
            }
            for q in 0..n {
                let theta = rng.next_f64() * PI;
                let phi = rng.next_f64() * PI;
                let complex = [
                    [
                        C64::new(theta.cos(), 0.0),
                        C64::from_polar_unit(phi).scale(theta.sin()),
                    ],
                    [
                        C64::from_polar_unit(-phi).scale(theta.sin()),
                        C64::new(-theta.cos(), 0.0),
                    ],
                ];
                // All-real rotation: exercises the lane-uniform path.
                let real = [
                    [C64::new(theta.cos(), 0.0), C64::new(theta.sin(), 0.0)],
                    [C64::new(theta.sin(), 0.0), C64::new(-theta.cos(), 0.0)],
                ];
                for m in [complex, real] {
                    let mut fast = a.clone();
                    let mut slow = a.clone();
                    fast.apply_single(q, m);
                    apply_single_reference(&mut slow, q, m);
                    assert_eq!(fast, slow, "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn diagonal_fast_path_matches_reference() {
        let mut sv = StateVector::plus_state(4);
        sv.apply_gate(&Gate::Cnot {
            control: 0,
            target: 2,
        });
        let diag = [
            [C64::from_polar_unit(0.3), C64::ZERO],
            [C64::ZERO, C64::from_polar_unit(-0.9)],
        ];
        let anti = [[C64::ZERO, C64::I], [-C64::I, C64::ZERO]]; // Pauli Y
        for m in [diag, anti] {
            for q in 0..4 {
                let mut fast = sv.clone();
                let mut slow = sv.clone();
                fast.apply_single(q, m);
                apply_single_reference(&mut slow, q, m);
                assert_eq!(fast, slow, "q={q}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "statevector limited to 26 qubits (requested 27)")]
    fn constructor_enforces_qubit_cap() {
        let _ = StateVector::zero_state(MAX_QUBITS + 1);
    }

    #[test]
    fn fidelity_is_phase_invariant() {
        let a = StateVector::plus_state(1);
        let mut b = StateVector::plus_state(1);
        // Global phase e^{iπ/3} on every amplitude.
        b.apply_gate(&Gate::Phase(0, std::f64::consts::FRAC_PI_3));
        b.apply_gate(&Gate::X(0));
        b.apply_gate(&Gate::Phase(0, std::f64::consts::FRAC_PI_3));
        b.apply_gate(&Gate::X(0));
        assert!(a.fidelity(&b) > 1.0 - 1e-12);
    }
}
