//! Aaronson–Gottesman CHP stabilizer tableau simulator.
//!
//! Graph states are stabilizer states: the paper defines them as the
//! joint +1 eigenstate of `K_i = X_i ∏_{j∈N(i)} Z_j`. The statevector
//! simulator can only verify this up to ~20 qubits; the tableau scales to
//! thousands, so graph-state structure (and Clifford fragments of
//! patterns) can be checked at benchmark size.
//!
//! Pauli X/Z components are bit-packed into `u64` words: row products
//! (`rowsum`, the measurement hot path) are word-wise XORs with a
//! branch-free phase update, 64 qubits per instruction instead of the
//! seed's one-`bool`-at-a-time loops. The original `Vec<bool>`
//! implementation is preserved as a test oracle in the crate's
//! `tests/common/mod.rs` and property-tested to agree with this
//! one on random Clifford sequences.

use mbqc_graph::Graph;
use mbqc_util::Rng;

/// Bits per packed word.
const WORD_BITS: usize = 64;

/// Number of `u64` words needed for `n` qubits.
#[inline]
#[must_use]
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD_BITS)
}

/// Word index and bit mask of qubit `q`.
#[inline]
fn bit(q: usize) -> (usize, u64) {
    (q / WORD_BITS, 1u64 << (q % WORD_BITS))
}

/// Word-wise phase masks of the single-qubit Pauli product
/// `(x1,z1)·(x2,z2)`: bit `q` of `pos` is set where the product picks up
/// `+i` (a forward step in the X→Y→Z cycle), bit `q` of `neg` where it
/// picks up `−i`. Equivalent to the Aaronson–Gottesman `g` function,
/// evaluated for 64 qubits at once.
#[inline]
fn phase_masks(x1: u64, z1: u64, x2: u64, z2: u64) -> (u64, u64) {
    let y1 = x1 & z1;
    let pos = (x1 & !z1 & x2 & z2) | (y1 & !x2 & z2) | (!x1 & z1 & x2 & !z2);
    let neg = (x1 & !z1 & !x2 & z2) | (y1 & x2 & !z2) | (!x1 & z1 & x2 & z2);
    (pos, neg)
}

/// A Pauli string over `n` qubits with a phase `i^phase`, bit-packed 64
/// qubits per word.
///
/// # Examples
///
/// ```
/// use mbqc_sim::stabilizer::PauliString;
///
/// let x = PauliString::single_x(3, 0);
/// let z = PauliString::single_z(3, 0);
/// let y = x.mul(&z); // X·Z = −iY
/// assert_eq!(y.phase(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PauliString {
    n: usize,
    x: Vec<u64>,
    z: Vec<u64>,
    /// Phase exponent: the operator is `i^phase · (Pauli product)`.
    phase: u8,
}

impl PauliString {
    /// The identity on `n` qubits.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Self {
            n,
            x: vec![0; words_for(n)],
            z: vec![0; words_for(n)],
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
        let (w, m) = bit(q);
        p.x[w] |= m;
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
        let (w, m) = bit(q);
        p.z[w] |= m;
        p
    }

    /// The graph-state stabilizer `K_i = X_i ∏_{j∈N(i)} Z_j`.
    #[must_use]
    pub fn graph_stabilizer(graph: &Graph, i: mbqc_graph::NodeId) -> Self {
        let mut p = Self::single_x(graph.node_count(), i.index());
        for j in graph.neighbors(i) {
            let (w, m) = bit(j.index());
            p.z[w] |= m;
        }
        p
    }

    /// Number of qubits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` if the string is the identity Pauli (any phase).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.x.iter().all(|&w| w == 0) && self.z.iter().all(|&w| w == 0)
    }

    /// Phase exponent (operator = `i^phase · Paulis`).
    #[must_use]
    pub fn phase(&self) -> u8 {
        self.phase
    }

    /// X bit of qubit `q`.
    #[must_use]
    pub fn x_bit(&self, q: usize) -> bool {
        let (w, m) = bit(q);
        self.x[w] & m != 0
    }

    /// Z bit of qubit `q`.
    #[must_use]
    pub fn z_bit(&self, q: usize) -> bool {
        let (w, m) = bit(q);
        self.z[w] & m != 0
    }

    /// Product `self · other` with exact phase tracking. Word-wise: 64
    /// qubits of XOR and phase accumulation per loop step.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn mul(&self, other: &PauliString) -> PauliString {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let words = self.x.len();
        let mut phase = i32::from(self.phase) + i32::from(other.phase);
        let mut x = vec![0u64; words];
        let mut z = vec![0u64; words];
        for w in 0..words {
            let (pos, neg) = phase_masks(self.x[w], self.z[w], other.x[w], other.z[w]);
            phase += pos.count_ones() as i32 - neg.count_ones() as i32;
            x[w] = self.x[w] ^ other.x[w];
            z[w] = self.z[w] ^ other.z[w];
        }
        PauliString {
            n: self.n,
            x,
            z,
            phase: phase.rem_euclid(4) as u8,
        }
    }

    /// In-place product `self ← self · other` with exact phase tracking —
    /// the allocation-free form of [`PauliString::mul`] used by hot loops
    /// (Gaussian elimination, bulk row products).
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn mul_inplace(&mut self, other: &PauliString) {
        assert_eq!(self.len(), other.len(), "length mismatch");
        let mut phase = i32::from(self.phase) + i32::from(other.phase);
        for w in 0..self.x.len() {
            let (pos, neg) = phase_masks(self.x[w], self.z[w], other.x[w], other.z[w]);
            phase += pos.count_ones() as i32 - neg.count_ones() as i32;
            self.x[w] ^= other.x[w];
            self.z[w] ^= other.z[w];
        }
        self.phase = phase.rem_euclid(4) as u8;
    }

    /// `true` if the two strings commute.
    #[must_use]
    pub fn commutes_with(&self, other: &PauliString) -> bool {
        let mut anti = 0u32;
        for w in 0..self.x.len() {
            anti ^= ((self.x[w] & other.z[w]) ^ (self.z[w] & other.x[w])).count_ones() & 1;
        }
        anti == 0
    }
}

/// CHP stabilizer tableau over `n` qubits, bit-packed.
///
/// Rows `0..n` are destabilizers, rows `n..2n` stabilizers, following
/// Aaronson & Gottesman (2004). Supports H, S, CNOT, CZ, X, Z,
/// single-qubit Z measurement, and Pauli-group membership queries.
///
/// Storage is *column-word-major*: `x[w · 2n + row]` holds qubit chunk
/// `w` (64 qubits) of `row`. The dominant access patterns — single-qubit
/// gate updates and the per-qubit pivot/anticommuting-row scans inside
/// measurement — touch one qubit column of every row, which in this
/// layout is one contiguous `u64` run. Row products (`rowsum`) remain
/// word-wise XORs, just strided across the column blocks.
///
/// # Examples
///
/// ```
/// use mbqc_graph::generate;
/// use mbqc_sim::stabilizer::{PauliString, Tableau};
///
/// let g = generate::cycle_graph(5);
/// let t = Tableau::graph_state(&g);
/// for i in g.nodes() {
///     assert!(t.is_stabilized_by(&PauliString::graph_stabilizer(&g, i)));
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Tableau {
    n: usize,
    /// Words per row (qubit chunks).
    w: usize,
    /// Column-word-major packed bit matrices: `x[w * 2n + row]`.
    x: Vec<u64>,
    z: Vec<u64>,
    r: Vec<bool>,
    /// Per-qubit *sound lower bound* on the first stabilizer row with an
    /// X on that qubit: no row in `n..first_x[q]` has one; `2n` means
    /// none at all. Gates that rewrite a qubit's X column (`h`, `cnot`
    /// target) set it exactly inside their existing sweeps; `s`, `x`,
    /// `z`, and `cz` leave X columns untouched; the measurement rowsum
    /// clamps every qubit's bound to the lowest XORed stabilizer row
    /// (X bits can only *appear* there — clears never break the bound).
    /// Measurement pivot scans start at the bound, so re-measurements
    /// and deterministic outcomes — the bulk of a graph-state
    /// measurement sweep — skip the row sweep entirely (the ROADMAP's
    /// "first stabilizer with X" index).
    first_x: Vec<usize>,
    /// Measurement scratch: rowsum target rows of the current
    /// measurement, reused across calls (no per-measurement
    /// allocation).
    targets: Vec<usize>,
    /// Measurement scratch: per-target phase accumulators, parallel to
    /// `targets`.
    accs: Vec<i32>,
    /// Measurement scratch: destabilizer rows carrying an X on the
    /// measured qubit, collected once per measurement by the column
    /// pass in [`Tableau::measure_z`] and consumed by *both* outcome
    /// paths (rowsum targets on the random path, scratch-row factors
    /// on the deterministic path).
    dtargets: Vec<usize>,
    /// Deterministic-outcome scratch row (X/Z words), tableau-resident
    /// so the scratch-row path allocates nothing per measurement.
    scratch_x: Vec<u64>,
    scratch_z: Vec<u64>,
}

impl Tableau {
    /// The `|0…0⟩` tableau: destabilizers `X_i`, stabilizers `Z_i`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let w = words_for(n);
        let rows = 2 * n;
        let mut t = Self {
            n,
            w,
            x: vec![0; rows * w],
            z: vec![0; rows * w],
            r: vec![false; rows],
            // Stabilizers start as Z_i: no stabilizer carries an X.
            first_x: vec![rows; n],
            targets: Vec::new(),
            accs: Vec::new(),
            dtargets: Vec::new(),
            scratch_x: vec![0; w],
            scratch_z: vec![0; w],
        };
        for i in 0..n {
            let (wq, m) = bit(i);
            t.x[wq * rows + i] |= m; // destabilizer X_i
            t.z[wq * rows + (n + i)] |= m; // stabilizer Z_i
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

    /// Hadamard on `q`. One contiguous column sweep; the sweep also
    /// recomputes the qubit's first-stabilizer-X bound exactly (X and Z
    /// swap, so the old bound is void).
    pub fn h(&mut self, q: usize) {
        self.check(q);
        let n = self.n;
        let rows = 2 * n;
        let (wq, m) = bit(q);
        let xs = &mut self.x[wq * rows..(wq + 1) * rows];
        let zs = &mut self.z[wq * rows..(wq + 1) * rows];
        let mut first = rows;
        for i in 0..rows {
            let xv = xs[i];
            let zv = zs[i];
            self.r[i] ^= xv & zv & m != 0;
            xs[i] = (xv & !m) | (zv & m);
            zs[i] = (zv & !m) | (xv & m);
            if i >= n && first == rows && xs[i] & m != 0 {
                first = i;
            }
        }
        self.first_x[q] = first;
    }

    /// Phase gate S on `q`. One contiguous column sweep.
    pub fn s(&mut self, q: usize) {
        self.check(q);
        let rows = 2 * self.n;
        let (wq, m) = bit(q);
        let xs = &self.x[wq * rows..(wq + 1) * rows];
        let zs = &mut self.z[wq * rows..(wq + 1) * rows];
        for i in 0..rows {
            let xv = xs[i];
            self.r[i] ^= xv & zs[i] & m != 0;
            zs[i] ^= xv & m;
        }
    }

    /// Pauli Z on `q`. Single sweep: algebraically S², whose combined
    /// update reduces to `r ^= x_q` with X/Z parts unchanged.
    pub fn z_gate(&mut self, q: usize) {
        self.check(q);
        let rows = 2 * self.n;
        let (wq, m) = bit(q);
        let xs = &self.x[wq * rows..(wq + 1) * rows];
        for (r, &xv) in self.r.iter_mut().zip(xs) {
            *r ^= xv & m != 0;
        }
    }

    /// Pauli X on `q`. Single sweep: algebraically H·Z·H, whose combined
    /// update reduces to `r ^= z_q` with X/Z parts unchanged.
    pub fn x_gate(&mut self, q: usize) {
        self.check(q);
        let rows = 2 * self.n;
        let (wq, m) = bit(q);
        let zs = &self.z[wq * rows..(wq + 1) * rows];
        for (r, &zv) in self.r.iter_mut().zip(zs) {
            *r ^= zv & m != 0;
        }
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
        let n = self.n;
        let rows = 2 * n;
        let (wc, mc) = bit(control);
        let (wt, mt) = bit(target);
        let (co, to) = (wc * rows, wt * rows);
        // The target's X column is rewritten; recompute its bound
        // exactly in the same sweep. The control's X column is
        // untouched.
        let mut first = rows;
        for i in 0..rows {
            let xc = self.x[co + i] & mc != 0;
            let zc = self.z[co + i] & mc != 0;
            let xt = self.x[to + i] & mt != 0;
            let zt = self.z[to + i] & mt != 0;
            self.r[i] ^= xc && zt && (xt ^ zc ^ true);
            if xc {
                self.x[to + i] ^= mt;
            }
            if zt {
                self.z[co + i] ^= mc;
            }
            if i >= n && first == rows && self.x[to + i] & mt != 0 {
                first = i;
            }
        }
        self.first_x[target] = first;
    }

    /// CZ between `a` and `b`. Single sweep: algebraically
    /// `H_b · CNOT_{a,b} · H_b`, whose combined update reduces to
    /// `z_a ^= x_b`, `z_b ^= x_a`, `r ^= x_a x_b (z_a ⊕ z_b)` — one pass
    /// over two qubit columns instead of three full gate sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or either is out of range.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.check(a);
        self.check(b);
        assert_ne!(a, b, "qubits must differ");
        let rows = 2 * self.n;
        let (wa, ma) = bit(a);
        let (wb, mb) = bit(b);
        let (ao, bo) = (wa * rows, wb * rows);
        for i in 0..rows {
            let xa = self.x[ao + i] & ma != 0;
            let xb = self.x[bo + i] & mb != 0;
            let za = self.z[ao + i] & ma != 0;
            let zb = self.z[bo + i] & mb != 0;
            self.r[i] ^= xa && xb && (za ^ zb);
            if xb {
                self.z[ao + i] ^= ma;
            }
            if xa {
                self.z[bo + i] ^= mb;
            }
        }
    }

    /// Measurement rowsum: `row[t] ← row[t] · row[p]` for every row
    /// `t` carrying an X on the measured qubit (the pivot `p` and its
    /// partner destabilizer excluded), with exact per-row phase
    /// bookkeeping.
    ///
    /// The destabilizer/stabilizer target collection feeds the rowsum
    /// directly: the target list and phase accumulators live on the
    /// tableau (no per-measurement allocation), and the accumulator
    /// initialization (`2·r[t] + 2·r[p]`, formerly a separate
    /// collect-pass) is folded into the rowsum's first column-block
    /// loop. The collection scans themselves stay as tight
    /// compare-only loops over the measured qubit's contiguous column
    /// — fully fusing them into the rowsum body was measured *slower*
    /// (it defeats the vectorized column scan).
    fn rowsum_measure(&mut self, p: usize, wq: usize, m: u64) {
        let n = self.n;
        let rows = 2 * n;
        let col = wq * rows;
        self.targets.clear();
        self.accs.clear();
        // The destabilizer targets were already collected by the
        // measurement's column pass (`dtargets`). Row p−n (the pivot's
        // partner destabilizer) is skipped: it anticommutes with row
        // p, so the rowsum phase would be imaginary — and the row is
        // overwritten with a copy of row p afterwards anyway, making
        // the rowsum dead work. Stabilizer rows before p carry no X on
        // the qubit (that is what made p the pivot), so only `p+1..`
        // needs scanning there.
        for &i in &self.dtargets {
            if i != p - n {
                self.targets.push(i);
            }
        }
        for i in p + 1..rows {
            if self.x[col + i] & m != 0 {
                self.targets.push(i);
            }
        }
        let rp = 2 * i32::from(self.r[p]);
        for w in 0..self.w {
            let o = w * rows;
            let (xp, zp) = (self.x[o + p], self.z[o + p]);
            if w == 0 {
                // The first block's pass doubles as accumulator
                // construction.
                for &t in &self.targets {
                    let (xt, zt) = (self.x[o + t], self.z[o + t]);
                    let (pos, neg) = phase_masks(xp, zp, xt, zt);
                    self.accs.push(
                        2 * i32::from(self.r[t]) + rp + pos.count_ones() as i32
                            - neg.count_ones() as i32,
                    );
                    self.x[o + t] = xt ^ xp;
                    self.z[o + t] = zt ^ zp;
                }
            } else {
                for (k, &t) in self.targets.iter().enumerate() {
                    let (xt, zt) = (self.x[o + t], self.z[o + t]);
                    let (pos, neg) = phase_masks(xp, zp, xt, zt);
                    self.accs[k] += pos.count_ones() as i32 - neg.count_ones() as i32;
                    self.x[o + t] = xt ^ xp;
                    self.z[o + t] = zt ^ zp;
                }
            }
        }
        for (k, &t) in self.targets.iter().enumerate() {
            let phase = self.accs[k].rem_euclid(4);
            debug_assert!(phase == 0 || phase == 2, "non-Hermitian rowsum");
            self.r[t] = phase == 2;
        }
    }

    /// Measures qubit `q` in the computational basis.
    ///
    /// Random outcomes (when some stabilizer anticommutes with `Z_q`)
    /// draw from `rng`; deterministic outcomes ignore it.
    pub fn measure_z(&mut self, q: usize, rng: &mut Rng) -> bool {
        self.check(q);
        let n = self.n;
        let rows = 2 * n;
        let (wq, m) = bit(q);
        let col = wq * rows;
        // One pass over the destabilizer half of the measured qubit's
        // column collects the X-carrying rows *both* outcome paths
        // need: the random path rowsums exactly these destabilizer
        // targets, and the deterministic path multiplies exactly their
        // partner stabilizers into the scratch row. Formerly each path
        // re-scanned this column half on its own (`scratch_row` was
        // the last separate scan left on the measurement path).
        self.dtargets.clear();
        for i in 0..n {
            if self.x[col + i] & m != 0 {
                self.dtargets.push(i);
            }
        }
        // Find a stabilizer with an X on q (anticommutes with Z_q).
        // Rows below `first_x[q]` are known X-free, so the scan starts
        // there — O(1) when the index already says "none" (the common
        // case deep into a measurement sweep, and every re-measurement).
        if let Some(p) = (self.first_x[q]..rows).find(|&i| self.x[col + i] & m != 0) {
            // Random outcome: the rowsum consumes the collected
            // destabilizer targets and sweeps only the stabilizer half
            // itself (no repeated column scan, no per-measurement
            // allocation).
            self.rowsum_measure(p, wq, m);
            // The rowsum XORs the pivot row into every target
            // (`x_t ^= x_p`), so an X bit can *appear* only on qubits in
            // the pivot row's X support, and only in XORed stabilizer
            // rows: clamp exactly those qubits' bounds to the lowest
            // one. Everything else keeps its exact bound — which is
            // what keeps re-measurements and deterministic sweeps O(1).
            // (Targets are ascending, so the first `>= n` is lowest.)
            if let Some(&floor) = self.targets.iter().find(|&&t| t >= n) {
                for w in 0..self.w {
                    let mut bits = self.x[w * rows + p];
                    while bits != 0 {
                        let q2 = w * WORD_BITS + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        if self.first_x[q2] > floor {
                            self.first_x[q2] = floor;
                        }
                    }
                }
            }
            // Destabilizer row p−n becomes the old stabilizer row p, and
            // stabilizer row p becomes ±Z_q with the measured sign.
            let outcome = rng.bernoulli(0.5);
            for w in 0..self.w {
                let o = w * rows;
                self.x[o + p - n] = self.x[o + p];
                self.z[o + p - n] = self.z[o + p];
                self.x[o + p] = 0;
                self.z[o + p] = 0;
            }
            self.z[col + p] = m;
            self.r[p - n] = self.r[p];
            self.r[p] = outcome;
            // The rowsum cleared every other stabilizer X on q and the
            // pivot became ±Z_q: the index is exact again.
            self.first_x[q] = rows;
            outcome
        } else {
            // Deterministic outcome: no stabilizer X on q at all —
            // remember that, then accumulate into the scratch row.
            self.first_x[q] = rows;
            self.scratch_row()
        }
    }

    /// Computes the deterministic measurement outcome using the
    /// tableau-resident scratch row (case where no stabilizer has an X
    /// on the measured qubit). The factor rows are the partner
    /// stabilizers of the destabilizer targets the measurement's
    /// column pass collected (`dtargets`) — no second scan of the
    /// column, no per-measurement allocation.
    fn scratch_row(&mut self) -> bool {
        let n = self.n;
        let rows = 2 * n;
        self.scratch_x.iter_mut().for_each(|w| *w = 0);
        self.scratch_z.iter_mut().for_each(|w| *w = 0);
        let mut sr: i32 = 0;
        for &i in &self.dtargets {
            // rowsum(scratch, i + n)
            let stab = i + n;
            let mut acc = 2 * i32::from(self.r[stab]) + sr;
            for w in 0..self.w {
                let o = w * rows;
                let (pos, neg) = phase_masks(
                    self.x[o + stab],
                    self.z[o + stab],
                    self.scratch_x[w],
                    self.scratch_z[w],
                );
                acc += pos.count_ones() as i32 - neg.count_ones() as i32;
            }
            sr = acc.rem_euclid(4);
            for w in 0..self.w {
                let o = w * rows;
                self.scratch_x[w] ^= self.x[o + stab];
                self.scratch_z[w] ^= self.z[o + stab];
            }
        }
        debug_assert!(sr == 0 || sr == 2);
        sr == 2
    }

    /// The current stabilizer generators as [`PauliString`]s (phase 0 for
    /// `+`, 2 for `−`).
    #[must_use]
    pub fn stabilizer_generators(&self) -> Vec<PauliString> {
        let rows = 2 * self.n;
        (self.n..rows)
            .map(|i| PauliString {
                n: self.n,
                x: (0..self.w).map(|w| self.x[w * rows + i]).collect(),
                z: (0..self.w).map(|w| self.z[w * rows + i]).collect(),
                phase: if self.r[i] { 2 } else { 0 },
            })
            .collect()
    }

    /// Returns `true` if `+p` is in the stabilizer group of the current
    /// state (i.e. `p` stabilizes the state).
    ///
    /// No elimination at all: the tableau's destabilizer half is the
    /// symplectic dual of its stabilizer half (`⟨dᵢ, gⱼ⟩ = δᵢⱼ` and
    /// `⟨dᵢ, dⱼ⟩ = 0`, an invariant every CHP update preserves), so the
    /// coefficient of generator `gᵢ` in any candidate decomposition of
    /// `p` is forced: it is the symplectic product `⟨p, dᵢ⟩`, one
    /// word-parallel AND+popcount sweep per destabilizer row. The named
    /// subset's product is then multiplied into `p` with exact phase
    /// tracking (the `phase_masks` sweep); `p` is in the span iff the Pauli
    /// part cancels to the identity, and in the *group* iff the
    /// accumulated phase is `+1` on top. Total cost is `O(n²/64)` word
    /// operations — the projection replaces the `O(n³/64)` Gaussian
    /// elimination the word-blocked
    /// [`Tableau::is_stabilized_by_elimination`] and the test suite's
    /// probe-based oracle run. Equal to both on every input — pinned by
    /// a three-way proptest.
    ///
    /// # Panics
    ///
    /// Panics if `p` has the wrong qubit count.
    #[must_use]
    pub fn is_stabilized_by(&self, p: &PauliString) -> bool {
        assert_eq!(p.len(), self.n, "qubit count mismatch");
        let n = self.n;
        let w = self.w;
        let rows = 2 * n;
        // Projection pass: comb bit i ⇔ p anticommutes with
        // destabilizer i ⇔ generator i is a factor of p (if p is in the
        // span at all).
        let mut comb = vec![0u64; words_for(n)];
        for i in 0..n {
            let mut s = 0u32;
            for wi in 0..w {
                let o = wi * rows + i;
                s += (p.x[wi] & self.z[o]).count_ones() + (p.z[wi] & self.x[o]).count_ones();
            }
            comb[i / 64] |= u64::from(s & 1) << (i % 64);
        }
        // Sign pass: multiply the named generator subset into the
        // target with exact phase tracking (one phase_masks sweep per
        // used generator; generators commute, so any order works).
        let mut phase = i32::from(p.phase);
        let mut accx = p.x.clone();
        let mut accz = p.z.clone();
        for i in 0..n {
            if comb[i / 64] & (1u64 << (i % 64)) != 0 {
                if self.r[n + i] {
                    phase += 2;
                }
                for wi in 0..w {
                    let gx = self.x[wi * rows + n + i];
                    let gz = self.z[wi * rows + n + i];
                    let (pos, neg) = phase_masks(accx[wi], accz[wi], gx, gz);
                    phase += pos.count_ones() as i32 - neg.count_ones() as i32;
                    accx[wi] ^= gx;
                    accz[wi] ^= gz;
                }
            }
        }
        // A leftover Pauli part means p had a component along the
        // destabilizer directions — not in the span.
        if accx.iter().any(|&x| x != 0) || accz.iter().any(|&z| z != 0) {
            return false;
        }
        phase.rem_euclid(4) == 0
    }

    /// Membership by word-blocked (M4RI-style) Gaussian elimination —
    /// the intermediate kernel between the test suite's probe-based
    /// oracle and the projection-based
    /// [`Tableau::is_stabilized_by`], kept because its elimination
    /// machinery does not lean on the destabilizer invariant and it
    /// anchors the three-way equivalence pin.
    ///
    /// The generators are copied once into a
    /// flat row-major matrix of `[x words | z words | combination
    /// words]` — the combination bitset records which original
    /// generators each row is a product of. Elimination is then pure
    /// GF(2): whole rows cancel by word XOR with **no** per-row phase
    /// bookkeeping, and the 64 columns of each word are processed
    /// against a gathered contiguous column cache, so pivot probes scan
    /// a hot linear array instead of striding across rows. Signs are
    /// settled once at the end: if the target's Pauli part reduces to
    /// the identity, its combination bitset names the generator subset
    /// whose product must equal it, and one phase-exact word-parallel
    /// product over that subset (generators commute, so any order
    /// works) decides the `+`/`−` verdict.
    ///
    /// # Panics
    ///
    /// Panics if `p` has the wrong qubit count.
    #[doc(hidden)]
    #[must_use]
    pub fn is_stabilized_by_elimination(&self, p: &PauliString) -> bool {
        assert_eq!(p.len(), self.n, "qubit count mismatch");
        let n = self.n;
        let w = self.w;
        let rows = 2 * n;
        // Row layout: x words, z words, then the combination bitset
        // (bit i ⇔ original generator i is a factor of this row).
        let stride = 2 * w + words_for(n);
        let mut mat = vec![0u64; n * stride];
        for i in 0..n {
            let row = &mut mat[i * stride..(i + 1) * stride];
            for wi in 0..w {
                row[wi] = self.x[wi * rows + n + i];
                row[w + wi] = self.z[wi * rows + n + i];
            }
            row[2 * w + i / 64] = 1u64 << (i % 64);
        }
        let mut tgt = vec![0u64; stride];
        tgt[..w].copy_from_slice(&p.x);
        tgt[w..2 * w].copy_from_slice(&p.z);
        let mut col_cache = vec![0u64; n];
        let mut pivot = 0usize;
        // Columns in 64-wide blocks: all x words, then all z words (the
        // tail bits past qubit n-1 are zero in every row — no pivots).
        for wc in 0..2 * w {
            if pivot >= n {
                break;
            }
            for j in pivot..n {
                col_cache[j] = mat[j * stride + wc];
            }
            for b in 0..64 {
                let mask = 1u64 << b;
                let Some(r) = (pivot..n).find(|&j| col_cache[j] & mask != 0) else {
                    continue;
                };
                if r != pivot {
                    let (head, rest) = mat.split_at_mut(r * stride);
                    head[pivot * stride..(pivot + 1) * stride].swap_with_slice(&mut rest[..stride]);
                    col_cache.swap(pivot, r);
                }
                let (head, tail) = mat.split_at_mut((pivot + 1) * stride);
                let prow = &head[pivot * stride..];
                let pword = col_cache[pivot];
                for (jj, cj) in col_cache[pivot + 1..n].iter_mut().enumerate() {
                    if *cj & mask != 0 {
                        let off = jj * stride;
                        for (a, b) in tail[off..off + stride].iter_mut().zip(prow) {
                            *a ^= *b;
                        }
                        *cj ^= pword;
                    }
                }
                if tgt[wc] & mask != 0 {
                    for (a, b) in tgt.iter_mut().zip(prow) {
                        *a ^= *b;
                    }
                }
                pivot += 1;
                if pivot >= n {
                    break;
                }
            }
        }
        // The Pauli part must cancel exactly for membership.
        if tgt[..2 * w].iter().any(|&word| word != 0) {
            return false;
        }
        // Sign pass: multiply the named generator subset into the
        // target with exact phase tracking (one phase_masks sweep per
        // used generator). The result is the identity Pauli; the state
        // is stabilized iff its accumulated phase is +1.
        let mut phase = i32::from(p.phase);
        let mut accx = p.x.clone();
        let mut accz = p.z.clone();
        for i in 0..n {
            if tgt[2 * w + i / 64] & (1u64 << (i % 64)) != 0 {
                if self.r[n + i] {
                    phase += 2;
                }
                for wi in 0..w {
                    let gx = self.x[wi * rows + n + i];
                    let gz = self.z[wi * rows + n + i];
                    let (pos, neg) = phase_masks(accx[wi], accz[wi], gx, gz);
                    phase += pos.count_ones() as i32 - neg.count_ones() as i32;
                    accx[wi] ^= gx;
                    accz[wi] ^= gz;
                }
            }
        }
        debug_assert!(
            accx.iter().all(|&x| x == 0) && accz.iter().all(|&z| z == 0),
            "combination subset must reproduce the target's Pauli part"
        );
        phase.rem_euclid(4) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::generate;

    #[test]
    fn pauli_products() {
        let n = 1;
        let x = PauliString::single_x(n, 0);
        let z = PauliString::single_z(n, 0);
        // X·Z = −iY → phase exponent 3.
        let xz = x.mul(&z);
        assert!(xz.x_bit(0) && xz.z_bit(0));
        assert_eq!(xz.phase(), 3);
        // Z·X = iY → phase 1.
        assert_eq!(z.mul(&x).phase(), 1);
        // X·X = I.
        let xx = x.mul(&x);
        assert!(xx.is_empty());
        assert_eq!(xx.phase(), 0);
    }

    #[test]
    fn pauli_products_across_word_boundary() {
        // Qubit 70 lives in the second packed word.
        let n = 80;
        for q in [0usize, 63, 64, 70, 79] {
            let x = PauliString::single_x(n, q);
            let z = PauliString::single_z(n, q);
            assert_eq!(x.mul(&z).phase(), 3, "q={q}");
            assert_eq!(z.mul(&x).phase(), 1, "q={q}");
            assert!(!x.commutes_with(&z), "q={q}");
        }
        // Disjoint supports in different words commute.
        let a = PauliString::single_x(n, 3);
        let b = PauliString::single_z(n, 77);
        assert!(a.commutes_with(&b));
    }

    #[test]
    fn mul_inplace_matches_mul() {
        let g = generate::grid_graph(9, 9);
        let a0 = PauliString::graph_stabilizer(&g, mbqc_graph::NodeId::new(5));
        let b = PauliString::graph_stabilizer(&g, mbqc_graph::NodeId::new(40));
        let by_value = a0.mul(&b);
        let mut in_place = a0.clone();
        in_place.mul_inplace(&b);
        assert_eq!(by_value, in_place);
    }

    #[test]
    fn commutation_relations() {
        let x = PauliString::single_x(2, 0);
        let z0 = PauliString::single_z(2, 0);
        let z1 = PauliString::single_z(2, 1);
        assert!(!x.commutes_with(&z0));
        assert!(x.commutes_with(&z1));
        assert!(z0.commutes_with(&z1));
    }

    #[test]
    fn zero_state_stabilized_by_z() {
        let t = Tableau::new(3);
        for q in 0..3 {
            assert!(t.is_stabilized_by(&PauliString::single_z(3, q)));
            assert!(!t.is_stabilized_by(&PauliString::single_x(3, q)));
        }
    }

    #[test]
    fn plus_state_after_h() {
        let mut t = Tableau::new(1);
        t.h(0);
        assert!(t.is_stabilized_by(&PauliString::single_x(1, 0)));
        assert!(!t.is_stabilized_by(&PauliString::single_z(1, 0)));
    }

    #[test]
    fn minus_state_sign() {
        let mut t = Tableau::new(1);
        t.h(0);
        t.z_gate(0);
        // State |−⟩: stabilized by −X, not +X.
        assert!(!t.is_stabilized_by(&PauliString::single_x(1, 0)));
        let mut minus_x = PauliString::single_x(1, 0);
        minus_x.phase = 2;
        // is_stabilized_by checks +p; −X is in the group ⇔ target reduces
        // to identity with phase 2 → not "+" stabilized.
        assert!(t.is_stabilized_by(&minus_x.mul(&minus_x)), "identity check");
    }

    #[test]
    fn bell_state_stabilizers() {
        let mut t = Tableau::new(2);
        t.h(0);
        t.cnot(0, 1);
        // Bell pair stabilized by XX and ZZ.
        let xx = PauliString::single_x(2, 0).mul(&PauliString::single_x(2, 1));
        let zz = PauliString::single_z(2, 0).mul(&PauliString::single_z(2, 1));
        assert!(t.is_stabilized_by(&xx));
        assert!(t.is_stabilized_by(&zz));
        assert!(!t.is_stabilized_by(&PauliString::single_z(2, 0)));
    }

    #[test]
    fn bell_measurement_correlates() {
        let mut rng = Rng::seed_from_u64(1);
        for _ in 0..50 {
            let mut t = Tableau::new(2);
            t.h(0);
            t.cnot(0, 1);
            let a = t.measure_z(0, &mut rng);
            let b = t.measure_z(1, &mut rng);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn deterministic_measurement_after_x() {
        let mut rng = Rng::seed_from_u64(2);
        let mut t = Tableau::new(1);
        t.x_gate(0);
        assert!(t.measure_z(0, &mut rng));
        // Re-measurement is stable.
        assert!(t.measure_z(0, &mut rng));
    }

    #[test]
    fn graph_state_stabilizers_small() {
        for g in [
            generate::path_graph(4),
            generate::cycle_graph(5),
            generate::star_graph(6),
            generate::complete_graph(4),
        ] {
            let t = Tableau::graph_state(&g);
            for i in g.nodes() {
                let k = PauliString::graph_stabilizer(&g, i);
                assert!(t.is_stabilized_by(&k), "K_{i} fails");
            }
        }
    }

    #[test]
    fn graph_state_stabilizers_large() {
        // Table-II-scale check: 289 nodes (17×17 grid graph).
        let g = generate::grid_graph(17, 17);
        let t = Tableau::graph_state(&g);
        for i in g.nodes().step_by(13) {
            assert!(t.is_stabilized_by(&PauliString::graph_stabilizer(&g, i)));
        }
        // Products of stabilizers are stabilizers too.
        let a = PauliString::graph_stabilizer(&g, mbqc_graph::NodeId::new(0));
        let b = PauliString::graph_stabilizer(&g, mbqc_graph::NodeId::new(18));
        assert!(t.is_stabilized_by(&a.mul(&b)));
        // A lone X is not.
        assert!(!t.is_stabilized_by(&PauliString::single_x(g.node_count(), 0)));
    }

    #[test]
    fn measurements_on_multi_word_graph_state() {
        // 100 qubits spans two packed words; measuring the whole cycle
        // graph state must keep the tableau consistent (re-measurement of
        // any qubit is deterministic and stable).
        let g = generate::cycle_graph(100);
        let mut t = Tableau::graph_state(&g);
        let mut rng = Rng::seed_from_u64(7);
        let first: Vec<bool> = (0..100).map(|q| t.measure_z(q, &mut rng)).collect();
        let second: Vec<bool> = (0..100).map(|q| t.measure_z(q, &mut rng)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn tableau_matches_statevector_on_random_cliffords() {
        use crate::StateVector;
        use mbqc_circuit::{Circuit, Gate};
        let mut rng = Rng::seed_from_u64(3);
        for trial in 0..20 {
            let n = 3;
            let mut t = Tableau::new(n);
            let mut c = Circuit::new(n);
            for _ in 0..12 {
                match rng.range(4) {
                    0 => {
                        let q = rng.range(n);
                        t.h(q);
                        c.h(q);
                    }
                    1 => {
                        let q = rng.range(n);
                        t.s(q);
                        c.s(q);
                    }
                    2 => {
                        let a = rng.range(n);
                        let b = (a + 1 + rng.range(n - 1)) % n;
                        t.cnot(a, b);
                        c.push(Gate::Cnot {
                            control: a,
                            target: b,
                        })
                        .unwrap();
                    }
                    _ => {
                        let a = rng.range(n);
                        let b = (a + 1 + rng.range(n - 1)) % n;
                        t.cz(a, b);
                        c.cz(a, b);
                    }
                }
            }
            let mut sv = StateVector::zero_state(n);
            sv.apply_circuit(&c);
            // Compare single-qubit Z expectation determinism.
            for q in 0..n {
                let p1 = sv.prob_one(q);
                let deterministic = !(1e-9..=1.0 - 1e-9).contains(&p1);
                let stab_plus = t.is_stabilized_by(&PauliString::single_z(n, q));
                let mut minus_z = PauliString::single_z(n, q);
                minus_z.phase = 2;
                // −Z stabilizes ⇔ q is deterministically 1. Check via
                // group membership of Z with sign −: reduce +Z…
                let stab_minus = {
                    // is_stabilized_by checks +p only; emulate −Z check by
                    // testing +Z on the X-flipped tableau.
                    let mut t2 = t.clone();
                    t2.x_gate(q);
                    t2.is_stabilized_by(&PauliString::single_z(n, q))
                };
                assert_eq!(
                    deterministic,
                    stab_plus || stab_minus,
                    "trial {trial} qubit {q}: p1={p1}"
                );
                if stab_plus {
                    assert!(p1 < 1e-9);
                }
                if stab_minus {
                    assert!(p1 > 1.0 - 1e-9);
                }
            }
        }
    }
}
