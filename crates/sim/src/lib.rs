//! Quantum simulation substrate for semantic validation.
//!
//! The DC-MBQC pipeline is a *compiler*: its correctness rests on the
//! circuit → pattern translation being unitarily faithful and on graph
//! states having the stabilizer structure the paper assumes
//! (`K_i = X_i ∏_{j∈N(i)} Z_j`). This crate proves both on concrete
//! instances:
//!
//! * [`complex`] / [`statevector`] — a dense statevector simulator with
//!   the full benchmark gate set, XY-plane measurements, and dynamic
//!   qubit allocation/removal.
//! * [`stabilizer`] — an Aaronson–Gottesman CHP tableau simulator with
//!   Pauli-group membership checking, used to verify graph-state
//!   stabilizers on instances far beyond statevector reach. Bit-packed:
//!   row operations are word-wise XORs over `u64` words.
//! * [`pattern_sim`] — a lazy MBQC pattern executor: it walks a
//!   [`Pattern`](mbqc_pattern::Pattern) in measurement order, allocates
//!   photons on demand, applies byproduct corrections, and returns the
//!   output state — so circuit ↔ pattern equivalence is checked end to
//!   end, random measurement outcomes included.
//!
//! # Kernel design
//!
//! ## Statevector gate application and fusion
//!
//! [`StateVector::apply_single`] dispatches on the 2×2 matrix's shape
//! before touching amplitudes. Diagonal gates (Z/S/T/phase) and
//! anti-diagonal gates (X/Y) touch each amplitude once. Dense gates
//! with all-real entries (H, RY, √X compositions) take a real-matrix
//! path that does the butterfly in 12 real flops per amplitude pair
//! instead of the 28 a complex 2×2 costs. All paths iterate
//! the amplitude array in stride-aware contiguous blocks so the
//! compiler autovectorizes the inner loops — no explicit SIMD
//! intrinsics, no `unsafe`.
//!
//! [`StateVector::apply_circuit_with`] adds gate *fusion* on top: each
//! single-qubit gate is composed into a pending per-qubit 2×2 matrix
//! (scratch held in the reusable [`FusionWorkspace`]), flushed only
//! when a two-qubit gate or measurement touches the qubit. A run of k
//! single-qubit gates then costs one amplitude sweep instead of k, and
//! a composed run of diagonal gates stays diagonal, keeping the
//! cheapest path. The crate's tests pin both against the unfused dense
//! sweep they keep as an oracle.
//!
//! ## Stabilizer membership via destabilizer duality
//!
//! [`stabilizer::Tableau::is_stabilized_by`] decides group membership
//! with no elimination at all: in a CHP tableau the destabilizer rows
//! are a dual basis for the stabilizer rows, so a Pauli string `p` is
//! in the stabilizer group iff it commutes with every destabilizer
//! *and* every stabilizer, and its factor decomposition is read off
//! from which destabilizers it anticommutes with. That is one
//! word-parallel AND+popcount sweep per row — `O(n²/64)` — replacing
//! the `O(n³/64)` Gaussian elimination this kernel used before. The
//! word-blocked `is_stabilized_by_elimination` survives as a hidden
//! method, and the crate's tests keep the pre-optimization probe-based
//! elimination, so the three-way equivalence proptest pins projection,
//! blocked elimination, and the probe against each other.
//!
//! # Examples
//!
//! ```
//! use mbqc_circuit::Circuit;
//! use mbqc_pattern::transpile;
//! use mbqc_sim::pattern_sim::verify_pattern_equivalence;
//! use mbqc_util::Rng;
//!
//! let mut c = Circuit::new(2);
//! c.h(0).cnot(0, 1).t(1);
//! let p = transpile::transpile(&c);
//! let mut rng = Rng::seed_from_u64(1);
//! assert!(verify_pattern_equivalence(&c, &p, 5, &mut rng));
//! ```

pub mod complex;
pub mod pattern_sim;
pub mod stabilizer;
pub mod statevector;

pub use complex::C64;
pub use statevector::{FusionWorkspace, StateVector, MAX_QUBITS};
