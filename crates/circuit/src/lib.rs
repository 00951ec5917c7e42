//! Quantum-circuit IR and the DC-MBQC benchmark programs.
//!
//! MBQC programs start life as circuit-model programs (Section V-A of the
//! paper): the Quantum Approximate Optimization Algorithm (QAOA) on random
//! Max-Cut instances, the Variational Quantum Eigensolver (VQE) with a
//! hardware-efficient fully-entangled ansatz, the Quantum Fourier
//! Transform (QFT), and the Cuccaro Ripple-Carry Adder (RCA). This crate
//! provides:
//!
//! * [`Gate`] / [`Circuit`] — a small circuit IR with one-, two-, and
//!   three-qubit gates and angle parameters.
//! * [`decompose`] — rewriting passes down to the photonic-friendly
//!   `{1-qubit, CZ}` basis that the MBQC transpiler consumes
//!   (`mbqc-pattern`).
//! * [`bench`](mod@bench) — deterministic generators for the paper's four benchmark
//!   families, reproducing Table II's program statistics.
//!
//! # Examples
//!
//! ```
//! use mbqc_circuit::{bench, decompose};
//!
//! let qft = bench::qft(16);
//! assert_eq!(qft.num_qubits(), 16);
//! assert_eq!(qft.two_qubit_gate_count(), 120); // Table II row QFT-16
//!
//! let cz = decompose::to_cz_basis(&qft);
//! assert!(cz.gates().iter().all(|g| g.is_single_qubit() || g.is_cz()));
//! ```

pub mod bench;
pub mod circuit;
pub mod decompose;
pub mod gate;

pub use circuit::Circuit;
pub use gate::Gate;
