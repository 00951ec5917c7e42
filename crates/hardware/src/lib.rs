//! Photonic MBQC hardware model.
//!
//! Models the physical substrate of Sections I–II of the paper:
//!
//! * [`resource`] — the small standardized *resource states* (4-ring,
//!   5-star, 6-ring, 7-star) produced by resource-state generators
//!   (RSGs) every clock cycle, with their fusion-degree and routing
//!   capacities.
//! * [`loss`] — the fiber-delay-line photon-loss model behind Figure 1
//!   (0.2 dB/km attenuation, photons at 2/3·c), which motivates the
//!   required-photon-lifetime metric.
//! * [`qpu`] — QPU grids and connection capacity `K_max` for
//!   distributed execution over fully connected QPUs.
//! * [`survey`] — the Table I survey of remote-entanglement platforms.
//!
//! # Examples
//!
//! ```
//! use mbqc_hardware::loss;
//!
//! // The paper's headline numbers: ≈5% at 1 ns/cycle and 36.9% at
//! // 10 ns/cycle after 5000 cycles of storage.
//! let p1 = loss::loss_probability(5000, 1.0);
//! let p10 = loss::loss_probability(5000, 10.0);
//! assert!((p1 - 0.045).abs() < 0.005);
//! assert!((p10 - 0.369).abs() < 0.005);
//! ```

pub mod loss;
pub mod qpu;
pub mod resource;
pub mod survey;

pub use qpu::DistributedHardware;
pub use resource::ResourceStateKind;
