//! QPU and interconnect models for distributed MBQC.

use crate::ResourceStateKind;

/// Hardware configuration for a distributed photonic MBQC system:
/// `num_qpus` identical QPUs, each with a `grid_width × grid_width` RSG
/// array producing one resource state per site per cycle, a per-layer
/// connection capacity `K_max`. Every pair of QPUs shares a direct
/// optical link (the paper's fully connected setting).
///
/// # Examples
///
/// ```
/// use mbqc_hardware::{DistributedHardware, ResourceStateKind};
///
/// // The paper's 8-QPU setting with 4-ring RSGs for a 16-qubit program.
/// let hw = DistributedHardware::builder()
///     .num_qpus(8)
///     .grid_width(7)
///     .resource_state(ResourceStateKind::FOUR_RING)
///     .kmax(4)
///     .build();
/// assert_eq!(hw.num_qpus(), 8);
/// assert_eq!(hw.grid_width(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedHardware {
    num_qpus: usize,
    grid_width: usize,
    resource_state: ResourceStateKind,
    kmax: usize,
}

impl DistributedHardware {
    /// Starts a builder with the paper's defaults: 4 QPUs, 5-star RSGs,
    /// `K_max = 4`, grid width 7.
    #[must_use]
    pub fn builder() -> DistributedHardwareBuilder {
        DistributedHardwareBuilder::default()
    }

    /// Number of QPUs.
    #[must_use]
    pub fn num_qpus(&self) -> usize {
        self.num_qpus
    }

    /// Side length of each QPU's RSG grid.
    #[must_use]
    pub fn grid_width(&self) -> usize {
        self.grid_width
    }

    /// Resource-state kind produced by every RSG.
    #[must_use]
    pub fn resource_state(&self) -> ResourceStateKind {
        self.resource_state
    }

    /// Connection capacity: concurrent inter-QPU connections one
    /// connection layer supports (Section IV of the paper).
    #[must_use]
    pub fn kmax(&self) -> usize {
        self.kmax
    }
}

/// Builder for [`DistributedHardware`].
#[derive(Debug, Clone, Copy)]
pub struct DistributedHardwareBuilder {
    num_qpus: usize,
    grid_width: usize,
    resource_state: ResourceStateKind,
    kmax: usize,
}

impl Default for DistributedHardwareBuilder {
    fn default() -> Self {
        Self {
            num_qpus: 4,
            grid_width: 7,
            resource_state: ResourceStateKind::FIVE_STAR,
            kmax: 4,
        }
    }
}

impl DistributedHardwareBuilder {
    /// Sets the number of QPUs (≥ 1).
    #[must_use]
    pub fn num_qpus(mut self, n: usize) -> Self {
        self.num_qpus = n;
        self
    }

    /// Sets the RSG grid side length (≥ 1).
    #[must_use]
    pub fn grid_width(mut self, w: usize) -> Self {
        self.grid_width = w;
        self
    }

    /// Sets the resource-state kind.
    #[must_use]
    pub fn resource_state(mut self, kind: ResourceStateKind) -> Self {
        self.resource_state = kind;
        self
    }

    /// Sets the connection capacity `K_max` (≥ 1).
    #[must_use]
    pub fn kmax(mut self, kmax: usize) -> Self {
        self.kmax = kmax;
        self
    }

    /// Builds the hardware description.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is zero.
    #[must_use]
    pub fn build(self) -> DistributedHardware {
        assert!(self.num_qpus >= 1, "need at least one QPU");
        assert!(self.grid_width >= 1, "grid width must be positive");
        assert!(self.kmax >= 1, "K_max must be positive");
        DistributedHardware {
            num_qpus: self.num_qpus,
            grid_width: self.grid_width,
            resource_state: self.resource_state,
            kmax: self.kmax,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let hw = DistributedHardware::builder().build();
        assert_eq!(hw.num_qpus(), 4);
        assert_eq!(hw.kmax(), 4);
        assert_eq!(hw.resource_state(), ResourceStateKind::FIVE_STAR);
    }

    #[test]
    #[should_panic(expected = "K_max must be positive")]
    fn zero_kmax_panics() {
        let _ = DistributedHardware::builder().kmax(0).build();
    }
}
