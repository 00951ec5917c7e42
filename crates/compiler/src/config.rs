//! Compiler configuration and errors.

use std::fmt;

use mbqc_hardware::ResourceStateKind;

/// Configuration of the single-QPU grid mapper.
///
/// # Examples
///
/// ```
/// use mbqc_compiler::CompilerConfig;
/// use mbqc_hardware::ResourceStateKind;
///
/// let cfg = CompilerConfig::new(7, ResourceStateKind::FIVE_STAR);
/// assert_eq!(cfg.usable_width(), 7);
/// let reserved = cfg.with_boundary_reservation(true);
/// assert_eq!(reserved.usable_width(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompilerConfig {
    /// RSG grid side length.
    pub grid_width: usize,
    /// Resource state produced by every RSG.
    pub resource_state: ResourceStateKind,
    /// Seed for deterministic tie-breaking.
    pub seed: u64,
    /// OneAdapt-style dynamic refresh: wires older than this many layers
    /// are re-injected, bounding storage time. `None` disables refresh.
    pub refresh_interval: Option<usize>,
    /// Reserve the grid perimeter as communication interface
    /// (the Table V protocol: usable grid shrinks by 2 per dimension).
    pub boundary_reservation: bool,
}

impl CompilerConfig {
    /// A default configuration for the given grid and resource state.
    #[must_use]
    pub fn new(grid_width: usize, resource_state: ResourceStateKind) -> Self {
        Self {
            grid_width,
            resource_state,
            seed: 42,
            refresh_interval: None,
            boundary_reservation: false,
        }
    }

    /// Sets the tie-breaking seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables OneAdapt-style dynamic refresh with the given bound.
    #[must_use]
    pub fn with_refresh(mut self, interval: usize) -> Self {
        self.refresh_interval = Some(interval);
        self
    }

    /// Enables or disables boundary reservation.
    #[must_use]
    pub fn with_boundary_reservation(mut self, on: bool) -> Self {
        self.boundary_reservation = on;
        self
    }

    /// Grid side length actually available for computation.
    #[must_use]
    pub fn usable_width(&self) -> usize {
        if self.boundary_reservation {
            self.grid_width.saturating_sub(2)
        } else {
            self.grid_width
        }
    }
}

/// Errors from [`GridMapper::compile`](crate::GridMapper::compile).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The usable grid is empty (width 0 after reservation).
    EmptyGrid,
    /// The placement order misses or duplicates nodes.
    InvalidOrder(String),
    /// A node could not be placed within the retry budget — the grid is
    /// too small for the program's frontier.
    PlacementStuck {
        /// The node that failed to place.
        node: usize,
        /// Layers attempted.
        attempts: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::EmptyGrid => write!(f, "usable grid is empty"),
            CompileError::InvalidOrder(msg) => write!(f, "invalid placement order: {msg}"),
            CompileError::PlacementStuck { node, attempts } => write!(
                f,
                "node n{node} could not be placed after {attempts} layers; grid too small for program frontier"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usable_width_with_reservation() {
        let cfg = CompilerConfig::new(7, ResourceStateKind::FIVE_STAR);
        assert_eq!(cfg.usable_width(), 7);
        assert_eq!(cfg.with_boundary_reservation(true).usable_width(), 5);
        let tiny =
            CompilerConfig::new(1, ResourceStateKind::FIVE_STAR).with_boundary_reservation(true);
        assert_eq!(tiny.usable_width(), 0);
    }

    #[test]
    fn builder_chain() {
        let cfg = CompilerConfig::new(9, ResourceStateKind::FOUR_RING)
            .with_seed(7)
            .with_refresh(20);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.refresh_interval, Some(20));
    }

    #[test]
    fn error_display() {
        let e = CompileError::PlacementStuck {
            node: 3,
            attempts: 50,
        };
        assert!(e.to_string().contains("n3"));
        assert!(CompileError::EmptyGrid.to_string().contains("empty"));
    }
}
