//! Dependency graphs and signal shifting.
//!
//! Section II-A of the paper: the dependency graph `G′ = (V, E′)` has an
//! edge `(i, j)` when the measurement basis of `j` depends on the outcome
//! of `i`, classified as X- or Z-dependencies. *Signal shifting*
//! (Broadbent–Kashefi) propagates Z-dependencies to the end of the
//! computation where they become classical output relabelings, removing
//! them from the real-time constraints — which is why only X-dependencies
//! enter the required-photon-lifetime calculation (Algorithm 1).

use mbqc_graph::{DiGraph, NodeId};

/// The dependency structure of a measurement pattern.
///
/// # Examples
///
/// ```
/// use mbqc_circuit::bench;
/// use mbqc_pattern::transpile::transpile;
///
/// let pattern = transpile(&bench::qft(4));
/// let deps = pattern.dependency_graph();
/// assert!(deps.real_time().is_acyclic());
/// assert!(deps.combined().edge_count() >= deps.real_time().edge_count());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyGraph {
    x: DiGraph,
    z: DiGraph,
}

impl DependencyGraph {
    /// Wraps pre-computed X- and Z-dependency DAGs (Z: `u → v` when
    /// `v`'s basis shifts by `s_u · π`).
    ///
    /// # Panics
    ///
    /// Panics if the two graphs have different node counts.
    #[must_use]
    pub fn new(x: DiGraph, z: DiGraph) -> Self {
        assert_eq!(
            x.node_count(),
            z.node_count(),
            "X and Z dependency graphs must share the node set"
        );
        Self { x, z }
    }

    /// The real-time dependency DAG after signal shifting: the
    /// X-dependencies only (`u → v` when `v`'s basis flips sign with
    /// `s_u`). This is the `G` consumed by Algorithm 1.
    #[must_use]
    pub fn real_time(&self) -> &DiGraph {
        &self.x
    }

    /// Union of X- and Z-dependencies (the full `G′` before signal
    /// shifting).
    #[must_use]
    pub fn combined(&self) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> = self.x.edges().chain(self.z.edges()).collect();
        DiGraph::from_edges(self.x.node_count(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn di(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> = edges
            .iter()
            .map(|&(a, b)| (NodeId::new(a), NodeId::new(b)))
            .collect();
        DiGraph::from_edges(n, &edges)
    }

    #[test]
    fn combined_unions_edges() {
        let deps = DependencyGraph::new(di(4, &[(0, 1)]), di(4, &[(0, 2), (1, 3)]));
        let c = deps.combined();
        assert_eq!(c.edge_count(), 3);
        assert!(c.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(c.has_edge(NodeId::new(1), NodeId::new(3)));
    }

    #[test]
    fn combined_dedups_shared_edges() {
        let deps = DependencyGraph::new(di(3, &[(0, 1)]), di(3, &[(0, 1)]));
        assert_eq!(deps.combined().edge_count(), 1);
    }

    #[test]
    #[should_panic(expected = "share the node set")]
    fn mismatched_sizes_panic() {
        let _ = DependencyGraph::new(di(2, &[]), di(3, &[]));
    }
}
