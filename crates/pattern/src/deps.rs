//! Dependency graphs and signal shifting.
//!
//! Section II-A of the paper: the dependency graph `G′ = (V, E′)` has an
//! edge `(i, j)` when the measurement basis of `j` depends on the outcome
//! of `i`, classified as X- or Z-dependencies. *Signal shifting*
//! (Broadbent–Kashefi) propagates Z-dependencies to the end of the
//! computation where they become classical output relabelings, removing
//! them from the real-time constraints — which is why only X-dependencies
//! enter the required-photon-lifetime calculation (Algorithm 1).

use std::collections::BTreeSet;

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
/// assert_eq!(deps.real_time().edge_count(), deps.x_deps().edge_count());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyGraph {
    x: DiGraph,
    z: DiGraph,
}

impl DependencyGraph {
    /// Wraps pre-computed X- and Z-dependency DAGs.
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

    /// X-dependencies: `u → v` when `v`'s basis flips sign with `s_u`.
    #[must_use]
    pub fn x_deps(&self) -> &DiGraph {
        &self.x
    }

    /// Z-dependencies: `u → v` when `v`'s basis shifts by `s_u · π`.
    #[must_use]
    pub fn z_deps(&self) -> &DiGraph {
        &self.z
    }

    /// The real-time dependency DAG after signal shifting: X-dependencies
    /// only. This is the `G` consumed by Algorithm 1.
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

    /// Performs full signal shifting and returns, per node, the set of
    /// outcomes its *shifted* measurement angle depends on in real time.
    ///
    /// Signal shifting rewrites each measurement `[M^α_u]^s_t` as
    /// `S^t_u [M^α_u]^s` and commutes the shift operator to the end; any
    /// later signal referencing `s_u` picks up `t_u` (sets combine by
    /// symmetric difference, since signals are GF(2) sums). The returned
    /// sets are the exact real-time dependency sets; the X-only DAG of
    /// [`DependencyGraph::real_time`] is the paper-level approximation of
    /// the same structure.
    ///
    /// `order` must be a valid measurement order (e.g.
    /// [`Pattern::measurement_order`](crate::Pattern::measurement_order)).
    ///
    /// # Panics
    ///
    /// Panics if `order` references out-of-range nodes.
    #[must_use]
    pub fn shifted_dependency_sets(&self, order: &[NodeId]) -> Vec<BTreeSet<NodeId>> {
        let n = self.x.node_count();
        // s_sets[v]: outcomes the sign of v's angle depends on.
        // t_sets[v]: outcomes the π-offset of v's angle depends on.
        let mut s_sets: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
        let mut t_sets: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); n];
        for v in 0..n {
            let id = NodeId::new(v);
            s_sets[v].extend(self.x.predecessors(id).iter().copied());
            t_sets[v].extend(self.z.predecessors(id).iter().copied());
        }
        fn xor_in(dst: &mut BTreeSet<NodeId>, src: &BTreeSet<NodeId>) {
            for &e in src {
                if !dst.remove(&e) {
                    dst.insert(e);
                }
            }
        }
        // Process in measurement order: shifting u's t-signal replaces
        // s_u by s_u ⊕ t_u in every later signal expression.
        for &u in order {
            assert!(u.index() < n, "order references unknown node {u}");
            let t_u = t_sets[u.index()].clone();
            if t_u.is_empty() {
                continue;
            }
            for v in 0..n {
                if v == u.index() {
                    continue;
                }
                if s_sets[v].contains(&u) {
                    xor_in(&mut s_sets[v], &t_u);
                }
                if t_sets[v].contains(&u) {
                    xor_in(&mut t_sets[v], &t_u);
                }
            }
        }
        // After shifting, t-sets act only as classical output
        // relabelings; the real-time sets are the s-sets.
        s_sets
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

    #[test]
    fn shifting_without_z_deps_is_identity() {
        // Pure X chain 0 → 1 → 2.
        let deps = DependencyGraph::new(di(3, &[(0, 1), (1, 2)]), di(3, &[]));
        let order: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let sets = deps.shifted_dependency_sets(&order);
        assert!(sets[0].is_empty());
        assert_eq!(sets[1], BTreeSet::from([NodeId::new(0)]));
        assert_eq!(sets[2], BTreeSet::from([NodeId::new(1)]));
    }

    #[test]
    fn shifting_folds_t_into_downstream_s() {
        // Node 1 has t = {0}; node 2 has s = {1}. After shifting node 1,
        // node 2's s becomes {1} Δ {0} = {0, 1}.
        let deps = DependencyGraph::new(di(3, &[(1, 2)]), di(3, &[(0, 1)]));
        let order: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let sets = deps.shifted_dependency_sets(&order);
        assert_eq!(sets[2], BTreeSet::from([NodeId::new(0), NodeId::new(1)]));
    }

    #[test]
    fn shifting_cancels_double_contributions() {
        // Node 2: s = {1}, t = {}. Node 1: t = {0}. Node 2 also s ∋ 0
        // directly — XOR cancels: s(2) = {0,1} Δ nothing... construct:
        // x: 0→2, 1→2 ; z: 0→1. Shifting 1 replaces s_1 by s_1⊕t_1 in
        // node 2: s(2) = {0,1} Δ {0} = {1}.
        let deps = DependencyGraph::new(di(3, &[(0, 2), (1, 2)]), di(3, &[(0, 1)]));
        let order: Vec<NodeId> = (0..3).map(NodeId::new).collect();
        let sets = deps.shifted_dependency_sets(&order);
        assert_eq!(sets[2], BTreeSet::from([NodeId::new(1)]));
    }
}
