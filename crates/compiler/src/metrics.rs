//! Algorithm 1: required photon lifetime.
//!
//! The paper's key metric (Section III): the maximum number of clock
//! cycles any photon must survive in a delay line. Three photon roles
//! contribute:
//!
//! * **fusees** wait for their fusion partner:
//!   `τ = |LayerIndex(u) − LayerIndex(v)|` per fusion pair;
//! * **measurees** wait for the classical signals determining their
//!   basis: a topological sweep of the real-time dependency DAG
//!   computes each photon's earliest measurable time `MTime`;
//! * **removees** (Z-measured) contribute nothing — signal shifting
//!   pushes their dependencies to classical post-processing.

use mbqc_graph::{DiGraph, NodeId};

/// Breakdown of the required photon lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifetimeReport {
    /// Longest fusee wait (Part 1 of Algorithm 1).
    pub fusee: usize,
    /// Longest measuree wait (Part 2 of Algorithm 1).
    pub measuree: usize,
}

impl LifetimeReport {
    /// The required photon lifetime: `max(τ_fusee, τ_measuree)`.
    #[must_use]
    pub fn photon_lifetime(&self) -> usize {
        self.fusee.max(self.measuree)
    }
}

/// Algorithm 1 of the paper.
///
/// * `times[u]` — `LayerIndex(u)`: the execution-layer index (single
///   QPU) or scheduled start time (distributed) of photon `u`'s layer.
/// * `fusee_pairs` — `(time_u, time_v)` per realized fusion.
/// * `deps` — the real-time dependency DAG `G` (X-dependencies after
///   signal shifting).
///
/// # Panics
///
/// Panics if `deps` has a different node count than `times`, or contains
/// a cycle.
///
/// # Examples
///
/// ```
/// use mbqc_compiler::required_photon_lifetime;
/// use mbqc_graph::{DiGraph, NodeId};
///
/// // Two photons fused across 3 layers; a dependency chain 0 → 1.
/// let deps = DiGraph::from_edges(2, &[(NodeId::new(0), NodeId::new(1))]);
/// let r = required_photon_lifetime(&[0, 3], &[(0, 3)], &deps);
/// assert_eq!(r.fusee, 3);
/// assert_eq!(r.photon_lifetime(), 3);
/// ```
#[must_use]
pub fn required_photon_lifetime(
    times: &[usize],
    fusee_pairs: &[(usize, usize)],
    deps: &DiGraph,
) -> LifetimeReport {
    let order = deps.topological_sort().expect("dependency graph is cyclic");
    required_photon_lifetime_in_order(times, fusee_pairs, deps, &order)
}

/// [`required_photon_lifetime`] over a given topological order of
/// `deps`.
///
/// `MTime` is a longest-path recurrence, so every topological order of
/// `deps` yields the same report.
///
/// # Panics
///
/// Panics if `deps` or `order` has a different node count than `times`.
/// Debug builds also panic if `order` visits a node before one of its
/// parents.
fn required_photon_lifetime_in_order(
    times: &[usize],
    fusee_pairs: &[(usize, usize)],
    deps: &DiGraph,
    order: &[NodeId],
) -> LifetimeReport {
    assert_eq!(
        deps.node_count(),
        times.len(),
        "dependency graph and time table disagree"
    );
    assert_eq!(order.len(), times.len(), "order and time table disagree");
    // Part 1: fusee lifetime.
    let fusee = fusee_pairs
        .iter()
        .map(|&(a, b)| a.abs_diff(b))
        .max()
        .unwrap_or(0);

    // Part 2: measuree lifetime. MTime[u] = LayerIndex(u) + 1 (photon
    // reaches the measurement device one cycle after generation), pushed
    // later by parents' MTime + 1 (one cycle to compute the basis).
    let mut mtime = vec![0usize; times.len()];
    let mut measuree = 0usize;
    for &u in order {
        let mut m = times[u.index()] + 1;
        for &p in deps.predecessors(u) {
            // MTime is at least 1 once computed.
            debug_assert!(mtime[p.index()] > 0, "order is not topological");
            m = m.max(mtime[p.index()] + 1);
        }
        mtime[u.index()] = m;
        measuree = measuree.max(m - times[u.index()]);
    }
    LifetimeReport { fusee, measuree }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_deps(n: usize) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> = (1..n)
            .map(|i| (NodeId::new(i - 1), NodeId::new(i)))
            .collect();
        DiGraph::from_edges(n, &edges)
    }

    #[test]
    fn no_photons_no_lifetime() {
        let r = required_photon_lifetime(&[], &[], &DiGraph::new());
        assert_eq!(r.photon_lifetime(), 0);
    }

    #[test]
    fn fusee_is_max_span() {
        let d = DiGraph::from_edges(4, &[]);
        let r = required_photon_lifetime(&[0, 1, 5, 9], &[(0, 1), (5, 9), (1, 5)], &d);
        assert_eq!(r.fusee, 4);
    }

    #[test]
    fn measuree_trivial_when_no_deps() {
        // Without parents every photon is measurable one cycle after
        // generation: τ_measuree = 1.
        let d = DiGraph::from_edges(3, &[]);
        let r = required_photon_lifetime(&[0, 2, 7], &[], &d);
        assert_eq!(r.measuree, 1);
    }

    #[test]
    fn measuree_chain_in_one_layer() {
        // All photons in layer 0 with a 4-chain of dependencies: the
        // last photon waits for the whole feed-forward cascade.
        let d = chain_deps(4);
        let r = required_photon_lifetime(&[0; 4], &[], &d);
        // MTime: 1, 2, 3, 4 → τ = 4 for the last photon.
        assert_eq!(r.measuree, 4);
    }

    #[test]
    fn measuree_absorbed_by_later_layers() {
        // Dependencies pointing forward in time cost nothing extra when
        // layers already serialize them.
        let d = chain_deps(4);
        let r = required_photon_lifetime(&[0, 1, 2, 3], &[], &d);
        assert_eq!(r.measuree, 1);
    }

    #[test]
    fn backward_dependency_is_expensive() {
        // Photon 1 generated at layer 0, but its basis depends on photon
        // 0 generated at layer 9: it waits ~10 cycles.
        let d = chain_deps(2);
        let r = required_photon_lifetime(&[9, 0], &[], &d);
        assert_eq!(r.measuree, 11); // MTime[1] = max(1, 10+1) = 11
    }

    #[test]
    fn photon_lifetime_is_max_of_parts() {
        let d = chain_deps(2);
        let r = required_photon_lifetime(&[0, 8], &[(0, 8)], &d);
        assert_eq!(r.fusee, 8);
        assert!(r.photon_lifetime() >= 8);
    }

    #[test]
    fn shift_invariance() {
        // Shifting all times by a constant changes nothing.
        let d = chain_deps(3);
        let a = required_photon_lifetime(&[0, 4, 5], &[(0, 4), (4, 5)], &d);
        let b = required_photon_lifetime(&[100, 104, 105], &[(100, 104), (104, 105)], &d);
        assert_eq!(a, b);
    }

    /// Kahn's algorithm popping the largest ready index first: a valid
    /// topological order that differs from `DiGraph::topological_sort`'s
    /// smallest-first one on almost every DAG with branching.
    fn max_index_kahn_order(d: &DiGraph) -> Vec<NodeId> {
        let mut in_deg: Vec<usize> = d.nodes().map(|u| d.predecessors(u).len()).collect();
        let mut ready: std::collections::BinaryHeap<usize> =
            (0..d.node_count()).filter(|&i| in_deg[i] == 0).collect();
        let mut order = Vec::with_capacity(d.node_count());
        while let Some(i) = ready.pop() {
            order.push(NodeId::new(i));
            for &s in d.successors(NodeId::new(i)) {
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    ready.push(s.index());
                }
            }
        }
        assert_eq!(order.len(), d.node_count(), "test DAG is acyclic");
        order
    }

    /// MTime is a longest-path recurrence, so Algorithm 1 must not depend
    /// on which topological order it sweeps — the invariant that lets
    /// BDIR sort the DAG once and sweep that order every iteration.
    #[test]
    fn lifetime_is_independent_of_topological_order() {
        let mut rng = mbqc_util::Rng::seed_from_u64(7);
        let mut distinct_orders = 0;
        for _ in 0..200 {
            let n = rng.range_between(1, 40);
            // Edges follow a random rank permutation, so node indices do
            // not already form a topological order.
            let mut rank: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut rank);
            let mut edges = Vec::new();
            for i in 0..n {
                for j in i + 1..n {
                    if rng.bernoulli(0.15) {
                        edges.push((NodeId::new(rank[i]), NodeId::new(rank[j])));
                    }
                }
            }
            let d = DiGraph::from_edges(n, &edges);
            let times: Vec<usize> = (0..n).map(|_| rng.range(12)).collect();
            let pairs: Vec<(usize, usize)> = (0..rng.range(n + 1))
                .map(|_| (times[rng.range(n)], times[rng.range(n)]))
                .collect();
            let expected = required_photon_lifetime(&times, &pairs, &d);
            let min_order = d.topological_sort().unwrap();
            let max_order = max_index_kahn_order(&d);
            distinct_orders += usize::from(min_order != max_order);
            assert_eq!(
                required_photon_lifetime_in_order(&times, &pairs, &d, &min_order),
                expected
            );
            assert_eq!(
                required_photon_lifetime_in_order(&times, &pairs, &d, &max_order),
                expected
            );
        }
        assert!(
            distinct_orders > 100,
            "only {distinct_orders} DAGs had two orders"
        );
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn cyclic_deps_panic() {
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let d = DiGraph::from_edges(2, &[(a, b), (b, a)]);
        let _ = required_photon_lifetime(&[0, 0], &[], &d);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn size_mismatch_panics() {
        let d = DiGraph::from_edges(3, &[]);
        let _ = required_photon_lifetime(&[0, 1], &[], &d);
    }
}
