//! Newman modularity.

use mbqc_graph::{CsrGraph, Graph};

use crate::Partition;

/// Newman modularity `Q` of a partition (edge-weight aware):
///
/// `Q = Σ_c [ e_c / m  −  (d_c / 2m)² ]`
///
/// where `m` is the total edge weight, `e_c` the intra-community edge
/// weight of community `c`, and `d_c` the total weighted degree of `c`.
/// `Q ∈ [−1/2, 1)`; higher means denser communities relative to a random
/// graph with the same degrees. The paper uses `Q` to quantify the
/// "preserved local structure" objective of its partitioner.
///
/// Returns 0 for graphs without edges.
///
/// # Panics
///
/// Panics if the partition size disagrees with the graph.
///
/// # Examples
///
/// ```
/// use mbqc_graph::generate;
/// use mbqc_partition::{modularity::modularity, Partition};
///
/// // Two triangles joined by one edge, split at the bridge.
/// let mut g = generate::complete_graph(3);
/// let n3 = g.add_node();
/// let n4 = g.add_node();
/// let n5 = g.add_node();
/// g.add_edge(n3, n4);
/// g.add_edge(n4, n5);
/// g.add_edge(n3, n5);
/// g.add_edge(mbqc_graph::NodeId::new(0), n3);
/// let p = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
/// assert!(modularity(&g, &p) > 0.35);
/// ```
#[must_use]
pub fn modularity(g: &Graph, p: &Partition) -> f64 {
    assert_eq!(g.node_count(), p.len(), "graph size mismatch");
    let m = g.total_edge_weight() as f64;
    if m == 0.0 {
        return 0.0;
    }
    let k = p.k();
    let mut intra = vec![0.0f64; k];
    let mut degree = vec![0.0f64; k];
    for (a, b, w) in g.edges() {
        let (pa, pb) = (p.part_of(a), p.part_of(b));
        if pa == pb {
            intra[pa] += w as f64;
        }
    }
    for n in g.nodes() {
        degree[p.part_of(n)] += g.weighted_degree(n) as f64;
    }
    (0..k)
        .map(|c| intra[c] / m - (degree[c] / (2.0 * m)).powi(2))
        .sum()
}

/// The cut weight ([`Partition::cut_weight_csr`]) and the modularity
/// ([`modularity`], computed from the frozen CSR view) of a partition,
/// from one linear pass over the CSR arrays: the half-edges that stay
/// inside a part feed the modularity, the others the cut.
///
/// # Panics
///
/// Panics if the partition size disagrees with the graph.
#[must_use]
pub fn cut_and_modularity_csr(g: &CsrGraph, p: &Partition) -> (i64, f64) {
    assert_eq!(g.node_count(), p.len(), "graph size mismatch");
    let k = p.k();
    let mut cut2 = 0i64; // counts each cut edge twice
    let mut intra2 = vec![0.0f64; k]; // counts each intra edge twice
    let mut degree = vec![0.0f64; k];
    for u in g.nodes() {
        let pu = p.part_of(u);
        let weights = g.neighbor_weights(u);
        let mut wd = 0i64;
        for (i, v) in g.neighbors(u).iter().enumerate() {
            wd += weights[i];
            if p.part_of(*v) == pu {
                intra2[pu] += weights[i] as f64;
            } else {
                cut2 += weights[i];
            }
        }
        degree[pu] += wd as f64;
    }
    let m = g.total_edge_weight() as f64;
    if m == 0.0 {
        return (cut2 / 2, 0.0);
    }
    let q = (0..k)
        .map(|c| intra2[c] / (2.0 * m) - (degree[c] / (2.0 * m)).powi(2))
        .sum();
    (cut2 / 2, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::generate;

    #[test]
    fn single_part_modularity_is_zero() {
        // All intra: Q = m/m − (2m/2m)² = 0.
        let g = generate::complete_graph(5);
        let p = Partition::trivial(5);
        assert!(modularity(&g, &p).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = Graph::with_nodes(4);
        let p = Partition::new(vec![0, 1, 0, 1], 2);
        assert_eq!(modularity(&g, &p), 0.0);
    }

    #[test]
    fn disconnected_cliques_perfectly_split() {
        // Two disjoint triangles, each its own community:
        // Q = 2·(3/6 − (6/12)²) = 2·(0.5 − 0.25) = 0.5.
        let mut g = generate::complete_graph(3);
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, c);
        let p = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
        assert!((modularity(&g, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bad_split_scores_worse() {
        let g = generate::complete_graph(6);
        let aligned = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
        let q = modularity(&g, &aligned);
        // Splitting a clique can never score well.
        assert!(q < 0.0);
    }

    #[test]
    fn modularity_in_valid_range() {
        let g = generate::grid_graph(6, 6);
        for k in 1..5 {
            let p = Partition::new((0..36).map(|i| i % k).collect(), k);
            let q = modularity(&g, &p);
            assert!((-0.5..1.0).contains(&q), "k={k}: Q={q}");
        }
    }

    #[test]
    fn csr_modularity_matches_graph_modularity() {
        let mut g = generate::grid_graph(6, 5);
        g.add_edge_weighted(mbqc_graph::NodeId::new(0), mbqc_graph::NodeId::new(29), 3);
        let csr = CsrGraph::from_graph(&g);
        for k in 1..5 {
            let p = Partition::new((0..30).map(|i| i % k).collect(), k);
            let a = modularity(&g, &p);
            let (cut, b) = cut_and_modularity_csr(&csr, &p);
            assert!((a - b).abs() < 1e-12, "k={k}: {a} vs {b}");
            assert_eq!(cut, p.cut_weight_csr(&csr), "k={k}");
        }
    }

    #[test]
    fn weighted_edges_count() {
        // Heavy intra edge dominates the split quality.
        let mut g = Graph::with_nodes(4);
        let n: Vec<_> = g.nodes().collect();
        g.add_edge_weighted(n[0], n[1], 10);
        g.add_edge_weighted(n[2], n[3], 10);
        g.add_edge(n[1], n[2]);
        let good = Partition::new(vec![0, 0, 1, 1], 2);
        let bad = Partition::new(vec![0, 1, 0, 1], 2);
        assert!(modularity(&g, &good) > modularity(&g, &bad));
    }
}
