//! Property-based tests for the graph substrate.

mod common;

use common::erdos_renyi_gnp;
use mbqc_graph::{algo, DiGraph, Graph, NodeId};
use mbqc_util::Rng;
use proptest::prelude::*;

/// Builds a random graph from a seed and an edge density in [0, 100].
fn random_graph(n: usize, density_pct: u8, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    erdos_renyi_gnp(n, f64::from(density_pct) / 100.0, &mut rng)
}

/// Min-index-first Kahn on a binary heap: the reference order
/// `DiGraph::topological_sort` must reproduce exactly.
fn heap_kahn(d: &DiGraph) -> Option<Vec<NodeId>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut in_deg: Vec<usize> = d.nodes().map(|u| d.in_degree(u)).collect();
    let mut ready: BinaryHeap<Reverse<usize>> = (0..d.node_count())
        .filter(|&i| in_deg[i] == 0)
        .map(Reverse)
        .collect();
    let mut order = Vec::new();
    while let Some(Reverse(i)) = ready.pop() {
        order.push(NodeId::new(i));
        for &s in d.successors(NodeId::new(i)) {
            in_deg[s.index()] -= 1;
            if in_deg[s.index()] == 0 {
                ready.push(Reverse(s.index()));
            }
        }
    }
    (order.len() == d.node_count()).then_some(order)
}

proptest! {
    #[test]
    fn handshake_lemma(n in 1usize..40, d in 0u8..=100, seed in 0u64..1000) {
        let g = random_graph(n, d, seed);
        let degree_sum: usize = g.nodes().map(|u| g.degree(u)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn adjacency_is_symmetric(n in 1usize..30, d in 0u8..=100, seed in 0u64..1000) {
        let g = random_graph(n, d, seed);
        for u in g.nodes() {
            for v in g.neighbors(u) {
                prop_assert!(g.has_edge(v, u));
                prop_assert_eq!(g.edge_weight(u, v), g.edge_weight(v, u));
            }
        }
    }

    #[test]
    fn components_partition_nodes(n in 1usize..40, d in 0u8..=30, seed in 0u64..1000) {
        let g = random_graph(n, d, seed);
        let (comp, count) = algo::connected_components(&g);
        prop_assert_eq!(comp.len(), n);
        prop_assert!(comp.iter().all(|&c| c < count));
        // Every edge stays within one component.
        for (a, b, _) in g.edges() {
            prop_assert_eq!(comp[a.index()], comp[b.index()]);
        }
        // Every component id is used.
        for c in 0..count {
            prop_assert!(comp.contains(&c));
        }
    }

    #[test]
    fn bfs_distances_respect_triangle(n in 2usize..25, d in 20u8..=100, seed in 0u64..500) {
        let g = random_graph(n, d, seed);
        let start = NodeId::new(0);
        let dist = algo::bfs_distances(&g, start);
        // Edge relaxation: |d(u) - d(v)| <= 1 for every edge in the
        // start's component.
        for (a, b, _) in g.edges() {
            if let (Some(da), Some(db)) = (dist[a.index()], dist[b.index()]) {
                prop_assert!(da.abs_diff(db) <= 1);
            }
        }
    }

    #[test]
    fn induced_subgraph_edge_subset(n in 2usize..25, d in 0u8..=100, seed in 0u64..300, keep_pct in 0u8..=100) {
        let g = random_graph(n, d, seed);
        let keep: Vec<NodeId> = g
            .nodes()
            .filter(|u| (u.index() * 37 + seed as usize) % 100 < keep_pct as usize)
            .collect();
        let (sub, map) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.node_count(), keep.len());
        // Every subgraph edge maps back to an original edge of equal weight.
        let back: Vec<NodeId> = keep.clone();
        for (a, b, w) in sub.edges() {
            let oa = back[a.index()];
            let ob = back[b.index()];
            prop_assert_eq!(g.edge_weight(oa, ob), Some(w));
        }
        // Every original edge with both endpoints kept appears.
        for (a, b, w) in g.edges() {
            if let (Some(sa), Some(sb)) = (map[a.index()], map[b.index()]) {
                prop_assert_eq!(sub.edge_weight(sa, sb), Some(w));
            }
        }
    }

    #[test]
    fn random_dag_topo_sort_valid(n in 1usize..40, extra in 0usize..80, seed in 0u64..500) {
        // Random DAG: edges only from lower to higher index.
        let mut rng = Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for _ in 0..extra {
            let i = rng.range(n);
            let j = rng.range(n);
            if i < j {
                edges.push((NodeId::new(i), NodeId::new(j)));
            }
        }
        let d = DiGraph::from_edges(n, &edges);
        // Frozen CSR keeps insertion order through the codec.
        prop_assert_eq!(&DiGraph::from_bytes(&d.to_bytes()).unwrap(), &d);
        for &(i, j) in &edges {
            prop_assert!(d.has_edge(i, j));
        }
        let order = d.topological_sort().expect("forward-edge DAG is acyclic");
        let mut pos = vec![0usize; n];
        for (i, u) in order.iter().enumerate() {
            pos[u.index()] = i;
        }
        for (u, v) in d.edges() {
            prop_assert!(pos[u.index()] < pos[v.index()]);
        }
        // Longest path length is consistent with depths.
        let depths = d.depths();
        prop_assert_eq!(d.longest_path_len(), depths.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn topo_sort_matches_min_index_heap_kahn(
        n in 1usize..300,
        extra in 0usize..600,
        back in 0usize..3,
        seed in 0u64..500,
    ) {
        // Edges follow a random rank permutation, so node indices are
        // not a topological order; `back` extra edges against the ranks
        // usually close a cycle.
        let mut rng = Rng::seed_from_u64(seed);
        let mut rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut rank);
        let mut edges = Vec::new();
        for k in 0..extra + back {
            let (i, j) = (rng.range(n), rng.range(n));
            if i < j {
                let (a, b) = if k < extra { (i, j) } else { (j, i) };
                edges.push((NodeId::new(rank[a]), NodeId::new(rank[b])));
            }
        }
        let d = DiGraph::from_edges(n, &edges);
        prop_assert_eq!(d.topological_sort(), heap_kahn(&d));
    }
}

#[test]
fn gnp_probability_extremes() {
    let mut rng = Rng::seed_from_u64(3);
    assert_eq!(erdos_renyi_gnp(8, 0.0, &mut rng).edge_count(), 0);
    assert_eq!(erdos_renyi_gnp(8, 1.0, &mut rng).edge_count(), 28);
}

#[test]
fn gnp_expected_density() {
    let mut rng = Rng::seed_from_u64(4);
    let g = erdos_renyi_gnp(60, 0.5, &mut rng);
    let possible = 60 * 59 / 2;
    let ratio = g.edge_count() as f64 / possible as f64;
    assert!((ratio - 0.5).abs() < 0.05, "ratio {ratio}");
}
