//! Fixed-input bit-identity pins of the library's CSR paths against the
//! adjacency-list oracle in `common`: the coarsening hierarchy level by
//! level, greedy and FM refinement, and the whole multilevel driver.

mod common;

use mbqc_graph::{generate, CsrGraph, Graph};
use mbqc_partition::coarsen::{coarsen_to_csr_with, CoarsenWorkspace};
use mbqc_partition::refine::{fm_refine_csr, refine_csr_with, RefineWorkspace};
use mbqc_partition::{KwayConfig, Partition};
use mbqc_util::Rng;

/// Coarsens `g` both ways from the same seed and asserts identical
/// hierarchies: same fine → coarse maps and the same coarse graphs,
/// neighbor order included. Returns the number of levels.
fn assert_same_hierarchy(g: &Graph, target: usize, seed: u64) -> usize {
    let csr = CsrGraph::from_graph(g);
    let mut rng_a = Rng::seed_from_u64(seed);
    let mut rng_b = Rng::seed_from_u64(seed);
    let adj_levels = common::coarsen_to(g, target, &mut rng_a);
    let csr_levels = coarsen_to_csr_with(&csr, target, &mut rng_b, &mut CoarsenWorkspace::new());
    assert_eq!(adj_levels.len(), csr_levels.len());
    for (a, b) in adj_levels.iter().zip(&csr_levels) {
        assert_eq!(a.map, b.map);
        assert_eq!(CsrGraph::from_graph(&a.graph), b.graph);
    }
    adj_levels.len()
}

#[test]
fn csr_hierarchy_identical_to_graph_hierarchy() {
    assert_same_hierarchy(&generate::grid_graph(9, 9), 12, 8);
}

#[test]
fn wide_key_fallback_identical_to_graph_hierarchy() {
    // Edge weights ≥ 4096 push the fused counting path onto the
    // comparison-sort fallback; it must still mirror the oracle exactly.
    let mut g = generate::grid_graph(8, 8);
    let n: Vec<_> = g.nodes().collect();
    g.add_edge_weighted(n[0], n[9], 10_000);
    g.add_edge_weighted(n[20], n[28], 5_000);
    assert!(assert_same_hierarchy(&g, 10, 11) > 0);
}

#[test]
fn reference_matches_csr_on_grid() {
    let g = generate::grid_graph(10, 10);
    for k in [2, 4] {
        let cfg = KwayConfig::new(k).with_seed(11);
        let a = common::multilevel_kway(&g, &cfg);
        let b = mbqc_partition::multilevel_kway(&g, &cfg);
        assert_eq!(a, b, "k={k}");
    }
}

#[test]
fn reference_refine_matches_csr_refine() {
    let g = generate::grid_graph(6, 6);
    let assignment: Vec<usize> = (0..36).map(|i| (i * 7) % 3).collect();
    let mut p_ref = Partition::new(assignment.clone(), 3);
    let mut p_csr = Partition::new(assignment, 3);
    let mut rng_ref = Rng::seed_from_u64(5);
    let mut rng_csr = Rng::seed_from_u64(5);
    let g_ref = common::refine(&g, &mut p_ref, 14, 6, &mut rng_ref);
    let g_csr = refine_csr_with(
        &CsrGraph::from_graph(&g),
        &mut p_csr,
        14,
        6,
        &mut rng_csr,
        &mut RefineWorkspace::new(),
    );
    assert_eq!(g_ref, g_csr);
    assert_eq!(p_ref, p_csr);
    // Both consumed the same amount of randomness.
    assert_eq!(rng_ref.next_u64(), rng_csr.next_u64());
}

#[test]
fn fm_refine_csr_matches_reference() {
    let g = generate::grid_graph(6, 6);
    let assignment: Vec<usize> = (0..36).map(|i| (i * 5) % 3).collect();
    let mut p_ref = Partition::new(assignment.clone(), 3);
    let mut p_csr = Partition::new(assignment, 3);
    let g_ref = common::fm_refine(&g, &mut p_ref, 14, 3);
    let g_csr = fm_refine_csr(&CsrGraph::from_graph(&g), &mut p_csr, 14, 3);
    assert_eq!(g_ref, g_csr);
    assert_eq!(p_ref, p_csr);
}

/// Two triangles of edge weight 2³⁰ − 1 joined by a unit bridge, so the
/// bridge ends have weighted degree exactly `i32::MAX`, the largest FM's
/// 64-bit move keys hold; one node of each triangle starts on the wrong
/// side.
fn heaviest_fm_instance() -> (Graph, Partition) {
    let heavy = (1i64 << 30) - 1;
    let mut g = Graph::with_nodes(6);
    let n: Vec<_> = g.nodes().collect();
    for (a, b) in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
        g.add_edge_weighted(n[a], n[b], heavy);
    }
    g.add_edge_weighted(n[2], n[3], 1);
    assert_eq!(g.weighted_degree(n[2]), i64::from(i32::MAX));
    (g, Partition::new(vec![0, 0, 1, 1, 1, 0], 2))
}

#[test]
fn fm_refine_exact_at_the_gain_bound() {
    let (g, start) = heaviest_fm_instance();
    let (mut p_ref, mut p_csr) = (start.clone(), start);
    let g_ref = common::fm_refine(&g, &mut p_ref, 4, 3);
    let g_csr = fm_refine_csr(&CsrGraph::from_graph(&g), &mut p_csr, 4, 3);
    assert_eq!(g_ref, g_csr);
    assert_eq!(p_ref, p_csr);
    assert_eq!(p_csr.cut_weight(&g), 1, "only the bridge stays cut");
}

#[test]
#[should_panic(expected = "weighted degree to be at most 2147483647")]
fn fm_refine_rejects_gains_past_the_bound() {
    let (mut g, start) = heaviest_fm_instance();
    let n: Vec<_> = g.nodes().collect();
    g.add_edge_weighted(n[2], n[5], 1);
    let _ = fm_refine_csr(&CsrGraph::from_graph(&g), &mut start.clone(), 4, 3);
}

#[test]
#[should_panic(expected = "weighted degree to be at most 2147483647")]
fn multilevel_kway_rejects_gains_past_the_bound() {
    let mut g = generate::grid_graph(8, 8);
    let n: Vec<_> = g.nodes().collect();
    g.add_edge_weighted(n[0], n[9], 1 << 31);
    let _ = mbqc_partition::multilevel_kway(&g, &KwayConfig::new(2));
}
