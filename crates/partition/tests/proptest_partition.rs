//! Property-based tests for the partitioning stack, including the
//! bit-identity pins against the pre-optimization oracle in `common`.

mod common;

use mbqc_graph::{generate, CsrGraph, Graph, NodeId};
use mbqc_partition::adaptive::{adaptive_partition, adaptive_partition_csr, AdaptiveConfig};
use mbqc_partition::kway::{multilevel_kway, multilevel_kway_csr, KwayConfig};
use mbqc_partition::louvain::louvain;
use mbqc_partition::modularity::{modularity, modularity_csr};
use mbqc_partition::refine::{fm_refine_csr, rebalance_csr};
use mbqc_partition::Partition;
use mbqc_util::Rng;
use proptest::prelude::*;

fn random_connected_graph(n: usize, extra_edges: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    // Spanning path + random extra edges keeps it connected.
    let mut g = generate::path_graph(n.max(2));
    for _ in 0..extra_edges {
        let a = rng.range(g.node_count());
        let b = rng.range(g.node_count());
        if a != b && !g.has_edge(NodeId::new(a), NodeId::new(b)) {
            g.add_edge(NodeId::new(a), NodeId::new(b));
        }
    }
    g
}

/// A random connected graph with node weights 1–4 and some heavier
/// edges, plus a starting partition into `k` parts: everything in part
/// 0 when `spread` is 0, otherwise each node lands in part 0 with
/// probability about `1 / (spread + 1)` and in a uniform part
/// otherwise, so part 0 usually starts overloaded.
fn weighted_instance(
    n: usize,
    extra: usize,
    k: usize,
    spread: usize,
    seed: u64,
) -> (Graph, Partition) {
    let mut g = random_connected_graph(n, extra, seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x5eed);
    for u in 0..g.node_count() {
        g.set_node_weight(NodeId::new(u), 1 + rng.range(4) as i64);
    }
    let heavy: Vec<(NodeId, NodeId)> = g.edges().map(|(a, b, _)| (a, b)).collect();
    for (a, b) in heavy {
        if rng.bernoulli(0.2) {
            g.add_edge_weighted(a, b, 1 + rng.range(3) as i64);
        }
    }
    let assignment = (0..g.node_count())
        .map(|_| {
            if spread == 0 || rng.range(spread + 1) == 0 {
                0
            } else {
                rng.range(k)
            }
        })
        .collect();
    (g, Partition::new(assignment, k))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kway_covers_all_nodes(n in 8usize..80, extra in 0usize..60, k in 2usize..6, seed in 0u64..200) {
        let g = random_connected_graph(n, extra, seed);
        let p = multilevel_kway(&g, &KwayConfig::new(k).with_seed(seed));
        prop_assert_eq!(p.len(), g.node_count());
        prop_assert!(p.assignment().iter().all(|&c| c < k));
    }

    #[test]
    fn kway_balance_bound_holds(n in 12usize..80, extra in 0usize..40, k in 2usize..5, seed in 0u64..200) {
        let g = random_connected_graph(n, extra, seed);
        let alpha = 1.1;
        let p = multilevel_kway(&g, &KwayConfig::new(k).with_alpha(alpha).with_seed(seed));
        // Bound: ceil(α · total / k) plus one-node granularity slack.
        let bound = (alpha * g.total_node_weight() as f64 / k as f64).ceil() as i64 + 1;
        for w in p.part_weights(&g) {
            prop_assert!(w <= bound, "part weight {} exceeds {}", w, bound);
        }
    }

    #[test]
    fn cut_plus_internal_equals_total(n in 8usize..60, extra in 0usize..50, k in 2usize..5, seed in 0u64..200) {
        let g = random_connected_graph(n, extra, seed);
        let p = multilevel_kway(&g, &KwayConfig::new(k).with_seed(seed));
        let cut = p.cut_weight(&g);
        let internal: i64 = g
            .edges()
            .filter(|(a, b, _)| p.part_of(*a) == p.part_of(*b))
            .map(|(_, _, w)| w)
            .sum();
        prop_assert_eq!(cut + internal, g.total_edge_weight());
    }

    #[test]
    fn modularity_bounds(n in 6usize..60, extra in 0usize..60, seed in 0u64..200) {
        let g = random_connected_graph(n, extra, seed);
        let mut rng = Rng::seed_from_u64(seed);
        let p = louvain(&g, &mut rng);
        let q = modularity(&g, &p);
        prop_assert!((-0.5..=1.0).contains(&q), "Q = {}", q);
    }

    #[test]
    fn louvain_no_worse_than_singletons(n in 6usize..50, extra in 0usize..40, seed in 0u64..200) {
        let g = random_connected_graph(n, extra, seed);
        let mut rng = Rng::seed_from_u64(seed);
        let p = louvain(&g, &mut rng);
        // Singleton partition has Q = −Σ(d_i/2m)² < 0; Louvain must be ≥.
        let singles = mbqc_partition::Partition::new((0..g.node_count()).collect(), g.node_count());
        prop_assert!(modularity(&g, &p) >= modularity(&g, &singles) - 1e-9);
    }

    #[test]
    fn parallel_restarts_independent_of_worker_count(
        n in 8usize..80,
        extra in 0usize..60,
        k in 2usize..6,
        restarts in 1usize..10,
        seed in 0u64..300,
    ) {
        // Same seed ⇒ bit-identical partition for every probe worker
        // count (the deterministic-parallelism guarantee).
        let g = random_connected_graph(n, extra, seed);
        let base = KwayConfig::new(k)
            .with_seed(seed)
            .with_initial_restarts(restarts);
        let one = multilevel_kway(&g, &base.with_probe_workers(1));
        let two = multilevel_kway(&g, &base.with_probe_workers(2));
        let eight = multilevel_kway(&g, &base.with_probe_workers(8));
        prop_assert_eq!(&one, &two);
        prop_assert_eq!(&one, &eight);
    }

    #[test]
    fn csr_partitioning_identical_to_seed_adjacency_path(
        n in 8usize..90,
        extra in 0usize..70,
        k in 2usize..6,
        seed in 0u64..500,
    ) {
        // The tentpole guarantee: the CSR + incremental-gain partitioner
        // is a pure representation change. Same graph, same config, same
        // seed ⇒ bit-identical partition (hence identical cuts) to the
        // pre-optimization adjacency-list implementation.
        let g = random_connected_graph(n, extra, seed);
        let cfg = KwayConfig::new(k).with_seed(seed);
        let optimized = multilevel_kway(&g, &cfg);
        let baseline = common::multilevel_kway(&g, &cfg);
        prop_assert_eq!(optimized.assignment(), baseline.assignment());
        prop_assert_eq!(optimized.cut_weight(&g), baseline.cut_weight(&g));
    }

    #[test]
    fn csr_entry_point_and_metrics_match(
        n in 8usize..60,
        extra in 0usize..40,
        k in 2usize..5,
        seed in 0u64..200,
    ) {
        let g = random_connected_graph(n, extra, seed);
        let csr = CsrGraph::from_graph(&g);
        let cfg = KwayConfig::new(k).with_seed(seed);
        let a = multilevel_kway(&g, &cfg);
        let b = multilevel_kway_csr(&csr, &cfg);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.cut_weight(&g), a.cut_weight_csr(&csr));
        prop_assert_eq!(a.part_weights(&g), a.part_weights_csr(&csr));
        let (qa, qb) = (modularity(&g, &a), modularity_csr(&csr, &a));
        prop_assert!((qa - qb).abs() < 1e-9, "Q {} vs {}", qa, qb);
    }

    #[test]
    fn weighted_graphs_also_identical(
        n in 8usize..50,
        extra in 0usize..40,
        k in 2usize..5,
        seed in 0u64..200,
    ) {
        // Node and edge weights exercise the balance bound and
        // heavy-edge-matching tie-breaks.
        let mut g = random_connected_graph(n, extra, seed);
        let mut rng = Rng::seed_from_u64(seed ^ 0xabcd);
        for u in 0..g.node_count() {
            g.set_node_weight(NodeId::new(u), 1 + rng.range(4) as i64);
        }
        let heavy: Vec<(NodeId, NodeId)> = g.edges().map(|(a, b, _)| (a, b)).collect();
        for (a, b) in heavy {
            if rng.bernoulli(0.3) {
                g.add_edge_weighted(a, b, 1 + rng.range(5) as i64);
            }
        }
        let cfg = KwayConfig::new(k).with_seed(seed);
        let optimized = multilevel_kway(&g, &cfg);
        let baseline = common::multilevel_kway(&g, &cfg);
        prop_assert_eq!(optimized, baseline);
    }

    #[test]
    fn rebalance_identical_to_seed_adjacency_path(
        n in 4usize..90,
        extra in 0usize..70,
        k in 2usize..=8,
        spread in 0usize..4,
        slack in 0i64..4,
        seed in 0u64..1000,
    ) {
        // Indexed rebalance ≡ the oracle's rescan: the same moves (so
        // the same partition), the same verdict, and the same RNG
        // consumption. Starting overloaded in part 0 makes targets fill
        // up mid-phase; a zero slack makes some instances infeasible.
        let (g, start) = weighted_instance(n, extra, k, spread, seed);
        let max_w = (g.total_node_weight() + k as i64 - 1) / k as i64 + slack;
        let (mut p_ref, mut p_csr) = (start.clone(), start);
        let mut rng_ref = Rng::seed_from_u64(seed);
        let mut rng_csr = Rng::seed_from_u64(seed);
        let ok_ref = common::rebalance(&g, &mut p_ref, max_w, &mut rng_ref);
        let ok_csr = rebalance_csr(&CsrGraph::from_graph(&g), &mut p_csr, max_w, &mut rng_csr);
        prop_assert_eq!(ok_ref, ok_csr);
        prop_assert_eq!(p_ref.assignment(), p_csr.assignment());
        prop_assert_eq!(rng_ref.next_u64(), rng_csr.next_u64());
    }

    #[test]
    fn fm_refine_identical_to_seed_adjacency_path(
        n in 4usize..90,
        extra in 0usize..70,
        k in 2usize..=8,
        spread in 0usize..4,
        slack in 0i64..6,
        rounds in 1usize..4,
        seed in 0u64..1000,
    ) {
        // Indexed FM ≡ the oracle's full scan: the same tentative moves
        // under the (gain, lowest index, lowest part) key, so the same
        // partition and the same reported gain. Node weights 1–4 under
        // a tight bound make moves stop and start fitting as parts
        // fill and drain.
        let (g, start) = weighted_instance(n, extra, k, spread, seed);
        let max_w = (g.total_node_weight() + k as i64 - 1) / k as i64 + slack;
        let (mut p_ref, mut p_csr) = (start.clone(), start);
        let gain_ref = common::fm_refine(&g, &mut p_ref, max_w, rounds);
        let gain_csr = fm_refine_csr(&CsrGraph::from_graph(&g), &mut p_csr, max_w, rounds);
        prop_assert_eq!(gain_ref, gain_csr);
        prop_assert_eq!(p_ref.assignment(), p_csr.assignment());
    }

    #[test]
    fn adaptive_shared_hierarchy_matches_fresh_kway(
        n in 8usize..80,
        extra in 0usize..60,
        k in 2usize..6,
        seed in 0u64..500,
    ) {
        // Algorithm 2 coarsens once and reuses the hierarchy for every
        // α it probes; each probe must still be exactly a fresh k-way
        // partition at that α. One probe worker runs the walk
        // sequentially, two run it speculatively, on any host.
        let (g, _) = weighted_instance(n, extra, k, 1, seed);
        let csr = CsrGraph::from_graph(&g);
        for workers in [1usize, 2] {
            let cfg = AdaptiveConfig::new(k).with_seed(seed).with_probe_workers(workers);
            let r = adaptive_partition_csr(&csr, &cfg);
            let fresh = |alpha: f64| {
                let kcfg = KwayConfig::new(k)
                    .with_alpha(alpha)
                    .with_seed(seed)
                    .with_probe_workers(workers);
                multilevel_kway_csr(&csr, &kcfg)
            };
            prop_assert_eq!(&r.partition, &fresh(r.alpha));
            for step in &r.history {
                prop_assert_eq!(step.cut, fresh(step.alpha).cut_weight_csr(&csr));
            }
        }
    }

    #[test]
    fn adaptive_history_monotone_alpha_until_break(n in 12usize..60, k in 2usize..5, seed in 0u64..100) {
        let g = random_connected_graph(n, n / 2, seed);
        let r = adaptive_partition(&g, &AdaptiveConfig::new(k).with_seed(seed));
        // α never exceeds α_max.
        for s in &r.history {
            prop_assert!(s.alpha <= 1.5 + 1e-9);
            prop_assert!(s.alpha >= 1.0);
        }
        // Best modularity equals max of history.
        let max_q = r.history.iter().map(|s| s.modularity).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((r.modularity - max_q).abs() < 1e-12);
    }
}

proptest! {
    // The matching pin runs many more cases than the partition-level
    // properties: it is the per-level decision procedure every
    // hierarchy test sits on, and single rounds are cheap.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_parallel_matching_bit_identical(
        n in 1usize..90,
        edges in 0usize..160,
        isolated in 0usize..8,
        wide in 0u64..2,
        seed in 0u64..10_000,
    ) {
        // The matching-pass pin: the public entry must make exactly the
        // decisions of the scalar reference — including isolated tail
        // nodes (never matched) and weights past the 4096 counting-sort
        // ceiling (the wide-key tie-break classes).
        use mbqc_partition::coarsen::heavy_edge_matching;
        use common::heavy_edge_matching_reference;
        let mut rng = Rng::seed_from_u64(seed);
        let total = n + isolated;
        let mut g = Graph::with_nodes(total);
        for _ in 0..edges {
            let a = rng.range(n);
            let b = rng.range(n);
            if a != b && !g.has_edge(NodeId::new(a), NodeId::new(b)) {
                let w = if wide == 1 && rng.bernoulli(0.3) {
                    4096 + rng.range(100_000) as i64
                } else {
                    1 + rng.range(7) as i64
                };
                g.add_edge_weighted(NodeId::new(a), NodeId::new(b), w);
            }
        }
        let csr = CsrGraph::from_graph(&g);
        let mut order: Vec<usize> = (0..total).collect();
        rng.shuffle(&mut order);
        let mut mate = Vec::new();
        let any = heavy_edge_matching(&csr, &order, &mut mate);
        let mut ref_mate = Vec::new();
        let ref_any = heavy_edge_matching_reference(&csr, &order, &mut ref_mate);
        prop_assert_eq!(any, ref_any);
        prop_assert_eq!(&mate, &ref_mate);
    }
}
