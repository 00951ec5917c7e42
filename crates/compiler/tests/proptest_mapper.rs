//! Property-based tests for the grid mapper and Algorithm 1.

use mbqc_compiler::{required_photon_lifetime, CompilerConfig, GridMapper};
use mbqc_graph::{generate, DiGraph, Graph, NodeId};
use mbqc_hardware::ResourceStateKind;
use mbqc_util::Rng;
use proptest::prelude::*;

fn sparse_graph(n: usize, extra: usize, seed: u64) -> Graph {
    let mut rng = Rng::seed_from_u64(seed);
    let mut g = generate::path_graph(n.max(2));
    for _ in 0..extra {
        let a = rng.range(g.node_count());
        let b = rng.range(g.node_count());
        if a != b && !g.has_edge(NodeId::new(a), NodeId::new(b)) {
            g.add_edge(NodeId::new(a), NodeId::new(b));
        }
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_edges_realized_exactly_once(n in 4usize..60, extra in 0usize..20, seed in 0u64..200) {
        let g = sparse_graph(n, extra, seed);
        let order: Vec<NodeId> = g.nodes().collect();
        let mapper = GridMapper::new(CompilerConfig::new(7, ResourceStateKind::FIVE_STAR));
        let c = mapper.compile(&g, &order).unwrap();
        prop_assert_eq!(c.fusee_pairs.len(), g.edge_count());
        // Each pair corresponds to a distinct graph edge.
        let mut seen = std::collections::HashSet::new();
        for p in &c.fusee_pairs {
            prop_assert!(g.has_edge(p.a, p.b));
            let key = (p.a.min(p.b), p.a.max(p.b));
            prop_assert!(seen.insert(key), "edge realized twice");
        }
    }

    #[test]
    fn layers_and_sites_within_bounds(n in 4usize..50, extra in 0usize..15, seed in 0u64..100) {
        let g = sparse_graph(n, extra, seed);
        let order: Vec<NodeId> = g.nodes().collect();
        let width = 6;
        let c = GridMapper::new(CompilerConfig::new(width, ResourceStateKind::FIVE_STAR))
            .compile(&g, &order)
            .unwrap();
        for u in g.nodes() {
            prop_assert!(c.layer_of[u.index()] < c.num_layers);
            prop_assert!(c.effective_layer[u.index()] >= c.layer_of[u.index()]);
            prop_assert!(c.site_of[u.index()] < width * width);
        }
    }

    #[test]
    fn per_layer_site_占用_is_unique(n in 4usize..40, seed in 0u64..100) {
        // No two nodes placed in the same layer may share a site.
        let g = sparse_graph(n, n / 2, seed);
        let order: Vec<NodeId> = g.nodes().collect();
        let c = GridMapper::new(CompilerConfig::new(6, ResourceStateKind::FIVE_STAR))
            .compile(&g, &order)
            .unwrap();
        let mut seen = std::collections::HashSet::new();
        for u in g.nodes() {
            prop_assert!(
                seen.insert((c.layer_of[u.index()], c.site_of[u.index()])),
                "two nodes share a spacetime slot"
            );
        }
    }

    #[test]
    fn fusee_times_bound_lifetime(n in 4usize..40, seed in 0u64..100) {
        let g = sparse_graph(n, n / 3, seed);
        let order: Vec<NodeId> = g.nodes().collect();
        let c = GridMapper::new(CompilerConfig::new(6, ResourceStateKind::FIVE_STAR))
            .compile(&g, &order)
            .unwrap();
        let deps = DiGraph::from_edges(g.node_count(), &[]);
        let report = c.lifetime(&deps);
        let max_span = c.fusee_pairs.iter().map(|p| p.time_b - p.time_a).max().unwrap_or(0);
        prop_assert_eq!(report.fusee, max_span);
        prop_assert!(report.photon_lifetime() < c.num_layers.max(2));
    }

    #[test]
    fn refresh_never_lengthens_epoch_spans(n in 10usize..40, seed in 0u64..60) {
        let g = sparse_graph(n, 4, seed);
        let order: Vec<NodeId> = g.nodes().collect();
        let plain = GridMapper::new(CompilerConfig::new(4, ResourceStateKind::FIVE_STAR))
            .compile(&g, &order)
            .unwrap();
        let refreshed = GridMapper::new(
            CompilerConfig::new(4, ResourceStateKind::FIVE_STAR).with_refresh(4),
        )
        .compile(&g, &order)
        .unwrap();
        let span = |c: &mbqc_compiler::CompiledProgram| {
            c.fusee_pairs.iter().map(|p| p.time_b - p.time_a).max().unwrap_or(0)
        };
        prop_assert!(span(&refreshed) <= span(&plain));
    }

    #[test]
    fn algorithm1_monotone_under_time_dilation(times in prop::collection::vec(0usize..50, 2..30), seed in 0u64..50) {
        // Stretching all times by 2 scales fusee span and cannot shrink
        // the measuree term.
        let n = times.len();
        let mut rng = Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for _ in 0..n {
            let a = rng.range(n);
            let b = rng.range(n);
            if a < b {
                edges.push((NodeId::new(a), NodeId::new(b)));
            }
        }
        let deps = DiGraph::from_edges(n, &edges);
        let pairs: Vec<(usize, usize)> = (1..n).map(|i| (times[i - 1], times[i])).collect();
        let r1 = required_photon_lifetime(&times, &pairs, &deps);
        let doubled: Vec<usize> = times.iter().map(|&t| 2 * t).collect();
        let pairs2: Vec<(usize, usize)> = (1..n).map(|i| (doubled[i - 1], doubled[i])).collect();
        let r2 = required_photon_lifetime(&doubled, &pairs2, &deps);
        prop_assert_eq!(r2.fusee, 2 * r1.fusee);
    }
}
