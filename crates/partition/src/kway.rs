//! Multilevel k-way partitioning (the from-scratch METIS stand-in).
//!
//! The driver is CSR-native: the input [`Graph`] is frozen once into a
//! [`CsrGraph`], the coarsening hierarchy is built as CSR levels, and
//! every refinement pass iterates flat CSR slices with incremental gain
//! state (see [`crate::refine`]). The pre-optimization adjacency
//! implementation survives as an oracle in this crate's tests and is
//! property-tested to produce bit-identical partitions.

use mbqc_graph::{CsrGraph, Graph, NodeId};
use mbqc_util::Rng;

use crate::coarsen::{coarsen_to_csr_with, CoarsenWorkspace, CsrLevel};
use crate::refine::{
    fm_refine_built, rebalance_csr_with, refine_csr_with, FmCounters, LeafLayout, RefineWorkspace,
};
use crate::Partition;

/// Node-count bound under which the FM hill-climbing pass runs at a
/// level.
const FM_LIMIT: usize = 2000;

/// Configuration for [`multilevel_kway`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KwayConfig {
    /// Number of parts.
    pub k: usize,
    /// Maximum imbalance factor `α ≥ 1`: each part's weight may reach
    /// `α · total/k`.
    pub alpha: f64,
    /// Refinement passes per level.
    pub refine_passes: usize,
    /// Independent initial partitions tried on the coarsest graph (the
    /// best refined cut wins) — cheap because the coarsest graph is
    /// small, and a large quality lever on structured graphs.
    pub initial_restarts: usize,
    /// RNG seed (the partitioner is deterministic given the seed).
    pub seed: u64,
}

impl KwayConfig {
    /// A balanced (`α = 1.03`) configuration for `k` parts.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            alpha: 1.03,
            refine_passes: 8,
            initial_restarts: 4,
            seed: 42,
        }
    }

    /// Sets the imbalance factor.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Maximum part weight implied by a config for a given graph.
fn weight_bound(g: &CsrGraph, k: usize, alpha: f64) -> i64 {
    let total = g.total_node_weight();
    // ceil(alpha * total / k), but never below the heaviest node (a
    // partition must be able to host every node somewhere).
    let bound = (alpha * total as f64 / k as f64).ceil() as i64;
    bound.max(g.max_node_weight())
}

/// Greedy graph growing on the (coarsest) graph: BFS-grows each part
/// from a random seed until it reaches its weight share.
fn initial_partition(g: &CsrGraph, k: usize, max_w: i64, rng: &mut Rng) -> Partition {
    let n = g.node_count();
    let mut assignment = vec![usize::MAX; n];
    let total = g.total_node_weight();
    let mut remaining = total;
    let mut unassigned = n;

    for part in 0..k {
        if unassigned == 0 {
            break;
        }
        let parts_left = k - part;
        let target = ((remaining as f64 / parts_left as f64).ceil() as i64).min(max_w);
        // Seed: random unassigned node, preferring low-degree frontier
        // nodes (classic GGGP heuristic — grows from the periphery).
        // Streaming min — no candidate vector; the RNG is still drawn
        // once per unassigned node, matching the adjacency-list oracle.
        let seed = (0..n)
            .filter(|&i| assignment[i] == usize::MAX)
            .min_by_key(|&i| (g.degree(NodeId::new(i)), rng.next_u64() & 0xffff))
            .expect("unassigned nodes exist");
        let mut queue = std::collections::VecDeque::new();
        let mut grown = 0i64;
        queue.push_back(NodeId::new(seed));
        while let Some(u) = queue.pop_front() {
            if assignment[u.index()] != usize::MAX {
                continue;
            }
            let wu = g.node_weight(u);
            if grown > 0 && grown + wu > target {
                continue;
            }
            assignment[u.index()] = part;
            grown += wu;
            remaining -= wu;
            unassigned -= 1;
            if grown >= target {
                break;
            }
            for &v in g.neighbors(u) {
                if assignment[v.index()] == usize::MAX {
                    queue.push_back(v);
                }
            }
        }
    }
    // Leftovers (disconnected remainders or overflow): lightest part wins.
    let mut weights = vec![0i64; k];
    for (i, &part) in assignment.iter().enumerate() {
        if part != usize::MAX {
            weights[part] += g.node_weight(NodeId::new(i));
        }
    }
    for (i, part) in assignment.iter_mut().enumerate() {
        if *part == usize::MAX {
            let lightest = (0..k).min_by_key(|&c| weights[c]).expect("k >= 1");
            *part = lightest;
            weights[lightest] += g.node_weight(NodeId::new(i));
        }
    }
    Partition::new(assignment, k)
}

/// Multilevel k-way partitioning: heavy-edge-matching coarsening, greedy
/// initial partitioning of the coarsest graph, then uncoarsening with
/// boundary refinement at every level — the algorithmic scheme of METIS
/// (Karypis & Kumar 1998), which the paper's Algorithm 2 calls as its
/// `Partition(G, α)` primitive.
///
/// The result respects the balance bound `α · total/k` whenever feasible
/// (a best-effort rebalance runs at the finest level otherwise).
///
/// # Panics
///
/// Panics if `k == 0` or `alpha < 1`, or if FM meets a node whose
/// weighted degree exceeds `i32::MAX` (see
/// [`fm_refine_csr`](crate::refine::fm_refine_csr)). No level has one
/// while `g`'s edge weight magnitudes sum to at most `i32::MAX`.
///
/// # Examples
///
/// ```
/// use mbqc_graph::generate;
/// use mbqc_partition::{multilevel_kway, KwayConfig};
///
/// let g = generate::grid_graph(8, 8);
/// let p = multilevel_kway(&g, &KwayConfig::new(4));
/// assert_eq!(p.k(), 4);
/// // Bound is ceil(α·total/k) = 17 of 16 nodes/part ideal.
/// assert!(p.part_weights(&g).iter().all(|&w| w <= 17));
/// ```
#[must_use]
pub fn multilevel_kway(g: &Graph, config: &KwayConfig) -> Partition {
    multilevel_kway_csr(&CsrGraph::from_graph(g), config)
}

/// Reusable workspaces for [`multilevel_kway_csr_with`]: callers that
/// partition repeatedly (the adaptive α sweep, a compile session, a
/// batch service) keep one of these per thread and stop re-allocating
/// the coarsening machinery on every call.
#[derive(Debug, Default)]
pub struct KwayWorkspace {
    /// Coarsening scratch (matching buffers + rebuild scatter arrays).
    pub coarsen: CoarsenWorkspace,
    /// Refinement scratch (connectivity table + visit-order buffer),
    /// reused at every uncoarsening level.
    pub refine: RefineWorkspace,
}

impl KwayWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// FM work of the last partition call run in this workspace
    /// ([`multilevel_kway_csr_with`] or
    /// [`adaptive_partition_csr_with`](crate::adaptive_partition_csr_with)),
    /// every restart probe and α probe of that call included.
    #[must_use]
    pub fn counters(&self) -> FmCounters {
        self.refine.counters
    }
}

/// One restart probe on the coarsest graph: greedy growing + greedy
/// refinement + FM hill climbing, from the probe's own RNG stream.
fn restart_probe(
    g: &CsrGraph,
    layout: &LeafLayout,
    config: &KwayConfig,
    max_w: i64,
    rng: &mut Rng,
    ws: &mut RefineWorkspace,
) -> (i64, Partition) {
    let mut p = initial_partition(g, config.k, max_w, rng);
    let _ = refine_csr_with(g, &mut p, max_w, config.refine_passes, rng, ws);
    let _ = fm_refine_built(g, layout, &mut p, max_w, 3, ws);
    (p.cut_weight_csr(g), p)
}

/// Runs the coarsest-graph restart probes and returns the winner. Each
/// probe draws from its own RNG forked from `rng`, and the lowest
/// `(cut, probe index)` wins.
fn run_restarts(
    coarsest: &CsrGraph,
    layout: &LeafLayout,
    config: &KwayConfig,
    max_w: i64,
    rng: &mut Rng,
    ws: &mut RefineWorkspace,
) -> Partition {
    let mut best: Option<(i64, Partition)> = None;
    for _ in 0..config.initial_restarts.max(1) {
        let mut probe_rng = rng.fork();
        let (cut, p) = restart_probe(coarsest, layout, config, max_w, &mut probe_rng, ws);
        if best.as_ref().is_none_or(|(best_cut, _)| cut < *best_cut) {
            best = Some((cut, p));
        }
    }
    best.expect("at least one probe ran").1
}

/// [`multilevel_kway`] on an already-frozen CSR view. Callers that probe
/// many configurations of the same graph (e.g. Algorithm 2's α sweep)
/// freeze once and call this.
///
/// # Panics
///
/// Panics if `k == 0` or `alpha < 1`, or if FM meets a node whose
/// weighted degree exceeds `i32::MAX` (see
/// [`fm_refine_csr`](crate::refine::fm_refine_csr)). No level has one
/// while `g`'s edge weight magnitudes sum to at most `i32::MAX`.
#[must_use]
pub fn multilevel_kway_csr(g: &CsrGraph, config: &KwayConfig) -> Partition {
    multilevel_kway_csr_with(g, config, &mut KwayWorkspace::new())
}

/// [`multilevel_kway_csr`] with a caller-owned [`KwayWorkspace`] —
/// bit-identical results, allocation reuse across calls.
///
/// # Panics
///
/// Panics if `k == 0` or `alpha < 1`, or if FM meets a node whose
/// weighted degree exceeds `i32::MAX` (see
/// [`fm_refine_csr`](crate::refine::fm_refine_csr)). No level has one
/// while `g`'s edge weight magnitudes sum to at most `i32::MAX`.
#[must_use]
pub fn multilevel_kway_csr_with(
    g: &CsrGraph,
    config: &KwayConfig,
    ws: &mut KwayWorkspace,
) -> Partition {
    assert!(config.k >= 1, "k must be positive");
    assert!(config.alpha >= 1.0, "alpha must be at least 1");
    ws.refine.counters = FmCounters::default();
    let hierarchy = Hierarchy::build(g, config.k, config.seed, ws);
    uncoarsen(g, &hierarchy, config, &mut ws.refine)
}

/// `true` when a `k`-way partition of `g` needs no search: one part, or
/// at most one node per part (assigned round-robin).
fn is_trivial(g: &CsrGraph, k: usize) -> bool {
    k == 1 || g.node_count() <= k
}

/// The coarsening half of a k-way partition: the hierarchy from finest
/// to coarsest, the leaf layouts of the levels FM refines, and the RNG
/// state coarsening leaves for [`uncoarsen`]. All three depend only on
/// `(g, k, seed)`, never on `α`, so Algorithm 2 builds them once and
/// hands every probe the same hierarchy, which clones the RNG.
#[derive(Debug)]
pub(crate) struct Hierarchy {
    /// Coarser and coarser levels; empty for a trivial partition.
    levels: Vec<CsrLevel>,
    /// FM leaf layouts by depth (depth 0 is the input graph, depth `i`
    /// the graph of `levels[i - 1]`): the coarsest graph, which every
    /// restart probe refines, and the first `FM_LEVELS` finer graphs
    /// of at most `FM_LIMIT` nodes on the way back up.
    layouts: Vec<Option<LeafLayout>>,
    /// The RNG state coarsening left; every probe starts from a clone.
    rng: Rng,
}

impl Hierarchy {
    /// Coarsens `g` for `k` parts from `seed` and lays out the levels FM
    /// will refine, counting the layouts in `ws`'s FM counters.
    pub(crate) fn build(g: &CsrGraph, k: usize, seed: u64, ws: &mut KwayWorkspace) -> Self {
        /// Levels below the coarsest that FM refines, at most.
        const FM_LEVELS: usize = 4;
        let mut rng = Rng::seed_from_u64(seed);
        if is_trivial(g, k) {
            return Self {
                levels: Vec::new(),
                layouts: Vec::new(),
                rng,
            };
        }
        let levels = coarsen_to_csr_with(g, (k * 16).max(48), &mut rng, &mut ws.coarsen);
        let graph = |depth: usize| {
            if depth == 0 {
                g
            } else {
                &levels[depth - 1].graph
            }
        };
        let fm_depths = std::iter::once(levels.len()).chain(
            (0..levels.len())
                .rev()
                .filter(|&d| graph(d).node_count() <= FM_LIMIT)
                .take(FM_LEVELS),
        );
        let mut layouts: Vec<Option<LeafLayout>> = (0..=levels.len()).map(|_| None).collect();
        for depth in fm_depths {
            layouts[depth] = Some(LeafLayout::build(graph(depth)));
            ws.refine.counters.layouts += 1;
        }
        Self {
            levels,
            layouts,
            rng,
        }
    }
}

/// The rest of a k-way partition after [`Hierarchy::build`]: restart
/// probes on the coarsest level, projection back through the levels
/// with refinement at every level, and a final rebalance when the
/// finest level ends over the bound.
pub(crate) fn uncoarsen(
    g: &CsrGraph,
    hierarchy: &Hierarchy,
    config: &KwayConfig,
    ws: &mut RefineWorkspace,
) -> Partition {
    if is_trivial(g, config.k) {
        let assignment = (0..g.node_count()).map(|i| i % config.k).collect();
        return Partition::new(assignment, config.k);
    }
    let Hierarchy {
        levels,
        layouts,
        rng,
    } = hierarchy;
    let mut rng = rng.clone();
    let max_w = weight_bound(g, config.k, config.alpha);
    let coarsest: &CsrGraph = levels.last().map_or(g, |l| &l.graph);
    let coarsest_layout = layouts[levels.len()]
        .as_ref()
        .expect("the coarsest level is laid out");
    let mut part = run_restarts(coarsest, coarsest_layout, config, max_w, &mut rng, ws);

    // Project back through the hierarchy, refining at each level
    // (hill-climbing FM on the few coarsest levels small enough to
    // afford it — that is where the structural decisions are made, and
    // those are the levels with a layout; greedy refinement polishes
    // the finer projections).
    for level_idx in (0..levels.len()).rev() {
        let finer: &CsrGraph = if level_idx == 0 {
            g
        } else {
            &levels[level_idx - 1].graph
        };
        let map = &levels[level_idx].map;
        let assignment: Vec<usize> = (0..finer.node_count())
            .map(|i| part.part_of(map[i]))
            .collect();
        part = Partition::new(assignment, config.k);
        let _ = refine_csr_with(finer, &mut part, max_w, config.refine_passes, &mut rng, ws);
        if let Some(layout) = &layouts[level_idx] {
            let _ = fm_refine_built(finer, layout, &mut part, max_w, 2, ws);
        }
    }
    if !part.is_balanced_csr(g, config.alpha) {
        let _ = rebalance_csr_with(g, &mut part, max_w, &mut rng, ws);
        let _ = refine_csr_with(g, &mut part, max_w, config.refine_passes, &mut rng, ws);
    }
    part
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::{algo, generate};

    /// Total number of connected fragments across parts (ideal = k):
    /// fragmented parts compile poorly.
    fn fragment_count(g: &Graph, p: &Partition) -> usize {
        p.parts()
            .iter()
            .map(|nodes| {
                if nodes.is_empty() {
                    return 0;
                }
                let (sub, _) = g.induced_subgraph(nodes);
                algo::connected_components(&sub).1
            })
            .sum()
    }

    #[test]
    fn partitions_grid_balanced() {
        let g = generate::grid_graph(10, 10);
        for k in [2, 4, 8] {
            let p = multilevel_kway(&g, &KwayConfig::new(k));
            assert_eq!(p.k(), k);
            assert!(
                p.is_balanced(&g, 1.06),
                "k={k}: imbalance {}",
                p.imbalance(&g)
            );
            // A decent k-way cut of a 10×10 grid is near k·10 at worst.
            assert!(
                p.cut_weight(&g) <= (k as i64) * 14,
                "k={k}: cut {}",
                p.cut_weight(&g)
            );
        }
    }

    #[test]
    fn path_graph_cut_is_near_optimal() {
        let g = generate::path_graph(64);
        let p = multilevel_kway(&g, &KwayConfig::new(4));
        // Optimal cut for a path into 4 parts is 3.
        assert!(p.cut_weight(&g) <= 6, "cut {}", p.cut_weight(&g));
        assert!(p.is_balanced(&g, 1.1));
    }

    #[test]
    fn two_cliques_split_at_bridge() {
        // Two 8-cliques joined by one edge: the bridge is the only
        // sensible 2-way cut.
        let mut g = generate::complete_graph(8);
        let offset = 8;
        for i in 0..8usize {
            g.add_node();
            let _ = i;
        }
        for i in 0..8usize {
            for j in (i + 1)..8 {
                g.add_edge(NodeId::new(offset + i), NodeId::new(offset + j));
            }
        }
        g.add_edge(NodeId::new(0), NodeId::new(offset));
        let p = multilevel_kway(&g, &KwayConfig::new(2));
        assert_eq!(p.cut_weight(&g), 1, "must cut exactly the bridge");
    }

    #[test]
    fn k_equals_one_is_trivial() {
        let g = generate::grid_graph(4, 4);
        let p = multilevel_kway(&g, &KwayConfig::new(1));
        assert_eq!(p.cut_weight(&g), 0);
        assert_eq!(p.k(), 1);
    }

    #[test]
    fn more_parts_than_nodes() {
        let g = generate::path_graph(3);
        let p = multilevel_kway(&g, &KwayConfig::new(5));
        assert_eq!(p.k(), 5);
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn deterministic_for_seed() {
        let g = generate::grid_graph(9, 9);
        let a = multilevel_kway(&g, &KwayConfig::new(4).with_seed(7));
        let b = multilevel_kway(&g, &KwayConfig::new(4).with_seed(7));
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let mut ws = KwayWorkspace::new();
        for dim in [6usize, 9, 8] {
            let g = generate::grid_graph(dim, dim);
            let csr = CsrGraph::from_graph(&g);
            let cfg = KwayConfig::new(3).with_seed(dim as u64);
            let fresh = multilevel_kway_csr(&csr, &cfg);
            let reused = multilevel_kway_csr_with(&csr, &cfg, &mut ws);
            assert_eq!(fresh, reused, "dim={dim}");
        }
    }

    #[test]
    fn csr_entry_point_matches_graph_entry_point() {
        let g = generate::grid_graph(8, 8);
        let csr = CsrGraph::from_graph(&g);
        let a = multilevel_kway(&g, &KwayConfig::new(4).with_seed(3));
        let b = multilevel_kway_csr(&csr, &KwayConfig::new(4).with_seed(3));
        assert_eq!(a, b);
    }

    #[test]
    fn relaxed_alpha_allows_smaller_cut() {
        // With α large the partitioner has at least as much freedom; the
        // cut should never get *worse* on a structured graph.
        let g = generate::grid_graph(8, 8);
        let tight = multilevel_kway(&g, &KwayConfig::new(4).with_alpha(1.01));
        let loose = multilevel_kway(&g, &KwayConfig::new(4).with_alpha(1.6));
        assert!(loose.cut_weight(&g) <= tight.cut_weight(&g) + 4);
    }

    #[test]
    fn fragment_count_ideal_on_grid() {
        let g = generate::grid_graph(8, 8);
        let p = multilevel_kway(&g, &KwayConfig::new(4));
        let frags = fragment_count(&g, &p);
        assert!(frags <= 6, "parts too fragmented: {frags}");
    }

    #[test]
    fn weighted_nodes_respected() {
        let mut g = generate::path_graph(10);
        g.set_node_weight(NodeId::new(0), 5);
        let p = multilevel_kway(&g, &KwayConfig::new(2).with_alpha(1.2));
        // total = 14, bound = ceil(1.2*7) = 9 ≥ every part.
        let w = p.part_weights(&g);
        assert!(w.iter().all(|&x| x <= 9), "{w:?}");
    }

    #[test]
    fn one_fm_layout_per_fm_refined_level() {
        // FM refines the coarsest level in every restart probe and then
        // up to four finer levels of at most FM_LIMIT nodes, once each:
        // every layout is built once and used, the coarsest one by every
        // restart. 70×70 has levels above FM_LIMIT; a 5×5 grid with
        // k = 8 coarsens to nothing, leaving one level.
        for (dim, k, restarts) in [(70, 4, 4), (30, 8, 3), (12, 2, 1), (5, 8, 2)] {
            let g = CsrGraph::from_graph(&generate::grid_graph(dim, dim));
            let cfg = KwayConfig {
                initial_restarts: restarts,
                ..KwayConfig::new(k)
            };
            let mut ws = KwayWorkspace::new();
            for _ in 0..2 {
                let _ = multilevel_kway_csr_with(&g, &cfg, &mut ws);
                let c = ws.counters();
                assert!((1..=5).contains(&c.layouts), "{dim}×{dim}: {c:?}");
                assert_eq!(
                    c.calls,
                    restarts as u64 + c.layouts - 1,
                    "{dim}×{dim}: {c:?}"
                );
            }
        }
    }
}
