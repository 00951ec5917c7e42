//! Multilevel coarsening via heavy-edge matching (Karypis–Kumar).
//!
//! The multilevel driver coarsens frozen [`CsrGraph`]s through one
//! entry point, [`coarsen_to_csr_with`] with a reusable
//! [`CoarsenWorkspace`]. Each round visits nodes by
//! decreasing heaviest incident edge (random tie-break), pairs every
//! unmatched node with its heaviest unmatched neighbor
//! ([`heavy_edge_matching`]), and rebuilds the coarse graph with each
//! node's neighbors in first-encounter order of the fine-edge scan —
//! the order an adjacency-list graph gets from repeated
//! `Graph::add_edge_weighted` calls. Neighbor order feeds downstream
//! random tie-breaks, so that one rebuild fixes every partition; the
//! adjacency-list oracle in this crate's `tests/common` pins it level
//! by level. The visit-order construction (shuffle, per-node key build,
//! stable descending sort) is fused into a single pass over the
//! candidate edges plus the Fisher–Yates walk itself.

use mbqc_graph::{CsrGraph, NodeId};
use mbqc_util::Rng;

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CsrLevel {
    /// The coarser graph (node weights are sums, edge weights merge).
    pub graph: CsrGraph,
    /// Mapping fine node → coarse node.
    pub map: Vec<NodeId>,
}

/// How the coarse graph's adjacency is rebuilt after matching.
///
/// There is one rebuild, so nothing takes this as a parameter. The
/// type is kept only because the `perfbench` results header prints
/// [`CoarseRebuild::default_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoarseRebuild {
    /// Replicate the first-encounter insertion order of
    /// `Graph::add_edge_weighted` with a hash-free bucket scatter.
    MirrorInsertion,
}

impl CoarseRebuild {
    /// The rebuild every coarsening round uses.
    #[must_use]
    pub fn default_mode() -> Self {
        CoarseRebuild::MirrorInsertion
    }
}

/// Reusable scratch for the coarsening hot path: the matching buffers
/// and the rebuild scatter arrays survive across levels and across
/// whole partitioning calls, so repeated compilations stop
/// re-allocating the coarsening hierarchy machinery.
#[derive(Debug, Default)]
pub struct CoarsenWorkspace {
    order: Vec<usize>,
    key: Vec<i64>,
    mate: Vec<Option<NodeId>>,
    counts: Vec<u32>,
    sorted: Vec<usize>,
    /// Rebuild scratch: surviving coarse edges `(ca, cb, w)` in
    /// fine-scan order.
    pairs: Vec<(u32, u32, i64)>,
    /// Rebuild scratch: per-coarse-node bucket cursors.
    cursor: Vec<u32>,
    /// Rebuild scratch: scattered half-edge targets.
    half_nb: Vec<u32>,
    /// Rebuild scratch: scattered half-edge weights.
    half_w: Vec<i64>,
    /// Rebuild scratch: per-coarse-node last-visitor stamp.
    mark: Vec<u32>,
    /// Rebuild scratch: coarse neighbor → adjacency slot.
    pos: Vec<u32>,
}

impl CoarsenWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// One round of heavy-edge matching: matched pairs collapse into one
/// coarse node. Returns `None` when no edge could be matched (the graph
/// cannot shrink further this way).
fn coarsen_once(g: &CsrGraph, rng: &mut Rng, ws: &mut CoarsenWorkspace) -> Option<CsrLevel> {
    let n = g.node_count();
    // Heaviest-incident-edge-first visiting makes heavy edges reliably
    // collapse (the property that gives HEM its name and quality). The
    // shuffle (random tie-break), per-node key build, and stable
    // descending sort are fused: one pass over the candidate edges
    // computes every key *and* the counting-sort histogram, and the
    // Fisher–Yates walk scatters each slot into its bucket the moment
    // it is finalized — semantically `shuffle(order)` followed by
    // `order.sort_by_key(|&i| Reverse(key[i]))`, drawing the same RNG
    // values and producing the same order bit for bit.
    const COUNTING_MAX: i64 = 4096;
    let key = &mut ws.key;
    key.clear();
    let counts = &mut ws.counts;
    counts.clear();
    let mut countable = true;
    for i in 0..n {
        let k = g
            .neighbor_weights(NodeId::new(i))
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        key.push(k);
        if !(0..COUNTING_MAX).contains(&k) {
            countable = false;
        }
        if countable {
            let bucket = k as usize;
            if counts.len() <= bucket {
                counts.resize(bucket + 1, 0);
            }
            counts[bucket] += 1;
        }
    }
    let order = &mut ws.order;
    order.clear();
    order.extend(0..n);
    if countable {
        // Suffix sums turn per-key counts into descending-bucket *end*
        // offsets: counts[v] = #elements with key ≥ v.
        let mut acc = 0u32;
        for c in counts.iter_mut().rev() {
            acc += *c;
            *c = acc;
        }
        let sorted = &mut ws.sorted;
        sorted.clear();
        sorted.resize(n, 0);
        // Fisher–Yates finalizes order[i] at step i (i descending), so
        // each element scatters immediately; filling buckets back to
        // front while walking the shuffled order back to front keeps
        // equal keys in shuffled order — the stable-sort tie-break.
        let place = |e: usize, sorted: &mut Vec<usize>, counts: &mut Vec<u32>| {
            let slot = &mut counts[key[e] as usize];
            *slot -= 1;
            sorted[*slot as usize] = e;
        };
        for i in (1..n).rev() {
            let j = rng.range(i + 1);
            order.swap(i, j);
            place(order[i], sorted, counts);
        }
        if n > 0 {
            place(order[0], sorted, counts);
        }
        std::mem::swap(order, sorted);
    } else {
        // Key range too wide for counting buckets: plain shuffle +
        // stable comparison sort (identical semantics, rare path).
        rng.shuffle(order);
        order.sort_by_key(|&i| std::cmp::Reverse(key[i]));
    }
    let matched_any = heavy_edge_matching(g, &ws.order, &mut ws.mate);
    let mate = &ws.mate;
    if !matched_any {
        return None;
    }
    // Assign coarse ids: the lower-index endpoint of each pair owns it.
    // `map` is built by pushing (each entry is final when reached — a
    // matched partner with a lower index was already assigned),
    // skipping the zero-fill an indexed write-out would need; it is
    // owned by the returned level, so it is the one per-level
    // allocation that cannot live in the workspace.
    let mut map: Vec<NodeId> = Vec::with_capacity(n);
    let mut coarse_weights: Vec<i64> = Vec::with_capacity(n);
    for (i, &mate_i) in mate.iter().enumerate() {
        let u = NodeId::new(i);
        match mate_i {
            // Already created by the lower-index partner.
            Some(v) if v.index() < i => map.push(map[v.index()]),
            Some(v) => {
                map.push(NodeId::new(coarse_weights.len()));
                coarse_weights.push(g.node_weight(u) + g.node_weight(v));
            }
            None => {
                map.push(NodeId::new(coarse_weights.len()));
                coarse_weights.push(g.node_weight(u));
            }
        }
    }
    let graph = rebuild(g, &map, coarse_weights, ws);
    Some(CsrLevel { graph, map })
}

/// One round of heavy-edge matching over a frozen CSR graph, visiting
/// nodes in `order`: each still-unmatched node pairs with its unmatched
/// neighbor of maximum edge weight (smallest index on ties). Fills
/// `mate` (resized to the node count) and returns whether any pair
/// matched. Pinned by proptest against a plain scalar oracle in this
/// crate's tests.
pub fn heavy_edge_matching(g: &CsrGraph, order: &[usize], mate: &mut Vec<Option<NodeId>>) -> bool {
    let n = g.node_count();
    mate.clear();
    mate.resize(n, None);
    let mut matched_any = false;
    for &i in order {
        if mate[i].is_some() {
            continue;
        }
        let u = NodeId::new(i);
        let neighbors = g.neighbors(u);
        let weights = g.neighbor_weights(u);
        let mut bw = i64::MIN;
        let mut bv = usize::MAX;
        for (j, &v) in neighbors.iter().enumerate() {
            let vi = v.index();
            if vi == i || mate[vi].is_some() {
                continue;
            }
            let w = weights[j];
            if w > bw || (w == bw && vi < bv) {
                bw = w;
                bv = vi;
            }
        }
        if bv == usize::MAX {
            continue;
        }
        mate[i] = Some(NodeId::new(bv));
        mate[bv] = Some(u);
        matched_any = true;
    }
    matched_any
}

/// Coarse-graph rebuild that replicates the first-encounter insertion
/// order of `Graph::add_edge_weighted` without a dedup hash table.
///
/// `Graph::add_edge_weighted(ca, cb, w)` appends `cb` to `ca`'s
/// adjacency (and vice versa) on first encounter and accumulates the
/// weight afterwards, so each coarse node's final adjacency is its
/// distinct coarse neighbors in *global fine-edge scan order*. That
/// order is reproduced hash-free in three linear passes: collect the
/// surviving coarse edges in scan order, scatter both directed
/// half-edges into per-coarse-node buckets (bucket contents inherit the
/// scan order), then dedup each bucket with a stamp/slot pair while
/// emitting the CSR arrays.
fn rebuild(
    g: &CsrGraph,
    map: &[NodeId],
    coarse_weights: Vec<i64>,
    ws: &mut CoarsenWorkspace,
) -> CsrGraph {
    let nc = coarse_weights.len();
    // Pass 1: surviving coarse edges in fine-scan order, plus
    // duplicate-inclusive coarse degrees (offset-shifted for the prefix
    // sum below).
    let pairs = &mut ws.pairs;
    pairs.clear();
    let cursor = &mut ws.cursor;
    cursor.clear();
    cursor.resize(nc + 1, 0);
    for a in g.nodes() {
        let ca = map[a.index()].index() as u32;
        let weights = g.neighbor_weights(a);
        for (j, &b) in g.neighbors(a).iter().enumerate() {
            // Each undirected edge once, in Graph::edges() order.
            if a < b {
                let cb = map[b.index()].index() as u32;
                if ca != cb {
                    pairs.push((ca, cb, weights[j]));
                    cursor[ca as usize + 1] += 1;
                    cursor[cb as usize + 1] += 1;
                }
            }
        }
    }
    for c in 0..nc {
        cursor[c + 1] += cursor[c];
    }
    // Pass 2: scatter both half-edges of every pair, in pair order, so
    // each bucket lists its neighbors in global scan order. `cursor[c]`
    // walks from the bucket start and ends at the bucket *end* (the
    // next bucket's start), which pass 3 unwinds with a running start.
    // Every slot in `0..half` is written exactly once (the counts sum
    // to `half`), so the scratch is only grown, never re-zeroed.
    let half = 2 * pairs.len();
    let half_nb = &mut ws.half_nb;
    if half_nb.len() < half {
        half_nb.resize(half, 0);
    }
    let half_w = &mut ws.half_w;
    if half_w.len() < half {
        half_w.resize(half, 0);
    }
    for &(ca, cb, w) in pairs.iter() {
        let ia = cursor[ca as usize] as usize;
        cursor[ca as usize] += 1;
        half_nb[ia] = cb;
        half_w[ia] = w;
        let ib = cursor[cb as usize] as usize;
        cursor[cb as usize] += 1;
        half_nb[ib] = ca;
        half_w[ib] = w;
    }
    // Pass 3: dedup each bucket in first-encounter order, accumulating
    // parallel-edge weights through the stamp/slot arrays.
    let mark = &mut ws.mark;
    mark.clear();
    mark.resize(nc, u32::MAX);
    let pos = &mut ws.pos;
    pos.clear();
    pos.resize(nc, 0);
    let mut offsets: Vec<u32> = Vec::with_capacity(nc + 1);
    offsets.push(0);
    let mut neighbors: Vec<NodeId> = Vec::with_capacity(half);
    let mut out_weights: Vec<i64> = Vec::with_capacity(half);
    let mut start = 0usize;
    for (c, &bucket_end) in cursor.iter().take(nc).enumerate() {
        let end = bucket_end as usize;
        for i in start..end {
            let cv = half_nb[i] as usize;
            if mark[cv] == c as u32 {
                out_weights[pos[cv] as usize] += half_w[i];
            } else {
                mark[cv] = c as u32;
                pos[cv] = neighbors.len() as u32;
                neighbors.push(NodeId::new(cv));
                out_weights.push(half_w[i]);
            }
        }
        start = end;
        offsets.push(neighbors.len() as u32);
    }
    CsrGraph::from_csr_parts(offsets, neighbors, out_weights, coarse_weights)
}

/// Coarsens until at most `target_nodes` nodes remain or a round
/// shrinks the graph by less than ~10%. Returns the hierarchy from
/// finest to coarsest (empty if the input is already small enough).
///
/// The caller-owned [`CoarsenWorkspace`]'s matching buffers and rebuild
/// scratch are reused across every level of the hierarchy (and across
/// calls when the caller keeps the workspace).
#[must_use]
pub fn coarsen_to_csr_with(
    g: &CsrGraph,
    target_nodes: usize,
    rng: &mut Rng,
    ws: &mut CoarsenWorkspace,
) -> Vec<CsrLevel> {
    let mut levels: Vec<CsrLevel> = Vec::new();
    while levels
        .last()
        .map_or(g.node_count(), |l| l.graph.node_count())
        > target_nodes
    {
        let current: &CsrGraph = levels.last().map_or(g, |l| &l.graph);
        let before = current.node_count();
        let Some(level) = coarsen_once(current, rng, ws) else {
            break;
        };
        let shrink = level.graph.node_count() as f64 / before as f64;
        levels.push(level);
        if shrink > 0.9 {
            break; // diminishing returns (e.g. star graphs)
        }
    }
    levels
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::{generate, Graph};

    /// Coarsens `g` through the public entry point and returns the
    /// hierarchy.
    fn hierarchy(g: &Graph, target: usize, seed: u64) -> Vec<CsrLevel> {
        let mut rng = Rng::seed_from_u64(seed);
        coarsen_to_csr_with(
            &CsrGraph::from_graph(g),
            target,
            &mut rng,
            &mut CoarsenWorkspace::new(),
        )
    }

    /// Exactly one matching round (a target one below the node count
    /// stops the hierarchy after its first level), or `None` when no
    /// edge matches.
    fn one_round(g: &Graph, seed: u64) -> Option<CsrLevel> {
        hierarchy(g, g.node_count() - 1, seed).into_iter().next()
    }

    #[test]
    fn matching_halves_path() {
        let g = generate::path_graph(8);
        let level = one_round(&g, 1).unwrap();
        assert!(level.graph.node_count() >= 4);
        assert!(level.graph.node_count() < 8);
        // Total node weight is conserved.
        assert_eq!(level.graph.total_node_weight(), 8);
    }

    #[test]
    fn edge_weight_conserved_modulo_internal() {
        let g = generate::cycle_graph(10);
        let level = one_round(&g, 2).unwrap();
        // Every original edge is either internal to a coarse node (a
        // matched pair) or present in the coarse graph's weights.
        let matched_pairs = 10 - level.graph.node_count();
        assert_eq!(level.graph.total_edge_weight() + matched_pairs as i64, 10);
    }

    #[test]
    fn map_is_surjective_onto_coarse_nodes() {
        let g = generate::grid_graph(5, 5);
        let level = one_round(&g, 3).unwrap();
        let mut seen = vec![false; level.graph.node_count()];
        for &c in &level.map {
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn edgeless_graph_cannot_coarsen() {
        let g = Graph::with_nodes(5);
        assert!(one_round(&g, 4).is_none());
    }

    #[test]
    fn hierarchy_reaches_target() {
        let g = generate::grid_graph(12, 12);
        let levels = hierarchy(&g, 20, 5);
        assert!(!levels.is_empty());
        let coarsest = &levels.last().unwrap().graph;
        assert!(coarsest.node_count() <= 80, "got {}", coarsest.node_count());
        // Weight conserved at every level.
        for level in &levels {
            assert_eq!(level.graph.total_node_weight(), 144);
        }
    }

    #[test]
    fn small_graph_needs_no_coarsening() {
        let g = generate::path_graph(5);
        assert!(hierarchy(&g, 10, 6).is_empty());
    }

    #[test]
    fn reused_workspace_is_bit_identical() {
        // One workspace driven through hierarchies of different sizes
        // must reproduce the fresh-allocation path exactly.
        let mut ws = CoarsenWorkspace::new();
        for (dim, seed) in [(9usize, 8u64), (12, 9), (7, 10)] {
            let g = CsrGraph::from_graph(&generate::grid_graph(dim, dim));
            let mut rng_a = Rng::seed_from_u64(seed);
            let mut rng_b = Rng::seed_from_u64(seed);
            let fresh = coarsen_to_csr_with(&g, 12, &mut rng_a, &mut CoarsenWorkspace::new());
            let reused = coarsen_to_csr_with(&g, 12, &mut rng_b, &mut ws);
            assert_eq!(fresh.len(), reused.len());
            for (a, b) in fresh.iter().zip(&reused) {
                assert_eq!(a.map, b.map);
                assert_eq!(a.graph, b.graph);
            }
        }
    }

    #[test]
    fn heavy_edges_matched_first() {
        // Star with one heavy edge: the heavy pair should merge.
        let mut g = Graph::with_nodes(4);
        let n: Vec<_> = g.nodes().collect();
        g.add_edge_weighted(n[0], n[1], 100);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[0], n[3]);
        let level = one_round(&g, 7).unwrap();
        assert_eq!(level.map[0], level.map[1], "heavy edge must collapse");
    }
}
