//! The pre-optimization partitioner: the bit-identity oracle for the
//! library's CSR hot paths.
//!
//! This module preserves the original adjacency-list implementation
//! exactly as it was before the CSR/incremental-gain overhaul:
//! coarsening builds each coarse level as a [`Graph`] through
//! `add_edge_weighted`, `connectivity()` allocates a fresh `Vec<i64>`
//! per node visit, refinement recomputes it from scratch, and the
//! multilevel driver clones [`Graph`]s through the hierarchy. The
//! library is required to produce *bit-identical* results (same RNG
//! consumption, same tie-breaks); `proptest_partition.rs` and
//! `oracle_equivalence.rs` assert that on seeded random graphs.
//!
//! Do not "optimize" this module; its plainness is the point.

#![allow(dead_code)] // each test binary uses a different subset

use mbqc_graph::{CsrGraph, Graph, NodeId};
use mbqc_partition::{KwayConfig, Partition};
use mbqc_util::Rng;

/// One level of the coarsening hierarchy.
#[derive(Debug, Clone)]
pub struct CoarseLevel {
    /// The coarser graph (node weights are sums, edge weights merge).
    pub graph: Graph,
    /// Mapping fine node → coarse node.
    pub map: Vec<NodeId>,
}

/// Performs one round of heavy-edge matching: visits nodes in order of
/// decreasing heaviest incident edge (random tie-break), matching each
/// unmatched node with its unmatched neighbor of maximum edge weight;
/// matched pairs collapse into one coarse node.
///
/// Returns `None` when no edge could be matched.
#[must_use]
pub fn coarsen_once(g: &Graph, rng: &mut Rng) -> Option<CoarseLevel> {
    let n = g.node_count();
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    let key: Vec<i64> = (0..n)
        .map(|i| {
            g.neighbors_weighted(NodeId::new(i))
                .iter()
                .map(|&(_, w)| w)
                .max()
                .unwrap_or(0)
        })
        .collect();
    order.sort_by_key(|&i| std::cmp::Reverse(key[i]));
    let mut mate: Vec<Option<NodeId>> = vec![None; n];
    let mut matched_any = false;
    for &i in &order {
        let u = NodeId::new(i);
        if mate[i].is_some() {
            continue;
        }
        let best = g
            .neighbors_weighted(u)
            .iter()
            .filter(|(v, _)| mate[v.index()].is_none() && *v != u)
            .max_by_key(|(v, w)| (*w, std::cmp::Reverse(v.index())));
        if let Some(&(v, _)) = best {
            mate[i] = Some(v);
            mate[v.index()] = Some(u);
            matched_any = true;
        }
    }
    if !matched_any {
        return None;
    }
    // Assign coarse ids: the lower-index endpoint of each pair owns it.
    let mut map = vec![NodeId::new(0); n];
    let mut coarse = Graph::new();
    for i in 0..n {
        let u = NodeId::new(i);
        match mate[i] {
            Some(v) if v.index() < i => {
                map[i] = map[v.index()]; // already created by the partner
            }
            Some(v) => {
                let id = coarse.add_node_weighted(g.node_weight(u) + g.node_weight(v));
                map[i] = id;
            }
            None => {
                let id = coarse.add_node_weighted(g.node_weight(u));
                map[i] = id;
            }
        }
    }
    for (a, b, w) in g.edges() {
        let (ca, cb) = (map[a.index()], map[b.index()]);
        if ca != cb {
            coarse.add_edge_weighted(ca, cb, w);
        }
    }
    Some(CoarseLevel { graph: coarse, map })
}

/// Coarsens until the graph has at most `target_nodes` nodes or no round
/// shrinks it by at least ~10%. Returns the hierarchy from finest to
/// coarsest (empty if the input is already small enough).
#[must_use]
pub fn coarsen_to(g: &Graph, target_nodes: usize, rng: &mut Rng) -> Vec<CoarseLevel> {
    let mut levels: Vec<CoarseLevel> = Vec::new();
    let mut current = g.clone();
    while current.node_count() > target_nodes {
        let Some(level) = coarsen_once(&current, rng) else {
            break;
        };
        let shrink = level.graph.node_count() as f64 / current.node_count() as f64;
        current = level.graph.clone();
        levels.push(level);
        if shrink > 0.9 {
            break; // diminishing returns (e.g. star graphs)
        }
    }
    levels
}

/// The scalar matching pass the library's `heavy_edge_matching`
/// replaced: probes a per-node `Option<NodeId>` array and keeps the
/// running best through a branchy compare.
pub fn heavy_edge_matching_reference(
    g: &CsrGraph,
    order: &[usize],
    mate: &mut Vec<Option<NodeId>>,
) -> bool {
    let n = g.node_count();
    mate.clear();
    mate.resize(n, None);
    let mut matched_any = false;
    for &i in order {
        let u = NodeId::new(i);
        if mate[i].is_some() {
            continue;
        }
        // Unmatched neighbor of maximum edge weight, smallest index on
        // ties.
        let weights = g.neighbor_weights(u);
        let mut best: Option<(NodeId, i64)> = None;
        for (j, &v) in g.neighbors(u).iter().enumerate() {
            if v == u || mate[v.index()].is_some() {
                continue;
            }
            let w = weights[j];
            let better = match best {
                None => true,
                Some((bv, bw)) => w > bw || (w == bw && v < bv),
            };
            if better {
                best = Some((v, w));
            }
        }
        if let Some((v, _)) = best {
            mate[i] = Some(v);
            mate[v.index()] = Some(u);
            matched_any = true;
        }
    }
    matched_any
}

/// Computes, for node `u`, the edge weight connecting it to each part
/// (fresh allocation per call — the pattern the library's `GainTable`
/// replaced).
fn connectivity(g: &Graph, p: &Partition, u: NodeId) -> Vec<i64> {
    let mut conn = vec![0i64; p.k()];
    for &(v, w) in g.neighbors_weighted(u) {
        conn[p.part_of(v)] += w;
    }
    conn
}

/// Reference greedy boundary refinement (recompute-per-visit).
///
/// # Panics
///
/// Panics if graph and partition sizes disagree.
pub fn refine(
    g: &Graph,
    p: &mut Partition,
    max_part_weight: i64,
    passes: usize,
    rng: &mut Rng,
) -> i64 {
    assert_eq!(g.node_count(), p.len(), "graph size mismatch");
    let mut weights = p.part_weights(g);
    let mut total_gain = 0i64;
    let mut order: Vec<usize> = (0..g.node_count()).collect();
    for _ in 0..passes {
        rng.shuffle(&mut order);
        let mut moved = false;
        for &i in &order {
            let u = NodeId::new(i);
            let from = p.part_of(u);
            let conn = connectivity(g, p, u);
            let wu = g.node_weight(u);
            // Best target: maximize conn[to] − conn[from] under balance.
            let mut best: Option<(usize, i64)> = None;
            for to in 0..p.k() {
                if to == from || weights[to] + wu > max_part_weight {
                    continue;
                }
                let gain = conn[to] - conn[from];
                if gain > 0 && best.is_none_or(|(_, g0)| gain > g0) {
                    best = Some((to, gain));
                }
            }
            if let Some((to, gain)) = best {
                p.assign(u, to);
                weights[from] -= wu;
                weights[to] += wu;
                total_gain += gain;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    total_gain
}

/// Reference FM-style hill-climbing refinement (recompute-per-candidate).
///
/// # Panics
///
/// Panics if graph and partition sizes disagree.
pub fn fm_refine(g: &Graph, p: &mut Partition, max_part_weight: i64, rounds: usize) -> i64 {
    /// Tentative moves per FM round.
    const MAX_FM_MOVES: usize = 384;
    assert_eq!(g.node_count(), p.len(), "graph size mismatch");
    let n = g.node_count();
    let k = p.k();
    let mut total_gain = 0i64;
    let mut conn = vec![0i64; k];
    for _ in 0..rounds {
        let mut weights = p.part_weights(g);
        let mut locked = vec![false; n];
        let mut boundary = vec![false; n];
        for (a, b, _) in g.edges() {
            if p.part_of(a) != p.part_of(b) {
                boundary[a.index()] = true;
                boundary[b.index()] = true;
            }
        }
        // (node, from, to, gain) in application order.
        let mut moves: Vec<(NodeId, usize, usize, i64)> = Vec::new();
        let mut cum = 0i64;
        let mut best_cum = 0i64;
        let mut best_prefix = 0usize;
        loop {
            // Best single move over unlocked boundary nodes.
            let mut best: Option<(NodeId, usize, i64)> = None;
            for i in 0..n {
                if locked[i] || !boundary[i] {
                    continue;
                }
                let u = NodeId::new(i);
                let from = p.part_of(u);
                let wu = g.node_weight(u);
                conn.iter_mut().for_each(|c| *c = 0);
                for &(v, w) in g.neighbors_weighted(u) {
                    conn[p.part_of(v)] += w;
                }
                for (to, &c_to) in conn.iter().enumerate() {
                    if to == from || weights[to] + wu > max_part_weight {
                        continue;
                    }
                    let gain = c_to - conn[from];
                    if best.is_none_or(|(_, _, g0)| gain > g0) {
                        best = Some((u, to, gain));
                    }
                }
            }
            let Some((u, to, gain)) = best else { break };
            let from = p.part_of(u);
            let wu = g.node_weight(u);
            p.assign(u, to);
            weights[from] -= wu;
            weights[to] += wu;
            locked[u.index()] = true;
            // The move may expose new boundary nodes.
            for v in g.neighbors(u) {
                boundary[v.index()] = true;
            }
            cum += gain;
            moves.push((u, from, to, gain));
            if cum > best_cum {
                best_cum = cum;
                best_prefix = moves.len();
            }
            // Deep negative excursions rarely recover; bail out early.
            if cum < best_cum - 30 || moves.len() >= MAX_FM_MOVES {
                break;
            }
        }
        // Roll back past the best prefix.
        for &(u, from, _, _) in moves.iter().skip(best_prefix).rev() {
            p.assign(u, from);
        }
        total_gain += best_cum;
        if best_cum == 0 {
            break;
        }
    }
    total_gain
}

/// Reference best-effort rebalance.
pub fn rebalance(g: &Graph, p: &mut Partition, max_part_weight: i64, rng: &mut Rng) -> bool {
    let mut weights = p.part_weights(g);
    let mut order: Vec<usize> = (0..g.node_count()).collect();
    rng.shuffle(&mut order);
    for _ in 0..2 * g.node_count() {
        let Some(over) = (0..p.k()).find(|&c| weights[c] > max_part_weight) else {
            return true;
        };
        let mut best: Option<(NodeId, usize, i64)> = None;
        for &i in &order {
            let u = NodeId::new(i);
            if p.part_of(u) != over {
                continue;
            }
            let wu = g.node_weight(u);
            let conn = connectivity(g, p, u);
            for to in 0..p.k() {
                if to == over || weights[to] + wu > max_part_weight {
                    continue;
                }
                let gain = conn[to] - conn[over];
                if best.is_none_or(|(_, _, g0)| gain > g0) {
                    best = Some((u, to, gain));
                }
            }
        }
        let Some((u, to, _)) = best else {
            return false; // nothing movable
        };
        let wu = g.node_weight(u);
        weights[over] -= wu;
        weights[to] += wu;
        p.assign(u, to);
    }
    (0..p.k()).all(|c| weights[c] <= max_part_weight)
}

/// Maximum part weight implied by a config for a given graph.
fn weight_bound(g: &Graph, k: usize, alpha: f64) -> i64 {
    let total = g.total_node_weight();
    let bound = (alpha * total as f64 / k as f64).ceil() as i64;
    let heaviest = g.nodes().map(|n| g.node_weight(n)).max().unwrap_or(0);
    bound.max(heaviest)
}

/// Reference greedy graph growing for the coarsest-graph partition.
fn initial_partition(g: &Graph, k: usize, max_w: i64, rng: &mut Rng) -> Partition {
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
        let candidates: Vec<usize> = (0..n).filter(|&i| assignment[i] == usize::MAX).collect();
        let seed = *candidates
            .iter()
            .min_by_key(|&&i| (g.degree(NodeId::new(i)), rng.next_u64() & 0xffff))
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
            for v in g.neighbors(u) {
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

/// The pre-optimization multilevel k-way driver, byte-for-byte the
/// algorithm the CSR path replaced. Must produce partitions identical to
/// `mbqc_partition::multilevel_kway` for every input and seed.
#[must_use]
pub fn multilevel_kway(g: &Graph, config: &KwayConfig) -> Partition {
    /// Node-count bound under which the quadratic FM pass runs at a level.
    const FM_LIMIT: usize = 2000;
    assert!(config.k >= 1, "k must be positive");
    assert!(config.alpha >= 1.0, "alpha must be at least 1");
    let mut rng = Rng::seed_from_u64(config.seed);
    if config.k == 1 || g.node_count() <= config.k {
        let assignment = (0..g.node_count()).map(|i| i % config.k).collect();
        return Partition::new(assignment, config.k);
    }
    let max_w = weight_bound(g, config.k, config.alpha);
    let target_coarse = (config.k * 16).max(48);
    let levels = coarsen_to(g, target_coarse, &mut rng);

    let coarsest: &Graph = levels.last().map_or(g, |l| &l.graph);
    // Restart probes with per-probe forked RNGs, matching the scheme of
    // the optimized driver (which may run the probes in parallel): all
    // probe streams are forked up front and the earliest lowest-cut
    // probe wins, sequentially here. This is the one deliberate
    // departure from the pre-overhaul driver, shared by both paths so
    // the bit-identity tests keep pinning the CSR port itself.
    let mut probe_rngs: Vec<Rng> = (0..config.initial_restarts.max(1))
        .map(|_| rng.fork())
        .collect();
    let mut best: Option<(i64, Partition)> = None;
    for probe_rng in &mut probe_rngs {
        let mut candidate = initial_partition(coarsest, config.k, max_w, probe_rng);
        let _ = refine(
            coarsest,
            &mut candidate,
            max_w,
            config.refine_passes,
            probe_rng,
        );
        let _ = fm_refine(coarsest, &mut candidate, max_w, 3);
        let cut = candidate.cut_weight(coarsest);
        if best.as_ref().is_none_or(|&(c, _)| cut < c) {
            best = Some((cut, candidate));
        }
    }
    let mut part = best.expect("at least one probe ran").1;

    let mut fm_runs = 0usize;
    for level_idx in (0..levels.len()).rev() {
        let finer: &Graph = if level_idx == 0 {
            g
        } else {
            &levels[level_idx - 1].graph
        };
        let map = &levels[level_idx].map;
        let assignment: Vec<usize> = (0..finer.node_count())
            .map(|i| part.part_of(map[i]))
            .collect();
        part = Partition::new(assignment, config.k);
        let _ = refine(finer, &mut part, max_w, config.refine_passes, &mut rng);
        if finer.node_count() <= FM_LIMIT && fm_runs < 4 {
            let _ = fm_refine(finer, &mut part, max_w, 2);
            fm_runs += 1;
        }
    }
    if !part.is_balanced(g, config.alpha) {
        let _ = rebalance(g, &mut part, max_w, &mut rng);
        let _ = refine(g, &mut part, max_w, config.refine_passes, &mut rng);
    }
    part
}
