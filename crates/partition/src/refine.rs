//! Boundary refinement (greedy Kernighan–Lin/Fiduccia–Mattheyses style).
//!
//! The hot path of the whole partitioner: every multilevel level runs
//! several refinement passes, and every pass visits every node. The seed
//! implementation recomputed a `Vec<i64>` connectivity vector per visit
//! (one heap allocation and one full adjacency scan each); this version
//! iterates CSR slices and maintains the node→part connectivity table
//! *incrementally* in a [`GainTable`] — built once in O(E), updated in
//! O(deg) per applied move, with zero allocation per visit.
//!
//! Move semantics are bit-identical to the recompute-from-scratch
//! adjacency-list oracle in this crate's tests, which the equivalence
//! proptests assert.

use mbqc_graph::{CsrGraph, NodeId};
use mbqc_util::Rng;

use crate::Partition;

/// Incrementally maintained connectivity state: `conn[u][c]` is the total
/// edge weight from node `u` to part `c`.
///
/// Building costs O(E); applying a move costs O(deg(u)). Since a node's
/// connectivity row only changes when a *neighbor* moves, the table stays
/// exact under any sequence of [`GainTable::apply_move`] calls.
#[derive(Debug, Default)]
pub struct GainTable {
    k: usize,
    /// Row-major `n × k` connectivity matrix.
    conn: Vec<i64>,
}

impl GainTable {
    /// Builds the table for `p` on `g`.
    #[must_use]
    pub fn build(g: &CsrGraph, p: &Partition) -> Self {
        let mut table = Self {
            k: p.k(),
            conn: Vec::new(),
        };
        table.rebuild(g, p);
        table
    }

    /// Rebuilds in place for a new partition (reuses the buffer, and
    /// re-shapes it when the graph or `k` changed since the last
    /// build — the multilevel driver moves one table through every
    /// hierarchy level).
    pub fn rebuild(&mut self, g: &CsrGraph, p: &Partition) {
        let (n, k) = (g.node_count(), p.k());
        self.k = k;
        self.conn.clear();
        self.conn.resize(n * k, 0);
        for u in g.nodes() {
            let row = u.index() * k;
            for (v, w) in g.adj(u) {
                self.conn[row + p.part_of(v)] += w;
            }
        }
    }

    /// The connectivity row of `u` (edge weight to each part).
    #[must_use]
    #[inline]
    pub fn conn(&self, u: NodeId) -> &[i64] {
        let row = u.index() * self.k;
        &self.conn[row..row + self.k]
    }

    /// Records that `u` moved from part `from` to part `to`, updating the
    /// connectivity rows of `u`'s neighbors. O(deg(u)).
    #[inline]
    pub fn apply_move(&mut self, g: &CsrGraph, u: NodeId, from: usize, to: usize) {
        let weights = g.neighbor_weights(u);
        for (i, &v) in g.neighbors(u).iter().enumerate() {
            let row = v.index() * self.k;
            let w = weights[i];
            self.conn[row + from] -= w;
            self.conn[row + to] += w;
        }
    }
}

/// Reusable scratch for [`refine_csr_with`]: the connectivity table,
/// visit-order buffer, and part-weight vector survive across calls, so
/// the multilevel driver stops re-allocating them at every hierarchy
/// level. Results are bit-identical to the allocating entry point.
#[derive(Debug, Default)]
pub struct RefineWorkspace {
    gains: GainTable,
    order: Vec<usize>,
    weights: Vec<i64>,
    /// `movable[i]` ⇔ some part beats `i`'s current connectivity
    /// (`∃ to ≠ from: conn[to] > conn[from]`) — a necessary condition
    /// for a positive-gain move that ignores the balance bound, so
    /// skipping nodes with the flag clear cannot change any decision.
    movable: Vec<bool>,
    /// FM scratch: per-node moved-this-round flag.
    locked: Vec<bool>,
    /// FM scratch: per-node ≥ 1-cross-part-edge flag.
    boundary: Vec<bool>,
    /// FM scratch: compact unlocked-boundary candidate list.
    active: Vec<u32>,
    /// FM scratch: tentative `(node, from, to, gain)` move log.
    moves: Vec<(NodeId, usize, usize, i64)>,
}

impl RefineWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// Refines `p` in place with greedy boundary moves: each pass visits
/// nodes in random order and moves a node to the neighboring part with
/// the highest positive cut gain, subject to the balance bound
/// `max part weight ≤ max_part_weight`. Stops early when a pass makes no
/// move.
///
/// Returns the total cut-weight improvement.
///
/// # Panics
///
/// Panics if graph and partition sizes disagree.
pub fn refine_csr(
    g: &CsrGraph,
    p: &mut Partition,
    max_part_weight: i64,
    passes: usize,
    rng: &mut Rng,
) -> i64 {
    refine_csr_with(
        g,
        p,
        max_part_weight,
        passes,
        rng,
        &mut RefineWorkspace::new(),
    )
}

/// [`refine_csr`] with caller-owned scratch — identical moves and RNG
/// consumption, zero steady-state allocation.
///
/// # Panics
///
/// Panics if graph and partition sizes disagree.
pub fn refine_csr_with(
    g: &CsrGraph,
    p: &mut Partition,
    max_part_weight: i64,
    passes: usize,
    rng: &mut Rng,
    ws: &mut RefineWorkspace,
) -> i64 {
    assert_eq!(g.node_count(), p.len(), "graph size mismatch");
    let RefineWorkspace {
        gains,
        order,
        weights,
        movable,
        ..
    } = ws;
    p.part_weights_csr_into(g, weights);
    gains.rebuild(g, p);
    let k = p.k();
    let n = g.node_count();
    // A node's gain to part `to` is conn[to] − conn[from]; only nodes
    // where some other part's connectivity beats the home part's can
    // ever produce a positive-gain move, and a node's row only changes
    // when it or a neighbor moves. Tracking that predicate per node
    // turns the pass body into a flag check for the (typical) interior
    // majority — the move sequence and RNG stream are untouched.
    let flag_of = |gains: &GainTable, p: &Partition, u: NodeId| {
        let conn = gains.conn(u);
        let conn_from = conn[p.part_of(u)];
        conn.iter().any(|&c| c > conn_from)
    };
    movable.clear();
    movable.resize(n, false);
    for (i, m) in movable.iter_mut().enumerate() {
        *m = flag_of(gains, p, NodeId::new(i));
    }
    let mut total_gain = 0i64;
    order.clear();
    order.extend(0..n);
    for _ in 0..passes {
        rng.shuffle(order);
        let mut moved = false;
        for &i in order.iter() {
            if !movable[i] {
                continue;
            }
            let u = NodeId::new(i);
            let from = p.part_of(u);
            let conn = gains.conn(u);
            let wu = g.node_weight(u);
            // Best target: maximize conn[to] − conn[from] under balance.
            let conn_from = conn[from];
            let mut best: Option<(usize, i64)> = None;
            for to in 0..k {
                if to == from || weights[to] + wu > max_part_weight {
                    continue;
                }
                let gain = conn[to] - conn_from;
                if gain > 0 && best.is_none_or(|(_, g0)| gain > g0) {
                    best = Some((to, gain));
                }
            }
            if let Some((to, gain)) = best {
                p.assign(u, to);
                gains.apply_move(g, u, from, to);
                weights[from] -= wu;
                weights[to] += wu;
                total_gain += gain;
                moved = true;
                // The move changed u's home part and its neighbors'
                // connectivity rows; those are the only flags affected.
                movable[i] = flag_of(gains, p, u);
                for &v in g.neighbors(u) {
                    movable[v.index()] = flag_of(gains, p, v);
                }
            }
        }
        if !moved {
            break;
        }
    }
    total_gain
}

/// Fiduccia–Mattheyses-style refinement with hill climbing: each round
/// tentatively moves every node at most once — taking the best move
/// *even when its gain is negative* — and finally rolls back to the
/// best prefix of the move sequence. This escapes the local minima that
/// stop positive-gain-only refinement (e.g. hub fan-outs in
/// fully-entangled VQE graphs).
///
/// Quadratic per round, so callers gate it to small graphs/coarse
/// levels; each round additionally caps its tentative-move sequence at
/// `MAX_FM_MOVES` (long sequences almost never recover past the best
/// prefix). Returns the total cut improvement.
///
/// # Panics
///
/// Panics if graph and partition sizes disagree.
pub fn fm_refine_csr(g: &CsrGraph, p: &mut Partition, max_part_weight: i64, rounds: usize) -> i64 {
    fm_refine_csr_with(g, p, max_part_weight, rounds, &mut RefineWorkspace::new())
}

/// [`fm_refine_csr`] with caller-owned scratch — identical moves, zero
/// steady-state allocation. Shares the [`RefineWorkspace`] with
/// [`refine_csr_with`], so the multilevel driver threads one workspace
/// through both refinement styles.
///
/// # Panics
///
/// Panics if graph and partition sizes disagree.
pub fn fm_refine_csr_with(
    g: &CsrGraph,
    p: &mut Partition,
    max_part_weight: i64,
    rounds: usize,
    ws: &mut RefineWorkspace,
) -> i64 {
    /// Tentative moves per FM round.
    const MAX_FM_MOVES: usize = 384;
    assert_eq!(g.node_count(), p.len(), "graph size mismatch");
    let n = g.node_count();
    let mut total_gain = 0i64;
    // Scratch reused across rounds: gain table, lock and boundary flags.
    let RefineWorkspace {
        gains,
        weights,
        locked,
        boundary,
        // Compact list of unlocked boundary nodes — the only candidates
        // the selection scan must visit. Entries are dropped lazily when
        // their node locks; the scan compares with an explicit
        // (gain, lowest-index, lowest-part) key, so list order is free
        // and the chosen move matches the ascending full-array scan
        // exactly.
        active,
        moves,
        ..
    } = ws;
    gains.rebuild(g, p);
    locked.clear();
    locked.resize(n, false);
    boundary.clear();
    boundary.resize(n, false);
    for round in 0..rounds {
        if round > 0 {
            gains.rebuild(g, p);
        }
        p.part_weights_csr_into(g, weights);
        locked.iter_mut().for_each(|l| *l = false);
        // Only boundary nodes (≥ 1 cross-part edge) can have
        // non-negative moves; restricting the scan to them keeps each
        // step linear in the boundary, not the graph.
        boundary.iter_mut().for_each(|b| *b = false);
        for (a, b, _) in g.edges() {
            if p.part_of(a) != p.part_of(b) {
                boundary[a.index()] = true;
                boundary[b.index()] = true;
            }
        }
        active.clear();
        active.extend((0..n as u32).filter(|&i| boundary[i as usize]));
        // (node, from, to, gain) in application order.
        moves.clear();
        let mut cum = 0i64;
        let mut best_cum = 0i64;
        let mut best_prefix = 0usize;
        loop {
            // Best single move over unlocked boundary nodes. Ties break
            // to the lowest node index, then the lowest target part —
            // what an ascending scan with a strict `>` yields.
            let mut best: Option<(NodeId, usize, i64)> = None;
            let mut write = 0;
            for r in 0..active.len() {
                let i = active[r] as usize;
                if locked[i] {
                    continue; // drop locked entries on the fly
                }
                active[write] = active[r];
                write += 1;
                let u = NodeId::new(i);
                let from = p.part_of(u);
                let wu = g.node_weight(u);
                let conn = gains.conn(u);
                let conn_from = conn[from];
                for (to, &c_to) in conn.iter().enumerate() {
                    if to == from || weights[to] + wu > max_part_weight {
                        continue;
                    }
                    let gain = c_to - conn_from;
                    let better = match best {
                        None => true,
                        Some((u0, to0, g0)) => {
                            gain > g0
                                || (gain == g0 && (u.index() < u0.index() || (u == u0 && to < to0)))
                        }
                    };
                    if better {
                        best = Some((u, to, gain));
                    }
                }
            }
            active.truncate(write);
            let Some((u, to, gain)) = best else { break };
            let from = p.part_of(u);
            let wu = g.node_weight(u);
            p.assign(u, to);
            gains.apply_move(g, u, from, to);
            weights[from] -= wu;
            weights[to] += wu;
            locked[u.index()] = true;
            // The move may expose new boundary nodes.
            for &v in g.neighbors(u) {
                if !boundary[v.index()] {
                    boundary[v.index()] = true;
                    if !locked[v.index()] {
                        active.push(v.index() as u32);
                    }
                }
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

/// Rebalances an over-weight partition by moving the cheapest boundary
/// nodes out of overloaded parts (used after projection when coarse
/// moves overshoot the bound). Best-effort: returns `true` if the bound
/// holds afterwards.
pub fn rebalance_csr(g: &CsrGraph, p: &mut Partition, max_part_weight: i64, rng: &mut Rng) -> bool {
    let mut weights = p.part_weights_csr(g);
    let k = p.k();
    let mut gains = GainTable::build(g, p);
    let mut order: Vec<usize> = (0..g.node_count()).collect();
    rng.shuffle(&mut order);
    // Repeatedly move nodes from overloaded parts to the lightest
    // feasible part, preferring moves with the least cut damage.
    for _ in 0..2 * g.node_count() {
        let Some(over) = (0..k).find(|&c| weights[c] > max_part_weight) else {
            return true;
        };
        // Candidate: node in `over` with the best (gain, weight) move.
        let mut best: Option<(NodeId, usize, i64)> = None;
        for &i in &order {
            let u = NodeId::new(i);
            if p.part_of(u) != over {
                continue;
            }
            let wu = g.node_weight(u);
            let conn = gains.conn(u);
            let conn_over = conn[over];
            for to in 0..k {
                if to == over || weights[to] + wu > max_part_weight {
                    continue;
                }
                let gain = conn[to] - conn_over;
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
        gains.apply_move(g, u, over, to);
    }
    (0..k).all(|c| weights[c] <= max_part_weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::{generate, Graph};

    #[test]
    fn refine_fixes_interleaved_path() {
        // Path 0-1-2-3-4-5 assigned alternately: cut 5. With one node of
        // slack (bound 4) greedy single-node moves reach a near-optimal
        // cut. (At a hard bound of 3 every single move is blocked — the
        // known FM limitation that pairwise swaps would lift; multilevel
        // initial partitions are contiguous so this case does not arise
        // in the k-way driver.)
        let g = generate::path_graph(6);
        let mut p = Partition::new(vec![0, 1, 0, 1, 0, 1], 2);
        let before = p.cut_weight(&g);
        let mut rng = Rng::seed_from_u64(1);
        let gain = refine_csr(&CsrGraph::from_graph(&g), &mut p, 4, 10, &mut rng);
        let after = p.cut_weight(&g);
        assert_eq!(before - gain, after);
        assert!(after <= 2, "cut after refine: {after}");
        assert!(p.is_balanced(&g, 4.0 * 2.0 / 6.0 + 1e-9));
    }

    #[test]
    fn refine_respects_balance_bound() {
        let g = generate::complete_graph(6);
        let mut p = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
        let mut rng = Rng::seed_from_u64(2);
        // In a clique every move has negative or zero gain; nothing moves.
        refine_csr(&CsrGraph::from_graph(&g), &mut p, 3, 5, &mut rng);
        let w = p.part_weights(&g);
        assert_eq!(w, vec![3, 3]);
    }

    #[test]
    fn refine_gain_matches_cut_delta() {
        let g = generate::grid_graph(6, 6);
        let mut rng = Rng::seed_from_u64(3);
        // Random assignment.
        let assignment: Vec<usize> = (0..36).map(|_| rng.range(3)).collect();
        let mut p = Partition::new(assignment, 3);
        let before = p.cut_weight(&g);
        let gain = refine_csr(&CsrGraph::from_graph(&g), &mut p, 15, 8, &mut rng);
        assert_eq!(p.cut_weight(&g), before - gain);
        assert!(gain >= 0);
    }

    #[test]
    fn rebalance_spreads_overload() {
        let g = generate::path_graph(8);
        // Everything in part 0.
        let mut p = Partition::new(vec![0; 8], 2);
        let mut rng = Rng::seed_from_u64(4);
        let csr = CsrGraph::from_graph(&g);
        assert!(rebalance_csr(&csr, &mut p, 4, &mut rng));
        let w = p.part_weights(&g);
        assert!(w.iter().all(|&x| x <= 4), "{w:?}");
    }

    #[test]
    fn rebalance_reports_impossible() {
        // One node of weight 10 cannot fit a bound of 5 anywhere.
        let mut g = Graph::with_nodes(2);
        g.set_node_weight(NodeId::new(0), 10);
        let mut p = Partition::new(vec![0, 1], 2);
        let mut rng = Rng::seed_from_u64(5);
        let csr = CsrGraph::from_graph(&g);
        assert!(!rebalance_csr(&csr, &mut p, 5, &mut rng));
    }

    #[test]
    fn gain_table_tracks_moves_exactly() {
        let g = generate::grid_graph(5, 5);
        let csr = CsrGraph::from_graph(&g);
        let mut rng = Rng::seed_from_u64(6);
        let assignment: Vec<usize> = (0..25).map(|_| rng.range(3)).collect();
        let mut p = Partition::new(assignment, 3);
        let mut gains = GainTable::build(&csr, &p);
        // Apply a few arbitrary moves, tracking through the table.
        for step in 0..10 {
            let u = NodeId::new((step * 7) % 25);
            let from = p.part_of(u);
            let to = (from + 1) % 3;
            p.assign(u, to);
            gains.apply_move(&csr, u, from, to);
        }
        // The incrementally maintained table must equal a fresh build.
        let fresh = GainTable::build(&csr, &p);
        for u in csr.nodes() {
            assert_eq!(gains.conn(u), fresh.conn(u), "node {u}");
        }
    }
}
