//! Frozen compressed-sparse-row (CSR) graph view.
//!
//! [`Graph`] stores adjacency as `Vec<Vec<(NodeId, i64)>>` — convenient to
//! mutate, but every neighbor scan chases a pointer per node and the lists
//! are scattered across the heap. The partitioner visits every adjacency
//! list hundreds of times per multilevel pass, so it runs on this frozen
//! view instead: three flat arrays (`offsets`, `neighbors`, `weights`)
//! laid out contiguously, built once in O(V + E).
//!
//! Neighbor order is preserved exactly from the source [`Graph`], so any
//! algorithm ported from adjacency lists to CSR slices visits nodes in the
//! same order and — given the same RNG — produces bit-identical results
//! (property-tested in `mbqc-partition`).

use crate::{Graph, NodeId};

/// An immutable CSR snapshot of a [`Graph`].
///
/// `neighbors[offsets[u]..offsets[u+1]]` are `u`'s neighbors in the same
/// order as `Graph::neighbors_weighted(u)`; `weights` is the parallel edge
/// weight array. Splitting neighbors and weights keeps pure-topology scans
/// (BFS, matching) at half the memory traffic.
///
/// # Examples
///
/// ```
/// use mbqc_graph::{CsrGraph, Graph};
///
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.nodes().collect();
/// g.add_edge_weighted(n[0], n[1], 2);
/// g.add_edge(n[1], n[2]);
/// let csr = CsrGraph::from_graph(&g);
/// assert_eq!(csr.degree(n[1]), 2);
/// assert_eq!(csr.weighted_degree(n[1]), 3);
/// assert_eq!(csr.neighbors(n[0]), &[n[1]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[u]..offsets[u+1]` bounds node `u`'s adjacency slice.
    offsets: Vec<u32>,
    /// Concatenated neighbor lists (each undirected edge appears twice).
    neighbors: Vec<NodeId>,
    /// Edge weights parallel to `neighbors`.
    weights: Vec<i64>,
    node_weights: Vec<i64>,
    edge_count: usize,
    total_edge_weight: i64,
}

impl CsrGraph {
    /// Freezes `g` into CSR form. O(V + E); neighbor order is preserved.
    #[must_use]
    pub fn from_graph(g: &Graph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * g.edge_count());
        let mut weights = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0u32);
        for u in g.nodes() {
            for &(v, w) in g.neighbors_weighted(u) {
                neighbors.push(v);
                weights.push(w);
            }
            offsets.push(neighbors.len() as u32);
        }
        Self {
            offsets,
            neighbors,
            weights,
            node_weights: g.nodes().map(|u| g.node_weight(u)).collect(),
            edge_count: g.edge_count(),
            total_edge_weight: g.total_edge_weight(),
        }
    }

    /// Freezes `g` into CSR form with the node weights *overridden* by
    /// `node_weights`, leaving `g` untouched. Adjacency order matches
    /// [`CsrGraph::from_graph`] exactly, so partitioning a reweighted
    /// view is bit-identical to cloning the graph, rewriting its node
    /// weights, and freezing the clone — without duplicating the
    /// adjacency structure.
    ///
    /// # Panics
    ///
    /// Panics if `node_weights.len() != g.node_count()`.
    #[must_use]
    pub fn from_graph_with_node_weights(g: &Graph, node_weights: Vec<i64>) -> Self {
        assert_eq!(
            node_weights.len(),
            g.node_count(),
            "node weight count mismatch"
        );
        let mut csr = Self::from_graph(g);
        csr.node_weights = node_weights;
        csr
    }

    /// Builds a CSR graph directly from its raw arrays — the
    /// zero-copy constructor for graph-contraction passes that
    /// assemble the flat arrays themselves (e.g. the partitioner's
    /// coarse-graph rebuild).
    ///
    /// `offsets[u]..offsets[u+1]` must bound node `u`'s adjacency
    /// slice in `neighbors`/`weights`, and each undirected edge must
    /// appear in both endpoint slices with equal weight (symmetry is
    /// the caller's contract; only the total counts are checked here).
    ///
    /// # Panics
    ///
    /// Panics if the array shapes are inconsistent or the adjacency
    /// length is odd.
    #[must_use]
    pub fn from_csr_parts(
        offsets: Vec<u32>,
        neighbors: Vec<NodeId>,
        weights: Vec<i64>,
        node_weights: Vec<i64>,
    ) -> Self {
        assert_eq!(offsets.len(), node_weights.len() + 1, "offset count");
        assert_eq!(offsets.first(), Some(&0), "offsets must start at 0");
        assert_eq!(
            *offsets.last().expect("non-empty offsets") as usize,
            neighbors.len(),
            "offsets must end at the adjacency length"
        );
        assert_eq!(neighbors.len(), weights.len(), "parallel array length");
        assert!(
            neighbors.len().is_multiple_of(2),
            "each undirected edge must appear twice"
        );
        let total_edge_weight: i64 = weights.iter().sum::<i64>() / 2;
        let edge_count = neighbors.len() / 2;
        Self {
            offsets,
            neighbors,
            weights,
            node_weights,
            edge_count,
            total_edge_weight,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of distinct undirected edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of all edge weights.
    #[must_use]
    pub fn total_edge_weight(&self) -> i64 {
        self.total_edge_weight
    }

    /// Sum of all node weights.
    #[must_use]
    pub fn total_node_weight(&self) -> i64 {
        self.node_weights.iter().sum()
    }

    /// `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.node_count() == 0
    }

    #[inline]
    fn bounds(&self, u: NodeId) -> (usize, usize) {
        let i = u.index();
        (self.offsets[i] as usize, self.offsets[i + 1] as usize)
    }

    /// Number of neighbors of `u`.
    #[must_use]
    #[inline]
    pub fn degree(&self, u: NodeId) -> usize {
        let (lo, hi) = self.bounds(u);
        hi - lo
    }

    /// Sum of incident edge weights of `u`.
    #[must_use]
    #[inline]
    pub fn weighted_degree(&self, u: NodeId) -> i64 {
        let (lo, hi) = self.bounds(u);
        self.weights[lo..hi].iter().sum()
    }

    /// Weight of node `u`.
    #[must_use]
    #[inline]
    pub fn node_weight(&self, u: NodeId) -> i64 {
        self.node_weights[u.index()]
    }

    /// Heaviest node weight (0 for an empty graph).
    #[must_use]
    pub fn max_node_weight(&self) -> i64 {
        self.node_weights.iter().copied().max().unwrap_or(0)
    }

    /// The neighbor slice of `u`, in insertion order.
    #[must_use]
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[NodeId] {
        let (lo, hi) = self.bounds(u);
        &self.neighbors[lo..hi]
    }

    /// The edge-weight slice of `u`, parallel to [`CsrGraph::neighbors`].
    #[must_use]
    #[inline]
    pub fn neighbor_weights(&self, u: NodeId) -> &[i64] {
        let (lo, hi) = self.bounds(u);
        &self.weights[lo..hi]
    }

    /// Iterates `(neighbor, edge_weight)` pairs of `u`.
    #[inline]
    pub fn adj(&self, u: NodeId) -> impl Iterator<Item = (NodeId, i64)> + '_ {
        let (lo, hi) = self.bounds(u);
        self.neighbors[lo..hi]
            .iter()
            .copied()
            .zip(self.weights[lo..hi].iter().copied())
    }

    /// Iterates node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates all edges as `(a, b, weight)` with `a < b`, in the same
    /// order as [`Graph::edges`] on the source graph.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, i64)> + '_ {
        self.nodes().flat_map(move |a| {
            self.adj(a)
                .filter(move |&(b, _)| a < b)
                .map(move |(b, w)| (a, b, w))
        })
    }
}

impl From<&Graph> for CsrGraph {
    fn from(g: &Graph) -> Self {
        Self::from_graph(g)
    }
}

/// Accumulating CSR constructor for graph-contraction passes (multilevel
/// coarsening, Louvain aggregation).
///
/// Parallel edge insertions merge their weights, and every adjacency list
/// keeps its neighbors in *first-encounter order* — exactly the order
/// `Graph::add_edge_weighted` would produce — so contraction passes built
/// on it stay bit-identical to their adjacency-list references. Unlike
/// the `Graph` path, no per-node `Vec`s are allocated: pairs are deduped
/// through a flat open-addressed table and the CSR arrays are filled in
/// two counting passes.
///
/// # Examples
///
/// ```
/// use mbqc_graph::{csr::CsrBuilder, NodeId};
///
/// let mut b = CsrBuilder::new(vec![1, 1, 2]);
/// b.add_edge(NodeId::new(0), NodeId::new(1), 2);
/// b.add_edge(NodeId::new(1), NodeId::new(0), 3); // merges
/// b.add_edge(NodeId::new(1), NodeId::new(2), 1);
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.neighbor_weights(NodeId::new(1)), &[5, 1]);
/// ```
#[derive(Debug)]
pub struct CsrBuilder {
    node_weights: Vec<i64>,
    /// Distinct undirected edges in first-encounter order.
    pairs: Vec<(u32, u32, i64)>,
    /// Open-addressed map: normalized pair key → index into `pairs`,
    /// split into parallel key/value arrays so probing touches only the
    /// dense key array (and clearing the table memsets half the bytes).
    /// Sentinel `u64::MAX` marks empty slots (unreachable as a key since
    /// it would require `lo == hi`, and self-loops are rejected);
    /// `slot_vals` is only read where a key matched, so it is never
    /// cleared.
    slot_keys: Vec<u64>,
    slot_vals: Vec<u32>,
    mask: usize,
}

const EMPTY_KEY: u64 = u64::MAX;

impl CsrBuilder {
    /// Starts a builder over `node_weights.len()` nodes.
    #[must_use]
    pub fn new(node_weights: Vec<i64>) -> Self {
        Self {
            node_weights,
            pairs: Vec::new(),
            slot_keys: vec![EMPTY_KEY; 16],
            slot_vals: vec![0; 16],
            mask: 15,
        }
    }

    /// Pre-sizes the dedup table for an expected number of distinct edges.
    #[must_use]
    pub fn with_edge_capacity(node_weights: Vec<i64>, edges: usize) -> Self {
        let cap = (edges * 2).next_power_of_two().max(16);
        Self {
            node_weights,
            pairs: Vec::with_capacity(edges),
            slot_keys: vec![EMPTY_KEY; cap],
            slot_vals: vec![0; cap],
            mask: cap - 1,
        }
    }

    #[inline]
    fn probe(slot_keys: &[u64], mask: usize, key: u64) -> usize {
        // Fibonacci hashing; linear probing.
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & mask;
        loop {
            let k = slot_keys[i];
            if k == key || k == EMPTY_KEY {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let cap = self.slot_keys.len() * 2;
        let mask = cap - 1;
        let mut keys = vec![EMPTY_KEY; cap];
        let mut vals = vec![0u32; cap];
        for (j, &k) in self.slot_keys.iter().enumerate() {
            if k != EMPTY_KEY {
                let i = Self::probe(&keys, mask, k);
                keys[i] = k;
                vals[i] = self.slot_vals[j];
            }
        }
        self.slot_keys = keys;
        self.slot_vals = vals;
        self.mask = mask;
    }

    /// Adds weight `w` to the undirected edge `(a, b)`, creating it on
    /// first encounter.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds endpoints or self-loops.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId, w: i64) {
        let n = self.node_weights.len();
        assert!(a.index() < n && b.index() < n, "endpoint out of bounds");
        assert_ne!(a, b, "self-loops are not allowed");
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let key = ((lo.index() as u64) << 32) | hi.index() as u64;
        let i = Self::probe(&self.slot_keys, self.mask, key);
        if self.slot_keys[i] == key {
            self.pairs[self.slot_vals[i] as usize].2 += w;
            return;
        }
        self.slot_keys[i] = key;
        self.slot_vals[i] = self.pairs.len() as u32;
        // The stored pair keeps the caller's (a, b) orientation so both
        // adjacency lists append in encounter order.
        self.pairs.push((a.index() as u32, b.index() as u32, w));
        // Keep load factor under 1/2.
        if self.pairs.len() * 2 > self.slot_keys.len() {
            self.grow();
        }
    }

    /// Rearms a spent builder for a new contraction pass, reusing the
    /// pair and dedup-table allocations of previous passes. Equivalent
    /// to [`CsrBuilder::with_edge_capacity`] but without reallocating
    /// when the new table fits in the old one's footprint.
    ///
    /// The table is sized to *this* pass's edge estimate, not the
    /// historical maximum: a contraction hierarchy shrinks
    /// geometrically, and clearing a finest-level-sized table on every
    /// coarse level would cost more memset than the level's entire
    /// edge scan. (Table capacity only affects probe collisions, never
    /// the first-encounter pair order, so resizing is invisible to the
    /// built graph.)
    pub fn reset(&mut self, node_weights: Vec<i64>, edges: usize) {
        self.node_weights = node_weights;
        self.pairs.clear();
        self.pairs.reserve(edges);
        let cap = (edges * 2).next_power_of_two().max(16);
        self.slot_keys.clear();
        self.slot_keys.resize(cap, EMPTY_KEY);
        self.slot_vals.resize(cap.max(self.slot_vals.len()), 0);
        self.mask = cap - 1;
    }

    /// Freezes the accumulated edges into a [`CsrGraph`], leaving the
    /// builder's allocations behind for [`CsrBuilder::reset`]. The
    /// builder is *spent* afterwards (zero nodes) until reset.
    #[must_use]
    pub fn finish(&mut self) -> CsrGraph {
        let n = self.node_weights.len();
        let mut degrees = vec![0u32; n];
        for &(a, b, _) in &self.pairs {
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for &d in &degrees {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut neighbors = vec![NodeId::new(0); acc as usize];
        let mut weights = vec![0i64; acc as usize];
        let mut total_edge_weight = 0i64;
        for &(a, b, w) in &self.pairs {
            let (ai, bi) = (a as usize, b as usize);
            neighbors[cursor[ai] as usize] = NodeId::new(bi);
            weights[cursor[ai] as usize] = w;
            cursor[ai] += 1;
            neighbors[cursor[bi] as usize] = NodeId::new(ai);
            weights[cursor[bi] as usize] = w;
            cursor[bi] += 1;
            total_edge_weight += w;
        }
        CsrGraph {
            offsets,
            neighbors,
            weights,
            node_weights: std::mem::take(&mut self.node_weights),
            edge_count: self.pairs.len(),
            total_edge_weight,
        }
    }

    /// Freezes the accumulated edges into a [`CsrGraph`], consuming the
    /// builder.
    #[must_use]
    pub fn build(mut self) -> CsrGraph {
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn mirrors_source_graph() {
        let mut g = generate::grid_graph(4, 4);
        g.set_node_weight(NodeId::new(5), 7);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), g.node_count());
        assert_eq!(csr.edge_count(), g.edge_count());
        assert_eq!(csr.total_edge_weight(), g.total_edge_weight());
        assert_eq!(csr.total_node_weight(), g.total_node_weight());
        for u in g.nodes() {
            assert_eq!(csr.degree(u), g.degree(u));
            assert_eq!(csr.weighted_degree(u), g.weighted_degree(u));
            assert_eq!(csr.node_weight(u), g.node_weight(u));
            let adj: Vec<(NodeId, i64)> = csr.adj(u).collect();
            assert_eq!(adj.as_slice(), g.neighbors_weighted(u));
        }
    }

    #[test]
    fn edges_order_matches_graph() {
        // Random edges inserted in scrambled order.
        let mut rng = mbqc_util::Rng::seed_from_u64(1);
        let mut g = Graph::with_nodes(30);
        for _ in 0..90 {
            let (a, b) = (rng.range(30), rng.range(30));
            if a != b {
                g.add_edge(NodeId::new(a), NodeId::new(b));
            }
        }
        let csr = CsrGraph::from_graph(&g);
        let a: Vec<_> = g.edges().collect();
        let b: Vec<_> = csr.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph() {
        let csr = CsrGraph::from_graph(&Graph::new());
        assert!(csr.is_empty());
        assert_eq!(csr.node_count(), 0);
        assert_eq!(csr.edges().count(), 0);
    }

    #[test]
    fn builder_matches_graph_construction_order() {
        // Insert edges in a scrambled, duplicated order; the builder must
        // produce the same CSR as the equivalent Graph construction.
        let mut rng = mbqc_util::Rng::seed_from_u64(9);
        let n = 40;
        let mut edges: Vec<(usize, usize, i64)> = Vec::new();
        for _ in 0..200 {
            let a = rng.range(n);
            let b = rng.range(n);
            if a != b {
                edges.push((a, b, 1 + rng.range(5) as i64));
            }
        }
        let mut g = Graph::with_nodes(n);
        let mut b = CsrBuilder::new(vec![1i64; n]);
        for &(x, y, w) in &edges {
            g.add_edge_weighted(NodeId::new(x), NodeId::new(y), w);
            b.add_edge(NodeId::new(x), NodeId::new(y), w);
        }
        assert_eq!(b.build(), CsrGraph::from_graph(&g));
    }

    #[test]
    fn builder_with_capacity_grows_past_hint() {
        let n = 30;
        let mut b = CsrBuilder::with_edge_capacity(vec![1i64; n], 2);
        for i in 0..n {
            for j in (i + 1)..n {
                b.add_edge(NodeId::new(i), NodeId::new(j), 1);
            }
        }
        let g = b.build();
        assert_eq!(g.edge_count(), n * (n - 1) / 2);
    }

    #[test]
    fn weighted_view_matches_rewritten_clone() {
        let g = generate::grid_graph(5, 4);
        let weights: Vec<i64> = g.nodes().map(|u| 2 + g.degree(u) as i64).collect();
        let view = CsrGraph::from_graph_with_node_weights(&g, weights.clone());
        let mut clone = g.clone();
        for u in g.nodes() {
            clone.set_node_weight(u, weights[u.index()]);
        }
        assert_eq!(view, CsrGraph::from_graph(&clone));
    }

    #[test]
    fn reset_builder_reproduces_fresh_builder() {
        let mk_edges = |seed: u64, n: usize| {
            let mut rng = mbqc_util::Rng::seed_from_u64(seed);
            (0..120)
                .filter_map(|_| {
                    let a = rng.range(n);
                    let b = rng.range(n);
                    (a != b).then(|| (NodeId::new(a), NodeId::new(b), 1 + rng.range(4) as i64))
                })
                .collect::<Vec<_>>()
        };
        let mut recycled = CsrBuilder::with_edge_capacity(vec![1i64; 25], 120);
        for round in 0..4u64 {
            let n = 20 + 5 * round as usize;
            let edges = mk_edges(round, n);
            recycled.reset(vec![1i64; n], edges.len());
            let mut fresh = CsrBuilder::with_edge_capacity(vec![1i64; n], edges.len());
            for &(a, b, w) in &edges {
                recycled.add_edge(a, b, w);
                fresh.add_edge(a, b, w);
            }
            assert_eq!(recycled.finish(), fresh.build(), "round {round}");
        }
    }
}
