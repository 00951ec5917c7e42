//! Directed graphs and DAG algorithms.
//!
//! [`DiGraph`] is frozen compressed-sparse-row (CSR) storage, built once
//! from an edge list by [`DiGraph::from_edges`]: a successor array and a
//! predecessor array, each sliced per node by an offset array. Building
//! costs two passes over the edges and six allocations whatever the
//! node count, where per-node `Vec` adjacency cost two allocations per
//! node. Both arrays keep edge insertion order, so
//! [`DiGraph::to_bytes`] — and with it every digest and cache key that
//! hashes a dependency graph — is independent of the representation.

use mbqc_util::codec::{CodecError, Decoder, Encoder};

use crate::NodeId;

/// A frozen directed graph with dense node ids.
///
/// This is the workspace representation of MBQC *dependency graphs*: an
/// edge `(u, v)` means the measurement basis of `v` depends on the outcome
/// of `u` (Section II-A of the paper). The required-photon-lifetime
/// computation (Algorithm 1) walks this structure in topological order.
///
/// `successors(u)` lists `u`'s out-edges in the order they appear in
/// the edge list; `predecessors(v)` lists `v`'s in-edges in that same
/// global order.
///
/// # Examples
///
/// ```
/// use mbqc_graph::{DiGraph, NodeId};
///
/// let n: Vec<NodeId> = (0..3).map(NodeId::new).collect();
/// let d = DiGraph::from_edges(3, &[(n[0], n[1]), (n[1], n[2])]);
/// let order = d.topological_sort().expect("acyclic");
/// assert_eq!(order.len(), 3);
/// assert_eq!(d.predecessors(n[2]), &[n[1]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiGraph {
    /// `succ[succ_off[u]..succ_off[u + 1]]` are `u`'s successors.
    succ_off: Vec<u32>,
    succ: Vec<NodeId>,
    /// `pred[pred_off[v]..pred_off[v + 1]]` are `v`'s predecessors.
    pred_off: Vec<u32>,
    pred: Vec<NodeId>,
}

impl Default for DiGraph {
    fn default() -> Self {
        Self::from_edges(0, &[])
    }
}

impl DiGraph {
    /// Creates an empty directed graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the graph on `n` nodes from its edge list. A repeated
    /// edge is kept once, at its first occurrence.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds endpoints or self-loops.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Self {
        let total = u32::try_from(edges.len()).expect("edge count overflow");
        let mut succ_off = vec![0u32; n + 1];
        let mut pred_off = vec![0u32; n + 1];
        for &(u, v) in edges {
            assert!(u.index() < n, "node {u} out of bounds");
            assert!(v.index() < n, "node {v} out of bounds");
            assert_ne!(u, v, "self-loops are not allowed");
            succ_off[u.index() + 1] += 1;
            pred_off[v.index() + 1] += 1;
        }
        for i in 0..n {
            succ_off[i + 1] += succ_off[i];
            pred_off[i + 1] += pred_off[i];
        }
        // Fill cursors: each node's next free slot.
        let mut succ_end = succ_off[..n].to_vec();
        let mut pred_end = pred_off[..n].to_vec();
        let mut succ = vec![NodeId::default(); total as usize];
        let mut pred = vec![NodeId::default(); total as usize];
        let mut repeats = false;
        for &(u, v) in edges {
            let (start, end) = (succ_off[u.index()] as usize, succ_end[u.index()] as usize);
            if succ[start..end].contains(&v) {
                repeats = true;
                continue;
            }
            succ[end] = v;
            succ_end[u.index()] += 1;
            pred[pred_end[v.index()] as usize] = u;
            pred_end[v.index()] += 1;
        }
        if repeats {
            compact(&mut succ_off, &succ_end, &mut succ);
            compact(&mut pred_off, &pred_end, &mut pred);
        }
        Self {
            succ_off,
            succ,
            pred_off,
            pred,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.succ_off.len() - 1
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succ.len()
    }

    fn check(&self, n: NodeId) {
        assert!(n.index() < self.node_count(), "node {n} out of bounds");
    }

    /// Returns `true` if edge `from → to` exists.
    #[must_use]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.check(to);
        self.successors(from).contains(&to)
    }

    /// Successors (out-neighbors) of `n`.
    #[must_use]
    pub fn successors(&self, n: NodeId) -> &[NodeId] {
        self.check(n);
        let i = n.index();
        &self.succ[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Predecessors (in-neighbors) of `n` — the `Parent(u)` set in
    /// Algorithm 1 of the paper.
    #[must_use]
    pub fn predecessors(&self, n: NodeId) -> &[NodeId] {
        self.check(n);
        let i = n.index();
        &self.pred[self.pred_off[i] as usize..self.pred_off[i + 1] as usize]
    }

    /// In-degree of `n`.
    #[must_use]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.predecessors(n).len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over all edges `(from, to)`, grouped by `from`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.successors(u).iter().map(move |&v| (u, v)))
    }

    /// Kahn's algorithm: returns a topological order, or `None` if the
    /// graph contains a cycle.
    ///
    /// Ties are broken by node index — the ready node with the lowest
    /// index goes first — so the order is deterministic.
    ///
    /// Costs O(E + V log₆₄ V) and allocates. Callers that sweep the same
    /// DAG repeatedly (an optimisation loop re-evaluating Algorithm 1)
    /// should sort once and reuse the order.
    #[must_use]
    pub fn topological_sort(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut in_deg: Vec<u32> = self.pred_off.windows(2).map(|w| w[1] - w[0]).collect();
        let mut ready = MinQueue::new(n);
        for (i, &d) in in_deg.iter().enumerate() {
            if d == 0 {
                ready.push(i);
            }
        }
        let mut order = Vec::with_capacity(n);
        while let Some(i) = ready.pop() {
            let u = NodeId::new(i);
            order.push(u);
            for &s in self.successors(u) {
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    ready.push(s.index());
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Returns `true` if the graph is acyclic.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        self.topological_sort().is_some()
    }

    /// Length (edge count) of the longest path in the DAG.
    ///
    /// This bounds the depth of any real-time feed-forward chain in an
    /// MBQC program: the critical path of adaptive measurements.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    #[must_use]
    pub fn longest_path_len(&self) -> usize {
        self.depths().into_iter().max().unwrap_or(0)
    }

    /// Per-node depth (longest incoming path length) in topological order.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    #[must_use]
    pub fn depths(&self) -> Vec<usize> {
        let order = self.topological_sort().expect("graph has a cycle");
        let mut depth = vec![0usize; self.node_count()];
        for u in order {
            for &v in self.successors(u) {
                depth[v.index()] = depth[v.index()].max(depth[u.index()] + 1);
            }
        }
        depth
    }

    /// Serializes the graph with the hand-rolled binary codec (see
    /// [`mbqc_util::codec`]): the node count, then every node's
    /// successor list, then every node's predecessor list, each list
    /// length-prefixed. Both directions are encoded so the round trip
    /// preserves *insertion order*, not just the edge set — decoded
    /// graphs are `==` to the original and every order-sensitive
    /// traversal visits neighbors identically.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut e);
        debug_assert_eq!(e.len(), self.encoded_len(), "DiGraph::encoded_len");
        e.into_bytes()
    }

    /// The exact length of [`DiGraph::to_bytes`]: the node count, two
    /// list lengths per node and one word per edge in each direction.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 * (1 + 2 * self.node_count() + 2 * self.edge_count())
    }

    /// Appends [`DiGraph::to_bytes`] to `e`.
    pub fn encode(&self, e: &mut Encoder) {
        e.usize(self.node_count());
        for (off, adj) in [(&self.succ_off, &self.succ), (&self.pred_off, &self.pred)] {
            for w in off.windows(2) {
                let list = &adj[w[0] as usize..w[1] as usize];
                e.usize(list.len());
                for v in list {
                    e.usize(v.index());
                }
            }
        }
    }

    /// Decodes a graph written by [`DiGraph::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated input, out-of-range node
    /// ids, or adjacency lists that are not mirror images of each
    /// other.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes, true)
    }

    /// Decodes a graph from a *trusted, integrity-checked* source —
    /// bytes produced by [`DiGraph::to_bytes`] on the other side of a
    /// checksummed transport. Skips the `pred`/`succ` mirror
    /// consistency check (a consistency audit, not a panic guard);
    /// node-id range checks and every structural error stay typed, so
    /// arbitrary bytes still never panic. Durable storage must keep
    /// using [`DiGraph::from_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated input or out-of-range node
    /// ids.
    pub fn from_bytes_trusted(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes, false)
    }

    fn decode(bytes: &[u8], verify_mirror: bool) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let n = d.len_hint()?;
        let (succ_off, succ) = read_adjacency(&mut d, n)?;
        let (pred_off, pred) = read_adjacency(&mut d, n)?;
        d.finish()?;
        let g = Self {
            succ_off,
            succ,
            pred_off,
            pred,
        };
        if verify_mirror && !g.pred_mirrors_succ() {
            return Err(CodecError::Invalid("pred does not mirror succ"));
        }
        Ok(g)
    }

    /// Whether the two directions describe the same edge *multiset* —
    /// existence checks alone would accept multiplicity mismatches.
    /// O(V + E), no sort: the successor lists are transposed into the
    /// predecessor array's slots, then each node's transposed sources
    /// and its predecessor list are compared by counting.
    fn pred_mirrors_succ(&self) -> bool {
        let n = self.node_count();
        if self.pred.len() != self.succ.len() {
            return false;
        }
        let mut cursor = self.pred_off[..n].to_vec();
        let mut sources = vec![NodeId::default(); self.succ.len()];
        for u in self.nodes() {
            for &v in self.successors(u) {
                let c = &mut cursor[v.index()];
                if *c == self.pred_off[v.index() + 1] {
                    return false; // more in-edges than `v` lists
                }
                sources[*c as usize] = u;
                *c += 1;
            }
        }
        // Equal totals and no overfull node: every node's slots are
        // exactly full, so per-node counts settle the multisets.
        let mut count = vec![0u32; n];
        for w in self.pred_off.windows(2) {
            let range = w[0] as usize..w[1] as usize;
            for &u in &sources[range.clone()] {
                count[u.index()] += 1;
            }
            for &u in &self.pred[range] {
                if count[u.index()] == 0 {
                    return false;
                }
                count[u.index()] -= 1;
            }
        }
        true
    }
}

/// A set of indices below a fixed bound that pops its minimum: one
/// bitset per level, where bit `i` of level `k + 1` marks a non-zero
/// word `i` of level `k`, up to a single top word. Push and pop touch
/// one word per level.
struct MinQueue {
    levels: Vec<Vec<u64>>,
}

impl MinQueue {
    fn new(n: usize) -> Self {
        let mut levels = Vec::new();
        let mut len = n;
        loop {
            let words = len.div_ceil(64).max(1);
            levels.push(vec![0u64; words]);
            if words == 1 {
                return Self { levels };
            }
            len = words;
        }
    }

    fn push(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                return; // the levels above already mark this word
            }
            i /= 64;
        }
    }

    fn pop(&mut self) -> Option<usize> {
        if self.levels.last()?[0] == 0 {
            return None;
        }
        let mut min = 0;
        for level in self.levels.iter().rev() {
            min = 64 * min + level[min].trailing_zeros() as usize;
        }
        let mut i = min;
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                break;
            }
            i /= 64;
        }
        Some(min)
    }
}

/// Closes the gaps a build with repeated edges left: node `i`'s kept
/// entries are `adj[off[i]..end[i]]`; afterwards `off` bounds them
/// contiguously again.
fn compact(off: &mut [u32], end: &[u32], adj: &mut Vec<NodeId>) {
    let mut write = 0u32;
    for (i, &e) in end.iter().enumerate() {
        let start = off[i];
        adj.copy_within(start as usize..e as usize, write as usize);
        off[i] = write;
        write += e - start;
    }
    off[end.len()] = write;
    adj.truncate(write as usize);
}

/// Reads `n` length-prefixed adjacency lists into CSR offsets plus one
/// flat id array.
fn read_adjacency(d: &mut Decoder<'_>, n: usize) -> Result<(Vec<u32>, Vec<NodeId>), CodecError> {
    let mut off = Vec::with_capacity(n + 1);
    let mut adj = Vec::new();
    off.push(0u32);
    for _ in 0..n {
        let len = d.len_hint()?;
        adj.reserve(len);
        for _ in 0..len {
            let v = d.usize()?;
            if v >= n {
                return Err(CodecError::Invalid("node id out of range"));
            }
            adj.push(NodeId::new(v));
        }
        off.push(u32::try_from(adj.len()).map_err(|_| CodecError::Invalid("edge count overflow"))?);
    }
    Ok((off, adj))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn di(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        let edges: Vec<(NodeId, NodeId)> = edges
            .iter()
            .map(|&(u, v)| (NodeId::new(u), NodeId::new(v)))
            .collect();
        DiGraph::from_edges(n, &edges)
    }

    fn chain(n: usize) -> DiGraph {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (i - 1, i)).collect();
        di(n, &edges)
    }

    #[test]
    fn build_and_query() {
        let d = di(2, &[(0, 1), (0, 1)]);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(d.edge_count(), 1, "repeated edges are kept once");
        assert!(d.has_edge(a, b));
        assert!(!d.has_edge(b, a));
        assert_eq!(d.successors(a).len(), 1);
        assert_eq!(d.in_degree(b), 1);
        assert_eq!(d.predecessors(b), &[a]);
        assert_eq!(DiGraph::new().node_count(), 0);
    }

    #[test]
    fn repeated_edges_keep_first_occurrence_order() {
        let d = di(4, &[(0, 3), (1, 3), (0, 3), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(d, di(4, &[(0, 3), (1, 3), (0, 2), (2, 3)]));
        let n: Vec<NodeId> = d.nodes().collect();
        assert_eq!(d.successors(n[0]), &[n[3], n[2]]);
        assert_eq!(d.predecessors(n[3]), &[n[0], n[1], n[2]]);
        assert_eq!(d.edge_count(), 4);
    }

    #[test]
    fn topo_sort_chain() {
        let d = chain(5);
        let order = d.topological_sort().unwrap();
        assert_eq!(order, (0..5).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn codec_round_trip_preserves_insertion_order() {
        // Edges out of index order, so pred lists are not sorted.
        let d = di(4, &[(2, 3), (0, 3), (0, 1)]);
        let n: Vec<NodeId> = d.nodes().collect();
        let back = DiGraph::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.predecessors(n[3]), &[n[2], n[0]]);
        assert_eq!(back.successors(n[0]), &[n[3], n[1]]);
    }

    #[test]
    fn codec_bytes_are_pinned() {
        // The layout every digest and cache key over a dependency graph
        // hashes: node count, successor lists, predecessor lists, each
        // length-prefixed, all little-endian u64 words.
        let d = di(4, &[(2, 3), (0, 3), (0, 1)]);
        #[rustfmt::skip]
        let words: [u64; 15] = [
            4,
            2, 3, 1,  0,  1, 3,  0,
            0,  1, 0,  0,  2, 2, 0,
        ];
        let pinned: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(d.to_bytes(), pinned);
        assert_eq!(DiGraph::new().to_bytes(), 0u64.to_le_bytes());
    }

    #[test]
    fn codec_rejects_corruption() {
        let d = chain(3);
        let bytes = d.to_bytes();
        assert!(DiGraph::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut truncated = bytes.clone();
        truncated.push(0);
        assert!(DiGraph::from_bytes(&truncated).is_err());
        // An out-of-range node id (low byte of the final LE u64).
        let mut bad = bytes;
        let len = bad.len();
        bad[len - 8] = 200;
        assert!(DiGraph::from_bytes(&bad).is_err());

        let encode = |succ: [&[usize]; 3], pred: [&[usize]; 3]| {
            let mut e = Encoder::new();
            e.usize(3);
            for list in succ.iter().chain(&pred) {
                e.usize(list.len());
                for &v in *list {
                    e.usize(v);
                }
            }
            e.into_bytes()
        };
        // Directions that agree on edge existence and total count but
        // not multiplicity: succ says 0→1 ×2, 0→2 ×1; pred says 0→1 ×1,
        // 0→2 ×2. The multiset comparison must reject it.
        let bad = encode([&[1, 1, 2], &[], &[]], [&[], &[0], &[0, 0]]);
        assert!(DiGraph::from_bytes(&bad).is_err());
        // A pred-only edge balanced by a duplicated succ entry.
        let bad = encode([&[1, 1], &[], &[]], [&[], &[0], &[0]]);
        assert!(DiGraph::from_bytes(&bad).is_err());
        // Equal in-degrees everywhere, wrong sources: succ says 0→2 and
        // 1→2; pred says 2 ← 0 twice.
        let bad = encode([&[2], &[2], &[]], [&[], &[], &[0, 0]]);
        assert!(DiGraph::from_bytes(&bad).is_err());
        // Fewer edges listed in pred than in succ.
        let bad = encode([&[1, 2], &[], &[]], [&[], &[0], &[]]);
        assert!(DiGraph::from_bytes(&bad).is_err());
        // A mirrored pair with the pred list in another order decodes.
        let ok = encode([&[2], &[2], &[]], [&[], &[], &[1, 0]]);
        assert!(DiGraph::from_bytes(&ok).is_ok());
        // The trusted path skips only the mirror audit.
        let bad = encode([&[1, 1, 2], &[], &[]], [&[], &[0], &[0, 0]]);
        assert!(DiGraph::from_bytes_trusted(&bad).is_ok());
        let mut out_of_range = encode([&[1], &[], &[]], [&[], &[0], &[]]);
        let len = out_of_range.len();
        out_of_range[len - 16] = 9;
        assert!(DiGraph::from_bytes_trusted(&out_of_range).is_err());
    }

    #[test]
    fn min_queue_pops_in_index_order() {
        // Sizes around each level boundary; pushes interleaved with pops
        // and lower than the last popped index, as Kahn's algorithm
        // makes them. A sorted set is the reference.
        let mut rng = mbqc_util::Rng::seed_from_u64(3);
        for n in [1usize, 2, 63, 64, 65, 4095, 4096, 4097, 300_000] {
            let mut q = MinQueue::new(n);
            let mut reference = std::collections::BTreeSet::new();
            for _ in 0..2_000 {
                if rng.bernoulli(0.6) {
                    let i = rng.range(n);
                    q.push(i);
                    reference.insert(i);
                } else {
                    assert_eq!(q.pop(), reference.pop_first(), "n = {n}");
                }
            }
            while let Some(i) = reference.pop_first() {
                assert_eq!(q.pop(), Some(i), "n = {n}");
            }
            assert_eq!(q.pop(), None);
        }
        assert_eq!(MinQueue::new(0).pop(), None);
    }

    #[test]
    fn topo_sort_is_linear_extension() {
        // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
        let d = di(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let order = d.topological_sort().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 4];
            for (i, u) in order.iter().enumerate() {
                p[u.index()] = i;
            }
            p
        };
        for (u, v) in d.edges() {
            assert!(pos[u.index()] < pos[v.index()]);
        }
    }

    #[test]
    fn cycle_detected() {
        let d = di(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!(d.topological_sort().is_none());
        assert!(!d.is_acyclic());
    }

    #[test]
    fn longest_path() {
        assert_eq!(chain(6).longest_path_len(), 5);
        assert_eq!(di(3, &[]).longest_path_len(), 0);
    }

    #[test]
    fn depths_diamond() {
        let d = di(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert_eq!(d.depths(), vec![0, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let _ = di(1, &[(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_edge_panics() {
        let _ = di(2, &[(0, 2)]);
    }
}
