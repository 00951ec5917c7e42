//! Undirected graphs with node and edge weights.

use mbqc_util::codec::{CodecError, Decoder, Encoder};

use crate::NodeId;

/// An undirected graph with integer node and edge weights.
///
/// This is the workspace representation of MBQC *computation graphs* (graph
/// states): vertices are photons/qubits, edges are entanglement. It is also
/// the input to the partitioner, where node weights carry resource demand
/// and edge weights carry multiplicity after coarsening.
///
/// Nodes have dense ids (`0..node_count`) assigned in insertion order.
/// Parallel edge insertions accumulate weight on the existing edge (the
/// behaviour multilevel coarsening needs). Self-loops are rejected.
///
/// # Examples
///
/// ```
/// use mbqc_graph::Graph;
///
/// let mut g = Graph::with_nodes(3);
/// let n: Vec<_> = g.nodes().collect();
/// g.add_edge(n[0], n[1]);
/// g.add_edge(n[1], n[2]);
/// assert_eq!(g.edge_count(), 2);
/// assert_eq!(g.degree(n[1]), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adj: Vec<Vec<(NodeId, i64)>>,
    node_weights: Vec<i64>,
    edge_count: usize,
    total_edge_weight: i64,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` isolated nodes of weight 1.
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        Self {
            adj: vec![Vec::new(); n],
            node_weights: vec![1; n],
            edge_count: 0,
            total_edge_weight: 0,
        }
    }

    /// Adds a node of weight 1 and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.add_node_weighted(1)
    }

    /// Adds a node with the given weight and returns its id.
    pub fn add_node_weighted(&mut self, weight: i64) -> NodeId {
        let id = NodeId::new(self.adj.len());
        self.adj.push(Vec::new());
        self.node_weights.push(weight);
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct edges (parallel insertions merge).
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

    /// Returns `true` if the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    fn check(&self, n: NodeId) {
        assert!(n.index() < self.adj.len(), "node {n} out of bounds");
    }

    /// Adds an edge of weight 1 between `a` and `b`, accumulating weight if
    /// the edge already exists. Returns `true` if a new edge was created.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds or if `a == b`
    /// (self-loops are meaningless in a graph state).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        self.add_edge_weighted(a, b, 1)
    }

    /// Adds an edge with the given weight, accumulating onto an existing
    /// edge. Returns `true` if a new edge was created.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds endpoints or self-loops.
    pub fn add_edge_weighted(&mut self, a: NodeId, b: NodeId, weight: i64) -> bool {
        self.check(a);
        self.check(b);
        assert_ne!(a, b, "self-loops are not allowed");
        self.total_edge_weight += weight;
        if let Some(entry) = self.adj[a.index()].iter_mut().find(|(n, _)| *n == b) {
            entry.1 += weight;
            let back = self.adj[b.index()]
                .iter_mut()
                .find(|(n, _)| *n == a)
                .expect("adjacency symmetry violated");
            back.1 += weight;
            false
        } else {
            self.adj[a.index()].push((b, weight));
            self.adj[b.index()].push((a, weight));
            self.edge_count += 1;
            true
        }
    }

    /// Removes the edge between `a` and `b`; returns its weight if present.
    pub fn remove_edge(&mut self, a: NodeId, b: NodeId) -> Option<i64> {
        self.check(a);
        self.check(b);
        let pos = self.adj[a.index()].iter().position(|(n, _)| *n == b)?;
        let (_, w) = self.adj[a.index()].swap_remove(pos);
        let back = self.adj[b.index()]
            .iter()
            .position(|(n, _)| *n == a)
            .expect("adjacency symmetry violated");
        self.adj[b.index()].swap_remove(back);
        self.edge_count -= 1;
        self.total_edge_weight -= w;
        Some(w)
    }

    /// Returns `true` if `a` and `b` are adjacent.
    #[must_use]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.check(a);
        self.check(b);
        self.adj[a.index()].iter().any(|(n, _)| *n == b)
    }

    /// Returns the weight of edge `(a, b)`, if present.
    #[must_use]
    pub fn edge_weight(&self, a: NodeId, b: NodeId) -> Option<i64> {
        self.check(a);
        self.check(b);
        self.adj[a.index()]
            .iter()
            .find(|(n, _)| *n == b)
            .map(|(_, w)| *w)
    }

    /// Number of neighbors of `n`.
    #[must_use]
    pub fn degree(&self, n: NodeId) -> usize {
        self.check(n);
        self.adj[n.index()].len()
    }

    /// Sum of incident edge weights of `n`.
    #[must_use]
    pub fn weighted_degree(&self, n: NodeId) -> i64 {
        self.check(n);
        self.adj[n.index()].iter().map(|(_, w)| *w).sum()
    }

    /// Weight of node `n`.
    #[must_use]
    pub fn node_weight(&self, n: NodeId) -> i64 {
        self.check(n);
        self.node_weights[n.index()]
    }

    /// Sets the weight of node `n`.
    pub fn set_node_weight(&mut self, n: NodeId, weight: i64) {
        self.check(n);
        self.node_weights[n.index()] = weight;
    }

    /// Iterates over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adj.len()).map(NodeId::new)
    }

    /// Iterates over the neighbors of `n`.
    pub fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.check(n);
        self.adj[n.index()].iter().map(|(m, _)| *m)
    }

    /// Returns the `(neighbor, edge_weight)` adjacency list of `n`.
    #[must_use]
    pub fn neighbors_weighted(&self, n: NodeId) -> &[(NodeId, i64)] {
        self.check(n);
        &self.adj[n.index()]
    }

    /// Iterates over all edges as `(a, b, weight)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, i64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(i, list)| {
            let a = NodeId::new(i);
            list.iter()
                .filter(move |(b, _)| a < *b)
                .map(move |(b, w)| (a, *b, *w))
        })
    }

    /// Builds the induced subgraph on `keep` (in the given order).
    ///
    /// Returns the subgraph plus a mapping `old → Option<new>`; node and
    /// edge weights are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `keep` contains an out-of-bounds or duplicate node.
    #[must_use]
    pub fn induced_subgraph(&self, keep: &[NodeId]) -> (Graph, Vec<Option<NodeId>>) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.node_count()];
        let mut sub = Graph::new();
        for &old in keep {
            self.check(old);
            assert!(map[old.index()].is_none(), "duplicate node {old} in keep");
            let new = sub.add_node_weighted(self.node_weight(old));
            map[old.index()] = Some(new);
        }
        for &old in keep {
            let new_a = map[old.index()].expect("just inserted");
            for &(nb, w) in self.neighbors_weighted(old) {
                if let Some(new_b) = map[nb.index()] {
                    if new_a < new_b {
                        sub.add_edge_weighted(new_a, new_b, w);
                    }
                }
            }
        }
        (sub, map)
    }

    /// Serializes the graph with the hand-rolled binary codec (see
    /// [`mbqc_util::codec`]). The full adjacency structure is encoded
    /// verbatim — both endpoint lists, in insertion order — so the
    /// round trip preserves neighbor iteration order, and decoded
    /// graphs are `==` to the original (which is what the pattern wire
    /// codec needs: downstream compilation is order-sensitive and the
    /// remote matrix pins bit-identical schedules).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut e);
        e.into_bytes()
    }

    /// The exact length of [`Graph::to_bytes`]: node count, per-node
    /// weight and list length, and 16 bytes per half-edge
    /// (2·edge_count halves).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 + 16 * self.adj.len() + 32 * self.edge_count
    }

    /// Appends [`Graph::to_bytes`] to `e`.
    pub fn encode(&self, e: &mut Encoder) {
        e.usize(self.adj.len());
        for w in &self.node_weights {
            e.i64(*w);
        }
        for list in &self.adj {
            e.usize(list.len());
            for (v, w) in list {
                e.usize(v.index());
                e.i64(*w);
            }
        }
    }

    /// Decodes a graph written by [`Graph::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated input, out-of-range node
    /// ids, self-loops, duplicate neighbors, or adjacency lists that
    /// are not weight-preserving mirror images of each other. This is
    /// the non-panicking counterpart to building the graph by hand —
    /// hostile bytes from the network must never abort the server.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let n = d.len_hint()?;
        let mut node_weights = Vec::with_capacity(n);
        for _ in 0..n {
            node_weights.push(d.i64()?);
        }
        let mut adj: Vec<Vec<(NodeId, i64)>> = Vec::with_capacity(n);
        for u in 0..n {
            let len = d.len_hint()?;
            // One bounds check for the whole list, then a fixed-stride
            // walk over the raw bytes — this decode sits on the network
            // submit path, where per-field decoder calls were measurable.
            let raw = d.raw(len.checked_mul(16).ok_or(CodecError::UnexpectedEof)?)?;
            let mut list: Vec<(NodeId, i64)> = Vec::with_capacity(len);
            for entry in raw.chunks_exact(16) {
                let v = u64::from_le_bytes(entry[..8].try_into().expect("8-byte field"));
                let v = usize::try_from(v).map_err(|_| CodecError::Invalid("usize overflow"))?;
                if v >= n {
                    return Err(CodecError::Invalid("node id out of range"));
                }
                if v == u {
                    return Err(CodecError::Invalid("self-loop"));
                }
                let w = i64::from_le_bytes(entry[8..].try_into().expect("8-byte field"));
                if list.iter().any(|(m, _)| m.index() == v) {
                    return Err(CodecError::Invalid("duplicate neighbor"));
                }
                list.push((NodeId::new(v), w));
            }
            adj.push(list);
        }
        d.finish()?;
        // Each undirected edge must appear in exactly both endpoint
        // lists with equal weight; half-edges or weight mismatches are
        // corrupt. Duplicate neighbors were rejected above, so the
        // mirror lookup is unambiguous: every half-edge either finds
        // its unique equal-weight mirror or the graph is invalid. This
        // is O(E·deg) with no allocation — decode sits on the network
        // submit path, where the old sort-based pairing was measurable.
        let mut edge_count = 0usize;
        let mut total_edge_weight = 0i64;
        for (u, list) in adj.iter().enumerate() {
            for &(v, w) in list {
                let mirrored = adj[v.index()]
                    .iter()
                    .any(|&(m, mw)| m.index() == u && mw == w);
                if !mirrored {
                    return Err(CodecError::Invalid("adjacency is not symmetric"));
                }
                if u < v.index() {
                    edge_count += 1;
                    total_edge_weight += w;
                }
            }
        }
        Ok(Self {
            adj,
            node_weights,
            edge_count,
            total_edge_weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        g
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node_weighted(5);
        assert!(g.add_edge(a, b));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.node_weight(b), 5);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert_eq!(g.edge_weight(a, b), Some(1));
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut g = Graph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(g.add_edge_weighted(a, b, 2));
        assert!(!g.add_edge_weighted(a, b, 3));
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(a, b), Some(5));
        assert_eq!(g.edge_weight(b, a), Some(5));
        assert_eq!(g.total_edge_weight(), 5);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut g = Graph::with_nodes(1);
        g.add_edge(NodeId::new(0), NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        let g = Graph::with_nodes(1);
        let _ = g.degree(NodeId::new(5));
    }

    #[test]
    fn remove_edge_roundtrip() {
        let mut g = path(3);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert_eq!(g.remove_edge(a, b), Some(1));
        assert_eq!(g.remove_edge(a, b), None);
        assert_eq!(g.edge_count(), 1);
        assert!(!g.has_edge(a, b));
        assert_eq!(g.total_edge_weight(), 1);
    }

    #[test]
    fn degrees() {
        let g = path(4);
        assert_eq!(g.degree(NodeId::new(0)), 1);
        assert_eq!(g.degree(NodeId::new(1)), 2);
        assert_eq!(g.weighted_degree(NodeId::new(1)), 2);
    }

    #[test]
    fn edges_iterate_once_each() {
        let g = path(5);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        for (a, b, w) in edges {
            assert!(a < b);
            assert_eq!(w, 1);
        }
    }

    #[test]
    fn total_node_weight() {
        let mut g = Graph::with_nodes(3);
        g.set_node_weight(NodeId::new(1), 10);
        assert_eq!(g.total_node_weight(), 12);
    }

    #[test]
    fn induced_subgraph_preserves_structure() {
        // Triangle 0-1-2 plus pendant 3 on node 2.
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge(n[0], n[1]);
        g.add_edge_weighted(n[1], n[2], 7);
        g.add_edge(n[0], n[2]);
        g.add_edge(n[2], n[3]);
        g.set_node_weight(n[2], 9);

        let (sub, map) = g.induced_subgraph(&[n[1], n[2]]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        let s1 = map[1].unwrap();
        let s2 = map[2].unwrap();
        assert_eq!(sub.edge_weight(s1, s2), Some(7));
        assert_eq!(sub.node_weight(s2), 9);
        assert!(map[0].is_none());
        assert!(map[3].is_none());
    }

    #[test]
    fn induced_subgraph_empty_selection() {
        let g = path(3);
        let (sub, map) = g.induced_subgraph(&[]);
        assert!(sub.is_empty());
        assert!(map.iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_duplicate_panics() {
        let g = path(3);
        let _ = g.induced_subgraph(&[NodeId::new(0), NodeId::new(0)]);
    }

    #[test]
    fn codec_round_trips_with_order() {
        let mut g = Graph::with_nodes(4);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge_weighted(n[2], n[0], 3);
        g.add_edge(n[0], n[1]);
        g.add_edge_weighted(n[1], n[3], 5);
        g.set_node_weight(n[3], -2);
        assert_eq!(g.to_bytes().len(), g.encoded_len(), "the length is exact");
        let back = Graph::from_bytes(&g.to_bytes()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.total_edge_weight(), g.total_edge_weight());
        // Insertion order of adjacency survives.
        let nb: Vec<NodeId> = back.neighbors(n[0]).collect();
        assert_eq!(nb, vec![n[2], n[1]]);
    }

    #[test]
    fn codec_rejects_corruption() {
        let mut g = path(3);
        g.add_edge(NodeId::new(0), NodeId::new(2));
        let bytes = g.to_bytes();
        assert!(Graph::from_bytes(&bytes[..bytes.len() - 1]).is_err());

        // A half-edge (present in one endpoint list only) is corrupt.
        let mut e = Encoder::new();
        e.usize(2);
        e.i64(1);
        e.i64(1);
        e.usize(1); // node 0: one neighbor
        e.usize(1);
        e.i64(1);
        e.usize(0); // node 1: empty
        assert!(Graph::from_bytes(&e.into_bytes()).is_err());

        // Mirrored edge with mismatched weight is corrupt.
        let mut e = Encoder::new();
        e.usize(2);
        e.i64(1);
        e.i64(1);
        e.usize(1);
        e.usize(1);
        e.i64(1);
        e.usize(1);
        e.usize(0);
        e.i64(2);
        assert!(Graph::from_bytes(&e.into_bytes()).is_err());

        // Self-loops and out-of-range ids are rejected, not panicked on.
        let mut e = Encoder::new();
        e.usize(1);
        e.i64(1);
        e.usize(1);
        e.usize(0);
        e.i64(1);
        assert!(Graph::from_bytes(&e.into_bytes()).is_err());
        let mut e = Encoder::new();
        e.usize(1);
        e.i64(1);
        e.usize(1);
        e.usize(7);
        e.i64(1);
        assert!(Graph::from_bytes(&e.into_bytes()).is_err());
    }
}
