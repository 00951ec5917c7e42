//! Directed graphs and DAG algorithms.

use mbqc_util::codec::{CodecError, Decoder, Encoder};

use crate::NodeId;

/// A directed graph with dense node ids.
///
/// This is the workspace representation of MBQC *dependency graphs*: an
/// edge `(u, v)` means the measurement basis of `v` depends on the outcome
/// of `u` (Section II-A of the paper). The required-photon-lifetime
/// computation (Algorithm 1) walks this structure in topological order.
///
/// # Examples
///
/// ```
/// use mbqc_graph::{DiGraph, NodeId};
///
/// let mut d = DiGraph::with_nodes(3);
/// d.add_edge(NodeId::new(0), NodeId::new(1));
/// d.add_edge(NodeId::new(1), NodeId::new(2));
/// let order = d.topological_sort().expect("acyclic");
/// assert_eq!(order.len(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    succ: Vec<Vec<NodeId>>,
    pred: Vec<Vec<NodeId>>,
    edge_count: usize,
}

impl DiGraph {
    /// Creates an empty directed graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a directed graph with `n` isolated nodes.
    #[must_use]
    pub fn with_nodes(n: usize) -> Self {
        Self {
            succ: vec![Vec::new(); n],
            pred: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.succ.len());
        self.succ.push(Vec::new());
        self.pred.push(Vec::new());
        id
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.succ.len()
    }

    /// Number of edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    fn check(&self, n: NodeId) {
        assert!(n.index() < self.succ.len(), "node {n} out of bounds");
    }

    /// Adds edge `from → to` if not already present; returns `true` when a
    /// new edge was inserted.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds endpoints or self-loops.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        self.check(from);
        self.check(to);
        assert_ne!(from, to, "self-loops are not allowed");
        if self.succ[from.index()].contains(&to) {
            return false;
        }
        self.succ[from.index()].push(to);
        self.pred[to.index()].push(from);
        self.edge_count += 1;
        true
    }

    /// Returns `true` if edge `from → to` exists.
    #[must_use]
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.check(from);
        self.check(to);
        self.succ[from.index()].contains(&to)
    }

    /// Successors (out-neighbors) of `n`.
    #[must_use]
    pub fn successors(&self, n: NodeId) -> &[NodeId] {
        self.check(n);
        &self.succ[n.index()]
    }

    /// Predecessors (in-neighbors) of `n` — the `Parent(u)` set in
    /// Algorithm 1 of the paper.
    #[must_use]
    pub fn predecessors(&self, n: NodeId) -> &[NodeId] {
        self.check(n);
        &self.pred[n.index()]
    }

    /// In-degree of `n`.
    #[must_use]
    pub fn in_degree(&self, n: NodeId) -> usize {
        self.check(n);
        self.pred[n.index()].len()
    }

    /// Out-degree of `n`.
    #[must_use]
    pub fn out_degree(&self, n: NodeId) -> usize {
        self.check(n);
        self.succ[n.index()].len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.succ.len()).map(NodeId::new)
    }

    /// Iterates over all edges `(from, to)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ.iter().enumerate().flat_map(|(i, list)| {
            let from = NodeId::new(i);
            list.iter().map(move |&to| (from, to))
        })
    }

    /// Kahn's algorithm: returns a topological order, or `None` if the
    /// graph contains a cycle.
    ///
    /// Ties are broken by node index, so the order is deterministic.
    ///
    /// Costs O(E + V log V) and allocates. Callers that sweep the same DAG
    /// repeatedly (an optimisation loop re-evaluating Algorithm 1) should
    /// sort once and reuse the order.
    #[must_use]
    pub fn topological_sort(&self) -> Option<Vec<NodeId>> {
        let n = self.node_count();
        let mut in_deg: Vec<usize> = (0..n).map(|i| self.pred[i].len()).collect();
        // Min-index-first queue keeps the order deterministic.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut ready: BinaryHeap<Reverse<usize>> =
            (0..n).filter(|&i| in_deg[i] == 0).map(Reverse).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(Reverse(i)) = ready.pop() {
            order.push(NodeId::new(i));
            for &s in &self.succ[i] {
                in_deg[s.index()] -= 1;
                if in_deg[s.index()] == 0 {
                    ready.push(Reverse(s.index()));
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
        let order = self.topological_sort().expect("graph has a cycle");
        let mut depth = vec![0usize; self.node_count()];
        let mut best = 0;
        for u in order {
            for &v in &self.succ[u.index()] {
                let cand = depth[u.index()] + 1;
                if cand > depth[v.index()] {
                    depth[v.index()] = cand;
                    best = best.max(cand);
                }
            }
        }
        best
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
            for &v in &self.succ[u.index()] {
                depth[v.index()] = depth[v.index()].max(depth[u.index()] + 1);
            }
        }
        depth
    }

    /// Serializes the graph with the hand-rolled binary codec (see
    /// [`mbqc_util::codec`]). Both adjacency directions are encoded so
    /// the round trip preserves *insertion order*, not just the edge
    /// set — decoded graphs are `==` to the original and every
    /// order-sensitive traversal visits neighbors identically.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.usize(self.succ.len());
        for list in self.succ.iter().chain(&self.pred) {
            e.usize(list.len());
            for v in list {
                e.usize(v.index());
            }
        }
        e.into_bytes()
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
        let read_adj = |d: &mut Decoder<'_>| -> Result<Vec<Vec<NodeId>>, CodecError> {
            let mut adj = Vec::with_capacity(n);
            for _ in 0..n {
                let len = d.len_hint()?;
                let mut list = Vec::with_capacity(len);
                for _ in 0..len {
                    let v = d.usize()?;
                    if v >= n {
                        return Err(CodecError::Invalid("node id out of range"));
                    }
                    list.push(NodeId::new(v));
                }
                adj.push(list);
            }
            Ok(adj)
        };
        let succ = read_adj(&mut d)?;
        let pred = read_adj(&mut d)?;
        d.finish()?;
        let edge_count: usize = succ.iter().map(Vec::len).sum();
        if verify_mirror {
            // The two directions must describe the same edge *multiset* —
            // existence checks alone would accept multiplicity mismatches.
            let mut from_succ: Vec<(usize, usize)> = succ
                .iter()
                .enumerate()
                .flat_map(|(u, list)| list.iter().map(move |v| (u, v.index())))
                .collect();
            let mut from_pred: Vec<(usize, usize)> = pred
                .iter()
                .enumerate()
                .flat_map(|(v, list)| list.iter().map(move |u| (u.index(), v)))
                .collect();
            from_succ.sort_unstable();
            from_pred.sort_unstable();
            if from_succ != from_pred {
                return Err(CodecError::Invalid("pred does not mirror succ"));
            }
        }
        Ok(Self {
            succ,
            pred,
            edge_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> DiGraph {
        let mut d = DiGraph::with_nodes(n);
        for i in 0..n - 1 {
            d.add_edge(NodeId::new(i), NodeId::new(i + 1));
        }
        d
    }

    #[test]
    fn build_and_query() {
        let mut d = DiGraph::with_nodes(2);
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        assert!(d.add_edge(a, b));
        assert!(!d.add_edge(a, b), "duplicate edges are ignored");
        assert!(d.has_edge(a, b));
        assert!(!d.has_edge(b, a));
        assert_eq!(d.out_degree(a), 1);
        assert_eq!(d.in_degree(b), 1);
        assert_eq!(d.predecessors(b), &[a]);
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn topo_sort_chain() {
        let d = chain(5);
        let order = d.topological_sort().unwrap();
        assert_eq!(order, (0..5).map(NodeId::new).collect::<Vec<_>>());
    }

    #[test]
    fn codec_round_trip_preserves_insertion_order() {
        let mut d = DiGraph::with_nodes(4);
        let n: Vec<NodeId> = d.nodes().collect();
        // Insert edges out of index order so pred lists are not sorted.
        d.add_edge(n[2], n[3]);
        d.add_edge(n[0], n[3]);
        d.add_edge(n[0], n[1]);
        let back = DiGraph::from_bytes(&d.to_bytes()).unwrap();
        assert_eq!(back, d);
        assert_eq!(back.predecessors(n[3]), &[n[2], n[0]]);
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

        // Directions that agree on edge existence and total count but
        // not multiplicity: succ says 0→1 ×2, 0→2 ×1; pred says 0→1 ×1,
        // 0→2 ×2. The multiset comparison must reject it.
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
        let bad = encode([&[1, 1, 2], &[], &[]], [&[], &[0], &[0, 0]]);
        assert!(DiGraph::from_bytes(&bad).is_err());
        // A pred-only edge balanced by a duplicated succ entry.
        let bad = encode([&[1, 1], &[], &[]], [&[], &[0], &[0]]);
        assert!(DiGraph::from_bytes(&bad).is_err());
    }

    #[test]
    fn topo_sort_is_linear_extension() {
        // Diamond: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3.
        let mut d = DiGraph::with_nodes(4);
        let n: Vec<NodeId> = d.nodes().collect();
        d.add_edge(n[0], n[1]);
        d.add_edge(n[0], n[2]);
        d.add_edge(n[1], n[3]);
        d.add_edge(n[2], n[3]);
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
        let mut d = chain(3);
        d.add_edge(NodeId::new(2), NodeId::new(0));
        assert!(d.topological_sort().is_none());
        assert!(!d.is_acyclic());
    }

    #[test]
    fn longest_path() {
        assert_eq!(chain(6).longest_path_len(), 5);
        let d = DiGraph::with_nodes(3);
        assert_eq!(d.longest_path_len(), 0);
    }

    #[test]
    fn depths_diamond() {
        let mut d = DiGraph::with_nodes(4);
        let n: Vec<NodeId> = d.nodes().collect();
        d.add_edge(n[0], n[1]);
        d.add_edge(n[0], n[2]);
        d.add_edge(n[1], n[3]);
        d.add_edge(n[2], n[3]);
        assert_eq!(d.depths(), vec![0, 1, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        let mut d = DiGraph::with_nodes(1);
        d.add_edge(NodeId::new(0), NodeId::new(0));
    }
}
