//! The [`Partition`] type and its quality metrics.

use mbqc_graph::{CsrGraph, Graph, NodeId};
use mbqc_util::codec::{CodecError, Decoder, Encoder};

/// A k-way assignment of graph nodes to parts `0..k`.
///
/// # Examples
///
/// ```
/// use mbqc_graph::generate;
/// use mbqc_partition::Partition;
///
/// let g = generate::path_graph(4);
/// let p = Partition::new(vec![0, 0, 1, 1], 2);
/// assert_eq!(p.cut_weight(&g), 1); // only the middle edge is cut
/// assert!((p.imbalance(&g) - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<usize>,
    k: usize,
}

impl Partition {
    /// Wraps an assignment vector.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or any entry is `≥ k`.
    #[must_use]
    pub fn new(assignment: Vec<usize>, k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(
            assignment.iter().all(|&p| p < k),
            "assignment references part >= k"
        );
        Self { assignment, k }
    }

    /// Puts every node in part 0 (the monolithic "partition").
    #[must_use]
    pub fn trivial(n: usize) -> Self {
        Self {
            assignment: vec![0; n],
            k: 1,
        }
    }

    /// Number of parts.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when the partition covers no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Part of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    #[must_use]
    pub fn part_of(&self, n: NodeId) -> usize {
        self.assignment[n.index()]
    }

    /// The raw assignment vector.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Reassigns node `n` to `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part >= k` or `n` out of range.
    pub fn assign(&mut self, n: NodeId, part: usize) {
        assert!(part < self.k, "part out of range");
        self.assignment[n.index()] = part;
    }

    /// Nodes of each part, in node order.
    #[must_use]
    pub fn parts(&self) -> Vec<Vec<NodeId>> {
        let mut parts = vec![Vec::new(); self.k];
        for (i, &p) in self.assignment.iter().enumerate() {
            parts[p].push(NodeId::new(i));
        }
        parts
    }

    /// Total node weight per part.
    ///
    /// # Panics
    ///
    /// Panics if the graph size disagrees with the assignment.
    #[must_use]
    pub fn part_weights(&self, g: &Graph) -> Vec<i64> {
        assert_eq!(g.node_count(), self.assignment.len(), "graph size mismatch");
        let mut w = vec![0i64; self.k];
        for n in g.nodes() {
            w[self.assignment[n.index()]] += g.node_weight(n);
        }
        w
    }

    /// Edges crossing parts, as `(a, b, weight)`.
    pub fn cut_edges<'g>(
        &'g self,
        g: &'g Graph,
    ) -> impl Iterator<Item = (NodeId, NodeId, i64)> + 'g {
        assert_eq!(g.node_count(), self.assignment.len(), "graph size mismatch");
        g.edges()
            .filter(move |(a, b, _)| self.assignment[a.index()] != self.assignment[b.index()])
    }

    /// Number of cut edges.
    #[must_use]
    pub fn cut_size(&self, g: &Graph) -> usize {
        self.cut_edges(g).count()
    }

    /// Total weight of cut edges.
    #[must_use]
    pub fn cut_weight(&self, g: &Graph) -> i64 {
        self.cut_edges(g).map(|(_, _, w)| w).sum()
    }

    /// Imbalance factor: `max part weight / (total weight / k)`.
    /// A perfectly balanced partition scores 1.0.
    #[must_use]
    pub fn imbalance(&self, g: &Graph) -> f64 {
        Self::imbalance_of(&self.part_weights(g), self.k)
    }

    /// `true` when every part's weight is within `alpha · total/k`.
    #[must_use]
    pub fn is_balanced(&self, g: &Graph, alpha: f64) -> bool {
        self.imbalance(g) <= alpha + 1e-9
    }

    fn imbalance_of(weights: &[i64], k: usize) -> f64 {
        let total: i64 = weights.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let max = weights.iter().copied().max().unwrap_or(0);
        max as f64 * k as f64 / total as f64
    }

    /// Total node weight per part, computed from a CSR view.
    ///
    /// # Panics
    ///
    /// Panics if the graph size disagrees with the assignment.
    #[must_use]
    pub fn part_weights_csr(&self, g: &CsrGraph) -> Vec<i64> {
        let mut w = Vec::new();
        self.part_weights_csr_into(g, &mut w);
        w
    }

    /// [`Partition::part_weights_csr`] into a caller-owned buffer
    /// (cleared and refilled) — the refinement hot path calls this once
    /// per hierarchy level.
    ///
    /// # Panics
    ///
    /// Panics if the graph size disagrees with the assignment.
    pub fn part_weights_csr_into(&self, g: &CsrGraph, w: &mut Vec<i64>) {
        assert_eq!(g.node_count(), self.assignment.len(), "graph size mismatch");
        w.clear();
        w.resize(self.k, 0);
        for n in g.nodes() {
            w[self.assignment[n.index()]] += g.node_weight(n);
        }
    }

    /// Total weight of cut edges, computed from a CSR view.
    ///
    /// # Panics
    ///
    /// Panics if the graph size disagrees with the assignment.
    #[must_use]
    pub fn cut_weight_csr(&self, g: &CsrGraph) -> i64 {
        assert_eq!(g.node_count(), self.assignment.len(), "graph size mismatch");
        // Each cut edge is seen from both endpoints; halve at the end.
        let mut twice = 0i64;
        for u in g.nodes() {
            let pu = self.assignment[u.index()];
            let weights = g.neighbor_weights(u);
            for (i, v) in g.neighbors(u).iter().enumerate() {
                if self.assignment[v.index()] != pu {
                    twice += weights[i];
                }
            }
        }
        twice / 2
    }

    /// [`Partition::imbalance`] computed from a CSR view.
    #[must_use]
    pub fn imbalance_csr(&self, g: &CsrGraph) -> f64 {
        Self::imbalance_of(&self.part_weights_csr(g), self.k)
    }

    /// [`Partition::is_balanced`] computed from a CSR view.
    #[must_use]
    pub fn is_balanced_csr(&self, g: &CsrGraph, alpha: f64) -> bool {
        self.imbalance_csr(g) <= alpha + 1e-9
    }

    /// Serializes the partition with the hand-rolled binary codec (the
    /// `Partitioned` stage artifact of `mbqc-service`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        // Exact, so the stored artifact carries no spare capacity.
        let mut e = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut e);
        debug_assert_eq!(e.len(), self.encoded_len(), "Partition::encoded_len");
        e.into_bytes()
    }

    /// The exact length of [`Partition::to_bytes`]: `k`, the
    /// assignment's length prefix and one word per node.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 * (2 + self.assignment.len())
    }

    /// Appends [`Partition::to_bytes`] to `e`.
    pub fn encode(&self, e: &mut Encoder) {
        e.usize(self.k);
        e.usize_slice(&self.assignment);
    }

    /// Decodes a partition written by [`Partition::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated input, `k == 0`, or an
    /// assignment entry `≥ k`.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let k = d.usize()?;
        if k == 0 {
            return Err(CodecError::Invalid("k must be positive"));
        }
        let assignment = d.usize_vec()?;
        if assignment.iter().any(|&p| p >= k) {
            return Err(CodecError::Invalid("assignment references part >= k"));
        }
        d.finish()?;
        Ok(Self { assignment, k })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::generate;

    #[test]
    fn trivial_partition() {
        let p = Partition::trivial(5);
        assert_eq!(p.k(), 1);
        assert_eq!(p.len(), 5);
        let g = generate::complete_graph(5);
        assert_eq!(p.cut_size(&g), 0);
        assert!((p.imbalance(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cut_accounting() {
        let g = generate::cycle_graph(6);
        let p = Partition::new(vec![0, 0, 0, 1, 1, 1], 2);
        assert_eq!(p.cut_size(&g), 2); // edges (2,3) and (5,0)
        assert_eq!(p.cut_weight(&g), 2);
        let cut: Vec<_> = p.cut_edges(&g).collect();
        assert_eq!(cut.len(), 2);
    }

    #[test]
    fn part_weights_with_node_weights() {
        let mut g = generate::path_graph(3);
        g.set_node_weight(NodeId::new(2), 10);
        let p = Partition::new(vec![0, 1, 1], 2);
        assert_eq!(p.part_weights(&g), vec![1, 11]);
        assert!((p.imbalance(&g) - 11.0 * 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn balance_check() {
        let g = generate::path_graph(4);
        let balanced = Partition::new(vec![0, 0, 1, 1], 2);
        assert!(balanced.is_balanced(&g, 1.0));
        let skewed = Partition::new(vec![0, 0, 0, 1], 2);
        assert!(!skewed.is_balanced(&g, 1.2));
        assert!(skewed.is_balanced(&g, 1.5));
    }

    #[test]
    fn parts_listing() {
        let p = Partition::new(vec![1, 0, 1], 2);
        let parts = p.parts();
        assert_eq!(parts[0], vec![NodeId::new(1)]);
        assert_eq!(parts[1], vec![NodeId::new(0), NodeId::new(2)]);
    }

    #[test]
    fn assign_moves_node() {
        let g = generate::path_graph(2);
        let mut p = Partition::new(vec![0, 1], 2);
        assert_eq!(p.cut_size(&g), 1);
        p.assign(NodeId::new(1), 0);
        assert_eq!(p.cut_size(&g), 0);
    }

    #[test]
    #[should_panic(expected = "references part")]
    fn invalid_assignment_panics() {
        let _ = Partition::new(vec![0, 2], 2);
    }

    #[test]
    fn codec_round_trip_and_validation() {
        let p = Partition::new(vec![1, 0, 2, 1], 3);
        let bytes = p.to_bytes();
        assert_eq!(bytes.capacity(), bytes.len(), "reserved exactly");
        let back = Partition::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        // Entries beyond k and zero k are rejected.
        let mut e = mbqc_util::Encoder::new();
        e.usize(2);
        e.usize_slice(&[0, 2]);
        assert!(Partition::from_bytes(&e.into_bytes()).is_err());
        let mut e = mbqc_util::Encoder::new();
        e.usize(0);
        e.usize_slice(&[]);
        assert!(Partition::from_bytes(&e.into_bytes()).is_err());
    }

    #[test]
    fn csr_metrics_match_graph_metrics() {
        let mut g = generate::grid_graph(5, 4);
        g.set_node_weight(NodeId::new(3), 6);
        let csr = mbqc_graph::CsrGraph::from_graph(&g);
        let p = Partition::new((0..20).map(|i| i % 3).collect(), 3);
        assert_eq!(p.part_weights_csr(&csr), p.part_weights(&g));
        assert_eq!(p.cut_weight_csr(&csr), p.cut_weight(&g));
        assert!((p.imbalance_csr(&csr) - p.imbalance(&g)).abs() < 1e-12);
        assert_eq!(p.is_balanced_csr(&csr, 1.3), p.is_balanced(&g, 1.3));
    }
}
