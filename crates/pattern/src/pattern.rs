//! The [`Pattern`] type: graph state + measurement pattern + flow.

use std::sync::{Arc, OnceLock};

use mbqc_graph::{DiGraph, Graph, NodeId};
use mbqc_util::codec::{CodecError, Decoder};
use mbqc_util::Encoder;

use crate::deps::DependencyGraph;

/// Summary statistics of a pattern (used by the Table II harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PatternStats {
    /// Total graph-state nodes (photons).
    pub nodes: usize,
    /// Entanglement edges (= fusions in OneQ's computation-graph
    /// abstraction).
    pub edges: usize,
    /// Measured (non-output) nodes.
    pub measured: usize,
    /// Logical circuit qubits (= inputs = outputs).
    pub qubits: usize,
    /// Length of the longest real-time dependency chain.
    pub dependency_depth: usize,
}

/// An MBQC program: graph state, measurement angles, and flow structure.
///
/// Nodes are created in *wire order*: each logical qubit owns a chain of
/// nodes (its timeline) and CZ gates add cross edges between chains.
/// Every non-output node `u` is measured in the XY plane at
/// [`Pattern::angle`]; by the flow theorem (Danos–Kashefi), the
/// measurement outcome `s_u` is corrected by `X^{s_u}` on the *flow
/// successor* `f(u) =` [`Pattern::wire_successor`] and `Z^{s_u}` on every
/// other neighbor of `f(u)` — which is exactly the X-/Z-dependency
/// structure of Section II-A of the paper.
///
/// Instances are produced by [`transpile`](crate::transpile::transpile);
/// the compiler crates consume [`Pattern::graph`] as the computation
/// graph and [`Pattern::real_time_dependencies`] for lifetime
/// accounting.
///
/// A pattern is immutable once built (no method takes `&mut self`), so
/// its two encodings — [`Pattern::wire_bytes`] and
/// [`Pattern::content_bytes`] — are computed at most once per value,
/// on first use, and shared by every clone made before or after that
/// use. Equality and `Debug` ignore them.
#[derive(Clone)]
pub struct Pattern {
    graph: Graph,
    angles: Vec<f64>,
    measured: Vec<bool>,
    wire_succ: Vec<Option<NodeId>>,
    qubit_of: Vec<usize>,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    encodings: Arc<Encodings>,
}

/// A pattern's encodings, filled on first use and shared by its clones.
#[derive(Default)]
struct Encodings {
    /// [`Pattern::to_bytes`].
    wire: OnceLock<Vec<u8>>,
    /// The content bytes, shared with every artifact key built on them.
    content: OnceLock<Arc<Vec<u8>>>,
}

impl PartialEq for Pattern {
    fn eq(&self, other: &Self) -> bool {
        self.graph == other.graph
            && self.angles == other.angles
            && self.measured == other.measured
            && self.wire_succ == other.wire_succ
            && self.qubit_of == other.qubit_of
            && self.inputs == other.inputs
            && self.outputs == other.outputs
    }
}

impl std::fmt::Debug for Pattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pattern")
            .field("graph", &self.graph)
            .field("angles", &self.angles)
            .field("measured", &self.measured)
            .field("wire_succ", &self.wire_succ)
            .field("qubit_of", &self.qubit_of)
            .field("inputs", &self.inputs)
            .field("outputs", &self.outputs)
            .finish()
    }
}

impl Pattern {
    /// Builds a pattern from raw parts.
    ///
    /// This is the constructor used by the transpiler; prefer
    /// [`transpile`](crate::transpile::transpile) unless you are building
    /// hand-crafted patterns (tests do).
    ///
    /// # Panics
    ///
    /// Panics if the side tables disagree with the graph size, if a
    /// measured node lacks an in-graph wire successor, or if an output
    /// node is marked measured.
    #[must_use]
    pub fn from_parts(
        graph: Graph,
        angles: Vec<f64>,
        measured: Vec<bool>,
        wire_succ: Vec<Option<NodeId>>,
        qubit_of: Vec<usize>,
        inputs: Vec<NodeId>,
        outputs: Vec<NodeId>,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(angles.len(), n, "angles table size mismatch");
        assert_eq!(measured.len(), n, "measured table size mismatch");
        assert_eq!(wire_succ.len(), n, "wire_succ table size mismatch");
        assert_eq!(qubit_of.len(), n, "qubit_of table size mismatch");
        assert_eq!(inputs.len(), outputs.len(), "inputs/outputs mismatch");
        for i in 0..n {
            let id = NodeId::new(i);
            if measured[i] {
                let succ = wire_succ[i].expect("measured node needs a flow successor");
                assert!(
                    graph.has_edge(id, succ),
                    "flow successor of {id} must be a graph neighbor"
                );
            }
        }
        for &o in &outputs {
            assert!(!measured[o.index()], "output node {o} must be unmeasured");
        }
        Self {
            graph,
            angles,
            measured,
            wire_succ,
            qubit_of,
            inputs,
            outputs,
            encodings: Arc::default(),
        }
    }

    /// The graph state — the *computation graph* the compilers partition
    /// and map.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Number of nodes (photons) in the graph state.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Measurement angle of node `n` (XY plane, radians). Only meaningful
    /// for measured nodes.
    #[must_use]
    pub fn angle(&self, n: NodeId) -> f64 {
        self.angles[n.index()]
    }

    /// Returns `true` if node `n` is measured (false for outputs).
    #[must_use]
    pub fn is_measured(&self, n: NodeId) -> bool {
        self.measured[n.index()]
    }

    /// The flow successor `f(n)`: the neighbor receiving the X byproduct
    /// of `n`'s measurement. `None` for outputs.
    #[must_use]
    pub fn wire_successor(&self, n: NodeId) -> Option<NodeId> {
        self.wire_succ[n.index()]
    }

    /// Input nodes, one per logical qubit.
    #[must_use]
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Output nodes, one per logical qubit (unmeasured).
    #[must_use]
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The flow partial-order constraints as a DAG over all nodes: for
    /// every measured `u`, edges `u → f(u)` and `u → w` for each
    /// `w ∈ N(f(u)) \ {u}`.
    ///
    /// A topological order of this DAG is a valid execution order: every
    /// byproduct lands on a still-alive photon.
    #[must_use]
    pub fn flow_constraints(&self) -> DiGraph {
        // The flow successor is injective and `u ∼ f(u)`, so the edges
        // number at most the degree sum: one allocation.
        let mut edges = Vec::with_capacity(2 * self.graph.edge_count());
        for (u, f) in self.flow_pairs() {
            edges.push((u, f));
            edges.extend(self.graph.neighbors(f).filter(|&w| w != u).map(|w| (u, w)));
        }
        DiGraph::from_edges(self.node_count(), &edges)
    }

    /// A valid measurement order: measured nodes in a topological order
    /// of [`Pattern::flow_constraints`].
    ///
    /// # Panics
    ///
    /// Panics if the flow constraints are cyclic (the pattern has no
    /// causal flow); transpiled patterns always do.
    #[must_use]
    pub fn measurement_order(&self) -> Vec<NodeId> {
        let order = self
            .flow_constraints()
            .topological_sort()
            .expect("pattern has no causal flow");
        order
            .into_iter()
            .filter(|n| self.measured[n.index()])
            .collect()
    }

    /// Builds the dependency graph `G'` of the pattern (Section II-A):
    /// X-dependencies `u → f(u)` and Z-dependencies `u → w` for
    /// `w ∈ N(f(u)) \ {u}`, restricted to measured targets (outputs have
    /// no basis to adapt).
    ///
    /// X-dependencies onto *Clifford-angle* targets are omitted: an X
    /// byproduct maps the measurement basis `α ↦ −α`, and for
    /// `α ∈ {0, ±π/2, π}` the result is the same basis (possibly with
    /// relabeled outcomes, a classical correction) — so no real-time
    /// feed-forward is needed. Only non-Clifford angles (e.g. T gates,
    /// variational rotations) impose adaptive-basis waits, which is why
    /// Clifford fragments of MBQC programs run without feed-forward.
    #[must_use]
    pub fn dependency_graph(&self) -> DependencyGraph {
        let mut z = Vec::with_capacity(2 * self.graph.edge_count());
        for (u, f) in self.flow_pairs() {
            z.extend(
                self.graph
                    .neighbors(f)
                    .filter(|&w| w != u && self.measured[w.index()])
                    .map(|w| (u, w)),
            );
        }
        DependencyGraph::new(
            self.real_time_dependencies(),
            DiGraph::from_edges(self.node_count(), &z),
        )
    }

    /// The real-time dependency DAG `G` of Algorithm 1 — the
    /// X-dependencies of [`Pattern::dependency_graph`], equal to its
    /// [`real_time`](DependencyGraph::real_time) half — built without
    /// the Z half. Every node has at most one parent: its flow
    /// predecessor.
    #[must_use]
    pub fn real_time_dependencies(&self) -> DiGraph {
        // α is sign-insensitive (up to outcome relabeling) iff
        // 2α ≡ 0 (mod π).
        let clifford = |a: f64| {
            let r = (2.0 * a / std::f64::consts::PI).rem_euclid(1.0);
            !(1e-9..=1.0 - 1e-9).contains(&r)
        };
        let x: Vec<(NodeId, NodeId)> = self
            .flow_pairs()
            .filter(|&(_, f)| self.measured[f.index()] && !clifford(self.angles[f.index()]))
            .collect();
        DiGraph::from_edges(self.node_count(), &x)
    }

    /// `(u, f(u))` for every measured node `u`, in node order.
    fn flow_pairs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.graph
            .nodes()
            .filter(|u| self.measured[u.index()])
            .map(|u| {
                let f = self.wire_succ[u.index()].expect("measured node has successor");
                (u, f)
            })
    }

    /// A stable, canonical byte rendering of the pattern's full content
    /// — the fingerprint input of the content-addressed stage-artifact
    /// cache in `mbqc-service`.
    ///
    /// Two patterns with equal `content_bytes` compile identically under
    /// any configuration: the encoding covers everything compilation
    /// reads, *including adjacency-list insertion order* (the mapper and
    /// partitioner both visit neighbors in that order, so two patterns
    /// with the same edge set but different insertion histories are
    /// deliberately distinct). Angles are encoded by `f64` bit pattern.
    ///
    /// Encoded on the first call for this value or any of its clones,
    /// into a buffer sized exactly up front, and shared from then on:
    /// every service submit keys the job on these bytes, and a QFT-36
    /// pattern's run to 312 KB.
    #[must_use]
    pub fn content_bytes(&self) -> Arc<Vec<u8>> {
        Arc::clone(
            self.encodings
                .content
                .get_or_init(|| Arc::new(self.encode_content())),
        )
    }

    /// The uncached [`Pattern::content_bytes`].
    fn encode_content(&self) -> Vec<u8> {
        let n = self.node_count();
        // Per node: weight and adjacency length (16), 16 per incident
        // edge, angle (8), measured flag (1), wire successor (1, or 9
        // when present) and qubit (8); then both framed node lists.
        let incidences: usize = self
            .graph
            .nodes()
            .map(|u| self.graph.neighbors_weighted(u).len())
            .sum();
        let successors = self.wire_succ.iter().filter(|s| s.is_some()).count();
        let cap = 8
            + 34 * n
            + 16 * incidences
            + 8 * successors
            + 8 * (2 + self.inputs.len() + self.outputs.len());
        let mut e = Encoder::with_capacity(cap);
        e.usize(n);
        for u in self.graph.nodes() {
            e.i64(self.graph.node_weight(u));
            let adj = self.graph.neighbors_weighted(u);
            e.usize(adj.len());
            for &(v, w) in adj {
                e.usize(v.index());
                e.i64(w);
            }
        }
        for i in 0..n {
            e.f64(self.angles[i]);
            e.bool(self.measured[i]);
            e.opt_usize(self.wire_succ[i].map(NodeId::index));
            e.usize(self.qubit_of[i]);
        }
        e.usize_slice(&self.inputs.iter().map(|n| n.index()).collect::<Vec<_>>());
        e.usize_slice(&self.outputs.iter().map(|n| n.index()).collect::<Vec<_>>());
        debug_assert_eq!(e.len(), cap, "content_bytes capacity");
        e.into_bytes()
    }

    /// Serializes the full pattern for the wire (see `mbqc-net`).
    ///
    /// Unlike [`Pattern::content_bytes`] — which is a *fingerprint
    /// input* and stays frozen so cache keys never shift — this is a
    /// reversible encoding: [`Pattern::from_bytes`] reconstructs a
    /// pattern `==` to the original, adjacency insertion order
    /// included, so a remotely submitted pattern compiles bit-
    /// identically to the in-process original.
    ///
    /// The per-node fields are laid out as fixed-stride *columns*
    /// (all angles, then all measured flags, then all wire
    /// successors, then all qubit ids) rather than interleaved
    /// records: the decoder pays one bounds check per column instead
    /// of four per node, which is measurable on the network submit
    /// path. A wire successor of `u64::MAX` encodes `None`.
    ///
    /// Encodes afresh on every call; [`Pattern::wire_bytes`] holds the
    /// same bytes, encoded once per value.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut e);
        debug_assert_eq!(e.len(), self.encoded_len(), "Pattern::encoded_len");
        e.into_bytes()
    }

    /// [`Pattern::to_bytes`], encoded on the first call for this value
    /// or any of its clones and shared from then on: a client that
    /// submits the same pattern many times writes these bytes each
    /// time instead of encoding it again.
    #[must_use]
    pub fn wire_bytes(&self) -> &[u8] {
        self.encodings.wire.get_or_init(|| self.to_bytes())
    }

    /// The exact length of [`Pattern::to_bytes`]: the framed graph
    /// blob, 25 bytes per node (angle 8, measured 1, wire successor 8,
    /// qubit 8), and the framed input and output lists.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        8 + self.graph.encoded_len()
            + 25 * self.node_count()
            + 8 * (2 + self.inputs.len() + self.outputs.len())
    }

    /// Appends [`Pattern::to_bytes`] to `e`, graph blob included, with
    /// no intermediate buffer.
    pub fn encode(&self, e: &mut Encoder) {
        e.nested(self.graph.encoded_len(), |e| self.graph.encode(e));
        for &a in &self.angles {
            e.f64(a);
        }
        for &m in &self.measured {
            e.u8(u8::from(m));
        }
        for s in &self.wire_succ {
            e.u64(s.map_or(u64::MAX, |x| x.index() as u64));
        }
        for &q in &self.qubit_of {
            e.usize(q);
        }
        e.usize_slice(&self.inputs.iter().map(|n| n.index()).collect::<Vec<_>>());
        e.usize_slice(&self.outputs.iter().map(|n| n.index()).collect::<Vec<_>>());
    }

    /// Decodes a pattern written by [`Pattern::to_bytes`], validating
    /// every invariant [`Pattern::from_parts`] asserts — but returning
    /// a typed error instead of panicking, because the bytes may come
    /// from an untrusted network peer.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncation, out-of-range node ids, a
    /// measured node without an in-graph flow successor, or a measured
    /// output.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let graph = Graph::from_bytes(d.bytes()?)?;
        let n = graph.node_count();
        let col = n.checked_mul(8).ok_or(CodecError::UnexpectedEof)?;
        let word = |s: &[u8]| u64::from_le_bytes(s.try_into().expect("8-byte field"));
        let angles: Vec<f64> = d
            .raw(col)?
            .chunks_exact(8)
            .map(|c| f64::from_bits(word(c)))
            .collect();
        let measured = d
            .raw(n)?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                _ => Err(CodecError::Invalid("bool byte")),
            })
            .collect::<Result<Vec<bool>, _>>()?;
        let wire_succ = d
            .raw(col)?
            .chunks_exact(8)
            .map(|c| match word(c) {
                u64::MAX => Ok(None),
                v => match usize::try_from(v) {
                    Ok(s) if s < n => Ok(Some(NodeId::new(s))),
                    _ => Err(CodecError::Invalid("wire successor out of range")),
                },
            })
            .collect::<Result<Vec<Option<NodeId>>, _>>()?;
        let qubit_of = d
            .raw(col)?
            .chunks_exact(8)
            .map(|c| usize::try_from(word(c)).map_err(|_| CodecError::Invalid("usize overflow")))
            .collect::<Result<Vec<usize>, _>>()?;
        let read_nodes = |d: &mut Decoder<'_>| -> Result<Vec<NodeId>, CodecError> {
            d.usize_vec()?
                .into_iter()
                .map(|i| {
                    if i < n {
                        Ok(NodeId::new(i))
                    } else {
                        Err(CodecError::Invalid("endpoint node out of range"))
                    }
                })
                .collect()
        };
        let inputs = read_nodes(&mut d)?;
        let outputs = read_nodes(&mut d)?;
        d.finish()?;
        if inputs.len() != outputs.len() {
            return Err(CodecError::Invalid("inputs/outputs length mismatch"));
        }
        for i in 0..n {
            if measured[i] {
                let succ =
                    wire_succ[i].ok_or(CodecError::Invalid("measured node without successor"))?;
                if !graph.has_edge(NodeId::new(i), succ) {
                    return Err(CodecError::Invalid("flow successor is not a neighbor"));
                }
            }
        }
        for o in &outputs {
            if measured[o.index()] {
                return Err(CodecError::Invalid("output node marked measured"));
            }
        }
        Ok(Self {
            graph,
            angles,
            measured,
            wire_succ,
            qubit_of,
            inputs,
            outputs,
            encodings: Arc::default(),
        })
    }

    /// Summary statistics.
    #[must_use]
    pub fn stats(&self) -> PatternStats {
        PatternStats {
            nodes: self.node_count(),
            edges: self.graph.edge_count(),
            measured: self.measured.iter().filter(|&&m| m).count(),
            qubits: self.inputs.len(),
            dependency_depth: self.real_time_dependencies().longest_path_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::Graph;

    /// Builds the 3-node single-qubit pattern for two chained J gates:
    /// n0 -- n1 -- n2, measure n0 and n1.
    fn chain_pattern() -> Pattern {
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        Pattern::from_parts(
            g,
            vec![0.1, 0.2, 0.0],
            vec![true, true, false],
            vec![Some(n[1]), Some(n[2]), None],
            vec![0, 0, 0],
            vec![n[0]],
            vec![n[2]],
        )
    }

    #[test]
    fn accessors() {
        let p = chain_pattern();
        let n: Vec<NodeId> = p.graph().nodes().collect();
        assert_eq!(p.node_count(), 3);
        assert!(p.is_measured(n[0]));
        assert!(!p.is_measured(n[2]));
        assert_eq!(p.wire_successor(n[0]), Some(n[1]));
        assert_eq!(p.wire_successor(n[2]), None);
        assert_eq!(p.angle(n[1]), 0.2);
        assert_eq!(p.qubit_of[n[1].index()], 0);
        assert_eq!(p.inputs(), &[n[0]]);
        assert_eq!(p.outputs(), &[n[2]]);
        assert_eq!(p.measurement_order(), vec![n[0], n[1]]);
    }

    #[test]
    fn chain_dependency_graph() {
        let p = chain_pattern();
        let deps = p.dependency_graph();
        let n: Vec<NodeId> = p.graph().nodes().collect();
        // n0's X byproduct goes to n1 (measured) → real-time edge.
        assert!(deps.real_time().has_edge(n[0], n[1]));
        // n1's successor is the unmeasured output → no real-time edge.
        assert_eq!(deps.real_time().edge_count(), 1);
        // Measuring n0 also puts Z^{s} on N(f(n0)) \ {n0} = {n2}, an
        // output, so no measured Z-dependency either.
        assert_eq!(deps.combined().edge_count(), 1);
    }

    /// Two 2-node wires with a CZ edge between the *second* nodes:
    /// measuring u=n0 corrects X on f(u)=n2 and Z on N(n2)\{n0} = {n3}.
    #[test]
    fn cz_cross_edge_creates_z_dependency() {
        let mut g = Graph::with_nodes(6);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge(n[0], n[2]); // wire qubit 0: n0 -> n2 -> n4
        g.add_edge(n[2], n[4]);
        g.add_edge(n[1], n[3]); // wire qubit 1: n1 -> n3 -> n5
        g.add_edge(n[3], n[5]);
        g.add_edge(n[2], n[3]); // CZ between middle nodes
        let p = Pattern::from_parts(
            g,
            vec![0.3, 0.4, 0.5, 0.6, 0.0, 0.0],
            vec![true, true, true, true, false, false],
            vec![Some(n[2]), Some(n[3]), Some(n[4]), Some(n[5]), None, None],
            vec![0, 1, 0, 1, 0, 1],
            vec![n[0], n[1]],
            vec![n[4], n[5]],
        );
        let deps = p.dependency_graph();
        // Measuring n0: X on n2, Z on neighbors of n2 other than n0 =
        // {n4 (output, skipped), n3 (measured)}.
        assert!(deps.real_time().has_edge(n[0], n[2]));
        let z_edge = |a: NodeId, b: NodeId| {
            deps.combined().has_edge(a, b) && !deps.real_time().has_edge(a, b)
        };
        assert!(z_edge(n[0], n[3]));
        // Symmetrically n1 → n2 as a Z-dependency.
        assert!(z_edge(n[1], n[2]));
        // Real-time graph (X only) has exactly the two wire edges.
        assert_eq!(deps.real_time().edge_count(), 2);
        // Flow constraints are acyclic and the order is valid.
        let order = p.measurement_order();
        assert_eq!(order.len(), 4);
        let pos = |x: NodeId| order.iter().position(|&y| y == x).unwrap();
        // u before f(u):
        assert!(pos(n[0]) < pos(n[2]));
        assert!(pos(n[1]) < pos(n[3]));
        // u before Z-targets of f(u):
        assert!(pos(n[0]) < pos(n[3]));
        assert!(pos(n[1]) < pos(n[2]));
    }

    #[test]
    fn content_bytes_distinguishes_semantic_changes() {
        let a = chain_pattern();
        assert_eq!(a.content_bytes(), chain_pattern().content_bytes());
        // A changed angle, measurement flag, or edge changes the bytes.
        let mut g = Graph::with_nodes(3);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge(n[0], n[1]);
        g.add_edge(n[1], n[2]);
        let angle_changed = Pattern::from_parts(
            g,
            vec![0.1, 0.25, 0.0],
            vec![true, true, false],
            vec![Some(n[1]), Some(n[2]), None],
            vec![0, 0, 0],
            vec![n[0]],
            vec![n[2]],
        );
        assert_ne!(a.content_bytes(), angle_changed.content_bytes());
    }

    /// The content bytes key every cached stage artifact, so they are
    /// frozen: a shift would orphan every existing disk artifact.
    #[test]
    fn content_bytes_are_pinned() {
        let qft = crate::transpile::transpile(&mbqc_circuit::bench::qft(4));
        for (name, p, len, want) in [
            (
                "chain",
                chain_pattern(),
                222,
                0x48d8b9c94d1d25490a1ba1c08c910c1f,
            ),
            ("qft4", qft, 3124, 0xa457b9c546376077f9e7763694ef7aec),
        ] {
            let bytes = p.content_bytes();
            assert_eq!(bytes.capacity(), bytes.len(), "{name}: sized up front");
            let got = mbqc_util::Fingerprint::of(&bytes).0;
            assert_eq!((bytes.len(), got), (len, want), "{name}: got {got:#034x}");
        }
    }

    #[test]
    fn wire_codec_round_trips() {
        let p = chain_pattern();
        let bytes = p.to_bytes();
        assert_eq!(bytes.len(), p.encoded_len(), "the length is exact");
        let back = Pattern::from_bytes(&bytes).unwrap();
        assert_eq!(back, p);
        // And the cache fingerprint input agrees, so a remotely
        // submitted pattern hits the same store entries.
        assert_eq!(back.content_bytes(), p.content_bytes());
    }

    #[test]
    fn wire_codec_rejects_invalid_patterns() {
        let p = chain_pattern();
        let bytes = p.to_bytes();
        assert!(Pattern::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        assert!(Pattern::from_bytes(&[]).is_err());

        // A measured output must be a typed error, not a panic.
        let mut g = Graph::with_nodes(2);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge(n[0], n[1]);
        let valid = Pattern::from_parts(
            g,
            vec![0.1, 0.0],
            vec![true, false],
            vec![Some(n[1]), None],
            vec![0, 0],
            vec![n[0]],
            vec![n[1]],
        );
        // The `measured` flag of the output node lives in the
        // measured column; flipping it by scanning for the exact
        // encoding is brittle, so rebuild through the encoder.
        let mut e = Encoder::new();
        e.bytes(&valid.graph.to_bytes());
        e.f64(0.1); // angle column
        e.f64(0.0);
        e.u8(1); // measured column: output marked measured
        e.u8(1);
        e.u64(1); // wire-successor column
        e.u64(0);
        e.usize(0); // qubit column
        e.usize(0);
        e.usize_slice(&[0]);
        e.usize_slice(&[1]);
        let bytes = e.into_bytes();
        assert_eq!(
            Pattern::from_bytes(&bytes).unwrap_err(),
            CodecError::Invalid("output node marked measured")
        );

        // A measured node whose successor is not a graph neighbor.
        let mut e = Encoder::new();
        let mut g2 = Graph::with_nodes(3);
        let m: Vec<NodeId> = g2.nodes().collect();
        g2.add_edge(m[0], m[1]);
        g2.add_edge(m[1], m[2]);
        e.bytes(&g2.to_bytes());
        e.f64(0.1); // angle column
        e.f64(0.2);
        e.f64(0.0);
        e.u8(1); // measured column
        e.u8(1);
        e.u8(0);
        e.u64(2); // wire-successor column: n0's successor n2 is not adjacent
        e.u64(2);
        e.u64(u64::MAX);
        e.usize(0); // qubit column
        e.usize(0);
        e.usize(0);
        e.usize_slice(&[0]);
        e.usize_slice(&[2]);
        assert_eq!(
            Pattern::from_bytes(&e.into_bytes()).unwrap_err(),
            CodecError::Invalid("flow successor is not a neighbor")
        );
    }

    #[test]
    fn stats_reflect_structure() {
        let p = chain_pattern();
        let s = p.stats();
        assert_eq!(s.nodes, 3);
        assert_eq!(s.edges, 2);
        assert_eq!(s.measured, 2);
        assert_eq!(s.qubits, 1);
        assert_eq!(s.dependency_depth, 1);
    }

    #[test]
    #[should_panic(expected = "flow successor")]
    fn measured_without_successor_panics() {
        let g = Graph::with_nodes(1);
        let _ = Pattern::from_parts(
            g,
            vec![0.0],
            vec![true],
            vec![None],
            vec![0],
            vec![],
            vec![],
        );
    }

    #[test]
    #[should_panic(expected = "must be unmeasured")]
    fn measured_output_panics() {
        let mut g = Graph::with_nodes(2);
        let n: Vec<NodeId> = g.nodes().collect();
        g.add_edge(n[0], n[1]);
        let _ = Pattern::from_parts(
            g,
            vec![0.0, 0.0],
            vec![true, false],
            vec![Some(n[1]), None],
            vec![0, 0],
            vec![n[0]],
            vec![n[0]],
        );
    }
}
