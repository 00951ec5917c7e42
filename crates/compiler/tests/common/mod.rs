//! Random graph inputs for the mapper tests.

use mbqc_graph::{Graph, NodeId};
use mbqc_util::Rng;

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct edges chosen uniformly at
/// random.
///
/// The `gnm80`/`gnm150` mapper digests depend on this exact output: the
/// same seed must keep producing the same edges in the same order.
///
/// # Panics
///
/// Panics if `m` exceeds the number of possible edges.
#[must_use]
pub fn erdos_renyi_gnm(n: usize, m: usize, rng: &mut Rng) -> Graph {
    let possible = n * n.saturating_sub(1) / 2;
    assert!(
        m <= possible,
        "requested {m} edges but only {possible} exist"
    );
    let mut g = Graph::with_nodes(n);
    // Sample m distinct edge indices out of the C(n,2) possible ones.
    let picks = rng.sample_indices(possible, m);
    for k in picks {
        let (i, j) = edge_from_index(n, k);
        g.add_edge(NodeId::new(i), NodeId::new(j));
    }
    g
}

/// Maps a linear index `k ∈ [0, C(n,2))` to the `k`-th pair `(i, j)` with
/// `i < j` in lexicographic order.
pub fn edge_from_index(n: usize, mut k: usize) -> (usize, usize) {
    for i in 0..n {
        let row = n - 1 - i;
        if k < row {
            return (i, i + 1 + k);
        }
        k -= row;
    }
    unreachable!("edge index out of range");
}
