//! Random graph inputs for the graph tests.

use mbqc_graph::{Graph, NodeId};
use mbqc_util::Rng;

/// Erdős–Rényi `G(n, p)`: each possible edge included independently with
/// probability `p`.
#[must_use]
pub fn erdos_renyi_gnp(n: usize, p: f64, rng: &mut Rng) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.bernoulli(p) {
                g.add_edge(NodeId::new(i), NodeId::new(j));
            }
        }
    }
    g
}
