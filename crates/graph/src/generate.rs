//! Deterministic graph generators.
//!
//! These feed the benchmark circuits and the tests: the photonic
//! resource states are rings and stars, and RSG arrays are grids.

use crate::{Graph, NodeId};

/// Path graph `0 — 1 — … — (n−1)`.
#[must_use]
pub fn path_graph(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::new(i - 1), NodeId::new(i));
    }
    g
}

/// Cycle graph on `n ≥ 3` nodes (a *ring resource state* topology).
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle_graph(n: usize) -> Graph {
    assert!(n >= 3, "cycle needs at least 3 nodes");
    let mut g = path_graph(n);
    g.add_edge(NodeId::new(n - 1), NodeId::new(0));
    g
}

/// Star graph: node 0 is the center, nodes `1..n` are leaves (a *star
/// resource state* topology).
///
/// # Panics
///
/// Panics if `n < 2`.
#[must_use]
pub fn star_graph(n: usize) -> Graph {
    assert!(n >= 2, "star needs at least 2 nodes");
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_edge(NodeId::new(0), NodeId::new(i));
    }
    g
}

/// Complete graph on `n` nodes.
#[must_use]
pub fn complete_graph(n: usize) -> Graph {
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(NodeId::new(i), NodeId::new(j));
        }
    }
    g
}

/// 2D grid graph of `rows × cols` nodes with 4-neighbor connectivity,
/// matching the RSG grid layout of the photonic architecture.
#[must_use]
pub fn grid_graph(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::with_nodes(rows * cols);
    let id = |r: usize, c: usize| NodeId::new(r * cols + c);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                g.add_edge(id(r, c), id(r, c + 1));
            }
            if r + 1 < rows {
                g.add_edge(id(r, c), id(r + 1, c));
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path_graph(5);
        assert_eq!(p.edge_count(), 4);
        let c = cycle_graph(5);
        assert_eq!(c.edge_count(), 5);
        assert!(c.nodes().all(|n| c.degree(n) == 2));
    }

    #[test]
    fn star_shape() {
        let s = star_graph(5);
        assert_eq!(s.edge_count(), 4);
        assert_eq!(s.degree(NodeId::new(0)), 4);
        assert!((1..5).all(|i| s.degree(NodeId::new(i)) == 1));
    }

    #[test]
    fn complete_edge_count() {
        assert_eq!(complete_graph(6).edge_count(), 15);
        assert_eq!(complete_graph(0).edge_count(), 0);
        assert_eq!(complete_graph(1).edge_count(), 0);
    }

    #[test]
    fn grid_shape() {
        let g = grid_graph(3, 4);
        assert_eq!(g.node_count(), 12);
        // edges: 3*3 horizontal + 2*4 vertical = 17
        assert_eq!(g.edge_count(), 17);
        assert_eq!(algo::connected_components(&g).1, 1);
        // Corner to opposite corner: 2 + 3 steps.
        assert_eq!(algo::bfs_distances(&g, NodeId::new(0))[11], Some(5));
    }
}
