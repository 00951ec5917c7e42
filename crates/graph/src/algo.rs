//! Traversals and basic algorithms on [`Graph`].

use std::collections::VecDeque;

use crate::{Graph, NodeId};

/// Unweighted BFS distances from `start`; unreachable nodes get `None`.
///
/// # Examples
///
/// ```
/// use mbqc_graph::{algo, generate, NodeId};
///
/// let g = generate::path_graph(4);
/// let dist = algo::bfs_distances(&g, NodeId::new(0));
/// assert_eq!(dist, vec![Some(0), Some(1), Some(2), Some(3)]);
/// ```
#[must_use]
pub fn bfs_distances(g: &Graph, start: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.node_count()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()].expect("queued nodes have distances");
        for v in g.neighbors(u) {
            if dist[v.index()].is_none() {
                dist[v.index()] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Connected components; returns `(component_id_per_node, component_count)`.
///
/// Component ids are assigned in order of the smallest node index they
/// contain, so the labeling is deterministic.
#[must_use]
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.node_count();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    for i in 0..n {
        if comp[i] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        comp[i] = count;
        queue.push_back(NodeId::new(i));
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if comp[v.index()] == usize::MAX {
                    comp[v.index()] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (comp, count)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;

    #[test]
    fn distances_on_path() {
        let g = generate::path_graph(5);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, (0..5).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn distances_unreachable() {
        let mut g = generate::path_graph(3);
        g.add_node();
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d[3], None);
    }

    #[test]
    fn components_counts() {
        let mut g = generate::path_graph(3);
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[2]);
        assert_eq!(comp[a.index()], comp[b.index()]);
        assert_ne!(comp[0], comp[a.index()]);
    }
}
