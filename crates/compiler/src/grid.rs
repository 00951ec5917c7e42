//! One logical layer of the RSG grid.

use std::collections::VecDeque;

use mbqc_graph::NodeId;

/// What a site's resource state is consumed by within one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteState {
    /// Unused this layer.
    Free,
    /// Hosts a freshly placed computation node.
    Node(NodeId),
    /// Carries a live wire (inter-layer fusion chain) of a placed node.
    Wire(NodeId),
    /// Part of one or more intra-layer routing chains; `remaining` is
    /// the pass-through capacity left (the 6-ring starts at 2, others
    /// at 1).
    Route {
        /// Pass-throughs still available on this state.
        remaining: usize,
    },
}

/// A `width × width` layer of resource-state sites.
#[derive(Debug, Clone)]
pub struct LayerGrid {
    width: usize,
    sites: Vec<SiteState>,
}

impl LayerGrid {
    /// An all-free layer.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            sites: vec![SiteState::Free; width * width],
        }
    }

    /// Grid side length.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of sites.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// `true` for zero-size grids.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// State at linear site index `s`.
    #[must_use]
    pub fn state(&self, s: usize) -> SiteState {
        self.sites[s]
    }

    /// Sets the state at site `s`.
    pub fn set(&mut self, s: usize, state: SiteState) {
        self.sites[s] = state;
    }

    /// `(row, col)` of a linear index.
    #[must_use]
    pub fn coords(&self, s: usize) -> (usize, usize) {
        (s / self.width, s % self.width)
    }

    /// Linear index of `(row, col)`.
    #[must_use]
    pub fn index(&self, row: usize, col: usize) -> usize {
        row * self.width + col
    }

    /// Manhattan distance between two sites.
    #[must_use]
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    /// 4-neighborhood of a site.
    pub fn neighbors(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        let (r, c) = self.coords(s);
        let w = self.width;
        [
            (r > 0).then(|| self.index(r - 1, c)),
            (r + 1 < w).then(|| self.index(r + 1, c)),
            (c > 0).then(|| self.index(r, c - 1)),
            (c + 1 < w).then(|| self.index(r, c + 1)),
        ]
        .into_iter()
        .flatten()
    }

    /// Linear indices of all free sites.
    #[must_use]
    pub fn free_sites(&self) -> Vec<usize> {
        (0..self.sites.len())
            .filter(|&s| self.sites[s] == SiteState::Free)
            .collect()
    }

    /// Number of free sites.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.sites.iter().filter(|s| **s == SiteState::Free).count()
    }

    /// Finds a shortest routing path from a site adjacent to `from` to
    /// `to`. `capacity_of(site)` reports the *remaining* pass-through
    /// capacity of each site (0 = blocked); `from` and `to` themselves
    /// are endpoints (any state) and are not traversed.
    ///
    /// Returns the intermediate sites of the path (possibly empty when
    /// `from` and `to` are grid-adjacent), or `None` if no path exists.
    /// The search runs in `scratch`, which a mapper routing thousands of
    /// edges reuses; the path lives there until the next call.
    pub(crate) fn route<'s, F>(
        &self,
        from: usize,
        to: usize,
        capacity_of: F,
        scratch: &'s mut RouteScratch,
    ) -> Option<&'s [usize]>
    where
        F: Fn(usize) -> usize,
    {
        let RouteScratch {
            stamp,
            seen,
            prev,
            queue,
            path,
        } = scratch;
        path.clear();
        if from == to {
            return Some(path);
        }
        // A site is seen in this search iff its stamp is current; stale
        // stamps from earlier searches need no clearing.
        *stamp = stamp.wrapping_add(1);
        if *stamp == 0 || seen.len() < self.sites.len() {
            seen.clear();
            seen.resize(self.sites.len(), 0);
            prev.resize(self.sites.len(), 0);
            *stamp = 1;
        }
        let stamp = *stamp;
        queue.clear();
        seen[from] = stamp;
        queue.push_back(from);
        while let Some(s) = queue.pop_front() {
            for nb in self.neighbors(s) {
                if seen[nb] == stamp {
                    continue;
                }
                if nb == to {
                    // Reconstruct intermediate path (exclusive of ends).
                    let mut cur = s;
                    while cur != from {
                        path.push(cur);
                        cur = prev[cur];
                    }
                    path.reverse();
                    return Some(path);
                }
                if capacity_of(nb) > 0 {
                    seen[nb] = stamp;
                    prev[nb] = s;
                    queue.push_back(nb);
                }
            }
        }
        None
    }
}

/// Reusable breadth-first-search buffers for [`LayerGrid::route`].
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    /// Generation of the current search.
    stamp: u32,
    /// Per site: generation that last visited it.
    seen: Vec<u32>,
    /// Per visited site: the site it was reached from.
    prev: Vec<usize>,
    queue: VecDeque<usize>,
    /// Intermediate sites of the last path found.
    path: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_roundtrip() {
        let g = LayerGrid::new(5);
        for s in 0..25 {
            let (r, c) = g.coords(s);
            assert_eq!(g.index(r, c), s);
        }
        assert_eq!(g.distance(0, 24), 8);
    }

    #[test]
    fn neighbors_edge_cases() {
        let g = LayerGrid::new(3);
        assert_eq!(g.neighbors(0).count(), 2); // corner
        assert_eq!(g.neighbors(1).count(), 3); // edge
        assert_eq!(g.neighbors(4).count(), 4); // center
    }

    #[test]
    fn free_tracking() {
        let mut g = LayerGrid::new(2);
        assert_eq!(g.free_count(), 4);
        g.set(1, SiteState::Wire(NodeId::new(0)));
        assert_eq!(g.free_count(), 3);
        assert!(!g.free_sites().contains(&1));
    }

    /// A search on fresh buffers, with the path copied out.
    fn route(
        g: &LayerGrid,
        from: usize,
        to: usize,
        capacity_of: impl Fn(usize) -> usize,
    ) -> Option<Vec<usize>> {
        g.route(from, to, capacity_of, &mut RouteScratch::default())
            .map(<[usize]>::to_vec)
    }

    /// Capacity function treating only `Free` sites as passable once.
    fn free_once(g: &LayerGrid) -> impl Fn(usize) -> usize + '_ {
        |s| usize::from(g.state(s) == SiteState::Free)
    }

    #[test]
    fn route_adjacent_is_empty_path() {
        let g = LayerGrid::new(3);
        let path = route(&g, 0, 1, free_once(&g)).unwrap();
        assert!(path.is_empty());
    }

    #[test]
    fn route_across_grid() {
        let g = LayerGrid::new(3);
        // 0 → 8 must pass through 2 intermediate sites.
        let path = route(&g, 0, 8, free_once(&g)).unwrap();
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn route_blocked_by_wall() {
        let mut g = LayerGrid::new(3);
        // Wall across the middle row.
        for c in 0..3 {
            g.set(g.index(1, c), SiteState::Node(NodeId::new(c)));
        }
        assert!(route(&g, 0, 8, free_once(&g)).is_none());
    }

    #[test]
    fn route_respects_capacity_function() {
        let mut g = LayerGrid::new(3);
        // Corridor: only the middle column is open in the middle row.
        g.set(g.index(1, 0), SiteState::Node(NodeId::new(0)));
        g.set(g.index(1, 2), SiteState::Node(NodeId::new(1)));
        g.set(g.index(1, 1), SiteState::Route { remaining: 2 });
        let cap = |s: usize| match g.state(s) {
            SiteState::Free => 1,
            SiteState::Route { remaining } => remaining,
            _ => 0,
        };
        // A path 0 → (2,0) must squeeze through (1,1).
        let path = route(&g, 0, g.index(2, 0), cap).unwrap();
        assert!(path.contains(&g.index(1, 1)));
        // A zero-capacity corridor closes.
        let closed = |s: usize| match g.state(s) {
            SiteState::Free => 1,
            _ => 0,
        };
        assert!(route(&g, 0, g.index(2, 0), closed).is_none());
    }

    #[test]
    fn reused_route_scratch_matches_fresh_search() {
        // One scratch across grid sizes and blockages, found and failed
        // searches alike, must give exactly the fresh-buffer answers.
        let mut scratch = RouteScratch::default();
        let mut rng = mbqc_util::Rng::seed_from_u64(3);
        for width in [4, 7, 3, 6] {
            let mut g = LayerGrid::new(width);
            for _ in 0..40 {
                let s = rng.range(g.len());
                if rng.bernoulli(0.3) {
                    g.set(s, SiteState::Node(NodeId::new(s)));
                }
                let (from, to) = (rng.range(g.len()), rng.range(g.len()));
                let fresh = route(&g, from, to, free_once(&g));
                let reused = g.route(from, to, free_once(&g), &mut scratch);
                assert_eq!(fresh.as_deref(), reused, "{from} -> {to} on width {width}");
            }
        }
    }

    #[test]
    fn route_through_wire_when_capacity_allows() {
        let mut g = LayerGrid::new(3);
        g.set(g.index(1, 0), SiteState::Node(NodeId::new(0)));
        g.set(g.index(1, 2), SiteState::Node(NodeId::new(1)));
        g.set(g.index(1, 1), SiteState::Wire(NodeId::new(2)));
        // Wires passable with capacity 1 (spare photons bridge through).
        let cap = |s: usize| match g.state(s) {
            SiteState::Free => 1,
            SiteState::Wire(_) => 1,
            _ => 0,
        };
        let path = route(&g, 0, g.index(2, 0), cap).unwrap();
        assert!(path.contains(&g.index(1, 1)));
    }
}
