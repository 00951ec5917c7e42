//! One logical layer of the RSG grid.

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
    /// Number of `Free` sites, kept by [`LayerGrid::set`].
    free: usize,
}

impl LayerGrid {
    /// An all-free layer.
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            sites: vec![SiteState::Free; width * width],
            free: width * width,
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
        let was_free = self.sites[s] == SiteState::Free;
        let is_free = state == SiteState::Free;
        self.free = self.free + usize::from(is_free) - usize::from(was_free);
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
    pub fn neighbors(&self, s: usize) -> impl Iterator<Item = usize> {
        let w = self.width;
        let c = s % w;
        [
            (s >= w).then(|| s - w),
            (s + w < self.sites.len()).then(|| s + w),
            (c > 0).then(|| s - 1),
            (c + 1 < w).then(|| s + 1),
        ]
        .into_iter()
        .flatten()
    }

    /// Number of free sites.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.free
    }

    /// Linear index of the `k`-th free site (0-based, in index order),
    /// or `None` when fewer than `k + 1` sites are free.
    #[must_use]
    pub fn nth_free(&self, k: usize) -> Option<usize> {
        (0..self.sites.len())
            .filter(|&s| self.sites[s] == SiteState::Free)
            .nth(k)
    }

    /// The free site with the least total Manhattan distance to
    /// `targets`, the lowest index among ties; `None` on a full layer.
    ///
    /// Manhattan distance splits by axis, so the cost of site `(r, c)`
    /// is `rows[r] + cols[c]`, both filled once per call in `axis_cost`
    /// (a buffer the caller reuses). Each is a sum of absolute values,
    /// hence convex: the columns cheaper than any bound form one
    /// interval around the cheapest column, and only that interval of
    /// each row is scanned.
    pub(crate) fn nearest_free(
        &self,
        targets: impl Iterator<Item = usize>,
        axis_cost: &mut Vec<usize>,
    ) -> Option<usize> {
        let w = self.width;
        axis_cost.clear();
        axis_cost.resize(2 * w, 0);
        let (rows, cols) = axis_cost.split_at_mut(w);
        for target in targets {
            let (tr, tc) = self.coords(target);
            for (r, cost) in rows.iter_mut().enumerate() {
                *cost += r.abs_diff(tr);
            }
            for (c, cost) in cols.iter_mut().enumerate() {
                *cost += c.abs_diff(tc);
            }
        }
        let argmin = |costs: &[usize]| (0..costs.len()).min_by_key(|&i| costs[i]);
        let (best_row, best_col) = (argmin(rows)?, argmin(cols)?);
        // Only sites strictly cheaper than `bound` can win; the cheapest
        // free site of the cheapest row seeds it. Sites are visited in
        // index order, so the first site of least cost wins.
        let mut bound = (0..w)
            .filter(|&c| self.sites[best_row * w + c] == SiteState::Free)
            .map(|c| rows[best_row] + cols[c] + 1)
            .min()
            .unwrap_or(usize::MAX);
        let mut best = None;
        for (r, &row_cost) in rows.iter().enumerate() {
            let slack = bound.saturating_sub(row_cost);
            if cols[best_col] >= slack {
                continue;
            }
            let mut lo = best_col;
            while lo > 0 && cols[lo - 1] < slack {
                lo -= 1;
            }
            let mut hi = best_col;
            while hi + 1 < w && cols[hi + 1] < slack {
                hi += 1;
            }
            let sites = &self.sites[r * w + lo..=r * w + hi];
            for (c, (&col_cost, &state)) in (lo..).zip(cols[lo..=hi].iter().zip(sites)) {
                let cost = row_cost + col_cost;
                if cost < bound && state == SiteState::Free {
                    bound = cost;
                    best = Some(r * w + c);
                }
            }
        }
        best
    }

    /// Finds a shortest routing path from a site adjacent to `from` to
    /// `to`. `capacity_of(site)` reports the *remaining* pass-through
    /// capacity of each site (0 = blocked); `from` and `to` themselves
    /// are endpoints (any state) and are not traversed.
    ///
    /// Returns the intermediate sites of the path (possibly empty when
    /// `from` and `to` are grid-adjacent), or `None` if no path exists.
    /// The search runs in `scratch`, which a mapper routing thousands of
    /// edges reuses; the path lives there until the next call. A failed
    /// search gives every site it reached, `from` included, one fresh
    /// component label (see [`RouteScratch::reset_labels`]).
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
            label,
            next_label,
        } = scratch;
        path.clear();
        queue.clear();
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
        if label.len() < self.sites.len() {
            label.resize(self.sites.len(), 0);
        }
        let stamp = *stamp;
        seen[from] = stamp;
        queue.push(from);
        let mut head = 0;
        while let Some(&s) = queue.get(head) {
            head += 1;
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
                    queue.push(nb);
                }
            }
        }
        // The search flooded whole components of passable sites: none of
        // them can reach `to` while capacities only shrink.
        for &s in queue.iter() {
            label[s] = *next_label;
        }
        *next_label = next_label.wrapping_add(1);
        None
    }

    /// `false` when the component labels in `scratch` prove that
    /// [`LayerGrid::route`] from `from` to `to` would fail: the two are
    /// not grid-adjacent and no passable neighbour of `from` shares a
    /// label with a passable neighbour of `to`. `true` means a search
    /// may succeed.
    pub(crate) fn may_route<F>(
        &self,
        from: usize,
        to: usize,
        capacity_of: F,
        scratch: &RouteScratch,
    ) -> bool
    where
        F: Fn(usize) -> usize,
    {
        if from == to || self.neighbors(from).any(|nb| nb == to) {
            return true;
        }
        let label = &scratch.label;
        let mut to_labels = [None; 4];
        for (slot, nb) in to_labels
            .iter_mut()
            .zip(self.neighbors(to).filter(|&nb| capacity_of(nb) > 0))
        {
            *slot = Some(label[nb]);
        }
        self.neighbors(from)
            .any(|nb| capacity_of(nb) > 0 && to_labels.contains(&Some(label[nb])))
    }
}

/// Reusable breadth-first-search buffers for [`LayerGrid::route`], plus
/// the open layer's component labels.
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    /// Generation of the current search.
    stamp: u32,
    /// Per site: generation that last visited it.
    seen: Vec<u32>,
    /// Per visited site: the site it was reached from.
    prev: Vec<usize>,
    /// Sites the last search reached, `from` first, in visiting order.
    queue: Vec<usize>,
    /// Intermediate sites of the last path found.
    path: Vec<usize>,
    /// Per site: component label (see [`RouteScratch::reset_labels`]).
    label: Vec<u32>,
    /// Next unused label.
    next_label: u32,
}

impl RouteScratch {
    /// Puts all `sites` sites in one component.
    ///
    /// The labels stay sound while pass-through capacities only shrink
    /// and every failed [`LayerGrid::route`] gives what it flooded a
    /// fresh label: sites joined by passable sites always share a label,
    /// so [`LayerGrid::may_route`] can refute a search without running
    /// it. One label for all is the coarsest sound start; failed
    /// searches refine it.
    pub(crate) fn reset_labels(&mut self, sites: usize) {
        self.label.clear();
        self.label.resize(sites, 0);
        self.next_label = 1;
    }

    /// Sites the last [`LayerGrid::route`] search reached, its origin
    /// included.
    pub(crate) fn visited(&self) -> usize {
        self.queue.len()
    }
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
        g.set(1, SiteState::Node(NodeId::new(0)));
        assert_eq!(g.free_count(), 3);
        assert_eq!(g.nth_free(1), Some(2));
        assert_eq!(g.nth_free(3), None);
        g.set(1, SiteState::Free);
        assert_eq!(g.free_count(), 4);
        assert_eq!(g.nth_free(1), Some(1));
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
    fn nearest_free_matches_exhaustive_scan() {
        // The axis-split, interval-pruned scan must pick exactly the
        // site a full scan of the free sites in index order picks.
        let mut rng = mbqc_util::Rng::seed_from_u64(11);
        let mut axis_cost = Vec::new();
        for width in [1, 2, 5, 8, 11] {
            let mut g = LayerGrid::new(width);
            for _ in 0..60 {
                let s = rng.range(g.len());
                let state = if rng.bernoulli(0.5) {
                    SiteState::Node(NodeId::new(s))
                } else {
                    SiteState::Free
                };
                g.set(s, state);
                let targets: Vec<usize> =
                    (0..1 + rng.range(4)).map(|_| rng.range(g.len())).collect();
                let mut want = None;
                let mut want_cost = usize::MAX;
                for s in (0..g.len()).filter(|&s| g.state(s) == SiteState::Free) {
                    let cost: usize = targets.iter().map(|&e| g.distance(s, e)).sum();
                    if cost < want_cost {
                        want_cost = cost;
                        want = Some(s);
                    }
                }
                let got = g.nearest_free(targets.iter().copied(), &mut axis_cost);
                assert_eq!(got, want, "targets {targets:?} on width {width}");
            }
        }
    }

    #[test]
    fn doomed_verdicts_are_sound() {
        // Capacities only shrink, failed searches relabel what they
        // flood; whenever the labels call a search doomed, a fresh
        // search must indeed find no path.
        let mut rng = mbqc_util::Rng::seed_from_u64(5);
        let mut scratch = RouteScratch::default();
        let (mut doomed, mut failed) = (0, 0);
        for width in [3, 6, 9] {
            for _ in 0..20 {
                let g = LayerGrid::new(width);
                let mut cap: Vec<usize> = (0..g.len()).map(|_| rng.range(3)).collect();
                scratch.reset_labels(g.len());
                for _ in 0..4 * g.len() {
                    let s = rng.range(g.len());
                    cap[s] = cap[s].saturating_sub(1 + rng.range(2));
                    let (from, to) = (rng.range(g.len()), rng.range(g.len()));
                    if g.may_route(from, to, |s| cap[s], &scratch) {
                        if g.route(from, to, |s| cap[s], &mut scratch).is_none() {
                            failed += 1;
                        }
                    } else {
                        doomed += 1;
                        assert_eq!(route(&g, from, to, |s| cap[s]), None, "{from} -> {to}");
                    }
                }
            }
        }
        // Both verdicts were exercised, failed searches included.
        assert!(
            doomed > 100 && failed > 100,
            "{doomed} doomed, {failed} failed"
        );
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
