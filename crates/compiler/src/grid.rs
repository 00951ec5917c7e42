//! One logical layer of the RSG grid, on flat arrays.
//!
//! A `width × width` layer is stored in a *padded* layout: `pitch =
//! width + 2` sites per row, `pitch²` in all, row-major, with a border
//! ring of sites that are permanently blocked. The four neighbours of
//! every real site then sit at fixed offsets (`−pitch`, `+pitch`, `−1`,
//! `+1`, searched in that order: up, down, left, right) and no search
//! step checks a bound. Site indices in this module and in the mapper
//! are padded; [`LayerGrid::unpad`] gives the `row * width + col` index
//! a `CompiledProgram` reports.
//!
//! **Capacity table.** Per site, one `u32` holds the routing
//! pass-throughs still available this layer: the resource state's
//! routing capacity on a free site, what is left of it on a site that
//! routing chains already cross, the spare-photon bridges left on a
//! wire, and 0 on a node or the border. A routing search reads nothing
//! else; committing a path decrements it.
//!
//! **Row bitmasks.** The free sites are also kept as one bitmask per
//! row, `⌈width / 64⌉` words each, bit `c` set while column `c` is free.
//! The `k`-th free site is a popcount walk over the words. The free
//! site nearest a set of targets costs two bit scans per row, on the
//! rows outward from the targets' median row that can still hold it.
//!
//! A layer is opened in place ([`LayerGrid::open`]): the table and the
//! masks are refilled, nothing is reallocated.

/// What a free site is taken by when the mapper claims it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SiteState {
    /// A freshly placed computation node: routes cannot cross it.
    Node,
    /// A live wire (inter-layer fusion chain): its spare photons bridge
    /// routes up to the wire capacity per layer.
    Wire,
}

/// A `width × width` layer of resource-state sites (see the module docs
/// for the layout).
#[derive(Debug, Default)]
pub(crate) struct LayerGrid {
    width: usize,
    /// Padded row length, `width + 2`.
    pitch: usize,
    /// Pass-throughs a free site offers per layer.
    route_cap: u32,
    /// Pass-throughs a wire site offers per layer.
    wire_cap: u32,
    /// Per padded site: pass-throughs left this layer (0 = blocked).
    cap: Vec<u32>,
    /// Words per row in `free_bits`.
    row_words: usize,
    /// Per row, `row_words` words: bit `c` set iff column `c` is free.
    free_bits: Vec<u64>,
    /// Number of free sites.
    free: usize,
}

impl LayerGrid {
    /// Sizes the grid for `width` and the per-layer capacities of a
    /// free site (`route_cap`) and of a wire site (`wire_cap`); reuses
    /// the buffers. Call [`LayerGrid::open`] before use.
    pub(crate) fn reset(&mut self, width: usize, route_cap: usize, wire_cap: usize) {
        // A pass-through costs one unit per routed edge, so no layer
        // comes near `u32::MAX` of them; larger capacities are the same.
        let clamp = |c: usize| u32::try_from(c).unwrap_or(u32::MAX);
        self.width = width;
        self.pitch = width.saturating_add(2);
        self.route_cap = clamp(route_cap);
        self.wire_cap = clamp(wire_cap);
        // Searches store sites as `u32`.
        let sites = self
            .pitch
            .checked_mul(self.pitch)
            .filter(|&n| u32::try_from(n).is_ok())
            .expect("grid has more sites than u32 indices reach");
        self.cap.clear();
        self.cap.resize(sites, 0);
        self.row_words = width.div_ceil(64);
        self.free_bits.clear();
        self.free_bits.resize(width * self.row_words, 0);
        self.free = 0;
    }

    /// Opens an all-free layer in place.
    pub(crate) fn open(&mut self) {
        let (w, p, words) = (self.width, self.pitch, self.row_words);
        for r in 1..=w {
            self.cap[r * p + 1..=r * p + w].fill(self.route_cap);
        }
        self.free_bits.fill(u64::MAX);
        if w % 64 != 0 {
            for r in 0..w {
                self.free_bits[(r + 1) * words - 1] = (1 << (w % 64)) - 1;
            }
        }
        self.free = w * w;
    }

    /// Number of padded sites, border included.
    pub(crate) fn len(&self) -> usize {
        self.cap.len()
    }

    /// Padded index of `(row, col)`.
    pub(crate) fn index(&self, row: usize, col: usize) -> usize {
        (row + 1) * self.pitch + col + 1
    }

    /// `(row, col)` of a padded index of a real site.
    pub(crate) fn coords(&self, s: usize) -> (usize, usize) {
        (s / self.pitch - 1, s % self.pitch - 1)
    }

    /// The unpadded `row * width + col` index of a real site.
    pub(crate) fn unpad(&self, s: usize) -> usize {
        let (r, c) = self.coords(s);
        r * self.width + c
    }

    /// Manhattan distance between two sites.
    pub(crate) fn distance(&self, a: usize, b: usize) -> usize {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    /// The four neighbours of a real site, border sites included, in
    /// search order: up, down, left, right.
    fn neighbors(&self, s: usize) -> [usize; 4] {
        [s - self.pitch, s + self.pitch, s - 1, s + 1]
    }

    /// Number of free sites.
    pub(crate) fn free_count(&self) -> usize {
        self.free
    }

    /// Marks `s` not free.
    fn take_free(&mut self, s: usize) {
        let (r, c) = self.coords(s);
        let word = &mut self.free_bits[r * self.row_words + c / 64];
        let bit = 1 << (c % 64);
        self.free -= usize::from(*word & bit != 0);
        *word &= !bit;
    }

    /// Claims site `s` for a node or a wire.
    pub(crate) fn set(&mut self, s: usize, state: SiteState) {
        self.take_free(s);
        self.cap[s] = match state {
            SiteState::Node => 0,
            SiteState::Wire => self.wire_cap,
        };
    }

    /// Commits a routing path found by [`LayerGrid::route`]: each of its
    /// sites spends one pass-through, and a free site becomes a routing
    /// site.
    pub(crate) fn commit(&mut self, path: &[usize]) {
        for &s in path {
            debug_assert!(self.cap[s] > 0, "route traverses only passable sites");
            self.cap[s] -= 1;
            self.take_free(s);
        }
    }

    /// Padded index of the `k`-th free site (0-based, in index order),
    /// or `None` when fewer than `k + 1` sites are free.
    pub(crate) fn nth_free(&self, mut k: usize) -> Option<usize> {
        for (i, &word) in self.free_bits.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if k < ones {
                let mut bits = word;
                for _ in 0..k {
                    bits &= bits - 1;
                }
                let col = (i % self.row_words) * 64 + bits.trailing_zeros() as usize;
                return Some(self.index(i / self.row_words, col));
            }
            k -= ones;
        }
        None
    }

    /// The free site with the least total Manhattan distance to
    /// `targets`, the lowest index among ties; `None` on a full layer.
    ///
    /// Manhattan distance splits by axis: the cost of site `(r, c)` is
    /// `rows(r) + cols(c)`, each a sum of `|x − t|` over the targets'
    /// coordinates on that axis (sorted once per call into `axis`, a
    /// buffer the caller reuses). Such a sum is convex, with its first
    /// minimum at the lower median: strictly decreasing before it,
    /// non-decreasing after. So in each row only two free sites can
    /// win, the nearest at or left of the best column and the nearest
    /// at or right of it, the left one on a tie; both are one bit scan
    /// of the row's mask. Rows are visited outward from the best row,
    /// and each direction stops at the first row whose cheapest
    /// conceivable site cannot beat the best found.
    pub(crate) fn nearest_free(
        &self,
        targets: impl Iterator<Item = usize>,
        axis: &mut Vec<usize>,
    ) -> Option<usize> {
        if self.free == 0 {
            return None;
        }
        axis.clear();
        axis.extend(targets);
        let m = axis.len();
        if m == 0 {
            return self.nth_free(0);
        }
        for k in 0..m {
            axis.push(self.coords(axis[k]).0);
        }
        for k in 0..m {
            axis.push(self.coords(axis[k]).1);
        }
        let (rows, cols) = axis[m..].split_at_mut(m);
        rows.sort_unstable();
        cols.sort_unstable();
        let cost =
            |axis: &[usize], x: usize| -> usize { axis.iter().map(|&t| x.abs_diff(t)).sum() };
        let (best_row, best_col) = (rows[(m - 1) / 2], cols[(m - 1) / 2]);
        let min_col_cost = cost(cols, best_col);
        // A row's cheapest free site as `(cost, index)`.
        let in_row = |r: usize, row_cost: usize| {
            let col = match (
                self.free_at_or_left(r, best_col),
                self.free_at_or_right(r, best_col),
            ) {
                (Some(left), Some(right)) if cost(cols, right) < cost(cols, left) => right,
                (Some(c), _) | (None, Some(c)) => c,
                (None, None) => return (usize::MAX, usize::MAX),
            };
            (row_cost + cost(cols, col), self.index(r, col))
        };
        // The least `(cost, index)`. Upward, a row whose bound equals
        // the best can still win on index; downward it cannot.
        let mut best = (usize::MAX, usize::MAX);
        for r in (0..=best_row).rev() {
            let row_cost = cost(rows, r);
            if row_cost + min_col_cost > best.0 {
                break;
            }
            best = best.min(in_row(r, row_cost));
        }
        for r in best_row + 1..self.width {
            let row_cost = cost(rows, r);
            if row_cost + min_col_cost >= best.0 {
                break;
            }
            best = best.min(in_row(r, row_cost));
        }
        Some(best.1)
    }

    /// The words of row `r`'s free mask.
    fn row_bits(&self, r: usize) -> &[u64] {
        &self.free_bits[r * self.row_words..(r + 1) * self.row_words]
    }

    /// The largest free column `≤ c` in row `r`.
    fn free_at_or_left(&self, r: usize, c: usize) -> Option<usize> {
        let row = self.row_bits(r);
        let mut i = c / 64;
        let mut word = row[i] & (u64::MAX >> (63 - c % 64));
        loop {
            if word != 0 {
                return Some(i * 64 + 63 - word.leading_zeros() as usize);
            }
            i = i.checked_sub(1)?;
            word = row[i];
        }
    }

    /// The smallest free column `≥ c` in row `r`.
    fn free_at_or_right(&self, r: usize, c: usize) -> Option<usize> {
        let row = self.row_bits(r);
        let mut i = c / 64;
        let mut word = row[i] & (u64::MAX << (c % 64));
        loop {
            if word != 0 {
                return Some(i * 64 + word.trailing_zeros() as usize);
            }
            i += 1;
            word = *row.get(i)?;
        }
    }

    /// Finds a shortest routing path from a site adjacent to `from` to
    /// `to` through sites with pass-through capacity left; `from` and
    /// `to` themselves are endpoints (any state) and are not traversed.
    ///
    /// Returns the intermediate sites of the path (possibly empty when
    /// `from` and `to` are grid-adjacent), or `None` if no path exists.
    /// The search runs in `scratch`, which a mapper routing thousands of
    /// edges reuses; the path lives there until the next call. A failed
    /// search gives every site it reached, `from` included, one fresh
    /// component label (see [`RouteScratch::reset_labels`]).
    pub(crate) fn route<'s>(
        &self,
        from: usize,
        to: usize,
        scratch: &'s mut RouteScratch,
    ) -> Option<&'s [usize]> {
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
        let sites = self.cap.len();
        // A site is seen in this search iff its stamp is current; stale
        // stamps from earlier searches need no clearing.
        *stamp = stamp.wrapping_add(1);
        if *stamp == 0 || seen.len() < sites {
            seen.clear();
            seen.resize(sites, 0);
            prev.resize(sites, 0);
            *stamp = 1;
        }
        if label.len() < sites {
            label.resize(sites, 0);
        }
        let stamp = *stamp;
        seen[from] = stamp;
        queue.push(from as u32);
        let mut head = 0;
        while let Some(&s) = queue.get(head) {
            head += 1;
            let s = s as usize;
            for nb in self.neighbors(s) {
                if seen[nb] == stamp {
                    continue;
                }
                if nb == to {
                    // Reconstruct intermediate path (exclusive of ends).
                    let mut cur = s;
                    while cur != from {
                        path.push(cur);
                        cur = prev[cur] as usize;
                    }
                    path.reverse();
                    return Some(path);
                }
                if self.cap[nb] > 0 {
                    seen[nb] = stamp;
                    prev[nb] = s as u32;
                    queue.push(nb as u32);
                }
            }
        }
        // The search flooded whole components of passable sites: none of
        // them can reach `to` while capacities only shrink.
        for &s in queue.iter() {
            label[s as usize] = *next_label;
        }
        *next_label = next_label.wrapping_add(1);
        None
    }

    /// `false` when the component labels in `scratch` prove that
    /// [`LayerGrid::route`] from `from` to `to` would fail: the two are
    /// not grid-adjacent and no passable neighbour of `from` shares a
    /// label with a passable neighbour of `to`. `true` means a search
    /// may succeed.
    pub(crate) fn may_route(&self, from: usize, to: usize, scratch: &RouteScratch) -> bool {
        if from == to || self.neighbors(from).contains(&to) {
            return true;
        }
        let label = &scratch.label;
        let mut to_labels = [None; 4];
        let passable = |nb: &usize| self.cap[*nb] > 0;
        for (slot, nb) in to_labels
            .iter_mut()
            .zip(self.neighbors(to).into_iter().filter(passable))
        {
            *slot = Some(label[nb]);
        }
        self.neighbors(from)
            .into_iter()
            .filter(passable)
            .any(|nb| to_labels.contains(&Some(label[nb])))
    }
}

/// Reusable breadth-first-search buffers for [`LayerGrid::route`], plus
/// the open layer's component labels, all indexed by padded site.
#[derive(Debug, Default)]
pub(crate) struct RouteScratch {
    /// Generation of the current search.
    stamp: u32,
    /// Per site: generation that last visited it.
    seen: Vec<u32>,
    /// Per visited site: the site it was reached from.
    prev: Vec<u32>,
    /// Sites the last search reached, `from` first, in visiting order.
    queue: Vec<u32>,
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
    use mbqc_util::Rng;

    /// Widths around and past the 64-column word edge of the row masks.
    const WIDE: [usize; 4] = [63, 64, 65, 130];

    /// An open all-free layer.
    fn grid(width: usize, route_cap: usize, wire_cap: usize) -> LayerGrid {
        let mut g = LayerGrid::default();
        g.reset(width, route_cap, wire_cap);
        g.open();
        g
    }

    /// A uniformly random real site.
    fn any_site(g: &LayerGrid, rng: &mut Rng) -> usize {
        g.index(rng.range(g.width), rng.range(g.width))
    }

    /// Every real site, in index order.
    fn sites(g: &LayerGrid) -> impl Iterator<Item = usize> + '_ {
        (0..g.width).flat_map(move |r| (0..g.width).map(move |c| g.index(r, c)))
    }

    /// An independent model of which padded sites are free: the real
    /// sites of an open layer, less every site claimed since.
    fn all_free(g: &LayerGrid) -> Vec<bool> {
        let mut free = vec![false; g.len()];
        for s in sites(g) {
            free[s] = true;
        }
        free
    }

    /// The model's free sites, in index order.
    fn free_sites(g: &LayerGrid, model: &[bool]) -> Vec<usize> {
        sites(g).filter(|&s| model[s]).collect()
    }

    #[test]
    fn coords_roundtrip() {
        for width in [1, 5, 64, 65] {
            let g = grid(width, 1, 1);
            for (unpadded, s) in sites(&g).enumerate() {
                let (r, c) = g.coords(s);
                assert_eq!(g.index(r, c), s);
                assert_eq!(g.unpad(s), unpadded);
            }
        }
        let g = grid(5, 1, 1);
        assert_eq!(g.distance(g.index(0, 0), g.index(4, 4)), 8);
    }

    #[test]
    fn neighbors_edge_cases() {
        // Border sites are blocked, so a fresh layer's passable
        // neighbours are exactly the in-grid ones.
        let g = grid(3, 1, 1);
        let passable = |s: usize| g.neighbors(s).iter().filter(|&&nb| g.cap[nb] > 0).count();
        assert_eq!(passable(g.index(0, 0)), 2); // corner
        assert_eq!(passable(g.index(0, 1)), 3); // edge
        assert_eq!(passable(g.index(1, 1)), 4); // center
    }

    #[test]
    fn free_tracking() {
        let mut g = grid(2, 1, 1);
        assert_eq!(g.free_count(), 4);
        g.set(g.index(0, 1), SiteState::Wire);
        assert_eq!(g.free_count(), 3);
        g.set(g.index(0, 1), SiteState::Node);
        assert_eq!(g.free_count(), 3);
        assert_eq!(g.nth_free(1), Some(g.index(1, 0)));
        assert_eq!(g.nth_free(3), None);
        g.open();
        assert_eq!(g.free_count(), 4);
        assert_eq!(g.nth_free(1), Some(g.index(0, 1)));

        // Nodes, wires and committed routes at rising occupancy, across
        // the masks' word edges: the counter and every `nth_free(k)`
        // agree with an exhaustive filter, and reopening restores all.
        let mut rng = Rng::seed_from_u64(17);
        for width in [2, 5].into_iter().chain(WIDE) {
            let mut g = grid(width, 2, 1);
            let mut model = all_free(&g);
            for round in 0..4 {
                for _ in 0..width * width / 3 {
                    let s = any_site(&g, &mut rng);
                    match rng.range(3) {
                        0 => g.set(s, SiteState::Node),
                        1 => g.set(s, SiteState::Wire),
                        _ if g.cap[s] > 0 => g.commit(&[s]),
                        _ => continue,
                    }
                    model[s] = false;
                }
                let free = free_sites(&g, &model);
                assert_eq!(g.free_count(), free.len(), "width {width}");
                for (k, &s) in free.iter().enumerate() {
                    assert_eq!(g.nth_free(k), Some(s), "k {k} on width {width}");
                }
                assert_eq!(g.nth_free(free.len()), None);
                if round == 1 {
                    g.open();
                    model = all_free(&g);
                    assert_eq!(g.free_count(), width * width);
                    assert!(sites(&g).all(|s| g.cap[s] == 2));
                }
            }
            // The border never becomes passable.
            let p = g.pitch;
            assert!((0..g.len())
                .filter(|&s| s < p || s >= p * (p - 1) || s % p == 0 || s % p == p - 1)
                .all(|s| g.cap[s] == 0));
        }
    }

    /// A search on fresh buffers, with the path copied out.
    fn route(g: &LayerGrid, from: usize, to: usize) -> Option<Vec<usize>> {
        g.route(from, to, &mut RouteScratch::default())
            .map(<[usize]>::to_vec)
    }

    #[test]
    fn route_adjacent_is_empty_path() {
        let g = grid(3, 1, 1);
        let path = route(&g, g.index(0, 0), g.index(0, 1)).unwrap();
        assert!(path.is_empty());
    }

    #[test]
    fn route_across_grid() {
        let g = grid(3, 1, 1);
        // Corner to corner must pass through 3 intermediate sites.
        let path = route(&g, g.index(0, 0), g.index(2, 2)).unwrap();
        assert_eq!(path.len(), 3);
    }

    #[test]
    fn route_blocked_by_wall() {
        let mut g = grid(3, 1, 1);
        // Wall across the middle row.
        for c in 0..3 {
            g.set(g.index(1, c), SiteState::Node);
        }
        assert!(route(&g, g.index(0, 0), g.index(2, 2)).is_none());
    }

    #[test]
    fn route_respects_capacity_function() {
        let mut g = grid(3, 3, 1);
        // Corridor: only the middle column is open in the middle row,
        // and it already carries one route (two pass-throughs left).
        g.set(g.index(1, 0), SiteState::Node);
        g.set(g.index(1, 2), SiteState::Node);
        let mid = g.index(1, 1);
        g.commit(&[mid]);
        assert_eq!((g.cap[mid], g.free_count()), (2, 6));
        // A path (0,0) → (2,0) must squeeze through (1,1).
        let path = route(&g, g.index(0, 0), g.index(2, 0)).unwrap();
        assert!(path.contains(&mid));
        // A zero-capacity corridor closes.
        g.commit(&[mid, mid]);
        assert!(route(&g, g.index(0, 0), g.index(2, 0)).is_none());
    }

    #[test]
    fn reused_route_scratch_matches_fresh_search() {
        // One scratch across grid sizes and blockages, found and failed
        // searches alike, must give exactly the fresh-buffer answers.
        let mut scratch = RouteScratch::default();
        let mut rng = Rng::seed_from_u64(3);
        for width in [4, 7, 3, 6, 65] {
            let mut g = grid(width, 1, 1);
            for _ in 0..40 {
                let s = any_site(&g, &mut rng);
                if rng.bernoulli(0.3) {
                    g.set(s, SiteState::Node);
                }
                let (from, to) = (any_site(&g, &mut rng), any_site(&g, &mut rng));
                let fresh = route(&g, from, to);
                let reused = g.route(from, to, &mut scratch);
                assert_eq!(fresh.as_deref(), reused, "{from} -> {to} on width {width}");
            }
        }
    }

    #[test]
    fn nearest_free_matches_exhaustive_scan() {
        // The two-candidate row scan must pick exactly the site a full
        // scan of the free sites in index order picks, at every
        // occupancy, with free sites far from the cheapest column too.
        let mut rng = Rng::seed_from_u64(11);
        let mut axis = Vec::new();
        for width in [1, 2, 5, 8, 11].into_iter().chain(WIDE) {
            let mut g = grid(width, 1, 1);
            // Random occupancies, then half occupancy with every column
            // left (or right) of the word edge at 64 taken, so the
            // nearest free column is often in the next word over.
            for layout in 0..7 {
                g.open();
                let mut model = all_free(&g);
                for s in sites(&g).collect::<Vec<_>>() {
                    let col = g.coords(s).1;
                    let taken = match layout {
                        5 => col < 64 || rng.bernoulli(0.5),
                        6 => col >= 64 || rng.bernoulli(0.5),
                        _ => rng.bernoulli([0.0, 0.5, 0.9, 0.99, 1.0][layout]),
                    };
                    if taken {
                        g.set(s, SiteState::Node);
                        model[s] = false;
                    }
                }
                let free = free_sites(&g, &model);
                for _ in 0..20 {
                    let targets: Vec<usize> = (0..1 + rng.range(4))
                        .map(|_| any_site(&g, &mut rng))
                        .collect();
                    let cost =
                        |s: usize| -> usize { targets.iter().map(|&e| g.distance(s, e)).sum() };
                    // `min_by_key` keeps the first of equal minima.
                    let want = free.iter().copied().min_by_key(|&s| cost(s));
                    let got = g.nearest_free(targets.iter().copied(), &mut axis);
                    assert_eq!(got, want, "targets {targets:?} on width {width}");
                }
            }
        }
    }

    #[test]
    fn doomed_verdicts_are_sound() {
        // Capacities only shrink, failed searches relabel what they
        // flood; whenever the labels call a search doomed, a fresh
        // search must indeed find no path.
        let mut rng = Rng::seed_from_u64(5);
        let mut scratch = RouteScratch::default();
        let (mut doomed, mut failed) = (0, 0);
        for width in [3, 6, 9] {
            for _ in 0..20 {
                let mut g = grid(width, 1, 1);
                let all: Vec<usize> = sites(&g).collect();
                for &s in &all {
                    g.cap[s] = rng.range(3) as u32;
                }
                scratch.reset_labels(g.len());
                for _ in 0..4 * all.len() {
                    let s = all[rng.range(all.len())];
                    g.cap[s] = g.cap[s].saturating_sub(1 + rng.range(2) as u32);
                    let (from, to) = (all[rng.range(all.len())], all[rng.range(all.len())]);
                    if g.may_route(from, to, &scratch) {
                        if g.route(from, to, &mut scratch).is_none() {
                            failed += 1;
                        }
                    } else {
                        doomed += 1;
                        assert_eq!(route(&g, from, to), None, "{from} -> {to}");
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
        let mut g = grid(3, 1, 1);
        g.set(g.index(1, 0), SiteState::Node);
        g.set(g.index(1, 2), SiteState::Node);
        g.set(g.index(1, 1), SiteState::Wire);
        // Wires are passable with capacity 1 (spare photons bridge
        // through); committing one route through it closes it.
        let path = route(&g, g.index(0, 0), g.index(2, 0)).unwrap();
        assert!(path.contains(&g.index(1, 1)));
        g.commit(&path);
        assert!(route(&g, g.index(0, 0), g.index(2, 0)).is_none());
    }
}
