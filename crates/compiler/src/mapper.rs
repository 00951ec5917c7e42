//! The spacetime grid mapper.
//!
//! Places computation-graph nodes onto a time-ordered sequence of RSG
//! grid layers (Section II-C's "second stage"): each node occupies one
//! resource state at one site of one layer; an edge is *realized* by an
//! intra-layer routing chain between its endpoints' sites the moment the
//! later endpoint is placed, with the earlier endpoint kept alive as a
//! *wire* (a chain of inter-layer fusions at its site). Edges that
//! cannot be routed through a congested layer are deferred: both wires
//! stay alive and the edge retries on later layers.
//!
//! The open layer lives in one reused `LayerGrid` (the private `grid`
//! module): a padded grid whose blocked border lets the routing BFS
//! step to a neighbour without a bounds check, one pass-through
//! capacity per site that placements and committed paths update and
//! routing searches read, and per-row free-site bitmasks from which
//! placement picks its site. Opening a layer refills these in place.
//! Sites are padded indices throughout; [`CompiledProgram::site_of`]
//! reports them unpadded.
//!
//! Each edge is considered exactly once, when its later endpoint is
//! placed: it is realized then, or deferred to `pending_edges` until a
//! retry realizes it. So no edge is looked up in a realized set; the
//! graph's own adjacency lists say which neighbours are placed.

use std::collections::VecDeque;

use mbqc_graph::{DiGraph, Graph, NodeId};
use mbqc_util::Rng;

use crate::config::{CompileError, CompilerConfig};
use crate::grid::{LayerGrid, RouteScratch, SiteState};
use crate::metrics::{required_photon_lifetime, LifetimeReport};

/// A realized fusion pair: edge `(a, b)` with the storage-epoch times of
/// both photons at realization (Algorithm 1's fusee inputs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuseePair {
    /// Earlier-placed endpoint.
    pub a: NodeId,
    /// Later-placed endpoint.
    pub b: NodeId,
    /// Storage epoch of `a` when the fusion happened (placement layer,
    /// or last refresh under dynamic refresh).
    pub time_a: usize,
    /// Layer at which the fusion happened (= `b`'s placement layer).
    pub time_b: usize,
}

/// Result of single-QPU compilation: execution layers plus the
/// bookkeeping needed for the required-photon-lifetime metric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledProgram {
    /// Number of execution layers (= execution time in clock cycles at
    /// the logical-layer abstraction).
    pub num_layers: usize,
    /// Placement layer per node.
    pub layer_of: Vec<usize>,
    /// Storage epoch per node: placement layer, advanced by dynamic
    /// refresh events.
    pub effective_layer: Vec<usize>,
    /// Site index per node (within the usable grid).
    pub site_of: Vec<usize>,
    /// Realized fusion pairs with their times.
    pub fusee_pairs: Vec<FuseePair>,
    /// Total fusions: edge realizations (chain length + 1 each) plus
    /// wire inter-layer fusions.
    pub fusion_count: usize,
    /// Fusions spent on intra-layer routing chains only.
    pub routing_fusions: usize,
    /// Inter-layer wire fusions.
    pub wire_fusions: usize,
    /// Dynamic-refresh events (0 when refresh is disabled).
    pub refresh_events: usize,
}

impl CompiledProgram {
    /// Execution time in logical layers.
    #[must_use]
    pub fn execution_time(&self) -> usize {
        self.num_layers
    }

    /// Algorithm 1 on this compilation: required photon lifetime from
    /// the realized fusee pairs and the real-time dependency DAG.
    ///
    /// # Panics
    ///
    /// Panics if `deps` does not match the node count or is cyclic.
    #[must_use]
    pub fn lifetime(&self, deps: &DiGraph) -> LifetimeReport {
        let pairs: Vec<(usize, usize)> = self
            .fusee_pairs
            .iter()
            .map(|p| (p.time_a, p.time_b))
            .collect();
        required_photon_lifetime(&self.effective_layer, &pairs, deps)
    }
}

/// The single-QPU compiler.
///
/// # Examples
///
/// ```
/// use mbqc_compiler::{CompilerConfig, GridMapper};
/// use mbqc_graph::generate;
/// use mbqc_hardware::ResourceStateKind;
///
/// let g = generate::path_graph(12);
/// let order: Vec<_> = g.nodes().collect();
/// let mapper = GridMapper::new(CompilerConfig::new(5, ResourceStateKind::FIVE_STAR));
/// let compiled = mapper.compile(&g, &order).unwrap();
/// assert_eq!(compiled.fusee_pairs.len(), g.edge_count());
/// ```
#[derive(Debug, Clone)]
pub struct GridMapper {
    config: CompilerConfig,
}

impl GridMapper {
    /// Creates a mapper with the given configuration.
    #[must_use]
    pub fn new(config: CompilerConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Compiles `graph` with the given placement `order` (a permutation
    /// of all nodes; a flow-respecting topological order for MBQC
    /// patterns).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the usable grid is empty, the order
    /// is not a permutation, or the live frontier exceeds grid capacity
    /// (no progress for several consecutive layers).
    pub fn compile(
        &self,
        graph: &Graph,
        order: &[NodeId],
    ) -> Result<CompiledProgram, CompileError> {
        self.compile_with(graph, order, &mut MapperWorkspace::new())
    }

    /// [`GridMapper::compile`] with a caller-owned [`MapperWorkspace`]:
    /// identical results, and repeated compilations (a batch service, a
    /// per-QPU worker) reuse the placement-state buffers instead of
    /// re-allocating them. Only the buffers that escape into the
    /// returned [`CompiledProgram`] are freshly allocated per call.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when the usable grid is empty, the order
    /// is not a permutation, or the live frontier exceeds grid capacity
    /// (no progress for several consecutive layers).
    pub fn compile_with(
        &self,
        graph: &Graph,
        order: &[NodeId],
        ws: &mut MapperWorkspace,
    ) -> Result<CompiledProgram, CompileError> {
        let n = graph.node_count();
        let width = self.config.usable_width();
        if width == 0 && n > 0 {
            return Err(CompileError::EmptyGrid);
        }
        // Validate the order.
        {
            let seen = &mut ws.seen;
            seen.clear();
            seen.resize(n, false);
            for &u in order {
                if u.index() >= n || seen[u.index()] {
                    return Err(CompileError::InvalidOrder(format!(
                        "node {u} out of range or duplicated"
                    )));
                }
                seen[u.index()] = true;
            }
            if order.len() != n {
                return Err(CompileError::InvalidOrder(format!(
                    "order covers {} of {} nodes",
                    order.len(),
                    n
                )));
            }
        }
        if n == 0 {
            return Ok(CompiledProgram {
                num_layers: 0,
                layer_of: Vec::new(),
                effective_layer: Vec::new(),
                site_of: Vec::new(),
                fusee_pairs: Vec::new(),
                fusion_count: 0,
                routing_fusions: 0,
                wire_fusions: 0,
                refresh_events: 0,
            });
        }

        let kind = self.config.resource_state;
        let budgets = Budgets {
            // Spare photons a wire's fresh per-layer state offers for
            // lateral attachments (two photons maintain the chain).
            wire_attach: kind.photons().saturating_sub(2).max(1),
            // Fusion arms on a freshly placed node's state.
            node_arms: kind.degree_capacity(),
        };
        // Pass-throughs a wire site can bridge per layer (two spare
        // photons each); prevents enclosed wires from deadlocking.
        let wire_pass_cap = (kind.photons().saturating_sub(2) / 2).max(1);

        let mut rng = Rng::seed_from_u64(self.config.seed);
        let MapperWorkspace {
            state: st,
            layer,
            pending,
            pending_edges,
            still_pending,
            ..
        } = ws;
        st.reset(n, graph);
        layer.reset(n, width, kind.routing_capacity(), wire_pass_cap);
        pending.clear();
        pending.extend(order.iter().copied());
        pending_edges.clear();
        let mut t = 0usize;
        let mut stagnant_layers = 0usize;

        while !pending.is_empty() || !pending_edges.is_empty() {
            // --- open layer t: wires occupy their sites -----------------
            layer.open();
            for &u in &st.live_wires {
                layer.grid.set(st.site_of[u.index()], SiteState::Wire);
                st.wire_fusions += 1;
            }
            st.counters.layers += 1;
            let mut progressed = false;

            // --- 1. retry deferred edges --------------------------------
            st.counters.edge_retries += pending_edges.len() as u64;
            still_pending.clear();
            for (u, v) in pending_edges.drain(..) {
                if Self::try_realize_edge(u, v, st, layer, budgets, t) {
                    progressed = true;
                } else {
                    still_pending.push((u, v));
                }
            }
            std::mem::swap(pending_edges, still_pending);

            // --- 2. place new nodes in order -----------------------------
            // A placement needs only a free site: edges it cannot route
            // are deferred, never the node.
            while layer.grid.free_count() > 0 {
                let Some(u) = pending.pop_front() else {
                    break;
                };
                Self::place(u, graph, st, layer, pending_edges, budgets, t, &mut rng);
                // `u` routed its own edges above on the wire budget; from
                // here on it is a fresh node.
                layer.mark_placed(u);
                progressed = true;
            }

            // --- close layer t -------------------------------------------
            // Wire lifecycle: newly placed nodes with open edges start
            // wires; realized-out wires die.
            for &u in &layer.placed {
                if st.open_edges[u.index()] > 0 {
                    st.live_wires.push(u);
                }
            }
            st.live_wires.retain(|&u| st.open_edges[u.index()] > 0);

            // Dynamic refresh.
            if let Some(d) = self.config.refresh_interval {
                for &u in &st.live_wires {
                    if t + 1 >= st.effective_layer[u.index()] + d {
                        st.effective_layer[u.index()] = t + 1;
                        st.refresh_events += 1;
                    }
                }
            }

            if progressed {
                stagnant_layers = 0;
            } else {
                stagnant_layers += 1;
                if stagnant_layers > 3 {
                    let node = pending
                        .front()
                        .map_or_else(|| pending_edges[0].0.index(), |u| u.index());
                    return Err(CompileError::PlacementStuck {
                        node,
                        attempts: t + 1,
                    });
                }
            }
            t += 1;
        }

        debug_assert_eq!(st.fusee_pairs.len(), graph.edge_count());
        for site in &mut st.site_of {
            *site = layer.grid.unpad(*site);
        }
        Ok(CompiledProgram {
            num_layers: t,
            layer_of: std::mem::take(&mut st.layer_of),
            effective_layer: std::mem::take(&mut st.effective_layer),
            site_of: std::mem::take(&mut st.site_of),
            fusee_pairs: std::mem::take(&mut st.fusee_pairs),
            fusion_count: st.edge_fusions + st.routing_fusions + st.wire_fusions,
            routing_fusions: st.routing_fusions,
            wire_fusions: st.wire_fusions,
            refresh_events: st.refresh_events,
        })
    }

    /// Places node `u` on a free site of the open layer (the caller
    /// guarantees one), routing as many edges to already-placed
    /// neighbors as budgets allow; the rest are deferred.
    #[allow(clippy::too_many_arguments)]
    fn place(
        u: NodeId,
        graph: &Graph,
        st: &mut MapperState,
        layer: &mut LayerScratch,
        pending_edges: &mut Vec<(NodeId, NodeId)>,
        budgets: Budgets,
        t: usize,
        rng: &mut Rng,
    ) {
        // Placed neighbors: `u` is not placed yet, so none of their
        // edges to it is realized.
        let mut nbrs = std::mem::take(&mut layer.nbrs);
        nbrs.clear();
        nbrs.extend(
            graph
                .neighbors(u)
                .filter(|v| st.placed[v.index()])
                .map(|v| (v, st.site_of[v.index()])),
        );
        let grid = &mut layer.grid;

        // The site nearest the neighbor endpoints, or a spread-out pick
        // for isolated placements.
        let site = if nbrs.is_empty() {
            st.spread_cursor =
                (st.spread_cursor + 7 + (rng.next_u64() % 3) as usize) % grid.free_count();
            grid.nth_free(st.spread_cursor)
        } else {
            grid.nearest_free(nbrs.iter().map(|&(_, e)| e), &mut layer.axis)
        }
        .expect("placement needs a free site");

        grid.set(site, SiteState::Node);
        st.placed[u.index()] = true;
        st.site_of[u.index()] = site;
        st.layer_of[u.index()] = t;
        st.effective_layer[u.index()] = t;

        // Route to neighbors, nearest first, within u's arm budget.
        nbrs.sort_by_key(|&(_, e)| grid.distance(site, e));
        for &(v, _) in &nbrs {
            let arms_for_wire = usize::from(st.open_edges[u.index()] > 1);
            let budget = budgets.node_arms.saturating_sub(arms_for_wire);
            if layer.attach.get(u.index(), layer.epoch) >= budget
                || !Self::try_realize_edge(v, u, st, layer, budgets, t)
            {
                pending_edges.push((u, v));
            }
        }
        layer.nbrs = nbrs;
    }

    /// Attempts to realize the unrealized edge `(a, b)` (both placed) by
    /// routing between their current sites in the open layer. Returns
    /// `true` on success.
    fn try_realize_edge(
        a: NodeId,
        b: NodeId,
        st: &mut MapperState,
        layer: &mut LayerScratch,
        budgets: Budgets,
        t: usize,
    ) -> bool {
        debug_assert!(st.placed[a.index()] && st.placed[b.index()]);
        // Per-endpoint attachment budget: fresh nodes use their state's
        // arms; wires use the spare photons of this layer's chain state.
        for x in [a, b] {
            let budget = if layer.placed_now(x) {
                budgets.node_arms
            } else {
                budgets.wire_attach
            };
            if layer.attach.get(x.index(), layer.epoch) >= budget {
                return false;
            }
        }
        let sa = st.site_of[a.index()];
        let sb = st.site_of[b.index()];
        // Capacities only shrink within a layer, so the labels can
        // refute a search before it floods a component.
        if !layer.grid.may_route(sa, sb, &layer.route) {
            st.counters.searches_skipped += 1;
            return false;
        }
        let Some(path) = layer.grid.route(sa, sb, &mut layer.route) else {
            st.counters.searches_failed += 1;
            st.counters.sites_visited_failed += layer.route.visited() as u64;
            return false;
        };
        layer.grid.commit(path);
        st.routing_fusions += path.len();
        st.counters.searches_found += 1;
        st.counters.sites_visited_found += layer.route.visited() as u64;
        layer.attach.bump(a.index(), layer.epoch);
        layer.attach.bump(b.index(), layer.epoch);
        st.open_edges[a.index()] -= 1;
        st.open_edges[b.index()] -= 1;
        st.edge_fusions += 1;
        let (first, second) = if st.layer_of[a.index()] <= st.layer_of[b.index()] {
            (a, b)
        } else {
            (b, a)
        };
        st.fusee_pairs.push(FuseePair {
            a: first,
            b: second,
            time_a: st.effective_layer[first.index()],
            time_b: t.max(st.effective_layer[second.index()]),
        });
        true
    }
}

/// Per-layer attachment budgets of one resource-state kind.
#[derive(Debug, Clone, Copy)]
struct Budgets {
    /// Lateral attachments a wire's per-layer state offers.
    wire_attach: usize,
    /// Fusion arms of a freshly placed node's state.
    node_arms: usize,
}

/// Deterministic work counts of one [`GridMapper::compile_with`] call,
/// read through [`MapperWorkspace::counters`]. They depend only on the
/// inputs, never on the host or its timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MapperCounters {
    /// Layers opened.
    pub layers: u64,
    /// Deferred edges retried when a layer opens.
    pub edge_retries: u64,
    /// Routing searches that found a path.
    pub searches_found: u64,
    /// Routing searches that exhausted their component without
    /// reaching the target.
    pub searches_failed: u64,
    /// Searches the component labels proved doomed, so never run.
    pub searches_skipped: u64,
    /// Sites reached by successful searches, origins included.
    pub sites_visited_found: u64,
    /// Sites reached by failed searches, origins included.
    pub sites_visited_failed: u64,
}

/// Reusable placement-state buffers for [`GridMapper::compile_with`].
/// One workspace serves any sequence of graphs (buffers are resized per
/// call); a compile session keeps one per mapping worker.
#[derive(Debug, Default)]
pub struct MapperWorkspace {
    state: MapperState,
    layer: LayerScratch,
    pending: VecDeque<NodeId>,
    pending_edges: Vec<(NodeId, NodeId)>,
    still_pending: Vec<(NodeId, NodeId)>,
    seen: Vec<bool>,
}

impl MapperWorkspace {
    /// An empty workspace; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Work counts of the last compilation run in this workspace.
    #[must_use]
    pub fn counters(&self) -> MapperCounters {
        self.state.counters
    }
}

/// The open layer: its grid, per-node budgets in a dense table valid
/// only when stamped with the layer's epoch (so opening a layer clears
/// no per-node state), and the routing search buffers.
#[derive(Debug, Default)]
struct LayerScratch {
    grid: LayerGrid,
    /// Epoch of the open layer; grows over the workspace's whole life,
    /// so stamps left by earlier layers and compilations are stale.
    epoch: u64,
    /// Per node: attachments used this layer.
    attach: LayerCounts,
    /// Per node: epoch of the layer it was committed to as a fresh node.
    placed_at: Vec<u64>,
    /// Nodes committed to this layer, in placement order.
    placed: Vec<NodeId>,
    route: RouteScratch,
    /// The placing node's unrealized placed neighbors and their sites.
    nbrs: Vec<(NodeId, usize)>,
    /// Placement targets, then their sorted rows and columns.
    axis: Vec<usize>,
}

impl LayerScratch {
    /// Sizes the tables for `nodes` nodes and the grid for `width` and
    /// the per-layer pass-through capacities of free and wire sites.
    fn reset(&mut self, nodes: usize, width: usize, route_cap: usize, wire_cap: usize) {
        self.attach.resize(nodes);
        self.placed_at.resize(nodes, 0);
        self.grid.reset(width, route_cap, wire_cap);
    }

    /// Opens the next layer: an all-free grid in one component.
    fn open(&mut self) {
        self.epoch += 1;
        self.placed.clear();
        self.grid.open();
        self.route.reset_labels(self.grid.len());
    }

    fn mark_placed(&mut self, u: NodeId) {
        self.placed_at[u.index()] = self.epoch;
        self.placed.push(u);
    }

    /// `true` once `x` has been committed to the open layer.
    fn placed_now(&self, x: NodeId) -> bool {
        self.placed_at[x.index()] == self.epoch
    }
}

/// Dense counters that read as zero unless written in the current epoch.
#[derive(Debug, Default)]
struct LayerCounts(Vec<(u64, usize)>);

impl LayerCounts {
    fn resize(&mut self, len: usize) {
        self.0.resize(len, (0, 0));
    }

    fn get(&self, i: usize, epoch: u64) -> usize {
        match self.0[i] {
            (e, count) if e == epoch => count,
            _ => 0,
        }
    }

    fn bump(&mut self, i: usize, epoch: u64) {
        let count = self.get(i, epoch) + 1;
        self.0[i] = (epoch, count);
    }
}

/// Mutable compilation state.
#[derive(Debug, Default)]
struct MapperState {
    placed: Vec<bool>,
    /// Per node: padded site index (unpadded on output).
    site_of: Vec<usize>,
    layer_of: Vec<usize>,
    effective_layer: Vec<usize>,
    open_edges: Vec<usize>,
    live_wires: Vec<NodeId>,
    fusee_pairs: Vec<FuseePair>,
    edge_fusions: usize,
    routing_fusions: usize,
    wire_fusions: usize,
    refresh_events: usize,
    /// Free-site index of the last isolated placement.
    spread_cursor: usize,
    counters: MapperCounters,
}

impl MapperState {
    /// Rearms the state for an `n`-node graph, reusing every buffer.
    fn reset(&mut self, n: usize, graph: &Graph) {
        self.placed.clear();
        self.placed.resize(n, false);
        self.site_of.clear();
        self.site_of.resize(n, 0);
        self.layer_of.clear();
        self.layer_of.resize(n, 0);
        self.effective_layer.clear();
        self.effective_layer.resize(n, 0);
        self.open_edges.clear();
        self.open_edges
            .extend((0..n).map(|i| graph.degree(NodeId::new(i))));
        self.live_wires.clear();
        self.fusee_pairs.clear();
        self.edge_fusions = 0;
        self.routing_fusions = 0;
        self.wire_fusions = 0;
        self.refresh_events = 0;
        self.spread_cursor = 0;
        self.counters = MapperCounters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::generate;
    use mbqc_hardware::ResourceStateKind;

    fn compile(
        g: &Graph,
        width: usize,
        kind: ResourceStateKind,
    ) -> Result<CompiledProgram, CompileError> {
        let order: Vec<NodeId> = g.nodes().collect();
        GridMapper::new(CompilerConfig::new(width, kind)).compile(g, &order)
    }

    #[test]
    fn empty_graph_compiles_trivially() {
        let g = Graph::new();
        let c = compile(&g, 3, ResourceStateKind::FIVE_STAR).unwrap();
        assert_eq!(c.num_layers, 0);
        assert_eq!(c.fusion_count, 0);
    }

    #[test]
    fn path_graph_all_edges_realized() {
        let g = generate::path_graph(20);
        let c = compile(&g, 5, ResourceStateKind::FIVE_STAR).unwrap();
        assert_eq!(c.fusee_pairs.len(), g.edge_count());
        assert!(c.num_layers >= 1);
        // Every node placed exactly once; layer within range.
        for u in g.nodes() {
            assert!(c.layer_of[u.index()] < c.num_layers);
        }
    }

    #[test]
    fn fusee_pair_times_match_layers_without_refresh() {
        let g = generate::cycle_graph(12);
        let c = compile(&g, 4, ResourceStateKind::FIVE_STAR).unwrap();
        for p in &c.fusee_pairs {
            assert_eq!(p.time_a, c.layer_of[p.a.index()]);
            assert!(p.time_b >= p.time_a);
        }
    }

    #[test]
    fn bigger_grid_is_no_slower() {
        let g = generate::grid_graph(6, 6);
        let small = compile(&g, 4, ResourceStateKind::FIVE_STAR).unwrap();
        let large = compile(&g, 9, ResourceStateKind::FIVE_STAR).unwrap();
        assert!(
            large.num_layers <= small.num_layers,
            "large {} vs small {}",
            large.num_layers,
            small.num_layers
        );
    }

    #[test]
    fn high_degree_hub_defers_edges() {
        // A 12-leaf star: the hub's state has only deg_capacity arms, so
        // leaves beyond the budget realize via the hub's wire on later
        // layers.
        let g = generate::star_graph(13);
        let c = compile(&g, 5, ResourceStateKind::FOUR_RING).unwrap();
        assert_eq!(c.fusee_pairs.len(), 12);
        assert!(c.num_layers >= 2, "deferral must span layers");
    }

    #[test]
    fn six_ring_routes_congested_layers_better() {
        // Dense random-ish graph on a small grid: pass-through capacity 2
        // (6-ring) should not be slower than capacity 1 at equal photon
        // count comparisons aside.
        let g = generate::complete_graph(10);
        let five = compile(&g, 4, ResourceStateKind::FIVE_STAR).unwrap();
        let six = compile(&g, 4, ResourceStateKind::SIX_RING).unwrap();
        assert!(six.num_layers <= five.num_layers + 1);
    }

    #[test]
    fn boundary_reservation_shrinks_grid() {
        let g = generate::grid_graph(5, 5);
        let order: Vec<NodeId> = g.nodes().collect();
        let plain = GridMapper::new(CompilerConfig::new(6, ResourceStateKind::FIVE_STAR))
            .compile(&g, &order)
            .unwrap();
        let reserved = GridMapper::new(
            CompilerConfig::new(6, ResourceStateKind::FIVE_STAR).with_boundary_reservation(true),
        )
        .compile(&g, &order)
        .unwrap();
        assert!(reserved.num_layers >= plain.num_layers);
    }

    #[test]
    fn refresh_bounds_long_wire_epochs() {
        // A long chain plus a chord from node 0 to the far end keeps
        // node 0's wire alive for many layers; refresh must advance its
        // epoch so the realized fusee span stays bounded.
        let mut g = generate::path_graph(40);
        g.add_edge(NodeId::new(0), NodeId::new(39));
        let order: Vec<NodeId> = g.nodes().collect();
        let no_refresh = GridMapper::new(CompilerConfig::new(3, ResourceStateKind::FIVE_STAR))
            .compile(&g, &order)
            .unwrap();
        let with_refresh =
            GridMapper::new(CompilerConfig::new(3, ResourceStateKind::FIVE_STAR).with_refresh(3))
                .compile(&g, &order)
                .unwrap();
        let span = |c: &CompiledProgram| {
            c.fusee_pairs
                .iter()
                .map(|p| p.time_b - p.time_a)
                .max()
                .unwrap()
        };
        assert!(with_refresh.refresh_events > 0);
        assert!(
            span(&with_refresh) <= 4,
            "refresh span {} (no-refresh span {})",
            span(&with_refresh),
            span(&no_refresh)
        );
        assert!(span(&no_refresh) > 4);
    }

    #[test]
    fn stuck_frontier_reports_error() {
        // K9 on a 2×2 grid: wires saturate the four sites and nothing
        // can ever complete.
        let g = generate::complete_graph(9);
        let err = compile(&g, 2, ResourceStateKind::FOUR_RING).unwrap_err();
        assert!(matches!(err, CompileError::PlacementStuck { .. }));
    }

    #[test]
    fn empty_grid_error() {
        let g = generate::path_graph(2);
        let order: Vec<NodeId> = g.nodes().collect();
        let err = GridMapper::new(
            CompilerConfig::new(2, ResourceStateKind::FIVE_STAR).with_boundary_reservation(true),
        )
        .compile(&g, &order)
        .unwrap_err();
        assert_eq!(err, CompileError::EmptyGrid);
    }

    #[test]
    fn invalid_order_detected() {
        let g = generate::path_graph(3);
        let mapper = GridMapper::new(CompilerConfig::new(3, ResourceStateKind::FIVE_STAR));
        let dup = vec![NodeId::new(0), NodeId::new(0), NodeId::new(1)];
        assert!(matches!(
            mapper.compile(&g, &dup),
            Err(CompileError::InvalidOrder(_))
        ));
        let short = vec![NodeId::new(0)];
        assert!(matches!(
            mapper.compile(&g, &short),
            Err(CompileError::InvalidOrder(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generate::grid_graph(5, 5);
        let order: Vec<NodeId> = g.nodes().collect();
        let cfg = CompilerConfig::new(4, ResourceStateKind::FIVE_STAR).with_seed(9);
        let a = GridMapper::new(cfg).compile(&g, &order).unwrap();
        let b = GridMapper::new(cfg).compile(&g, &order).unwrap();
        assert_eq!(a.layer_of, b.layer_of);
        assert_eq!(a.num_layers, b.num_layers);
        assert_eq!(a.fusion_count, b.fusion_count);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        // One workspace driven through graphs of different sizes and
        // shapes, on grids of different widths, must reproduce the
        // fresh-allocation path exactly.
        let mut ws = MapperWorkspace::new();
        let graphs = [
            generate::grid_graph(5, 5),
            generate::path_graph(30),
            generate::star_graph(9),
            generate::grid_graph(4, 7),
        ];
        for width in [5, 7, 4] {
            let mapper = GridMapper::new(CompilerConfig::new(width, ResourceStateKind::FIVE_STAR));
            for (i, g) in graphs.iter().enumerate() {
                let order: Vec<NodeId> = g.nodes().collect();
                let fresh = mapper.compile(g, &order);
                let reused = mapper.compile_with(g, &order, &mut ws);
                assert_eq!(fresh, reused, "graph {i} on width {width}");
            }
        }
    }

    #[test]
    fn counters_pin_routing_work() {
        // K10 on a 5×5 grid congests: edges defer, searches fail, and
        // the component labels refute most retries without a search.
        let g = generate::complete_graph(10);
        let order: Vec<NodeId> = g.nodes().collect();
        let mapper = GridMapper::new(CompilerConfig::new(5, ResourceStateKind::FIVE_STAR));
        let mut ws = MapperWorkspace::new();
        let want = MapperCounters {
            layers: 9,
            edge_retries: 118,
            searches_found: 45,
            searches_failed: 9,
            searches_skipped: 99,
            sites_visited_found: 467,
            sites_visited_failed: 50,
        };
        for _ in 0..2 {
            // Counts are per compilation: a reused workspace starts over.
            let c = mapper.compile_with(&g, &order, &mut ws).unwrap();
            let got = ws.counters();
            assert_eq!(got, want);
            assert_eq!(got.layers, c.num_layers as u64);
            assert_eq!(got.searches_found, g.edge_count() as u64);
        }
    }

    #[test]
    fn fusion_count_decomposition() {
        let g = generate::grid_graph(4, 4);
        let c = compile(&g, 4, ResourceStateKind::FIVE_STAR).unwrap();
        assert_eq!(
            c.fusion_count,
            g.edge_count() + c.routing_fusions + c.wire_fusions
        );
    }
}
