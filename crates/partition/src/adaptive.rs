//! Algorithm 2: adaptive graph partitioning.
//!
//! The paper's partitioner navigates the balance–modularity trade-off:
//! it starts from a perfectly balanced k-way partition (`α = 1`) and
//! iteratively relaxes the balance constraint by a multiplicative step
//! `γ`, accepting a new partition only while modularity keeps improving
//! by more than `ε_Q`, and stopping at stagnation or at the maximum
//! imbalance `α_max`.

use mbqc_graph::{CsrGraph, Graph};

use crate::kway::{uncoarsen, Hierarchy, KwayConfig, KwayWorkspace};
use crate::modularity::cut_and_modularity_csr;
use crate::refine::{FmCounters, RefineWorkspace};
use crate::Partition;

/// Parameters of Algorithm 2. Paper defaults: `ε_Q = 0.01`, `γ = 1.02`,
/// `α_max = 1.5`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Number of parts (QPUs).
    pub k: usize,
    /// Modularity improvement threshold `ε_Q`.
    pub epsilon_q: f64,
    /// Balance relaxation step `γ > 1`.
    pub gamma: f64,
    /// Maximum imbalance factor `α_max`.
    pub alpha_max: f64,
    /// RNG seed forwarded to the k-way partitioner.
    pub seed: u64,
    /// Safety cap on probe iterations (the paper's loop has no explicit
    /// cap). A walk that oscillates between α values already stops at
    /// its first repeated step, so only a walk of more distinct steps
    /// than this meets the cap.
    pub max_iters: usize,
}

impl AdaptiveConfig {
    /// Paper-default configuration for `k` parts.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            k,
            epsilon_q: 0.01,
            gamma: 1.02,
            alpha_max: 1.5,
            seed: 42,
            max_iters: 64,
        }
    }

    /// Sets `α_max` (the Figure 9 sweep parameter).
    #[must_use]
    pub fn with_alpha_max(mut self, alpha_max: f64) -> Self {
        self.alpha_max = alpha_max;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One probe of the adaptive search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveStep {
    /// Imbalance factor probed.
    pub alpha: f64,
    /// Modularity achieved.
    pub modularity: f64,
    /// Cut weight achieved.
    pub cut: i64,
}

/// Result of [`adaptive_partition`].
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// The best partition found (highest modularity).
    pub partition: Partition,
    /// Modularity of the best partition.
    pub modularity: f64,
    /// Cut weight of the best partition.
    pub cut: i64,
    /// The α that produced the best partition.
    pub alpha: f64,
    /// Full probe history, in search order, up to the walk's first
    /// repeated step.
    pub history: Vec<AdaptiveStep>,
}

/// Runs Algorithm 2 of the paper: probes partitions under a relaxing
/// balance factor, keeping the highest-modularity one.
///
/// # Panics
///
/// Panics if `k == 0`, `γ ≤ 1`, or `α_max < 1`, or if FM meets a node
/// whose weighted degree exceeds `i32::MAX` (see
/// [`fm_refine_csr`](crate::refine::fm_refine_csr)). No level has one
/// while `g`'s edge weight magnitudes sum to at most `i32::MAX`.
///
/// # Examples
///
/// ```
/// use mbqc_graph::generate;
/// use mbqc_partition::adaptive::{adaptive_partition, AdaptiveConfig};
///
/// let g = generate::grid_graph(8, 8);
/// let r = adaptive_partition(&g, &AdaptiveConfig::new(4));
/// // Parts stay within the probed bound (ceil granularity included).
/// let bound = (r.alpha * 64.0 / 4.0).ceil() as i64;
/// assert!(r.partition.part_weights(&g).iter().all(|&w| w <= bound));
/// assert!(!r.history.is_empty());
/// ```
#[must_use]
pub fn adaptive_partition(g: &Graph, config: &AdaptiveConfig) -> AdaptiveResult {
    adaptive_partition_csr(&CsrGraph::from_graph(g), config)
}

/// [`adaptive_partition`] on an already-frozen CSR view — the graph is
/// frozen once and shared by every α probe of the search.
///
/// # Panics
///
/// Panics if `k == 0`, `γ ≤ 1`, or `α_max < 1`, or if FM meets a node
/// whose weighted degree exceeds `i32::MAX` (see
/// [`fm_refine_csr`](crate::refine::fm_refine_csr)). No level has one
/// while `g`'s edge weight magnitudes sum to at most `i32::MAX`.
#[must_use]
pub fn adaptive_partition_csr(g: &CsrGraph, config: &AdaptiveConfig) -> AdaptiveResult {
    adaptive_partition_csr_with(g, config, &mut KwayWorkspace::new())
}

/// [`adaptive_partition_csr`] with a caller-owned [`KwayWorkspace`]
/// shared by every α probe of the search (and across searches when the
/// caller keeps the workspace) — bit-identical results.
///
/// The coarsening hierarchy depends only on the graph, `k` and the
/// seed, so the search builds it once; each probe is the uncoarsening
/// half of [`multilevel_kway_csr_with`](crate::kway::multilevel_kway_csr_with)
/// on the shared levels from a clone of the RNG state coarsening left,
/// which is exactly what a fresh k-way call at that α computes.
///
/// # Panics
///
/// Panics if `k == 0`, `γ ≤ 1`, or `α_max < 1`, or if FM meets a node
/// whose weighted degree exceeds `i32::MAX` (see
/// [`fm_refine_csr`](crate::refine::fm_refine_csr)). No level has one
/// while `g`'s edge weight magnitudes sum to at most `i32::MAX`.
#[must_use]
pub fn adaptive_partition_csr_with(
    g: &CsrGraph,
    config: &AdaptiveConfig,
    ws: &mut KwayWorkspace,
) -> AdaptiveResult {
    assert!(config.k >= 1, "k must be positive");
    assert!(config.gamma > 1.0, "gamma must exceed 1");
    assert!(config.alpha_max >= 1.0, "alpha_max must be at least 1");

    let mut alpha = 1.0f64;
    let mut best: Option<(Partition, f64, i64, f64)> = None; // (partition, Q, cut, alpha)
    let mut prev_q = -1.0f64;
    let mut history = Vec::new();
    // The partitioner is deterministic per (α, seed): memoize probes, so
    // each α's partition, cut and modularity are computed once.
    let mut memo: std::collections::HashMap<u64, (Partition, f64, i64)> =
        std::collections::HashMap::new();
    // The walk's steps, as (previous α, α). A step's ΔQ, and so the
    // next step, depends only on those two α values, so a repeated step
    // starts a cycle: every α after it was probed already, and `best`,
    // which changes only on a strictly higher Q, can no longer change.
    // An oscillating walk stops there instead of running to the cap.
    let mut steps = std::collections::HashSet::new();
    let mut prev_alpha = None;
    // The walk's down-step, clamped at 1 because the k-way partitioner
    // rejects α < 1: the floor is stated outright instead of being left
    // to an argument about ΔQ signs.
    let down = |a: f64| (a / config.gamma).max(1.0);
    ws.refine.counters = FmCounters::default();
    let hierarchy = Hierarchy::build(g, config.k, config.seed, ws);
    let ws = &mut ws.refine;
    let probe = |a: f64, ws: &mut RefineWorkspace| {
        let kcfg = KwayConfig::new(config.k)
            .with_alpha(a)
            .with_seed(config.seed);
        let p = uncoarsen(g, &hierarchy, &kcfg, ws);
        let (cut, q) = cut_and_modularity_csr(g, &p);
        (p, q, cut)
    };

    for _ in 0..config.max_iters {
        if !steps.insert((prev_alpha, alpha.to_bits())) {
            break;
        }
        prev_alpha = Some(alpha.to_bits());
        let (p, q, cut) = memo
            .entry(alpha.to_bits())
            .or_insert_with(|| probe(alpha, ws));
        let (q, cut) = (*q, *cut);
        history.push(AdaptiveStep {
            alpha,
            modularity: q,
            cut,
        });
        if best.as_ref().is_none_or(|(_, bq, _, _)| q > *bq) {
            best = Some((p.clone(), q, cut, alpha));
        }
        let delta = q - prev_q;
        prev_q = q;
        if delta > config.epsilon_q && alpha < config.alpha_max {
            alpha = (alpha * config.gamma).min(config.alpha_max);
        } else if delta < -config.epsilon_q {
            alpha = down(alpha);
        } else {
            break;
        }
    }

    let (partition, q, cut, alpha) = best.expect("at least one probe ran");
    AdaptiveResult {
        partition,
        modularity: q,
        cut,
        alpha,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::{generate, NodeId};

    #[test]
    fn probes_start_balanced() {
        let g = generate::grid_graph(8, 8);
        let r = adaptive_partition(&g, &AdaptiveConfig::new(4));
        assert!((r.history[0].alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn best_modularity_is_max_of_history() {
        let g = generate::grid_graph(9, 9);
        let r = adaptive_partition(&g, &AdaptiveConfig::new(4));
        let max_q = r
            .history
            .iter()
            .map(|s| s.modularity)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((r.modularity - max_q).abs() < 1e-12);
    }

    #[test]
    fn result_respects_alpha_max() {
        let g = generate::grid_graph(8, 8);
        let cfg = AdaptiveConfig::new(4).with_alpha_max(1.5);
        let r = adaptive_partition(&g, &cfg);
        for s in &r.history {
            assert!(s.alpha <= 1.5 + 1e-9);
        }
        assert!(r.partition.is_balanced(&g, 1.5 + 1e-6));
    }

    #[test]
    fn unbalanced_communities_benefit_from_relaxation() {
        // Two cliques of sizes 13 and 11 with a single bridge,
        // partitioned into 2 parts. At α = 1 the bound is 12, so one
        // clique node must defect (splitting a clique); the first
        // relaxation step (α = 1.02 ⇒ bound 13) already allows the
        // natural 13 | 11 split, giving a modularity jump that
        // Algorithm 2's ΔQ > ε_Q test detects. (A jump reachable only
        // after many plateau steps would stop the search early — exactly
        // the stagnation behaviour the paper reports in Figure 9.)
        let sizes = [13usize, 11];
        let mut g = Graph::with_nodes(24);
        let mut start = 0;
        let mut blocks = Vec::new();
        for &s in &sizes {
            for i in start..start + s {
                for j in (i + 1)..start + s {
                    g.add_edge(NodeId::new(i), NodeId::new(j));
                }
            }
            blocks.push((start, start + s));
            start += s;
        }
        g.add_edge(NodeId::new(0), NodeId::new(13));
        let cfg = AdaptiveConfig::new(2).with_alpha_max(1.5);
        let r = adaptive_partition(&g, &cfg);
        // The best partition must not split either clique.
        for &(lo, hi) in &blocks {
            let p0 = r.partition.part_of(NodeId::new(lo));
            for i in lo..hi {
                assert_eq!(
                    r.partition.part_of(NodeId::new(i)),
                    p0,
                    "clique [{lo},{hi}) split"
                );
            }
        }
        assert_eq!(r.cut, 1, "only the bridge may be cut");
        assert!(r.alpha > 1.0, "relaxation never engaged: α = {}", r.alpha);
    }

    #[test]
    fn terminates_within_cap() {
        let g = generate::grid_graph(6, 6);
        let cfg = AdaptiveConfig {
            max_iters: 5,
            ..AdaptiveConfig::new(3)
        };
        let r = adaptive_partition(&g, &cfg);
        assert!(r.history.len() <= 5);
    }

    /// A walk that steps up once and then back down to α = 1 (on this
    /// 3×3 grid ΔQ drops at α = γ, so the walk oscillates 1 ↔ γ): the
    /// down-step from γ lands on α = 1 exactly, and no probe goes below
    /// it.
    #[test]
    fn walk_back_to_alpha_one_stays_at_or_above_one() {
        let g = generate::grid_graph(3, 3);
        let r = adaptive_partition(&g, &AdaptiveConfig::new(3).with_seed(2));
        assert_eq!(r.history[0].alpha.to_bits(), 1.0f64.to_bits());
        assert_eq!(r.history[1].alpha.to_bits(), 1.02f64.to_bits());
        assert_eq!(r.history[2].alpha.to_bits(), 1.0f64.to_bits());
        assert!(r.history.iter().all(|s| s.alpha >= 1.0));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generate::grid_graph(7, 7);
        let a = adaptive_partition(&g, &AdaptiveConfig::new(4).with_seed(5));
        let b = adaptive_partition(&g, &AdaptiveConfig::new(4).with_seed(5));
        assert_eq!(a.partition, b.partition);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    #[should_panic(expected = "gamma must exceed 1")]
    fn bad_gamma_panics() {
        let g = generate::path_graph(4);
        let cfg = AdaptiveConfig {
            gamma: 1.0,
            ..AdaptiveConfig::new(2)
        };
        let _ = adaptive_partition(&g, &cfg);
    }

    #[test]
    fn fm_layouts_are_shared_by_every_probe() {
        // The layouts depend only on the hierarchy, so a walk of many
        // probes builds exactly as many as one k-way call.
        use crate::kway::multilevel_kway_csr_with;
        let g = CsrGraph::from_graph(&generate::grid_graph(30, 30));
        let mut ws = KwayWorkspace::new();
        let r = adaptive_partition_csr_with(&g, &AdaptiveConfig::new(4), &mut ws);
        let walk = ws.counters();
        let _ = multilevel_kway_csr_with(&g, &KwayConfig::new(4), &mut ws);
        let one = ws.counters();
        assert!(r.history.len() > 1, "the walk probed one α");
        assert!(walk.calls > one.calls, "{walk:?} vs {one:?}");
        assert_eq!(walk.layouts, one.layouts);
    }
}
