//! Algorithm 3: Bottleneck-Driven Iterative Refinement (BDIR).
//!
//! A lightweight simulated-annealing loop whose neighborhood generator
//! is *not* random: `FindBottleneckTask` locates the task responsible
//! for the current required photon lifetime, `CalculateBalancePoint`
//! finds its temporal equilibrium point (midpoint of the cost-pressure
//! anchors: fusion partners, attached sync tasks, dependency parents),
//! and `PinAndReschedule` pins the task there and rebuilds the rest of
//! the schedule with start-time-preserving priorities.
//!
//! Cost per iteration: one list schedule (`PinAndReschedule`) and one
//! analysis pass over the neighbour, which yields its objective and its
//! bottleneck task together. A rejected neighbour leaves the current
//! schedule's analysis in place, so no schedule is swept twice. The
//! pass reads a `Sweep` built once per [`bdir`] call:
//!
//! * main tasks are numbered into one flat slot table, so a schedule's
//!   start times are one contiguous array;
//! * fusee pairs collapse to distinct ordered slot pairs — a pair's
//!   span depends only on its two layers (4 800 pairs become 337 for
//!   table III's QFT-36);
//! * the dependency DAG is sorted once and relabelled by topological
//!   position, so the MTime sweep (Algorithm 1, part 2) walks its
//!   arrays front to back.
//!
//! The collapse and the relabelling keep every tie-break of the
//! per-node formulation, so the refined schedules are unchanged.

use std::collections::HashSet;

use mbqc_util::Rng;

use crate::list::{list_schedule_with, priorities_from_schedule, ScheduleWorkspace};
use crate::problem::{LayerScheduleProblem, Schedule, TaskRef};

/// SA parameters (paper defaults: `T₀ = 10`, cooling `0.95`,
/// `I_max = 20`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BdirConfig {
    /// Initial temperature.
    pub t0: f64,
    /// Multiplicative cooling rate per iteration.
    pub cooling: f64,
    /// Iteration budget.
    pub max_iters: usize,
    /// RNG seed (acceptance draws).
    pub seed: u64,
}

impl Default for BdirConfig {
    fn default() -> Self {
        Self {
            t0: 10.0,
            cooling: 0.95,
            max_iters: 20,
            seed: 42,
        }
    }
}

/// Runs BDIR starting from `init` (typically a list schedule). Returns
/// the best feasible schedule found.
///
/// Each iteration costs one list schedule (`PinAndReschedule`) and one
/// analysis pass over the neighbour; the problem is flattened and the
/// dependency DAG sorted once per call.
///
/// # Panics
///
/// Panics if `init` does not match the problem shape, or the
/// dependency graph is cyclic.
#[must_use]
pub fn bdir(p: &LayerScheduleProblem, init: &Schedule, config: &BdirConfig) -> Schedule {
    bdir_with(p, init, config, &mut ScheduleWorkspace::new())
}

/// [`bdir`] with a caller-owned [`ScheduleWorkspace`]: every
/// `PinAndReschedule` call of the annealing loop reuses the same
/// ready-queue buffers. Identical schedules.
///
/// # Panics
///
/// Panics if `init` does not match the problem shape, or the
/// dependency graph is cyclic.
#[must_use]
pub fn bdir_with(
    p: &LayerScheduleProblem,
    init: &Schedule,
    config: &BdirConfig,
    ws: &mut ScheduleWorkspace,
) -> Schedule {
    let mut sweep = Sweep::new(p);
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut current = init.clone();
    let mut analysis = sweep.analyze(&current);
    let mut best = init.clone();
    let mut c_best = analysis.objective;
    let mut temp = config.t0;

    for _ in 0..config.max_iters {
        let Some(pin) = analysis.pin else {
            break; // no bottleneck to move (objective already 0)
        };
        let neighbor = list_schedule_with(p, &priorities_from_schedule(&current), Some(pin), ws);
        let next = sweep.analyze(&neighbor);
        let delta = next.objective as f64 - analysis.objective as f64;
        if delta <= 0.0 || rng.next_f64() < (-delta / temp.max(1e-9)).exp() {
            current = neighbor;
            analysis = next;
        }
        if analysis.objective < c_best {
            best = current.clone();
            c_best = analysis.objective;
        }
        temp *= config.cooling;
    }
    best
}

/// What one analysis pass learns about a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Analysis {
    /// The Definition IV.1 objective, as
    /// [`LayerScheduleProblem::evaluate`] computes it.
    objective: usize,
    /// The neighbourhood move: the bottleneck task pinned at its
    /// balance point (`FindBottleneckTask` + `CalculateBalancePoint`).
    /// `None` when every lifetime term is zero.
    pin: Option<(TaskRef, usize)>,
}

/// A layer scheduling problem flattened for [`Sweep::analyze`], plus
/// the pass's scratch buffers.
#[derive(Debug)]
struct Sweep {
    /// First flat slot of each QPU: `J_{q,j}` is slot `base[q] + j`.
    base: Vec<usize>,
    /// `(qpu, index)` of each flat slot.
    slot_task: Vec<(usize, usize)>,
    /// Each sync task's endpoints as flat slots.
    syncs: Vec<(usize, usize)>,
    /// The fusee pairs as distinct ordered slot pairs, in order of
    /// first occurrence. Pairs within one slot (span 0) are dropped.
    fusees: Vec<(usize, usize)>,
    /// Nodes in topological order, as `(node index, flat slot)`.
    nodes: Vec<(u32, u32)>,
    /// `parents[parent_off[i]..parent_off[i + 1]]`: the positions in
    /// `nodes` of the dependency parents of the node at position `i` —
    /// the DAG's predecessor lists, renamed and reordered once so the
    /// sweep reads them front to back.
    parent_off: Vec<u32>,
    parents: Vec<u32>,
    refresh_bound: Option<usize>,
    /// Scratch: start time per flat slot.
    slot_time: Vec<usize>,
    /// Scratch: `MTime` per topological position.
    mtime: Vec<usize>,
}

impl Sweep {
    fn new(p: &LayerScheduleProblem) -> Self {
        let mut base = Vec::with_capacity(p.num_qpus);
        let mut slot_task = Vec::new();
        for (q, &m) in p.main_counts.iter().enumerate() {
            base.push(slot_task.len());
            slot_task.extend((0..m).map(|j| (q, j)));
        }
        let flat = |(q, j): (usize, usize)| base[q] + j;
        let syncs = p
            .sync_tasks
            .iter()
            .map(|s| (flat(s.a), flat(s.b)))
            .collect();
        let node_slot: Vec<u32> = p.local.as_ref().map_or_else(Vec::new, |local| {
            local
                .node_slot
                .iter()
                .map(|&slot| flat(slot) as u32)
                .collect()
        });
        let mut sweep = Self {
            base,
            slot_task,
            syncs,
            fusees: Vec::new(),
            nodes: Vec::new(),
            parent_off: Vec::new(),
            parents: Vec::new(),
            refresh_bound: p.refresh_bound,
            slot_time: Vec::new(),
            mtime: Vec::new(),
        };
        let Some(local) = &p.local else {
            return sweep;
        };
        let mut seen = HashSet::new();
        sweep.fusees = local
            .fusee_pairs
            .iter()
            .map(|&(u, v)| (node_slot[u] as usize, node_slot[v] as usize))
            .filter(|&(a, b)| a != b && seen.insert((a, b)))
            .collect();
        // MTime is a longest-path recurrence: any topological order
        // gives the same values.
        let order = local
            .deps
            .topological_sort()
            .expect("dependency graph is cyclic");
        let mut position = vec![0u32; order.len()];
        for (i, u) in order.iter().enumerate() {
            position[u.index()] = i as u32;
        }
        sweep.nodes = order
            .iter()
            .map(|u| (u.index() as u32, node_slot[u.index()]))
            .collect();
        sweep.parent_off.reserve(order.len() + 1);
        sweep.parent_off.push(0);
        sweep.parents.reserve(local.deps.edge_count());
        for &u in &order {
            let parents = local.deps.predecessors(u);
            sweep
                .parents
                .extend(parents.iter().map(|q| position[q.index()]));
            sweep.parent_off.push(sweep.parents.len() as u32);
        }
        sweep.mtime.resize(order.len(), 0);
        sweep
    }

    /// One pass over `s`: its objective and its bottleneck move.
    ///
    /// The bottleneck is the first term, in the order remote syncs,
    /// fusee spans, measuree waits, that reaches the largest positive
    /// uncapped cost; measuree waits of one cycle never count, and tied
    /// waits go to the lowest node index.
    fn analyze(&mut self, s: &Schedule) -> Analysis {
        self.slot_time.clear();
        for starts in &s.main_start {
            self.slot_time.extend_from_slice(starts);
        }
        let time = &self.slot_time;
        // (cost, task, fallback anchor)
        let mut best: Option<(usize, TaskRef, usize)> = None;
        let mut consider = |cost: usize, task: TaskRef, fallback: usize| {
            if cost > 0 && best.as_ref().is_none_or(|(c, _, _)| cost > *c) {
                best = Some((cost, task, fallback));
            }
        };
        let main = |slot: usize| {
            let (q, j) = self.slot_task[slot];
            TaskRef::Main(q, j)
        };

        // Remote terms: sync task vs its two endpoints.
        let mut tau_remote = 0;
        for (k, &(a, b)) in self.syncs.iter().enumerate() {
            let (t, ta, tb) = (s.sync_start[k], time[a], time[b]);
            let cost = t.abs_diff(ta).max(t.abs_diff(tb));
            tau_remote = tau_remote.max(cost);
            consider(cost, TaskRef::Sync(k), ta.midpoint(tb));
        }
        // Fusee spans: the bottleneck is the later endpoint's task.
        let mut fusee = 0;
        for &(a, b) in &self.fusees {
            let (ta, tb) = (time[a], time[b]);
            let span = ta.abs_diff(tb);
            fusee = fusee.max(span);
            let (mover, other) = if ta >= tb { (a, tb) } else { (b, ta) };
            consider(span, main(mover), other);
        }
        // Measuree waits: the MTime sweep, in topological position.
        let mut measuree = 0;
        // (wait, node index, position) of the worst wait above one.
        let mut worst: Option<(usize, u32, usize)> = None;
        for (i, &(node, slot)) in self.nodes.iter().enumerate() {
            let t = time[slot as usize];
            let mut m = t + 1;
            for &q in self.parents_of(i) {
                m = m.max(self.mtime[q as usize] + 1);
            }
            self.mtime[i] = m;
            let wait = m - t;
            measuree = measuree.max(wait);
            if wait > 1 && worst.is_none_or(|(w, u, _)| wait > w || (wait == w && node < u)) {
                worst = Some((wait, node, i));
            }
        }
        if let Some((wait, _, i)) = worst {
            // Moving the layer later (towards the resolving signal)
            // shrinks the wait: anchor at the latest parent MTime.
            let slot = self.nodes[i].1 as usize;
            let parent_anchor = self
                .parents_of(i)
                .iter()
                .map(|&q| self.mtime[q as usize])
                .max()
                .unwrap_or(time[slot]);
            consider(wait, main(slot), parent_anchor);
        }

        // With dynamic refresh, no lifetime term exceeds the bound.
        let cap = |t: usize| self.refresh_bound.map_or(t, |d| t.min(d));
        let objective = cap(tau_remote).max(cap(fusee)).max(cap(measuree));
        let pin = best.map(|(_, task, fallback)| {
            let (lo, hi) = match task {
                TaskRef::Main(q, j) => self.anchor_range(s, q, j).unwrap_or((fallback, fallback)),
                TaskRef::Sync(_) => (fallback, fallback),
            };
            (task, calculate_balance_point(task, lo, hi))
        });
        Analysis { objective, pin }
    }

    /// Positions of the parents of the node at position `i`.
    fn parents_of(&self, i: usize) -> &[u32] {
        &self.parents[self.parent_off[i] as usize..self.parent_off[i + 1] as usize]
    }

    /// The range of anchor times pulling on main task `J_{q,j}`:
    /// partner times of fusee pairs with one endpoint in its slot, and
    /// the starts of attached sync tasks. `None` without anchors.
    fn anchor_range(&self, s: &Schedule, q: usize, j: usize) -> Option<(usize, usize)> {
        let slot = self.base[q] + j;
        let partners = self.fusees.iter().filter_map(|&(a, b)| {
            if a == slot {
                Some(self.slot_time[b])
            } else if b == slot {
                Some(self.slot_time[a])
            } else {
                None
            }
        });
        let syncs = self
            .syncs
            .iter()
            .zip(&s.sync_start)
            .filter(|&(&(a, b), _)| a == slot || b == slot)
            .map(|(_, &t)| t);
        partners.chain(syncs).fold(None, |range, t| match range {
            None => Some((t, t)),
            Some((lo, hi)) => Some((t.min(lo), t.max(hi))),
        })
    }
}

/// `CalculateBalancePoint`: the time minimizing the maximum distance to
/// anchors spanning `lo..=hi` — the midpoint of the range — clamped to
/// the earliest feasible slot of the task.
fn calculate_balance_point(task: TaskRef, lo: usize, hi: usize) -> usize {
    let mid = usize::midpoint(lo, hi);
    match task {
        // J_{i,j} needs j predecessors scheduled first.
        TaskRef::Main(_, j) => mid.max(j),
        TaskRef::Sync(_) => mid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::{default_priorities, list_schedule};
    use crate::problem::{LocalStructure, SyncTask};
    use mbqc_graph::{DiGraph, NodeId};

    /// Two QPUs, 6 main layers each; one sync ties the *first* layer of
    /// QPU 0 to the *last* layer of QPU 1 — list scheduling leaves a
    /// large τ_remote that BDIR can halve by centering the sync.
    fn skewed_problem() -> LayerScheduleProblem {
        LayerScheduleProblem::new(
            vec![6, 6],
            vec![SyncTask {
                a: (0, 0),
                b: (1, 5),
            }],
            4,
        )
    }

    #[test]
    fn bdir_never_worse_than_init() {
        let p = skewed_problem();
        let init = list_schedule(&p, &default_priorities(&p), None);
        let refined = bdir(&p, &init, &BdirConfig::default());
        assert!(p.is_feasible(&refined));
        assert!(
            p.evaluate(&refined).objective() <= p.evaluate(&init).objective(),
            "BDIR regressed: {} > {}",
            p.evaluate(&refined).objective(),
            p.evaluate(&init).objective()
        );
    }

    #[test]
    fn bdir_centers_skewed_sync() {
        let p = skewed_problem();
        let init = list_schedule(&p, &default_priorities(&p), None);
        let refined = bdir(&p, &init, &BdirConfig::default());
        // Endpoints sit ~6 apart; the optimal sync point is the middle:
        // τ_remote ≈ half the span (+ slack for displaced layers).
        let cost = p.evaluate(&refined);
        assert!(
            cost.tau_remote <= 5,
            "sync not centered: τ_remote = {}",
            cost.tau_remote
        );
    }

    #[test]
    fn bdir_improves_backward_dependency() {
        // Node on QPU 0 layer 0 depends on a node generated late on
        // QPU 1: the bottleneck layer should move later.
        let deps = DiGraph::from_edges(2, &[(NodeId::new(1), NodeId::new(0))]);
        let p = LayerScheduleProblem::new(vec![4, 8], vec![], 4).with_local(LocalStructure {
            node_slot: vec![(0, 0), (1, 7)],
            fusee_pairs: vec![],
            deps,
        });
        let init = list_schedule(&p, &default_priorities(&p), None);
        let refined = bdir(&p, &init, &BdirConfig::default());
        assert!(p.is_feasible(&refined));
        assert!(p.evaluate(&refined).tau_local <= p.evaluate(&init).tau_local);
    }

    #[test]
    fn bdir_handles_empty_problem() {
        let p = LayerScheduleProblem::new(vec![2, 2], vec![], 4);
        let init = list_schedule(&p, &default_priorities(&p), None);
        let refined = bdir(&p, &init, &BdirConfig::default());
        assert!(p.is_feasible(&refined));
    }

    #[test]
    fn bdir_deterministic_given_seed() {
        let p = skewed_problem();
        let init = list_schedule(&p, &default_priorities(&p), None);
        let a = bdir(&p, &init, &BdirConfig::default());
        let b = bdir(&p, &init, &BdirConfig::default());
        assert_eq!(a, b);
    }

    /// A random problem with node-level structure: 2–4 QPUs, random
    /// sync tasks, node slots, fusee pairs and a random dependency DAG
    /// whose node indices are not a topological order.
    fn random_local_problem(rng: &mut Rng) -> LayerScheduleProblem {
        let qpus = rng.range_between(2, 5);
        let main_counts: Vec<usize> = (0..qpus).map(|_| rng.range_between(1, 9)).collect();
        let slot = |rng: &mut Rng, q: usize| (q, rng.range(main_counts[q]));
        let sync_tasks: Vec<SyncTask> = (0..rng.range(2 * qpus + 1))
            .map(|_| {
                let qa = rng.range(qpus);
                let qb = (qa + rng.range_between(1, qpus)) % qpus;
                SyncTask {
                    a: slot(rng, qa),
                    b: slot(rng, qb),
                }
            })
            .collect();
        let n = rng.range_between(1, 30);
        let node_slot: Vec<(usize, usize)> = (0..n)
            .map(|_| {
                let q = rng.range(qpus);
                slot(rng, q)
            })
            .collect();
        let fusee_pairs: Vec<(usize, usize)> = (0..rng.range(n + 1))
            .map(|_| (rng.range(n), rng.range(n)))
            .collect();
        let mut rank: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut rank);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.bernoulli(0.1) {
                    edges.push((NodeId::new(rank[i]), NodeId::new(rank[j])));
                }
            }
        }
        let deps = DiGraph::from_edges(n, &edges);
        let kmax = rng.range_between(1, 5);
        LayerScheduleProblem::new(main_counts, sync_tasks, kmax).with_local(LocalStructure {
            node_slot,
            fusee_pairs,
            deps,
        })
    }

    #[test]
    fn bdir_on_random_local_problems_is_feasible_monotone_and_deterministic() {
        let mut rng = Rng::seed_from_u64(11);
        for case in 0..150 {
            let p = random_local_problem(&mut rng);
            let init = list_schedule(&p, &default_priorities(&p), None);
            let config = BdirConfig {
                seed: rng.next_u64(),
                ..BdirConfig::default()
            };
            let refined = bdir(&p, &init, &config);
            assert!(p.is_feasible(&refined), "case {case}: infeasible");
            assert!(
                p.evaluate(&refined).objective() <= p.evaluate(&init).objective(),
                "case {case}: BDIR regressed"
            );
            assert_eq!(refined, bdir(&p, &init, &config), "case {case}");
        }
    }

    /// FNV-1a, 64-bit, continued from `h`.
    fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins BDIR's outputs on general DAGs — in-degrees above one, node
    /// indices out of topological order, with and without a refresh
    /// bound — which the pipeline's X-DAGs (in-degree at most one, no
    /// refresh bound) never exercise: the FNV-1a-64 of every refined
    /// schedule over the 150 cases above.
    #[test]
    fn bdir_outputs_on_random_local_problems_are_pinned() {
        for (refresh, pinned) in [
            (None, 0x7a52_8930_94c7_604a),
            (Some(3), 0x9403_32fa_1ef8_63a9),
        ] {
            let mut rng = Rng::seed_from_u64(11);
            let mut h = 0xcbf2_9ce4_8422_2325;
            for _ in 0..150 {
                let mut p = random_local_problem(&mut rng);
                if let Some(d) = refresh {
                    p = p.with_refresh_bound(d);
                }
                let init = list_schedule(&p, &default_priorities(&p), None);
                let config = BdirConfig {
                    seed: rng.next_u64(),
                    ..BdirConfig::default()
                };
                h = fnv1a64(h, &bdir(&p, &init, &config).to_bytes());
            }
            assert_eq!(h, pinned, "refresh bound {refresh:?}");
        }
    }

    /// The analysis pass's objective is the one
    /// [`LayerScheduleProblem::evaluate`] computes, with and without a
    /// refresh bound, on the initial schedule and on pinned reschedules.
    #[test]
    fn analysis_objective_matches_evaluate() {
        let mut rng = Rng::seed_from_u64(5);
        for case in 0..100 {
            let mut p = random_local_problem(&mut rng);
            if case % 2 == 1 {
                p = p.with_refresh_bound(rng.range_between(1, 6));
            }
            let mut sweep = Sweep::new(&p);
            let mut s = list_schedule(&p, &default_priorities(&p), None);
            for _ in 0..3 {
                let a = sweep.analyze(&s);
                assert_eq!(a.objective, p.evaluate(&s).objective(), "case {case}");
                let Some(pin) = a.pin else { break };
                s = list_schedule(&p, &priorities_from_schedule(&s), Some(pin));
            }
        }
    }

    #[test]
    fn balance_point_midpoint_and_clamp() {
        assert_eq!(calculate_balance_point(TaskRef::Sync(0), 2, 10), 6);
        assert_eq!(calculate_balance_point(TaskRef::Main(0, 8), 0, 2), 8);
        assert_eq!(calculate_balance_point(TaskRef::Main(0, 0), 5, 5), 5);
    }

    #[test]
    fn fusee_bottleneck_detected() {
        // Local fusee pair spanning 9 slots dominates; bottleneck must
        // be a main task, pinned midway between its partner and itself.
        let deps = DiGraph::from_edges(2, &[]);
        let p = LayerScheduleProblem::new(vec![1, 10], vec![], 4).with_local(LocalStructure {
            node_slot: vec![(0, 0), (1, 9)],
            fusee_pairs: vec![(0, 1)],
            deps,
        });
        let s = list_schedule(&p, &default_priorities(&p), None);
        let a = Sweep::new(&p).analyze(&s);
        assert_eq!(a.objective, 9);
        assert_eq!(a.pin, Some((TaskRef::Main(1, 9), 9)));
    }

    #[test]
    fn fusee_pairs_collapse_to_distinct_slot_pairs() {
        // Four nodes on two layers: the two cross pairs in one
        // orientation collapse, the reversed one stays, the same-layer
        // pair drops.
        let p = LayerScheduleProblem::new(vec![2], vec![], 4).with_local(LocalStructure {
            node_slot: vec![(0, 0), (0, 0), (0, 1), (0, 1)],
            fusee_pairs: vec![(0, 2), (1, 3), (0, 1), (3, 0)],
            deps: DiGraph::from_edges(4, &[]),
        });
        assert_eq!(Sweep::new(&p).fusees, vec![(0, 1), (1, 0)]);
    }
}
