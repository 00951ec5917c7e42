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
//! Cost per iteration: one list schedule and one evaluation of the
//! neighbour (the current schedule's cost carries over). The dependency
//! DAG's topological order is computed once per [`bdir`] call and shared
//! by `FindBottleneckTask` and every evaluation.

use mbqc_graph::NodeId;
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
/// evaluation of the neighbour; the dependency DAG is sorted once per
/// call.
///
/// # Panics
///
/// Panics if `init` does not match the problem shape.
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
/// Panics if `init` does not match the problem shape.
#[must_use]
pub fn bdir_with(
    p: &LayerScheduleProblem,
    init: &Schedule,
    config: &BdirConfig,
    ws: &mut ScheduleWorkspace,
) -> Schedule {
    // The DAG never changes within a call, and MTime is a longest-path
    // recurrence: any topological order gives the same costs.
    let order = p.dep_order();
    let mut rng = Rng::seed_from_u64(config.seed);
    let mut current = init.clone();
    let mut c_current = p.evaluate_in_order(&current, &order).objective();
    let mut best = init.clone();
    let mut c_best = c_current;
    let mut temp = config.t0;

    for _ in 0..config.max_iters {
        let Some(neighbor) = generate_neighbor(p, &current, &order, ws) else {
            break; // no bottleneck to move (objective already 0)
        };
        let c_new = p.evaluate_in_order(&neighbor, &order).objective();
        let delta = c_new as f64 - c_current as f64;
        if delta <= 0.0 || rng.next_f64() < (-delta / temp.max(1e-9)).exp() {
            current = neighbor;
            c_current = c_new;
        }
        if c_current < c_best {
            best = current.clone();
            c_best = c_current;
        }
        temp *= config.cooling;
    }
    best
}

/// The "smart" neighborhood generator: pin the bottleneck task at its
/// balance point and reschedule. Returns `None` when no cost term
/// exists.
fn generate_neighbor(
    p: &LayerScheduleProblem,
    current: &Schedule,
    order: &[NodeId],
    ws: &mut ScheduleWorkspace,
) -> Option<Schedule> {
    let (task, anchors) = find_bottleneck_task(p, current, order)?;
    let t = calculate_balance_point(&task, &anchors);
    Some(list_schedule_with(
        p,
        &priorities_from_schedule(current),
        Some((task, t)),
        ws,
    ))
}

/// `FindBottleneckTask`: identifies the task behind the current maximum
/// lifetime term, together with the anchor times that pull on it.
/// `order` is a topological order of the dependency DAG
/// ([`LayerScheduleProblem::dep_order`]).
///
/// Two passes: a cheap scan finds the maximum cost term; anchors are
/// then gathered only for the single winning task (keeping each BDIR
/// iteration linear in the problem size).
fn find_bottleneck_task(
    p: &LayerScheduleProblem,
    s: &Schedule,
    order: &[NodeId],
) -> Option<(TaskRef, Vec<usize>)> {
    // (cost, task, fallback anchor)
    let mut best: Option<(usize, TaskRef, usize)> = None;
    let mut consider = |cost: usize, task: TaskRef, fallback: usize| {
        if cost > 0 && best.as_ref().is_none_or(|(c, _, _)| cost > *c) {
            best = Some((cost, task, fallback));
        }
    };

    // Remote terms: sync task vs its two endpoints.
    for (k, sync) in p.sync_tasks.iter().enumerate() {
        let t = s.sync_start[k];
        let ta = s.main_start[sync.a.0][sync.a.1];
        let tb = s.main_start[sync.b.0][sync.b.1];
        consider(
            t.abs_diff(ta).max(t.abs_diff(tb)),
            TaskRef::Sync(k),
            ta.midpoint(tb),
        );
    }

    // Local terms need node-level structure.
    let times: Vec<usize> = p.local.as_ref().map_or_else(Vec::new, |local| {
        local
            .node_slot
            .iter()
            .map(|&(q, j)| s.main_start[q][j])
            .collect()
    });
    if let Some(local) = &p.local {
        // Fusee spans: bottleneck is the later endpoint's main task.
        for &(u, v) in &local.fusee_pairs {
            let span = times[u].abs_diff(times[v]);
            let (mover, other) = if times[u] >= times[v] { (u, v) } else { (v, u) };
            let slot = local.node_slot[mover];
            consider(span, TaskRef::Main(slot.0, slot.1), times[other]);
        }
        // Measuree waits: MTime sweep (Algorithm 1 Part 2).
        let mut mtime = vec![0usize; times.len()];
        for &u in order {
            let mut m = times[u.index()] + 1;
            for &q in local.deps.predecessors(u) {
                m = m.max(mtime[q.index()] + 1);
            }
            mtime[u.index()] = m;
        }
        for u in 0..times.len() {
            let wait = mtime[u] - times[u];
            if wait <= 1 {
                continue;
            }
            let slot = local.node_slot[u];
            // Moving the layer later (towards the resolving signal)
            // shrinks the wait: anchor at the latest parent MTime.
            let parent_anchor = local
                .deps
                .predecessors(NodeId::new(u))
                .iter()
                .map(|&q| mtime[q.index()])
                .max()
                .unwrap_or(times[u]);
            consider(wait, TaskRef::Main(slot.0, slot.1), parent_anchor);
        }
    }

    let (_, task, fallback) = best?;
    let anchors = match (task, &p.local) {
        (TaskRef::Main(i, j), Some(local)) => {
            anchors_or(anchors_of_main(p, local, &times, (i, j), s), fallback)
        }
        _ => vec![fallback],
    };
    Some((task, anchors))
}

/// All anchor times pulling on main task `slot`: partner times of fusee
/// pairs with exactly one endpoint inside, plus attached sync starts.
fn anchors_of_main(
    p: &LayerScheduleProblem,
    local: &crate::problem::LocalStructure,
    times: &[usize],
    slot: (usize, usize),
    s: &Schedule,
) -> Vec<usize> {
    let mut anchors = Vec::new();
    for &(u, v) in &local.fusee_pairs {
        let (su, sv) = (local.node_slot[u], local.node_slot[v]);
        if (su == slot) ^ (sv == slot) {
            anchors.push(if su == slot { times[v] } else { times[u] });
        }
    }
    for (k, sync) in p.sync_tasks.iter().enumerate() {
        if sync.a == slot || sync.b == slot {
            anchors.push(s.sync_start[k]);
        }
    }
    anchors
}

fn anchors_or(mut anchors: Vec<usize>, fallback: usize) -> Vec<usize> {
    if anchors.is_empty() {
        anchors.push(fallback);
    }
    anchors
}

/// `CalculateBalancePoint`: the time minimizing the maximum distance to
/// the anchors — the midpoint of their range — clamped to the earliest
/// feasible slot of the task.
fn calculate_balance_point(task: &TaskRef, anchors: &[usize]) -> usize {
    let lo = anchors.iter().copied().min().unwrap_or(0);
    let hi = anchors.iter().copied().max().unwrap_or(0);
    let mid = usize::midpoint(lo, hi);
    match *task {
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
    use mbqc_graph::DiGraph;

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
        let mut deps = DiGraph::with_nodes(2);
        deps.add_edge(NodeId::new(1), NodeId::new(0));
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
        let mut deps = DiGraph::with_nodes(n);
        for i in 0..n {
            for j in i + 1..n {
                if rng.bernoulli(0.1) {
                    deps.add_edge(NodeId::new(rank[i]), NodeId::new(rank[j]));
                }
            }
        }
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

    #[test]
    fn balance_point_midpoint_and_clamp() {
        assert_eq!(calculate_balance_point(&TaskRef::Sync(0), &[2, 10]), 6);
        assert_eq!(calculate_balance_point(&TaskRef::Main(0, 8), &[0, 2]), 8);
        assert_eq!(calculate_balance_point(&TaskRef::Main(0, 0), &[5]), 5);
    }

    #[test]
    fn fusee_bottleneck_detected() {
        // Local fusee pair spanning 9 slots dominates; bottleneck must
        // be a main task.
        let deps = DiGraph::with_nodes(2);
        let p = LayerScheduleProblem::new(vec![1, 10], vec![], 4).with_local(LocalStructure {
            node_slot: vec![(0, 0), (1, 9)],
            fusee_pairs: vec![(0, 1)],
            deps,
        });
        let s = list_schedule(&p, &default_priorities(&p), None);
        let (task, anchors) = find_bottleneck_task(&p, &s, &p.dep_order()).unwrap();
        assert!(matches!(task, TaskRef::Main(1, 9)));
        assert!(!anchors.is_empty());
    }
}
