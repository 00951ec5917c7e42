//! Problem and schedule types, feasibility checking, and the objective.

use mbqc_graph::DiGraph;
use mbqc_util::codec::{CodecError, Decoder, Encoder};

/// A synchronization task `S_k`: one inter-QPU connection event,
/// associated with a pair of main tasks on distinct QPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncTask {
    /// First endpoint as `(qpu, main-task index)`.
    pub a: (usize, usize),
    /// Second endpoint as `(qpu, main-task index)`.
    pub b: (usize, usize),
}

/// Node-level structure for evaluating τ_local with Algorithm 1
/// (Definition IV.1: "layer index is replaced by the start time of the
/// corresponding main task").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalStructure {
    /// Per computation-graph node: `(qpu, main-task index)` of the
    /// execution layer holding it.
    pub node_slot: Vec<(usize, usize)>,
    /// Intra-QPU fusion pairs as node-index pairs.
    pub fusee_pairs: Vec<(usize, usize)>,
    /// Real-time measurement dependency DAG over the nodes (may cross
    /// QPUs — classical signals travel freely).
    pub deps: DiGraph,
}

/// An instance of the layer scheduling problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerScheduleProblem {
    /// Number of QPUs.
    pub num_qpus: usize,
    /// Main tasks per QPU (task `j` of QPU `i` is its `j`-th execution
    /// layer; layers must run in order).
    pub main_counts: Vec<usize>,
    /// Synchronization tasks.
    pub sync_tasks: Vec<SyncTask>,
    /// Connection capacity `K_max`: concurrent sync tasks per QPU slot.
    pub kmax: usize,
    /// Optional node-level structure for τ_local; without it τ_local is
    /// the layer-level fusee bound only.
    pub local: Option<LocalStructure>,
    /// OneAdapt-style dynamic refresh bound: every stored photon —
    /// fusee, measuree, or connector — is re-injected after at most
    /// this many cycles, so every lifetime term is capped here.
    pub refresh_bound: Option<usize>,
}

/// A task reference: either main task `(qpu, index)` or sync task `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskRef {
    /// Main task `J_{qpu, index}`.
    Main(usize, usize),
    /// Synchronization task `S_k`.
    Sync(usize),
}

/// A complete schedule: start times for every task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `main_start[i][j]` — start slot of main task `J_{i,j}`.
    pub main_start: Vec<Vec<usize>>,
    /// `sync_start[k]` — start slot of sync task `S_k`.
    pub sync_start: Vec<usize>,
}

/// Cost breakdown of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleCost {
    /// Required lifetime of local computation (Algorithm 1 with start
    /// times).
    pub tau_local: usize,
    /// Required lifetime of remote communication.
    pub tau_remote: usize,
    /// Total schedule length (makespan) — the distributed execution
    /// time.
    pub makespan: usize,
}

impl ScheduleCost {
    /// The Definition IV.1 objective: `max(τ_local, τ_remote)`.
    #[must_use]
    pub fn objective(&self) -> usize {
        self.tau_local.max(self.tau_remote)
    }
}

impl Schedule {
    /// Serializes the schedule with the hand-rolled binary codec (part
    /// of the `Scheduled` stage artifact of `mbqc-service`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut e);
        debug_assert_eq!(e.len(), self.encoded_len(), "Schedule::encoded_len");
        e.into_bytes()
    }

    /// The exact length of [`Schedule::to_bytes`]: one word per start
    /// time, per QPU list length, and for the QPU count and the sync
    /// list's length.
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let starts: usize = self.main_start.iter().map(Vec::len).sum();
        8 * (2 + self.main_start.len() + starts + self.sync_start.len())
    }

    /// Appends [`Schedule::to_bytes`] to `e`.
    pub fn encode(&self, e: &mut Encoder) {
        e.usize(self.main_start.len());
        for starts in &self.main_start {
            e.usize_slice(starts);
        }
        e.usize_slice(&self.sync_start);
    }

    /// Decodes a schedule written by [`Schedule::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated or malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let qpus = d.len_hint()?;
        let mut main_start = Vec::with_capacity(qpus);
        for _ in 0..qpus {
            main_start.push(d.usize_vec()?);
        }
        let sync_start = d.usize_vec()?;
        d.finish()?;
        Ok(Self {
            main_start,
            sync_start,
        })
    }
}

impl LayerScheduleProblem {
    /// Creates a problem without node-level structure.
    ///
    /// # Panics
    ///
    /// Panics on malformed sync endpoints or `kmax == 0`.
    #[must_use]
    pub fn new(main_counts: Vec<usize>, sync_tasks: Vec<SyncTask>, kmax: usize) -> Self {
        let num_qpus = main_counts.len();
        assert!(kmax >= 1, "K_max must be positive");
        for s in &sync_tasks {
            for &(q, j) in &[s.a, s.b] {
                assert!(q < num_qpus, "sync endpoint QPU out of range");
                assert!(j < main_counts[q], "sync endpoint task out of range");
            }
            assert_ne!(s.a.0, s.b.0, "sync tasks join distinct QPUs");
        }
        Self {
            num_qpus,
            main_counts,
            sync_tasks,
            kmax,
            local: None,
            refresh_bound: None,
        }
    }

    /// Sets the dynamic-refresh cap applied to every lifetime term.
    #[must_use]
    pub fn with_refresh_bound(mut self, bound: usize) -> Self {
        self.refresh_bound = Some(bound);
        self
    }

    /// Attaches node-level structure for exact τ_local evaluation.
    ///
    /// # Panics
    ///
    /// Panics if slots reference missing tasks or tables disagree.
    #[must_use]
    pub fn with_local(mut self, local: LocalStructure) -> Self {
        assert_eq!(
            local.deps.node_count(),
            local.node_slot.len(),
            "dependency graph and slot table disagree"
        );
        for &(q, j) in &local.node_slot {
            assert!(
                q < self.num_qpus && j < self.main_counts[q],
                "bad node slot"
            );
        }
        for &(u, v) in &local.fusee_pairs {
            assert!(u < local.node_slot.len() && v < local.node_slot.len());
        }
        self.local = Some(local);
        self
    }

    /// Total number of tasks (main + sync).
    #[must_use]
    pub fn task_count(&self) -> usize {
        self.main_counts.iter().sum::<usize>() + self.sync_tasks.len()
    }

    /// Checks feasibility: per-QPU exclusivity (one main task xor up to
    /// `K_max` syncs per slot) and in-order main tasks.
    #[must_use]
    pub fn is_feasible(&self, s: &Schedule) -> bool {
        if s.main_start.len() != self.num_qpus || s.sync_start.len() != self.sync_tasks.len() {
            return false;
        }
        use std::collections::HashMap;
        // (qpu, t) -> (mains, syncs)
        let mut usage: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        for (i, starts) in s.main_start.iter().enumerate() {
            if starts.len() != self.main_counts[i] {
                return false;
            }
            for (j, &t) in starts.iter().enumerate() {
                if j > 0 && starts[j - 1] >= t {
                    return false; // layers must run in order
                }
                usage.entry((i, t)).or_insert((0, 0)).0 += 1;
            }
        }
        for (k, sync) in self.sync_tasks.iter().enumerate() {
            let t = s.sync_start[k];
            for &(q, _) in &[sync.a, sync.b] {
                usage.entry((q, t)).or_insert((0, 0)).1 += 1;
            }
        }
        usage
            .values()
            .all(|&(mains, syncs)| (mains == 0 || (mains == 1 && syncs == 0)) && syncs <= self.kmax)
    }

    /// Evaluates a schedule's cost (assumes feasibility).
    ///
    /// # Panics
    ///
    /// Panics if the schedule shape disagrees with the problem, or the
    /// dependency graph is cyclic.
    #[must_use]
    pub fn evaluate(&self, s: &Schedule) -> ScheduleCost {
        assert_eq!(s.main_start.len(), self.num_qpus, "schedule shape mismatch");
        assert_eq!(s.sync_start.len(), self.sync_tasks.len());
        // With dynamic refresh, any photon stored beyond the bound is
        // re-injected, so no lifetime term can exceed it.
        let cap = |t: usize| match self.refresh_bound {
            Some(d) => t.min(d),
            None => t,
        };
        // τ_remote.
        let tau_remote = self
            .sync_tasks
            .iter()
            .zip(&s.sync_start)
            .flat_map(|(sync, &t)| {
                [sync.a, sync.b]
                    .into_iter()
                    .map(move |(q, j)| t.abs_diff(s.main_start[q][j]))
            })
            .max()
            .unwrap_or(0);
        let tau_remote = cap(tau_remote);
        // τ_local via Algorithm 1 with start times.
        let tau_local = match &self.local {
            None => 0,
            Some(local) => {
                let times: Vec<usize> = local
                    .node_slot
                    .iter()
                    .map(|&(q, j)| s.main_start[q][j])
                    .collect();
                let pairs: Vec<(usize, usize)> = local
                    .fusee_pairs
                    .iter()
                    .map(|&(u, v)| (times[u], times[v]))
                    .collect();
                let report = mbqc_compiler::required_photon_lifetime(&times, &pairs, &local.deps);
                cap(report.fusee).max(cap(report.measuree))
            }
        };
        let makespan = s
            .main_start
            .iter()
            .flatten()
            .copied()
            .chain(s.sync_start.iter().copied())
            .max()
            .map_or(0, |t| t + 1);
        ScheduleCost {
            tau_local,
            tau_remote,
            makespan,
        }
    }

    /// Serializes the problem instance — node-level structure and
    /// dependency DAG included — with the hand-rolled binary codec
    /// (part of the `Scheduled` stage artifact of `mbqc-service`).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut e);
        debug_assert_eq!(
            e.len(),
            self.encoded_len(),
            "LayerScheduleProblem::encoded_len"
        );
        e.into_bytes()
    }

    /// The exact length of [`LayerScheduleProblem::to_bytes`]: the QPU
    /// count, `K_max` and three list lengths (8 each), one word per
    /// main count, four per sync task, the node-level structure (a
    /// presence byte, two list lengths, two words per node slot and
    /// fusee pair, and the framed dependency DAG), and the optional
    /// refresh bound (a presence byte and a word).
    #[must_use]
    pub fn encoded_len(&self) -> usize {
        let local = self.local.as_ref().map_or(1, |local| {
            1 + 8 * 3
                + 16 * (local.node_slot.len() + local.fusee_pairs.len())
                + local.deps.encoded_len()
        });
        let refresh = if self.refresh_bound.is_some() { 9 } else { 1 };
        8 * (4 + self.main_counts.len() + 4 * self.sync_tasks.len()) + local + refresh
    }

    /// Appends [`LayerScheduleProblem::to_bytes`] to `e`, the
    /// dependency DAG written in place.
    pub fn encode(&self, e: &mut Encoder) {
        e.usize(self.num_qpus);
        e.usize_slice(&self.main_counts);
        e.usize(self.sync_tasks.len());
        for s in &self.sync_tasks {
            e.usize(s.a.0);
            e.usize(s.a.1);
            e.usize(s.b.0);
            e.usize(s.b.1);
        }
        e.usize(self.kmax);
        match &self.local {
            Some(local) => {
                e.bool(true);
                e.usize(local.node_slot.len());
                for &(q, j) in &local.node_slot {
                    e.usize(q);
                    e.usize(j);
                }
                e.usize(local.fusee_pairs.len());
                for &(u, v) in &local.fusee_pairs {
                    e.usize(u);
                    e.usize(v);
                }
                e.nested(local.deps.encoded_len(), |e| local.deps.encode(e));
            }
            None => e.bool(false),
        }
        e.opt_usize(self.refresh_bound);
    }

    /// Decodes a problem written by [`LayerScheduleProblem::to_bytes`].
    ///
    /// The decoded instance passes the same shape checks as
    /// construction via [`LayerScheduleProblem::new`] /
    /// [`LayerScheduleProblem::with_local`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated input or shapes that violate
    /// the constructor invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes, true)
    }

    /// Decodes a problem from a *trusted, integrity-checked* source —
    /// bytes produced by [`LayerScheduleProblem::to_bytes`] behind a
    /// checksummed transport. Every shape and range check that guards
    /// later indexing is kept (arbitrary bytes still never panic); only
    /// the dependency DAG's mirror-consistency audit is skipped (see
    /// [`DiGraph::from_bytes_trusted`]). Durable storage must keep
    /// using [`LayerScheduleProblem::from_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on truncated input or shapes that violate
    /// the constructor invariants.
    pub fn from_bytes_trusted(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode(bytes, false)
    }

    fn decode(bytes: &[u8], verify_deps: bool) -> Result<Self, CodecError> {
        let mut d = Decoder::new(bytes);
        let num_qpus = d.usize()?;
        let main_counts = d.usize_vec()?;
        if main_counts.len() != num_qpus {
            return Err(CodecError::Invalid("main_counts length"));
        }
        let syncs = d.len_hint()?;
        let mut sync_tasks = Vec::with_capacity(syncs);
        for _ in 0..syncs {
            let s = SyncTask {
                a: (d.usize()?, d.usize()?),
                b: (d.usize()?, d.usize()?),
            };
            for &(q, j) in &[s.a, s.b] {
                if q >= num_qpus || j >= main_counts[q] {
                    return Err(CodecError::Invalid("sync endpoint out of range"));
                }
            }
            if s.a.0 == s.b.0 {
                return Err(CodecError::Invalid("sync task joins one QPU"));
            }
            sync_tasks.push(s);
        }
        let kmax = d.usize()?;
        if kmax == 0 {
            return Err(CodecError::Invalid("kmax must be positive"));
        }
        let local = if d.bool()? {
            let n = d.len_hint()?;
            let mut node_slot = Vec::with_capacity(n);
            for _ in 0..n {
                let (q, j) = (d.usize()?, d.usize()?);
                if q >= num_qpus || j >= main_counts[q] {
                    return Err(CodecError::Invalid("node slot out of range"));
                }
                node_slot.push((q, j));
            }
            let pairs = d.len_hint()?;
            let mut fusee_pairs = Vec::with_capacity(pairs);
            for _ in 0..pairs {
                let (u, v) = (d.usize()?, d.usize()?);
                if u >= n || v >= n {
                    return Err(CodecError::Invalid("fusee node out of range"));
                }
                fusee_pairs.push((u, v));
            }
            let deps = if verify_deps {
                DiGraph::from_bytes(d.bytes()?)?
            } else {
                DiGraph::from_bytes_trusted(d.bytes()?)?
            };
            if deps.node_count() != n {
                return Err(CodecError::Invalid("deps size disagrees with slots"));
            }
            Some(LocalStructure {
                node_slot,
                fusee_pairs,
                deps,
            })
        } else {
            None
        };
        let refresh_bound = d.opt_usize()?;
        d.finish()?;
        Ok(Self {
            num_qpus,
            main_counts,
            sync_tasks,
            kmax,
            local,
            refresh_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbqc_graph::NodeId;

    fn tiny_problem() -> LayerScheduleProblem {
        // 2 QPUs with 2 main tasks each, one sync joining J_{0,1} and
        // J_{1,0}.
        LayerScheduleProblem::new(
            vec![2, 2],
            vec![SyncTask {
                a: (0, 1),
                b: (1, 0),
            }],
            4,
        )
    }

    #[test]
    fn feasibility_accepts_valid() {
        let p = tiny_problem();
        let s = Schedule {
            main_start: vec![vec![0, 1], vec![0, 1]],
            sync_start: vec![2],
        };
        assert!(p.is_feasible(&s));
    }

    #[test]
    fn feasibility_rejects_out_of_order_mains() {
        let p = tiny_problem();
        let s = Schedule {
            main_start: vec![vec![1, 0], vec![0, 1]],
            sync_start: vec![2],
        };
        assert!(!p.is_feasible(&s));
    }

    #[test]
    fn feasibility_rejects_main_sync_overlap() {
        let p = tiny_problem();
        // Sync at t=1 collides with QPU 0's main task at t=1.
        let s = Schedule {
            main_start: vec![vec![0, 1], vec![0, 2]],
            sync_start: vec![1],
        };
        assert!(!p.is_feasible(&s));
    }

    #[test]
    fn feasibility_enforces_kmax() {
        let p = LayerScheduleProblem::new(
            vec![1, 1],
            vec![
                SyncTask {
                    a: (0, 0),
                    b: (1, 0),
                },
                SyncTask {
                    a: (0, 0),
                    b: (1, 0),
                },
            ],
            1,
        );
        let both_at_once = Schedule {
            main_start: vec![vec![0], vec![0]],
            sync_start: vec![1, 1],
        };
        assert!(!p.is_feasible(&both_at_once));
        let spread = Schedule {
            main_start: vec![vec![0], vec![0]],
            sync_start: vec![1, 2],
        };
        assert!(p.is_feasible(&spread));
    }

    #[test]
    fn tau_remote_is_max_endpoint_distance() {
        let p = tiny_problem();
        let s = Schedule {
            main_start: vec![vec![0, 1], vec![0, 4]],
            sync_start: vec![5],
        };
        // Sync at 5 vs J_{0,1} at 1 (distance 4) and J_{1,0} at 0
        // (distance 5).
        let cost = p.evaluate(&s);
        assert_eq!(cost.tau_remote, 5);
        assert_eq!(cost.makespan, 6);
        assert_eq!(cost.tau_local, 0, "no local structure attached");
        assert_eq!(cost.objective(), 5);
    }

    #[test]
    fn tau_local_uses_start_times() {
        // Two nodes fused across QPUs' layers scheduled 7 slots apart.
        let deps = DiGraph::from_edges(2, &[(NodeId::new(0), NodeId::new(1))]);
        let p = LayerScheduleProblem::new(vec![1, 1], vec![], 4).with_local(LocalStructure {
            node_slot: vec![(0, 0), (1, 0)],
            fusee_pairs: vec![(0, 1)],
            deps,
        });
        let s = Schedule {
            main_start: vec![vec![0], vec![7]],
            sync_start: vec![],
        };
        let cost = p.evaluate(&s);
        assert_eq!(cost.tau_local, 7);
    }

    #[test]
    fn codec_round_trips_problem_and_schedule() {
        let deps = DiGraph::from_edges(2, &[(NodeId::new(0), NodeId::new(1))]);
        let p = tiny_problem()
            .with_local(LocalStructure {
                node_slot: vec![(0, 1), (1, 0)],
                fusee_pairs: vec![(0, 1)],
                deps,
            })
            .with_refresh_bound(9);
        let back = LayerScheduleProblem::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(back, p);

        let s = Schedule {
            main_start: vec![vec![0, 1], vec![0, 3]],
            sync_start: vec![2],
        };
        let s_back = Schedule::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(s_back, s);
        assert_eq!(back.evaluate(&s_back), p.evaluate(&s));

        // Truncation never yields a malformed instance.
        let bytes = p.to_bytes();
        for cut in [1usize, 9, bytes.len() - 1] {
            assert!(LayerScheduleProblem::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn empty_problem_zero_cost() {
        let p = LayerScheduleProblem::new(vec![0, 0], vec![], 4);
        let s = Schedule {
            main_start: vec![vec![], vec![]],
            sync_start: vec![],
        };
        assert!(p.is_feasible(&s));
        let cost = p.evaluate(&s);
        assert_eq!(cost.makespan, 0);
        assert_eq!(cost.objective(), 0);
    }

    #[test]
    #[should_panic(expected = "distinct QPUs")]
    fn same_qpu_sync_panics() {
        let _ = LayerScheduleProblem::new(
            vec![2],
            vec![SyncTask {
                a: (0, 0),
                b: (0, 1),
            }],
            4,
        );
    }
}
