//! The stage-task layer over the staged pipeline: per-job stage
//! decomposition and a checkout pool for stage workspaces.
//!
//! A [`CompileSession`](crate::CompileSession) runs one pattern's whole
//! pipeline on its own workspaces. A stage-task *executor* (the
//! `mbqc-service` crate) instead decomposes every job into
//! [`StageKind`] tasks with explicit data dependencies — tracked by a
//! [`StageGraph`] per job — and lets any worker run any ready task:
//! worker A can partition job 2 while worker B schedules job 1. The
//! per-stage workspaces that a session would own are checked out of a
//! shared [`WorkspacePool`] for the duration of one task and returned
//! afterwards, so the buffers still amortize across jobs without being
//! pinned to one worker.
//!
//! Neither layer affects results: stage functions are pure in
//! `(config, input artifact)` and workspaces are scratch only, so any
//! task interleaving over any worker count reproduces
//! [`compile_pattern`](crate::DcMbqcCompiler::compile_pattern) bit for
//! bit (property-tested in `mbqc-service`).

use std::sync::Mutex;

use mbqc_compiler::MapperWorkspace;
use mbqc_partition::KwayWorkspace;
use mbqc_schedule::ScheduleWorkspace;
use mbqc_util::sync::lock;

/// One stage task of a job, in pipeline order. `Transpile` also acts
/// as the job's planning step in executors: it probes the artifact
/// cache deepest-first and fast-forwards the job's [`StageGraph`] past
/// every stage a cached artifact already answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StageKind {
    /// Flow verification + placement-order derivation.
    Transpile,
    /// Adaptive graph partitioning (Algorithm 2).
    Partition,
    /// Per-QPU grid compilation.
    Map,
    /// Layer scheduling (list scheduling + BDIR).
    Schedule,
}

impl StageKind {
    /// All stages in pipeline order.
    pub const ALL: [StageKind; 4] = [
        StageKind::Transpile,
        StageKind::Partition,
        StageKind::Map,
        StageKind::Schedule,
    ];

    /// The stage that consumes this stage's output (`None` after
    /// scheduling).
    #[must_use]
    pub fn next(self) -> Option<StageKind> {
        match self {
            StageKind::Transpile => Some(StageKind::Partition),
            StageKind::Partition => Some(StageKind::Map),
            StageKind::Map => Some(StageKind::Schedule),
            StageKind::Schedule => None,
        }
    }

    /// Human-readable stage name, used by telemetry events, trace
    /// export, and stats tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Transpile => "transpile",
            StageKind::Partition => "partition",
            StageKind::Map => "map",
            StageKind::Schedule => "schedule",
        }
    }

    /// Position of this stage in [`StageKind::ALL`] — the index used by
    /// per-stage stats arrays (e.g. `ServiceStats::stage_latency` in
    /// `mbqc-service`).
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// The dependency graph of one job's stage tasks.
///
/// The pipeline's data dependencies form a chain — each stage consumes
/// the previous stage's artifact — so at most one task per job is ever
/// ready. The graph still makes the dependency structure explicit:
/// tasks complete one at a time ([`complete`](StageGraph::complete)),
/// cache hits fast-forward past already-answered stages
/// ([`skip_to`](StageGraph::skip_to)), and a finished (or failed) job
/// has no ready task left.
///
/// # Examples
///
/// ```
/// use dc_mbqc::{StageGraph, StageKind};
///
/// let mut g = StageGraph::new();
/// assert_eq!(g.ready(), Some(StageKind::Transpile));
/// g.complete(StageKind::Transpile);
/// // A cached `Mapped` artifact answers partitioning and mapping:
/// g.skip_to(StageKind::Schedule);
/// assert_eq!(g.ready(), Some(StageKind::Schedule));
/// g.complete(StageKind::Schedule);
/// assert!(g.is_finished());
/// assert_eq!(g.completed(), 2); // only the executed tasks count
/// ```
#[derive(Debug, Clone)]
pub struct StageGraph {
    /// Tasks that actually executed (skips excluded).
    executed: u32,
    ready: Option<StageKind>,
    /// Set by [`StageGraph::abandon`]: the job was dropped between
    /// tasks instead of running to a result.
    abandoned: bool,
}

impl StageGraph {
    /// A fresh job: every stage pending, `Transpile` ready.
    #[must_use]
    pub fn new() -> Self {
        Self {
            executed: 0,
            ready: Some(StageKind::Transpile),
            abandoned: false,
        }
    }

    /// The job's unique ready task, if any.
    #[must_use]
    pub fn ready(&self) -> Option<StageKind> {
        self.ready
    }

    /// Marks the ready task as executed; its dependent becomes ready.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is not the ready task (a task executed out of
    /// dependency order is an executor bug, never valid).
    pub fn complete(&mut self, kind: StageKind) {
        assert_eq!(self.ready, Some(kind), "stage task not ready");
        self.executed += 1;
        self.ready = kind.next();
    }

    /// Fast-forwards to `kind`: every earlier pending stage is treated
    /// as answered by a cached artifact *without* counting as
    /// executed, and `kind` becomes the ready task.
    ///
    /// # Panics
    ///
    /// Panics when fast-forwarding backwards over an already-completed
    /// stage boundary (the chain never re-runs a completed stage).
    pub fn skip_to(&mut self, kind: StageKind) {
        let ready = self.ready.expect("job already finished");
        assert!(ready <= kind, "cannot fast-forward backwards");
        self.ready = Some(kind);
    }

    /// Ends the job early (a terminal cache hit or a failure): no task
    /// is ready any more.
    pub fn finish(&mut self) {
        self.ready = None;
    }

    /// Abandons the job between tasks (a cancellation or an expired
    /// deadline observed at a task boundary): no task is ready any
    /// more, and the remaining stages are left pending — they were
    /// *dropped*, not answered. Identical to [`finish`](Self::finish)
    /// in effect on the ready queue; kept distinct so executors state
    /// their intent and `is_abandoned` can tell a dropped job from a
    /// produced result.
    ///
    /// Abandonment only ever happens *between* tasks — a running stage
    /// is never interrupted (stages stay deterministic), so an
    /// abandoned job holds no checked-out workspace: everything it
    /// borrowed from the [`WorkspacePool`] was already returned when
    /// its last task finished.
    pub fn abandon(&mut self) {
        self.abandoned = self.abandoned || self.ready.is_some();
        self.ready = None;
    }

    /// `true` when the job was dropped between tasks by
    /// [`abandon`](Self::abandon) rather than running to a result.
    #[must_use]
    pub fn is_abandoned(&self) -> bool {
        self.abandoned
    }

    /// `true` when no task is ready (the job produced its result,
    /// failed, or was abandoned).
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.ready.is_none()
    }

    /// Number of tasks that actually executed (cache-skipped stages
    /// excluded).
    #[must_use]
    pub fn completed(&self) -> u32 {
        self.executed
    }
}

impl Default for StageGraph {
    fn default() -> Self {
        Self::new()
    }
}

/// A checkout pool of stage workspaces, shared by every worker of a
/// stage-task executor.
///
/// Each task checks out the workspace its stage needs, runs, and
/// checks it back in; the pool grows to the peak number of concurrent
/// tasks per stage and then stops allocating. Workspaces are scratch
/// only — which one a task gets never influences its result — so the
/// pool needs no fairness or affinity, just a free list. A task that
/// panics must *not* return its workspace (the buffers may be
/// mid-update); instead it [`discard`](WorkspacePool::discard)s it —
/// the workspace is dropped, the accounting is balanced, and the pool
/// re-allocates on the next checkout.
///
/// Mapping workspaces are pooled as bundles (`Vec<MapperWorkspace>`,
/// one entry per mapping worker) because the map stage owns all its
/// workers' scratch for the duration of one task.
///
/// The pool counts outstanding checkouts
/// ([`outstanding`](WorkspacePool::outstanding)): a drained executor —
/// every job in a terminal state, no task running — must read 0, which
/// is exactly the "no workspace leaked on the cancellation/abandon
/// path" invariant the lifecycle property tests pin — and, because
/// panicking tasks discard rather than leak, the invariant holds even
/// under injected task panics (the chaos property tests pin that too).
#[derive(Debug, Default)]
pub struct WorkspacePool {
    kway: Mutex<Vec<KwayWorkspace>>,
    mapper: Mutex<Vec<Vec<MapperWorkspace>>>,
    schedule: Mutex<Vec<ScheduleWorkspace>>,
    /// Checkouts minus checkins, all workspace kinds together.
    outstanding: std::sync::atomic::AtomicUsize,
}

impl WorkspacePool {
    /// An empty pool; workspaces are created on first checkout.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn note_checkout(&self) {
        self.outstanding
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    fn note_checkin(&self) {
        let prev = self
            .outstanding
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        debug_assert!(prev > 0, "workspace checked in twice");
    }

    /// Workspaces currently checked out (any kind). 0 on a drained
    /// executor — panicking tasks [`discard`](Self::discard) their
    /// workspace, so even a panic path balances the count.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Balances the accounting for a checked-out workspace that will
    /// *not* be returned — its task panicked and the buffers may be
    /// mid-update, so the workspace is dropped by the caller and the
    /// pool re-allocates on the next checkout. Exactly one of
    /// `checkin_*` / `discard` must run per checkout.
    pub fn discard(&self) {
        self.note_checkin();
    }

    /// Checks out a partitioning workspace.
    #[must_use]
    pub fn checkout_kway(&self) -> KwayWorkspace {
        self.note_checkout();
        lock(&self.kway).pop().unwrap_or_default()
    }

    /// Returns a partitioning workspace to the pool.
    pub fn checkin_kway(&self, ws: KwayWorkspace) {
        lock(&self.kway).push(ws);
        self.note_checkin();
    }

    /// Checks out a mapping workspace bundle.
    #[must_use]
    pub fn checkout_mapper(&self) -> Vec<MapperWorkspace> {
        self.note_checkout();
        lock(&self.mapper).pop().unwrap_or_default()
    }

    /// Returns a mapping workspace bundle to the pool.
    pub fn checkin_mapper(&self, ws: Vec<MapperWorkspace>) {
        lock(&self.mapper).push(ws);
        self.note_checkin();
    }

    /// Checks out a scheduling workspace.
    #[must_use]
    pub fn checkout_schedule(&self) -> ScheduleWorkspace {
        self.note_checkout();
        lock(&self.schedule).pop().unwrap_or_default()
    }

    /// Returns a scheduling workspace to the pool.
    pub fn checkin_schedule(&self, ws: ScheduleWorkspace) {
        lock(&self.schedule).push(ws);
        self.note_checkin();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_runs_in_order() {
        let mut g = StageGraph::new();
        for kind in StageKind::ALL {
            assert_eq!(g.ready(), Some(kind));
            assert!(!g.is_finished());
            g.complete(kind);
        }
        assert!(g.is_finished());
        assert_eq!(g.completed(), 4);
    }

    #[test]
    fn skip_to_marks_earlier_stages_without_executing_them() {
        let mut g = StageGraph::new();
        g.complete(StageKind::Transpile);
        g.skip_to(StageKind::Map);
        assert_eq!(g.ready(), Some(StageKind::Map));
        g.complete(StageKind::Map);
        g.complete(StageKind::Schedule);
        assert!(g.is_finished());
        assert_eq!(g.completed(), 3, "partition was skipped, not executed");

        // Skipping straight to the last stage leaves nothing before it.
        let mut g = StageGraph::new();
        g.skip_to(StageKind::Schedule);
        assert_eq!(g.ready(), Some(StageKind::Schedule));
        g.complete(StageKind::Schedule);
        assert!(g.is_finished(), "the skipped stages count as done");
        assert_eq!(g.completed(), 1);
    }

    #[test]
    fn finish_ends_the_job_early() {
        let mut g = StageGraph::new();
        g.complete(StageKind::Transpile);
        g.finish();
        assert!(g.is_finished());
        assert!(!g.is_abandoned(), "finish is not abandonment");
        assert_eq!(g.ready(), None);
    }

    #[test]
    fn abandon_drops_pending_stages() {
        let mut g = StageGraph::new();
        g.complete(StageKind::Transpile);
        g.complete(StageKind::Partition);
        g.abandon();
        assert!(g.is_finished());
        assert!(g.is_abandoned());
        assert_eq!(g.ready(), None);
        assert_eq!(g.completed(), 2, "executed tasks keep counting");
    }

    #[test]
    fn abandon_after_finish_is_not_abandonment() {
        // The job already produced its result; a late cancel must not
        // relabel it as dropped.
        let mut g = StageGraph::new();
        for kind in StageKind::ALL {
            g.complete(kind);
        }
        g.abandon();
        assert!(!g.is_abandoned());
    }

    #[test]
    #[should_panic(expected = "not ready")]
    fn out_of_order_completion_panics() {
        let mut g = StageGraph::new();
        g.complete(StageKind::Map);
    }

    #[test]
    fn pool_recycles_workspaces() {
        let pool = WorkspacePool::new();
        let a = pool.checkout_kway();
        pool.checkin_kway(a);
        let _b = pool.checkout_kway(); // recycled, not observable — just must not deadlock
        let m = pool.checkout_mapper();
        assert!(m.is_empty(), "fresh bundle starts empty");
        pool.checkin_mapper(m);
        let s = pool.checkout_schedule();
        pool.checkin_schedule(s);
    }

    #[test]
    fn pool_counts_outstanding_checkouts() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.outstanding(), 0);
        let k = pool.checkout_kway();
        let m = pool.checkout_mapper();
        assert_eq!(pool.outstanding(), 2);
        pool.checkin_mapper(m);
        assert_eq!(pool.outstanding(), 1);
        pool.checkin_kway(k);
        assert_eq!(pool.outstanding(), 0);
        let s = pool.checkout_schedule();
        assert_eq!(pool.outstanding(), 1);
        pool.checkin_schedule(s);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn discard_balances_a_panicked_checkout() {
        let pool = WorkspacePool::new();
        let ws = pool.checkout_kway();
        assert_eq!(pool.outstanding(), 1);
        // A panicking task drops its workspace instead of returning it…
        drop(ws);
        // …and discards the checkout so the accounting stays balanced.
        pool.discard();
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn pool_survives_a_poisoned_free_list() {
        // A panic while the free-list lock is held (e.g. an allocator
        // failure mid-push) must not wedge every later checkout.
        let pool = WorkspacePool::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = pool.kway.lock().unwrap();
            panic!("poison the free list");
        }));
        let ws = pool.checkout_kway();
        pool.checkin_kway(ws);
        assert_eq!(pool.outstanding(), 0);
    }
}
