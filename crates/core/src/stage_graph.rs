//! The stage-task layer over the staged pipeline: the [`StageKind`]
//! names of a job's tasks and a checkout pool for stage workspaces.
//!
//! A [`CompileSession`](crate::CompileSession) runs one pattern's whole
//! pipeline on its own workspaces. A stage-task *executor* (the
//! `mbqc-service` crate) instead runs every job one [`StageKind`] task
//! at a time and lets any worker run any job's next task: worker A can
//! partition job 2 while worker B schedules job 1. Between tasks a job
//! carries its latest stage artifact (built on a shared pattern, see
//! [`Transpiled::shared`](crate::Transpiled::shared)), and the artifact
//! names the next task. The per-stage workspaces that a session would
//! own are checked out of a shared [`WorkspacePool`] for the duration
//! of one task and returned afterwards, so the buffers still amortize
//! across jobs without being pinned to one worker.
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
/// cache deepest-first and re-enters the pipeline past every stage a
/// cached artifact already answers.
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
/// is exactly the "no workspace leaked on the cancellation
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
