//! Allocation audit for the warm compile path: a QFT-100 compile on a
//! `CompileSession` that has already compiled once, with one map
//! worker. A counting global allocator measures the flow-order stage
//! (causal-flow check plus placement order) and the schedule stage
//! (problem assembly, list scheduling, BDIR, evaluation).
//!
//! Both stages build their dependency DAG as frozen CSR from one edge
//! list, so their allocation counts no longer grow with the node count.
//! The bounds leave room for debug builds, where `schedule_stage`'s
//! feasibility `debug_assert!` allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use dc_mbqc::{CompileSession, DcMbqcConfig, Transpiled};
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::transpile::transpile;

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocations made by `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

#[test]
fn warm_flow_order_and_schedule_allocations_are_bounded() {
    let n = 100;
    // Table IV: 8 QPUs of 4-ring resource states; one map worker so no
    // helper thread allocates while armed.
    let hw = DistributedHardware::builder()
        .num_qpus(8)
        .grid_width(bench::grid_size_for(n))
        .resource_state(ResourceStateKind::FOUR_RING)
        .kmax(4)
        .build();
    let config = DcMbqcConfig::new(hw).with_seed(2026).with_alpha_max(1.5);
    let pattern = transpile(&bench::qft(n));
    let mut session = CompileSession::new(config).with_map_workers(1);
    let reference = session.compile_pattern(&pattern).expect("QFT-100 compiles");

    let (transpiled, flow_allocs) = counted(|| Transpiled::new(&pattern).expect("has flow"));
    let partitioned = session.partition(transpiled);
    let mapped = session.map(partitioned).expect("maps");
    let (scheduled, schedule_allocs) = counted(|| session.schedule(mapped));
    assert_eq!(scheduled, reference, "the staged compile is the warm one");

    eprintln!(
        "QFT-{n} ({} nodes), warm: flow order {flow_allocs} allocations, \
         schedule {schedule_allocs}",
        pattern.node_count()
    );
    assert!(
        flow_allocs < 100,
        "flow order allocated {flow_allocs} times"
    );
    assert!(
        schedule_allocs < 1_000,
        "schedule allocated {schedule_allocs} times"
    );
}
