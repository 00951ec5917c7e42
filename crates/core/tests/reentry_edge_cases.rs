//! Mid-pipeline re-entry on degenerate inputs: the re-entry
//! constructors ([`Partitioned::with_partition`], [`Mapped::from_parts`])
//! and the full pipeline must **error or compile cleanly — never
//! panic** on the edge shapes a service meets in the wild: the empty
//! pattern, a single-qubit pattern, a `k = 1` partition, and more QPUs
//! than nodes. Contract *violations* (mismatched table sizes) stay
//! documented panics — those are executor bugs, not inputs.

use std::sync::Arc;

use dc_mbqc::{
    CompileSession, DcMbqcCompiler, DcMbqcConfig, DcMbqcError, DistributedSchedule, Mapped,
    Partitioned, Transpiled,
};
use mbqc_graph::Graph;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::Partition;
use mbqc_pattern::Pattern;

fn hw(qpus: usize, width: usize) -> DistributedHardware {
    DistributedHardware::builder()
        .num_qpus(qpus)
        .grid_width(width)
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build()
}

fn empty_pattern() -> Pattern {
    Pattern::from_parts(Graph::new(), vec![], vec![], vec![], vec![], vec![], vec![])
}

/// One unmeasured output photon: the smallest valid pattern.
fn single_node_pattern() -> Pattern {
    let mut g = Graph::new();
    let a = g.add_node();
    Pattern::from_parts(
        g,
        vec![0.0],
        vec![false],
        vec![None],
        vec![0],
        vec![a],
        vec![a],
    )
}

/// One measured input flowing into one output: two nodes, one edge.
fn two_node_pattern() -> Pattern {
    let mut g = Graph::new();
    let a = g.add_node();
    let b = g.add_node();
    g.add_edge(a, b);
    Pattern::from_parts(
        g,
        vec![0.0, 0.0],
        vec![true, false],
        vec![Some(b), None],
        vec![0, 0],
        vec![a],
        vec![b],
    )
}

/// Two measured nodes whose flow successors form a cycle: structurally
/// a valid pattern, but without causal flow.
fn cyclic_flow_pattern() -> Pattern {
    let mut g = Graph::new();
    let a = g.add_node();
    let b = g.add_node();
    g.add_edge(a, b);
    Pattern::from_parts(
        g,
        vec![0.0, 0.0],
        vec![true, true],
        vec![Some(b), Some(a)],
        vec![0, 0],
        vec![],
        vec![],
    )
}

/// Every degenerate `(pattern, qpus)` shape, with the invariants a
/// clean compile must satisfy.
fn degenerate_cases() -> Vec<(&'static str, Pattern, usize)> {
    vec![
        ("empty on 2 QPUs", empty_pattern(), 2),
        ("single node on 2 QPUs", single_node_pattern(), 2),
        ("single node on k=1", single_node_pattern(), 1),
        ("two nodes on k=1", two_node_pattern(), 1),
        ("two nodes on 4 QPUs (QPUs > nodes)", two_node_pattern(), 4),
        ("empty on 4 QPUs", empty_pattern(), 4),
    ]
}

fn check_result(what: &str, dist: &DistributedSchedule, qpus: usize, nodes: usize) {
    assert_eq!(dist.partition().k(), qpus, "{what}: partition arity");
    assert_eq!(dist.partition().len(), nodes, "{what}: partition coverage");
    assert_eq!(dist.per_qpu_layers().len(), qpus, "{what}: per-QPU layers");
    assert!(
        dist.problem().is_feasible(dist.schedule()),
        "{what}: schedule feasible"
    );
}

/// The full pipeline compiles every degenerate shape cleanly.
#[test]
fn pipeline_compiles_degenerate_shapes() {
    for (what, pattern, qpus) in degenerate_cases() {
        let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hw(qpus, 4)));
        let dist = compiler
            .compile_pattern(&pattern)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        check_result(what, &dist, qpus, pattern.node_count());
        // The full artifact codec round-trips on degenerate shapes too
        // (an empty schedule is still a valid `Scheduled` artifact).
        let back = DistributedSchedule::from_bytes(&dist.to_bytes())
            .unwrap_or_else(|e| panic!("{what}: codec: {e}"));
        assert_eq!(back, dist, "{what}: codec round trip");
    }
}

/// Re-entry through `Partitioned::with_partition` (a stored partition)
/// and `Mapped::from_parts` (stored per-QPU programs) reproduces the
/// direct compilation bit for bit on every degenerate shape, with the
/// pattern borrowed or shared.
#[test]
fn reentry_matches_direct_on_degenerate_shapes() {
    for (what, pattern, qpus) in degenerate_cases() {
        let config = DcMbqcConfig::new(hw(qpus, 4));
        let direct = DcMbqcCompiler::new(config.clone())
            .compile_pattern(&pattern)
            .unwrap_or_else(|e| panic!("{what}: direct: {e}"));
        let mut session = CompileSession::new(config.clone());

        // Stored partition, borrowed pattern.
        let transpiled =
            Transpiled::new(&pattern).unwrap_or_else(|e| panic!("{what}: transpile: {e}"));
        let partitioned = Partitioned::with_partition(transpiled, direct.partition().clone());
        let mapped = session
            .map(partitioned)
            .unwrap_or_else(|e| panic!("{what}: map: {e}"));
        let programs = mapped.programs().to_vec();
        let scheduled = session.schedule(mapped);
        assert_eq!(scheduled, direct, "{what}: with_partition re-entry");

        // Stored partition and programs, shared pattern: the service's
        // `Mapped` cache re-entry.
        let shared = Arc::new(pattern.clone());
        let transpiled =
            Transpiled::shared(shared).unwrap_or_else(|e| panic!("{what}: shared transpile: {e}"));
        let partitioned = Partitioned::with_partition(transpiled, direct.partition().clone());
        let mapped = Mapped::from_parts(partitioned, programs);
        let scheduled = session.schedule(mapped);
        assert_eq!(scheduled, direct, "{what}: Mapped::from_parts re-entry");
    }
}

/// A structurally valid pattern without causal flow is an *error*
/// (`NoFlow`), not a panic — for the empty-adjacent shapes too.
#[test]
fn flowless_pattern_errors_cleanly() {
    let pattern = cyclic_flow_pattern();
    assert!(matches!(
        Transpiled::new(&pattern).map(|_| ()),
        Err(DcMbqcError::NoFlow)
    ));
    let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hw(2, 4)));
    assert!(matches!(
        compiler.compile_pattern(&pattern),
        Err(DcMbqcError::NoFlow)
    ));
}

/// Contract violations stay loud: the re-entry constructors panic on
/// mismatched shapes rather than silently compiling garbage.
#[test]
fn reentry_contract_violations_panic() {
    let single = single_node_pattern();
    // Partition not covering the pattern.
    assert!(std::panic::catch_unwind(|| {
        let t = Transpiled::new(&single).unwrap();
        Partitioned::with_partition(t, Partition::new(vec![0, 1], 2))
    })
    .is_err());

    // Programs that do not match the partition's shape.
    let two = two_node_pattern();
    let config = DcMbqcConfig::new(hw(2, 4));
    let split = Partition::new(vec![0, 1], 2);
    let mapped = CompileSession::new(config)
        .map(Partitioned::with_partition(
            Transpiled::new(&two).unwrap(),
            split.clone(),
        ))
        .expect("two nodes fit");
    let programs = mapped.programs().to_vec();
    // One program for two parts.
    assert!(std::panic::catch_unwind(|| {
        let p = Partitioned::with_partition(Transpiled::new(&two).unwrap(), split.clone());
        Mapped::from_parts(p, programs[..1].to_vec())
    })
    .is_err());
    // Right count, wrong sizes: both nodes on part 0, but part 0's
    // program covers one node.
    assert!(std::panic::catch_unwind(|| {
        let both_on_0 = Partition::new(vec![0, 0], 2);
        let p = Partitioned::with_partition(Transpiled::new(&two).unwrap(), both_on_0);
        Mapped::from_parts(p, programs.clone())
    })
    .is_err());
}
