//! Stage-by-stage re-entry on degenerate inputs: the free stage
//! functions, run one task at a time on a carried artifact as a service
//! worker runs them, and the full pipeline must **error or compile
//! cleanly — never panic** on the edge shapes a service meets in the
//! wild: the empty pattern, a single-qubit pattern, a `k = 1`
//! partition, and more QPUs than nodes.

use std::sync::Arc;

use dc_mbqc::{
    map_stage, partition_stage, schedule_stage, CompileSession, DcMbqcCompiler, DcMbqcConfig,
    DcMbqcError, DistributedSchedule, Transpiled,
};
use mbqc_graph::Graph;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::KwayWorkspace;
use mbqc_pattern::Pattern;
use mbqc_schedule::ScheduleWorkspace;

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

/// Re-entering the pipeline at every stage with the artifact the
/// previous stage left — through the session with a borrowed pattern,
/// and through the free stage functions on fresh workspaces with a
/// shared pattern, as the service's stage tasks do — reproduces the
/// direct compilation bit for bit on every degenerate shape.
#[test]
fn reentry_matches_direct_on_degenerate_shapes() {
    for (what, pattern, qpus) in degenerate_cases() {
        let config = DcMbqcConfig::new(hw(qpus, 4));
        let direct = DcMbqcCompiler::new(config.clone())
            .compile_pattern(&pattern)
            .unwrap_or_else(|e| panic!("{what}: direct: {e}"));

        // One stage at a time through a session, borrowed pattern.
        let mut session = CompileSession::new(config.clone());
        let transpiled =
            Transpiled::new(&pattern).unwrap_or_else(|e| panic!("{what}: transpile: {e}"));
        let partitioned = session.partition(transpiled);
        let mapped = session
            .map(partitioned)
            .unwrap_or_else(|e| panic!("{what}: map: {e}"));
        assert_eq!(session.schedule(mapped), direct, "{what}: session stages");

        // The stage functions on a shared pattern: the service's path.
        let shared = Arc::new(pattern.clone());
        let transpiled =
            Transpiled::shared(shared).unwrap_or_else(|e| panic!("{what}: shared transpile: {e}"));
        let partitioned = partition_stage(&config, transpiled, &mut KwayWorkspace::new());
        let mapped = map_stage(&config, partitioned, 1, &mut Vec::new())
            .unwrap_or_else(|e| panic!("{what}: map stage: {e}"));
        let staged = schedule_stage(&config, mapped, &mut ScheduleWorkspace::new());
        assert_eq!(staged, direct, "{what}: stage functions");
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
