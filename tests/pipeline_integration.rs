//! Cross-crate integration: the full DC-MBQC pipeline, stage by stage.

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::modularity::modularity;
use mbqc_pattern::{flow, transpile::transpile};

fn hardware(qpus: usize, qubits: usize) -> DistributedHardware {
    DistributedHardware::builder()
        .num_qpus(qpus)
        .grid_width(bench::grid_size_for(qubits))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build()
}

#[test]
fn every_benchmark_family_compiles_end_to_end() {
    for kind in BenchmarkKind::all() {
        let circuit = kind.generate(16, 1);
        let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hardware(4, 16)));
        let result = compiler.compile_circuit(&circuit).unwrap();
        assert!(result.execution_time() > 0, "{kind}");
        assert!(result.required_photon_lifetime() > 0, "{kind}");
        assert!(result.problem().is_feasible(result.schedule()), "{kind}");
    }
}

#[test]
fn partition_covers_graph_and_respects_quality() {
    let circuit = bench::qft(16);
    let pattern = transpile(&circuit);
    let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hardware(4, 16)));
    let result = compiler.compile_pattern(&pattern).unwrap();
    let partition = result.partition();
    assert_eq!(partition.len(), pattern.node_count());
    assert_eq!(partition.k(), 4);
    // Reported modularity matches a recomputation on the raw graph.
    let q = modularity(pattern.graph(), partition);
    assert!((q - result.modularity()).abs() < 1e-12);
    // Cut edges reported = cut edges recomputed.
    assert_eq!(result.cut_edges(), partition.cut_size(pattern.graph()));
}

#[test]
fn schedule_metrics_recompute_exactly() {
    let circuit = bench::vqe(12, 3);
    let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hardware(4, 12)));
    let result = compiler.compile_circuit(&circuit).unwrap();
    let cost = result.problem().evaluate(result.schedule());
    assert_eq!(cost.makespan, result.execution_time());
    assert_eq!(cost.objective(), result.required_photon_lifetime());
    assert_eq!(cost.tau_local, result.tau_local());
    assert_eq!(cost.tau_remote, result.tau_remote());
}

#[test]
fn sync_task_count_equals_cut() {
    let circuit = bench::qaoa(12, 5).circuit;
    let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hardware(4, 12)));
    let result = compiler.compile_circuit(&circuit).unwrap();
    assert_eq!(result.problem().sync_tasks.len(), result.cut_edges());
}

#[test]
fn transpiled_patterns_have_flow_and_acyclic_dependencies() {
    for kind in BenchmarkKind::all() {
        let pattern = transpile(&kind.generate(16, 2));
        assert!(flow::has_causal_flow(&pattern), "{kind}");
        let deps = pattern.dependency_graph();
        assert!(deps.real_time().is_acyclic(), "{kind}");
        assert!(deps.combined().is_acyclic(), "{kind}");
        // Measurement order is a valid execution order.
        let order = pattern.measurement_order();
        assert!(flow::verify_order(&pattern, &order), "{kind}");
    }
}

#[test]
fn baseline_and_distributed_agree_on_problem_size() {
    let circuit = bench::rca(16);
    let pattern = transpile(&circuit);
    let compiler = DcMbqcCompiler::new(DcMbqcConfig::new(hardware(4, 16)));
    let baseline = compiler.compile_baseline_pattern(&pattern).unwrap();
    let distributed = compiler.compile_pattern(&pattern).unwrap();
    // Same number of photons placed overall.
    assert_eq!(baseline.compiled().layer_of.len(), pattern.node_count());
    let distributed_layers: usize = distributed.per_qpu_layers().iter().sum();
    assert!(distributed_layers > 0);
    // Every edge is realized exactly once in the baseline.
    assert_eq!(
        baseline.compiled().fusee_pairs.len(),
        pattern.graph().edge_count()
    );
}

#[test]
fn refresh_caps_lifetime_terms() {
    let circuit = bench::qft(25);
    let cfg = DcMbqcConfig::new(hardware(4, 25)).with_refresh(5);
    let compiler = DcMbqcCompiler::new(cfg);
    let result = compiler.compile_circuit(&circuit).unwrap();
    assert!(
        result.required_photon_lifetime() <= 5,
        "refresh bound violated: {}",
        result.required_photon_lifetime()
    );
    let baseline = compiler.compile_baseline_circuit(&circuit).unwrap();
    // The baseline mapper also refreshes its wires: fusee spans bounded.
    assert!(baseline.lifetime().fusee <= 5 + 1);
}

#[test]
fn boundary_reservation_costs_execution_time() {
    let circuit = bench::qft(16);
    let pattern = transpile(&circuit);
    let plain = DcMbqcCompiler::new(DcMbqcConfig::new(hardware(4, 16)))
        .compile_pattern(&pattern)
        .unwrap();
    let reserved =
        DcMbqcCompiler::new(DcMbqcConfig::new(hardware(4, 16)).with_boundary_reservation(true))
            .compile_pattern(&pattern)
            .unwrap();
    assert!(reserved.execution_time() + 3 >= plain.execution_time());
}
