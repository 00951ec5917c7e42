//! Criterion benchmarks of the DC-MBQC pipeline kernels.
//!
//! These measure the compiler's own cost (the Figure 10 axis), not the
//! compiled programs: transpilation, partitioning, grid mapping,
//! lifetime evaluation, and scheduling.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mbqc_bench::runner::{RunConfig, SEED};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_compiler::{CompilerConfig, GridMapper};
use mbqc_graph::generate;
use mbqc_hardware::ResourceStateKind;
use mbqc_partition::coarsen::heavy_edge_matching;
use mbqc_partition::{adaptive_partition, multilevel_kway, AdaptiveConfig, KwayConfig};
use mbqc_pattern::transpile::transpile;
use mbqc_schedule::{bdir, default_priorities, list_schedule, BdirConfig};
use mbqc_sim::stabilizer::Tableau;
use mbqc_sim::{StateVector, C64};
use mbqc_util::Rng;

fn bench_transpile(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpile");
    for n in [16usize, 36] {
        let circuit = bench::qft(n);
        group.bench_with_input(BenchmarkId::new("qft", n), &circuit, |b, circ| {
            b.iter(|| transpile(circ));
        });
    }
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    let pattern = transpile(&bench::qft(36));
    let graph = pattern.graph().clone();
    group.bench_function("kway_qft36_k4", |b| {
        b.iter(|| multilevel_kway(&graph, &KwayConfig::new(4)));
    });
    group.bench_function("adaptive_qft36_k4", |b| {
        b.iter(|| adaptive_partition(&graph, &AdaptiveConfig::new(4)));
    });
    // One heavy-edge matching round in isolation on a 360k-node grid
    // (above the adaptive threshold, so the word-parallel bitset branch).
    let big = generate::grid_graph(600, 600);
    let csr = mbqc_graph::CsrGraph::from_graph(&big);
    let mut order: Vec<usize> = (0..big.node_count()).collect();
    Rng::seed_from_u64(11).shuffle(&mut order);
    group.bench_function("matching_grid600", |b| {
        let mut mate = Vec::new();
        let mut unmatched = Vec::new();
        b.iter(|| heavy_edge_matching(&csr, &order, &mut mate, &mut unmatched));
    });
    group.finish();
}

fn bench_refine(c: &mut Criterion) {
    let mut group = c.benchmark_group("refine");
    let pattern = transpile(&bench::qft(36));
    let graph = pattern.graph().clone();
    let csr = mbqc_graph::CsrGraph::from_graph(&graph);
    let n = graph.node_count();
    let bound = graph.total_node_weight() / 4 + n as i64 / 8;
    let mut rng = Rng::seed_from_u64(3);
    let p0 = mbqc_partition::Partition::new((0..n).map(|_| rng.range(4)).collect(), 4);
    group.bench_function("incremental_qft36_k4", |b| {
        b.iter(|| {
            let mut p = p0.clone();
            let mut r = Rng::seed_from_u64(7);
            mbqc_partition::refine::refine_csr(&csr, &mut p, bound, 8, &mut r)
        });
    });
    group.finish();
}

fn bench_tableau(c: &mut Criterion) {
    let mut group = c.benchmark_group("tableau");
    let g = generate::grid_graph(24, 24);
    let n = g.node_count();
    let g32 = generate::grid_graph(32, 32);
    let packed_rows: Vec<_> = (0..g32.node_count())
        .step_by(3)
        .map(|i| {
            mbqc_sim::stabilizer::PauliString::graph_stabilizer(&g32, mbqc_graph::NodeId::new(i))
        })
        .collect();
    group.bench_function("rowops_mul_grid32", |b| {
        b.iter(|| {
            let mut acc = packed_rows[0].clone();
            for p in &packed_rows[1..] {
                acc.mul_inplace(p);
            }
            acc
        });
    });
    group.bench_function("graph_state_grid24", |b| {
        b.iter(|| Tableau::graph_state(&g));
    });
    let packed = Tableau::graph_state(&g);
    group.bench_function("rowops_measure_grid24", |b| {
        b.iter(|| {
            let mut t = packed.clone();
            let mut rng = Rng::seed_from_u64(1);
            (0..n)
                .map(|q| t.measure_z(q, &mut rng))
                .filter(|&o| o)
                .count()
        });
    });
    // Stabilizer-membership checks: the word-blocked symplectic
    // elimination vs. the preserved single-bit-probe elimination.
    let probes: Vec<_> = {
        let gens = packed.stabilizer_generators();
        (0..4)
            .map(|k| {
                let mut acc = gens[k * 5].clone();
                for p in gens.iter().skip(k * 5 + 1).step_by(13) {
                    acc.mul_inplace(p);
                }
                acc
            })
            .collect()
    };
    group.bench_function("is_stabilized_by_grid24", |b| {
        b.iter(|| probes.iter().filter(|p| packed.is_stabilized_by(p)).count());
    });
    group.bench_function("is_stabilized_by_grid24_reference", |b| {
        b.iter(|| {
            probes
                .iter()
                .filter(|p| packed.is_stabilized_by_reference(p))
                .count()
        });
    });
    group.finish();
}

fn bench_statevector(c: &mut Criterion) {
    let mut group = c.benchmark_group("statevector");
    group.sample_size(10);
    let k = C64::new(std::f64::consts::FRAC_1_SQRT_2, 0.0);
    let h = [[k, k], [k, -k]];
    let s_gate = [[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]];
    let sv = StateVector::plus_state(20);
    group.bench_function("apply_single_h20", |b| {
        b.iter(|| {
            let mut s = sv.clone();
            for q in 0..20 {
                s.apply_single(q, h);
            }
            s
        });
    });
    group.bench_function("apply_single_h20_reference", |b| {
        b.iter(|| {
            let mut s = sv.clone();
            for q in 0..20 {
                s.apply_single_reference(q, h);
            }
            s
        });
    });
    group.bench_function("apply_single_s20_diag", |b| {
        b.iter(|| {
            let mut s = sv.clone();
            for q in 0..20 {
                s.apply_single(q, s_gate);
            }
            s
        });
    });
    // Gate fusion on a single-qubit-dense circuit: runs of H/T/S/Rz
    // collapse into one composed 2×2 sweep each.
    let fused_circuit = {
        let n = 14;
        let mut circ = mbqc_circuit::Circuit::new(n);
        for _ in 0..4 {
            for q in 0..n {
                circ.h(q).t(q).s(q).rz(q, 0.37).h(q);
            }
            for q in 0..n - 1 {
                circ.cz(q, q + 1);
            }
        }
        circ
    };
    let sv14 = StateVector::plus_state(14);
    group.bench_function("fused_1q_runs14", |b| {
        let mut ws = mbqc_sim::FusionWorkspace::new();
        b.iter(|| {
            let mut s = sv14.clone();
            s.apply_circuit_with(&fused_circuit, &mut ws);
            s
        });
    });
    group.bench_function("fused_1q_runs14_reference", |b| {
        b.iter(|| {
            let mut s = sv14.clone();
            s.apply_circuit_reference(&fused_circuit);
            s
        });
    });
    group.finish();
}

fn bench_grid_mapper(c: &mut Criterion) {
    let mut group = c.benchmark_group("grid_mapper");
    for n in [16usize, 36] {
        let pattern = transpile(&bench::qft(n));
        let order = pattern.flow_constraints().topological_sort().unwrap();
        let cfg = CompilerConfig::new(bench::grid_size_for(n), ResourceStateKind::FIVE_STAR);
        group.bench_with_input(BenchmarkId::new("qft", n), &n, |b, _| {
            b.iter(|| {
                GridMapper::new(cfg)
                    .compile(pattern.graph(), &order)
                    .unwrap()
            });
        });
    }
    group.finish();
}

fn bench_lifetime(c: &mut Criterion) {
    let pattern = transpile(&bench::qft(36));
    let order = pattern.flow_constraints().topological_sort().unwrap();
    let cfg = CompilerConfig::new(bench::grid_size_for(36), ResourceStateKind::FIVE_STAR);
    let compiled = GridMapper::new(cfg)
        .compile(pattern.graph(), &order)
        .unwrap();
    let deps = pattern.dependency_graph().real_time().clone();
    c.bench_function("lifetime_algorithm1_qft36", |b| {
        b.iter(|| compiled.lifetime(&deps));
    });
}

fn bench_scheduling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling");
    // A real scheduling problem: QFT-16 on 4 QPUs.
    let outcome = mbqc_bench::runner::compare(BenchmarkKind::Qft, 16, &RunConfig::table3());
    let problem = outcome.distributed.problem().clone();
    group.bench_function("list_qft16", |b| {
        b.iter(|| list_schedule(&problem, &default_priorities(&problem), None));
    });
    let init = list_schedule(&problem, &default_priorities(&problem), None);
    group.bench_function("bdir_qft16", |b| {
        b.iter(|| bdir(&problem, &init, &BdirConfig::default()));
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("end_to_end");
    group.sample_size(10);
    let circuit = BenchmarkKind::Qft.generate(16, SEED);
    let pattern = transpile(&circuit);
    let cfg = RunConfig::table3();
    group.bench_function("baseline_qft16", |b| {
        b.iter(|| cfg.compiler(16).compile_baseline_pattern(&pattern).unwrap());
    });
    group.bench_function("distributed_qft16", |b| {
        b.iter(|| cfg.compiler(16).compile_pattern(&pattern).unwrap());
    });
    group.finish();
}

fn bench_service(c: &mut Criterion) {
    use dc_mbqc::DcMbqcConfig;
    use mbqc_hardware::{DistributedHardware, ResourceStateKind};
    use mbqc_service::{CompileService, ServiceConfig};

    let mut group = c.benchmark_group("service");
    group.sample_size(10);
    let patterns: Vec<_> = [10usize, 12, 11, 13]
        .iter()
        .map(|&n| transpile(&bench::qft(n)))
        .collect();
    let hw = DistributedHardware::builder()
        .num_qpus(4)
        .grid_width(bench::grid_size_for(13))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let config = DcMbqcConfig::new(hw);
    // A four-job QFT batch with ~30% abandonment riding along: cancelled
    // and expired jobs must cost bookkeeping only (tracked as
    // `end_to_end/lifecycle_churn` in BENCH_kernels.json).
    let victims: Vec<_> = [15usize, 16]
        .iter()
        .map(|&n| transpile(&bench::qft(n)))
        .collect();
    group.bench_function("lifecycle_churn", |b| {
        b.iter(|| {
            let service = CompileService::new(ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            })
            .expect("service starts");
            let ids = service.submit_many(&patterns, &config);
            let doomed: Vec<_> = victims
                .iter()
                .map(|p| {
                    let h = service.submit_with(
                        p.clone(),
                        config.clone(),
                        mbqc_service::JobOptions::default(),
                    );
                    h.cancel();
                    h.id()
                })
                .collect();
            let expired = service.submit_with_deadline(
                victims[0].clone(),
                config.clone(),
                std::time::Duration::ZERO,
            );
            for id in ids {
                service.wait(id).expect("service compiles");
            }
            for id in doomed {
                assert!(service.wait(id).is_err());
            }
            assert!(expired.wait().is_err());
        });
    });
    // The same workload with a retry budget on every job: in a build
    // without `fault-inject` no fault ever fires, so this measures the
    // cost of carrying the recovery machinery (tracked as
    // `end_to_end/fault_churn` in BENCH_kernels.json).
    let retry =
        mbqc_service::RetryPolicy::attempts(4).with_backoff(std::time::Duration::from_millis(1));
    group.bench_function("fault_churn", |b| {
        b.iter(|| {
            let service = CompileService::new(ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            })
            .expect("service starts");
            let handles: Vec<_> = patterns
                .iter()
                .map(|p| {
                    service.submit_with(
                        p.clone(),
                        config.clone(),
                        mbqc_service::JobOptions {
                            retry,
                            ..mbqc_service::JobOptions::default()
                        },
                    )
                })
                .collect();
            for h in handles {
                h.wait().expect("service compiles");
            }
        });
    });
    // The same workload with full telemetry armed — flight recorder,
    // a live service-wide subscriber on a drainer thread, and a
    // Chrome-trace export of the capture (tracked as
    // `end_to_end/telemetry_churn` in BENCH_kernels.json; the dormant
    // side of that pair is the same batch with telemetry configured
    // off, i.e. one relaxed atomic per emit site).
    group.bench_function("telemetry_churn", |b| {
        b.iter(|| {
            let service = CompileService::new(ServiceConfig {
                workers: 0,
                telemetry: mbqc_service::TelemetryConfig {
                    flight_recorder: 256,
                    ..mbqc_service::TelemetryConfig::default()
                },
                ..ServiceConfig::default()
            })
            .expect("service starts");
            let stream = service.subscribe_with_capacity(4096);
            let drainer = std::thread::spawn(move || {
                let mut events = Vec::new();
                while let Some(ev) = stream.recv() {
                    events.push(ev);
                }
                events
            });
            for id in service.submit_many(&patterns, &config) {
                service.wait(id).expect("service compiles");
            }
            drop(service);
            let events = drainer.join().expect("drainer exits");
            std::hint::black_box(mbqc_service::chrome_trace_json(&events).len());
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_transpile,
    bench_partition,
    bench_refine,
    bench_tableau,
    bench_statevector,
    bench_grid_mapper,
    bench_lifetime,
    bench_scheduling,
    bench_end_to_end,
    bench_service
);
criterion_main!(benches);
