//! Property-based pins for the staged pipeline: the staged path
//! (`Transpiled` → `Partitioned` → `Mapped` → `Scheduled`, driven by
//! hand) is bit-identical to the single-call `compile_pattern` driver,
//! and a reused session matches fresh compilers.

use dc_mbqc::{CompileSession, DcMbqcCompiler, DcMbqcConfig, DistributedSchedule, Transpiled};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::{transpile::transpile, Pattern};
use proptest::prelude::*;

fn hardware(
    qpus: usize,
    qubits: usize,
    kind: ResourceStateKind,
    kmax: usize,
) -> DistributedHardware {
    DistributedHardware::builder()
        .num_qpus(qpus)
        .grid_width(bench::grid_size_for(qubits))
        .resource_state(kind)
        .kmax(kmax)
        .build()
}

fn pattern_for(kind_idx: usize, qubits: usize) -> Pattern {
    let kinds = BenchmarkKind::all();
    let kind = kinds[kind_idx % kinds.len()];
    transpile(&kind.generate(qubits, 1))
}

/// Field-wise bit-identity of two compilation outcomes (schedules,
/// partitions, problems, and every reported metric — or equal errors).
fn assert_identical(
    a: &Result<DistributedSchedule, dc_mbqc::DcMbqcError>,
    b: &Result<DistributedSchedule, dc_mbqc::DcMbqcError>,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(x.execution_time(), y.execution_time());
            prop_assert_eq!(x.required_photon_lifetime(), y.required_photon_lifetime());
            prop_assert_eq!(x.tau_local(), y.tau_local());
            prop_assert_eq!(x.tau_remote(), y.tau_remote());
            prop_assert_eq!(x.cut_edges(), y.cut_edges());
            prop_assert_eq!(x.refresh_events(), y.refresh_events());
            prop_assert_eq!(x.per_qpu_layers(), y.per_qpu_layers());
            prop_assert_eq!(x.partition(), y.partition());
            prop_assert_eq!(x.schedule(), y.schedule());
            prop_assert!((x.modularity() - y.modularity()).abs() < 1e-15);
        }
        (Err(x), Err(y)) => prop_assert_eq!(x, y),
        (x, y) => prop_assert!(false, "one path failed: {:?} vs {:?}", x.is_ok(), y.is_ok()),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn staged_path_identical_to_single_call(
        kind_idx in 0usize..8,
        qubits in 6usize..14,
        qpus in 2usize..5,
        seed in 0u64..1000,
        with_bdir in 0usize..2,
        refresh in 0usize..2,
    ) {
        let pattern = pattern_for(kind_idx, qubits);
        let mut base = DcMbqcConfig::new(hardware(qpus, qubits, ResourceStateKind::FIVE_STAR, 4))
            .with_seed(seed);
        if with_bdir == 0 {
            base = base.without_bdir();
        }
        if refresh == 1 {
            base = base.with_refresh(4);
        }
        let single = DcMbqcCompiler::new(base.clone()).compile_pattern(&pattern);
        let staged = {
            let mut session = CompileSession::new(base);
            Transpiled::new(&pattern)
                .map(|t| session.partition(t))
                .and_then(|p| session.map(p))
                .map(|m| session.schedule(m))
        };
        assert_identical(&single, &staged)?;
    }
}

/// Session reuse across many compilations must not leak state: the
/// same session compiling a sequence of different patterns matches
/// fresh-compiler results for each (the workspace-reuse guarantee at
/// the whole-pipeline level).
#[test]
fn session_reuse_matches_fresh_compilers() {
    let config = DcMbqcConfig::new(hardware(4, 12, ResourceStateKind::FIVE_STAR, 4)).with_seed(3);
    let compiler = DcMbqcCompiler::new(config.clone());
    let mut session = CompileSession::new(config);
    for (i, kind) in BenchmarkKind::all().iter().enumerate() {
        let pattern = transpile(&kind.generate(10 + (i % 3), 1));
        let fresh = compiler.compile_pattern(&pattern);
        let reused = session.compile_pattern(&pattern);
        match (fresh, reused) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.schedule(), b.schedule(), "{kind}");
                assert_eq!(a.partition(), b.partition(), "{kind}");
                assert_eq!(
                    a.required_photon_lifetime(),
                    b.required_photon_lifetime(),
                    "{kind}"
                );
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{kind}"),
            _ => panic!("fresh and reused disagree on success for {kind}"),
        }
    }
}
