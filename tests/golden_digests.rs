//! Golden output digests: the FNV-1a-64 of `DistributedSchedule::to_bytes()`
//! for a fixed corpus of programs and hardware settings.
//!
//! Performance work on the mapper and the scheduler must leave every
//! output bit-identical; these pins catch any drift, including drift that
//! every in-process bit-identity matrix would reproduce consistently. A
//! deliberate output change re-baselines them in the same commit.
//!
//! Each program is compiled with one, two and four grid-mapping workers,
//! and every run must produce the pinned digest: the worker count is
//! never an input to the result. No cargo feature changes partitions,
//! so the digests hold in every build configuration.

use dc_mbqc::{CompileSession, DcMbqcConfig};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_pattern::transpile;

/// Compiler seed of the paper's experiments; also the QAOA instance seed.
const SEED: u64 = 2026;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Table-III style configuration for an `n`-qubit program on `qpus`
/// QPUs of `rsg` resource states.
fn config(n: usize, qpus: usize, rsg: ResourceStateKind) -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(qpus)
        .grid_width(bench::grid_size_for(n))
        .resource_state(rsg)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw).with_seed(SEED).with_alpha_max(1.5)
}

/// Grid-mapping worker counts every corpus program is compiled with.
const MAP_WORKERS: [usize; 3] = [1, 2, 4];

fn digest(
    kind: BenchmarkKind,
    n: usize,
    qpus: usize,
    rsg: ResourceStateKind,
    map_workers: usize,
) -> String {
    let pattern = transpile(&kind.generate(n, SEED));
    let schedule = CompileSession::new(config(n, qpus, rsg))
        .with_map_workers(map_workers)
        .compile_pattern(&pattern)
        .expect("corpus program compiles");
    format!("{:016x}", fnv1a64(&schedule.to_bytes()))
}

fn assert_digest(kind: BenchmarkKind, n: usize, qpus: usize, rsg: ResourceStateKind, want: &str) {
    for map_workers in MAP_WORKERS {
        let got = digest(kind, n, qpus, rsg, map_workers);
        assert_eq!(
            got, want,
            "{kind}-{n} on {qpus} × {rsg}, {map_workers} map workers: output changed"
        );
    }
}

#[test]
fn table3_qft16() {
    assert_digest(
        BenchmarkKind::Qft,
        16,
        4,
        ResourceStateKind::FIVE_STAR,
        "0323aaad95fb7aad",
    );
}

#[test]
fn table3_qft36() {
    assert_digest(
        BenchmarkKind::Qft,
        36,
        4,
        ResourceStateKind::FIVE_STAR,
        "e84b859acf226b98",
    );
}

#[test]
fn table3_qaoa36() {
    assert_digest(
        BenchmarkKind::Qaoa,
        36,
        4,
        ResourceStateKind::FIVE_STAR,
        "b35ebeb30900e598",
    );
}

#[test]
fn table3_rca36() {
    assert_digest(
        BenchmarkKind::Rca,
        36,
        4,
        ResourceStateKind::FIVE_STAR,
        "51005556e6118f38",
    );
}

/// 4-ring states on 8 QPUs (table IV's setting): routing capacity 1,
/// two spare photons per wire. This program also hits the case where a
/// node being placed routes its own edges on the wire budget.
#[test]
fn table4_qaoa16() {
    assert_digest(
        BenchmarkKind::Qaoa,
        16,
        8,
        ResourceStateKind::FOUR_RING,
        "ff416022de47dd99",
    );
}

/// 6-ring states: routing capacity 2 and two pass-throughs per wire;
/// also hits the own-edges wire-budget case.
#[test]
fn six_ring_vqe12() {
    assert_digest(
        BenchmarkKind::Vqe,
        12,
        8,
        ResourceStateKind::SIX_RING,
        "4950a455184ee39e",
    );
}
