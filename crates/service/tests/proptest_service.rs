//! Property pins for the compilation service:
//!
//! * the stage-graph executor's output is **bit-identical** to a
//!   sequential `compile_pattern` loop across worker counts {1, 2, 8}
//!   × priority mixes × cache states {cold, warm, disk-restored};
//! * a job that differs from a stored one only in a scheduling knob
//!   compiles from scratch to the direct result;
//! * every stage codec round-trips exactly on real pipeline artifacts.

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig, DistributedSchedule};
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::Partition;
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_schedule::{LayerScheduleProblem, Schedule};
use mbqc_service::{CompileService, JobId, JobOptions, Priority, ServiceConfig, StoreConfig};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

fn hardware(qpus: usize, qubits: usize) -> DistributedHardware {
    DistributedHardware::builder()
        .num_qpus(qpus)
        .grid_width(bench::grid_size_for(qubits))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build()
}

fn pattern_for(kind_idx: usize, qubits: usize) -> Pattern {
    let kinds = BenchmarkKind::all();
    transpile(&kinds[kind_idx % kinds.len()].generate(qubits, 1))
}

/// The priority mix: job `i` cycles through every class, so every
/// batch exercises out-of-submission-order execution.
fn priority_of(i: usize) -> Priority {
    Priority::ALL[i % Priority::ALL.len()]
}

/// Submits one job at `priority` with otherwise default options.
fn submit_at(
    service: &CompileService,
    pattern: Pattern,
    config: DcMbqcConfig,
    priority: Priority,
) -> JobId {
    let options = JobOptions {
        priority,
        ..JobOptions::default()
    };
    service.submit_with(pattern, config, options).id()
}

/// A unique scratch directory per call (tests may run concurrently).
fn scratch_dir() -> std::path::PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "mbqc-service-proptest-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn assert_identical(
    a: &DistributedSchedule,
    b: &DistributedSchedule,
    what: &str,
) -> Result<(), TestCaseError> {
    // `DistributedSchedule: PartialEq` covers every field (schedule,
    // problem, partition, metrics); compare piecewise first for
    // readable failures.
    prop_assert_eq!(a.schedule(), b.schedule(), "{}: schedule", what);
    prop_assert_eq!(a.partition(), b.partition(), "{}: partition", what);
    prop_assert_eq!(
        a.required_photon_lifetime(),
        b.required_photon_lifetime(),
        "{}: lifetime",
        what
    );
    prop_assert_eq!(a, b, "{}: full artifact", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The acceptance property: worker counts {1, 2, 8} × a cycling
    /// priority mix × cache states {cold, warm, disk-restored} all
    /// reproduce `compile_pattern` bit-for-bit under the stage-graph
    /// executor.
    #[test]
    fn executor_bit_identical_to_compile_pattern(
        qubits in 6usize..11,
        qpus in 2usize..5,
        seed in 0u64..1000,
        batch in 2usize..4,
    ) {
        let patterns: Vec<Pattern> =
            (0..batch).map(|i| pattern_for(i, qubits + (i % 3))).collect();
        let config = DcMbqcConfig::new(hardware(qpus, qubits + 2)).with_seed(seed);
        let expected: Vec<DistributedSchedule> = {
            let compiler = DcMbqcCompiler::new(config.clone());
            patterns
                .iter()
                .map(|p| compiler.compile_pattern(p).expect("compiles"))
                .collect()
        };

        let dir = scratch_dir();
        for workers in [1usize, 2, 8] {
            let service = CompileService::new(ServiceConfig {
                workers,
                store: StoreConfig {
                    memory_capacity: 8 << 20,
                    disk_dir: Some(dir.clone()),
                    ..StoreConfig::default()
                },
                ..ServiceConfig::default()
            })
            .expect("service starts");
            // Cold on the first worker count; disk-restored (fresh
            // memory, persisted artifacts) on the later ones.
            for round in 0..2 {
                let ids: Vec<_> = patterns
                    .iter()
                    .enumerate()
                    .map(|(i, p)| {
                        submit_at(&service, p.clone(), config.clone(), priority_of(i + round))
                    })
                    .collect();
                for (i, id) in ids.into_iter().enumerate() {
                    let got = service.wait(id).expect("service compiles");
                    assert_identical(
                        &expected[i],
                        &got,
                        &format!(
                            "workers={workers} round={round} job={i}"
                        ),
                    )?;
                }
            }
            let stats = service.stats();
            prop_assert_eq!(stats.completed, 2 * patterns.len() as u64);
            prop_assert_eq!(stats.failed, 0);
            prop_assert!(stats.tasks_executed >= 1, "{:?}", stats);
            // Round 2 (and later worker counts, via the disk tier) must
            // be pure `Scheduled` hits.
            prop_assert!(
                stats.hits_scheduled >= patterns.len() as u64,
                "warm round recomputed: {:?}",
                stats
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A job that differs from a resident one only in BDIR is a miss:
    /// the store keys schedules by the whole configuration, so it
    /// compiles from scratch and matches the direct compilation for
    /// the new configuration bit for bit.
    #[test]
    fn bdir_variant_of_a_resident_job_compiles_from_scratch(
        qubits in 6usize..11,
        qpus in 2usize..5,
        seed in 0u64..1000,
    ) {
        let pattern = pattern_for(seed as usize, qubits);
        let base = DcMbqcConfig::new(hardware(qpus, qubits)).with_seed(seed);
        let changed = base.clone().without_bdir();
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        service
            .wait(service.submit(pattern.clone(), base))
            .expect("warms the cache");
        let got = service
            .wait(service.submit(pattern.clone(), changed.clone()))
            .expect("service compiles");
        let direct = DcMbqcCompiler::new(changed)
            .compile_pattern(&pattern)
            .expect("compiles");
        assert_identical(&direct, &got, "BDIR variant")?;
        // Both jobs ran all four stage tasks; nothing was served.
        let stats = service.stats();
        prop_assert_eq!(
            (stats.hits_scheduled, stats.full_compiles, stats.tasks_executed),
            (0, 2, 8),
            "{:?}",
            stats
        );
    }

    /// Round trips of every stage codec on real pipeline artifacts.
    #[test]
    fn stage_codecs_round_trip(
        qubits in 6usize..12,
        qpus in 2usize..5,
        seed in 0u64..1000,
        kind_idx in 0usize..4,
    ) {
        let config = DcMbqcConfig::new(hardware(qpus, qubits)).with_seed(seed);
        let pattern = pattern_for(kind_idx, qubits);
        let dist = DcMbqcCompiler::new(config)
            .compile_pattern(&pattern)
            .expect("compiles");

        let p = dist.partition();
        prop_assert_eq!(&Partition::from_bytes(&p.to_bytes()).unwrap(), p);
        let s = dist.schedule();
        prop_assert_eq!(&Schedule::from_bytes(&s.to_bytes()).unwrap(), s);
        let problem = dist.problem();
        let problem_back = LayerScheduleProblem::from_bytes(&problem.to_bytes()).unwrap();
        prop_assert_eq!(&problem_back, problem);
        prop_assert_eq!(problem_back.evaluate(s), problem.evaluate(s));
        let dist_back = DistributedSchedule::from_bytes(&dist.to_bytes()).unwrap();
        prop_assert_eq!(&dist_back, &dist);

        // Any truncation decodes to an error, never a wrong artifact.
        let bytes = dist.to_bytes();
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            prop_assert!(DistributedSchedule::from_bytes(&bytes[..cut]).is_err());
        }
    }
}

/// The disk tier under lifecycle churn: random interleavings of
/// puts, gets, abandoned writes (a writer cancelled/killed mid-write
/// leaves a stale temp file), corruptions (torn or garbled artifact
/// files), and restarts. Invariants, checked after every operation:
///
/// * the on-disk `.art` bytes never exceed `disk_capacity` (including
///   immediately after a restart over a dirty directory);
/// * the store's index holds exactly the `.art` files in the
///   directory (`stats().disk_entries` equals their count);
/// * a key-verified read returns either exactly the last value stored
///   under that key or a miss — never torn, stale-keyed, or foreign
///   bytes;
/// * a restart sweeps abandoned temp files.
mod disk_churn {
    use super::*;
    use mbqc_service::{ArtifactKey, ArtifactStore};
    use mbqc_util::Rng;
    use std::path::Path;

    const KEYS: u64 = 6;
    const CAPACITY: usize = 1200;

    fn key(n: u64) -> ArtifactKey {
        ArtifactKey::new(&[n as u8], &[n as u8, n as u8])
    }

    fn art_path(dir: &Path, n: u64) -> std::path::PathBuf {
        dir.join(format!("{}.art", key(n).fingerprint().to_hex()))
    }

    /// The sizes of the `.art` files in the directory: the ground
    /// truth the budget and the index are asserted against.
    fn dir_art_sizes(dir: &Path) -> Vec<usize> {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "art"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len() as usize)
                    .collect()
            })
            .unwrap_or_default()
    }

    fn dir_art_bytes(dir: &Path) -> usize {
        dir_art_sizes(dir).iter().sum()
    }

    fn has_tmp_files(dir: &Path) -> bool {
        std::fs::read_dir(dir).is_ok_and(|entries| {
            entries.filter_map(Result::ok).any(|e| {
                e.path()
                    .extension()
                    .and_then(|x| x.to_str())
                    .is_some_and(|x| x.starts_with("tmp"))
            })
        })
    }

    fn open(dir: &Path) -> ArtifactStore {
        ArtifactStore::new(mbqc_service::StoreConfig {
            // A one-byte memory tier forces every read through the
            // disk path under test.
            memory_capacity: 1,
            disk_dir: Some(dir.to_path_buf()),
            disk_capacity: Some(CAPACITY),
            ..mbqc_service::StoreConfig::default()
        })
        .expect("store opens")
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn churn_never_exceeds_budget_or_tears_a_read(
            seed in 0u64..100_000,
            ops in 20usize..70,
        ) {
            let dir = scratch_dir();
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = open(&dir);
            let mut rng = Rng::seed_from_u64(seed);
            // Last value successfully handed to `put` per key (`put`
            // is best-effort: the value may be evicted or rejected,
            // but a read must never return anything else).
            let mut last_put: Vec<Option<Vec<u8>>> = vec![None; KEYS as usize];
            // Keys whose resident artifact file we corrupted and the
            // store has not yet had a chance to detect. The *first*
            // read must detect (miss + `disk_corrupt` count + file
            // deleted), never decode the torn bytes.
            let mut corrupted = vec![false; KEYS as usize];
            for step in 0..ops {
                let k = rng.range(KEYS as usize) as u64;
                match rng.range(10) {
                    // Put (sizes vary; occasionally over-budget).
                    0..=3 => {
                        let oversized = rng.bernoulli(0.1);
                        let len = if oversized {
                            CAPACITY + 64
                        } else {
                            20 + rng.range(300)
                        };
                        let value = vec![(seed ^ step as u64) as u8; len];
                        store.put(&key(k), value.clone());
                        if !oversized {
                            last_put[k as usize] = Some(value);
                            // A fresh write replaces the corrupt file.
                            corrupted[k as usize] = false;
                        }
                        // An oversized put is rejected by admission
                        // control and the *previous* artifact stays
                        // readable (documented store semantics — same
                        // as the memory LRU), so the model keeps the
                        // old expectation.
                    }
                    // Get: exactly the last put or a miss — and a
                    // corrupted resident file is *always* detected:
                    // served as a miss, counted, and self-healed
                    // (deleted), never decoded.
                    4..=6 => {
                        // A corrupted file may have been *evicted* by
                        // the disk budget before this read — then the
                        // miss is an ordinary NotFound, not a
                        // detection.
                        let resident = art_path(&dir, k).exists();
                        let corrupt_before = store.stats().disk_corrupt;
                        let got = store.get(&key(k));
                        if corrupted[k as usize] {
                            prop_assert!(
                                got.is_none(),
                                "step {}: served bytes from a corrupted file",
                                step
                            );
                            if resident {
                                prop_assert!(
                                    store.stats().disk_corrupt > corrupt_before,
                                    "step {}: corruption not counted",
                                    step
                                );
                                prop_assert!(
                                    !art_path(&dir, k).exists(),
                                    "step {}: corrupt file not deleted",
                                    step
                                );
                            }
                            // Detected (or evicted) and removed: the
                            // key is now an ordinary miss.
                            corrupted[k as usize] = false;
                            last_put[k as usize] = None;
                        }
                        match (&got, &last_put[k as usize]) {
                            (None, _) => {}
                            (Some(g), Some(v)) => prop_assert_eq!(
                                &**g, v, "step {}: torn/stale read", step
                            ),
                            (Some(_), None) => prop_assert!(
                                false,
                                "step {}: read a value never put",
                                step
                            ),
                        }
                    }
                    // A cancelled/killed writer: stale temp file.
                    7 => {
                        let name = key(k).fingerprint().to_hex();
                        std::fs::write(
                            dir.join(format!("{name}.tmp{step}")),
                            vec![0xAB; 40 + rng.range(100)],
                        )
                        .ok();
                    }
                    // Corruption: flip a single bit, truncate, or
                    // garble the artifact file (never growing it —
                    // external growth is outside the store's budget
                    // contract).
                    8 => {
                        let path = art_path(&dir, k);
                        if let Ok(bytes) = std::fs::read(&path) {
                            let torn = match rng.range(3) {
                                // One bit anywhere — key framing,
                                // value bytes, or the checksum itself.
                                0 => {
                                    let mut b = bytes.clone();
                                    let bit = rng.range(b.len().max(1) * 8);
                                    b[bit / 8] ^= 1 << (bit % 8);
                                    b
                                }
                                1 => bytes[..rng.range(bytes.len().max(1))].to_vec(),
                                _ => b"garbage".to_vec(),
                            };
                            std::fs::write(&path, torn).ok();
                            corrupted[k as usize] = true;
                        }
                    }
                    // Restart: temp files swept, budget re-enforced.
                    _ => {
                        drop(store);
                        store = open(&dir);
                        prop_assert!(
                            !has_tmp_files(&dir),
                            "step {}: restart left temp files",
                            step
                        );
                    }
                }
                let sizes = dir_art_sizes(&dir);
                let bytes: usize = sizes.iter().sum();
                prop_assert!(
                    bytes <= CAPACITY,
                    "step {}: disk budget exceeded: {} > {}",
                    step,
                    bytes,
                    CAPACITY
                );
                prop_assert_eq!(
                    store.stats().disk_entries,
                    sizes.len(),
                    "step {}: index disagrees with the directory",
                    step
                );
            }
            // Final audit across a clean restart.
            drop(store);
            let store = open(&dir);
            prop_assert!(dir_art_bytes(&dir) <= CAPACITY);
            for k in 0..KEYS {
                if let Some(got) = store.get(&key(k)) {
                    prop_assert!(
                        !corrupted[k as usize],
                        "post-restart read decoded a corrupted file"
                    );
                    prop_assert_eq!(
                        Some(&*got),
                        last_put[k as usize].as_ref(),
                        "post-restart read disagrees with last put"
                    );
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// A starved interactive job overtakes queued batch jobs: with one
/// worker and a pile of batch work submitted first, the interactive
/// job still finishes before the *last* batch job (it never waits for
/// the whole backlog).
#[test]
fn interactive_overtakes_batch_backlog() {
    let config = DcMbqcConfig::new(hardware(2, 9));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    // Distinct patterns so nothing is answered from the cache. Built
    // before any submission: transpilation on this thread must not
    // widen the gap between the batch and interactive submits (the
    // lone worker could drain the whole backlog in that window).
    let batch_patterns = [
        pattern_for(0, 8),
        pattern_for(1, 8),
        pattern_for(2, 8),
        pattern_for(3, 8),
        pattern_for(0, 10),
        pattern_for(1, 10),
    ];
    let hot_pattern = pattern_for(0, 9);
    let batch_ids: Vec<_> = batch_patterns
        .iter()
        .map(|p| submit_at(&service, p.clone(), config.clone(), Priority::Batch))
        .collect();
    let hot = submit_at(&service, hot_pattern, config.clone(), Priority::Interactive);
    service.wait(hot).expect("interactive job compiles");
    // At the moment the interactive job finished, the batch backlog
    // must not be done: at least one batch job is still pending.
    // (`try_poll` *takes* finished results, so collect the leftovers
    // and `wait` only on those.)
    let mut still_pending = Vec::new();
    for id in batch_ids {
        match service.try_poll(id) {
            Some(result) => {
                result.expect("batch job compiles");
            }
            None => still_pending.push(id),
        }
    }
    assert!(
        !still_pending.is_empty(),
        "interactive job did not overtake the batch backlog"
    );
    for id in still_pending {
        service.wait(id).expect("batch job compiles");
    }
    let stats = service.stats();
    assert_eq!(stats.submitted_by_priority, [6, 0, 1]);
    assert_eq!(stats.completed, 7);
}

/// Degenerate patterns — empty, single-node, two nodes on one or more
/// QPUs than nodes — round-trip through the service twice: the cold
/// round runs the stage tasks on edge shapes, the warm round is served
/// their stored schedules (an empty schedule included). Both must
/// match the direct compilation; nothing may panic a worker.
#[test]
fn degenerate_patterns_round_trip_through_the_service() {
    use mbqc_graph::Graph;

    let empty = Pattern::from_parts(Graph::new(), vec![], vec![], vec![], vec![], vec![], vec![]);
    let single = {
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
    };
    let two = {
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
    };
    let cases: Vec<(&str, Pattern, usize)> = vec![
        ("empty", empty, 2),
        ("single", single.clone(), 2),
        ("single k=1", single, 1),
        ("two on 4 QPUs", two.clone(), 4),
        ("two k=1", two, 1),
    ];
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    for round in 0..2 {
        for (what, pattern, qpus) in &cases {
            let config = DcMbqcConfig::new(hardware(*qpus, 6));
            let direct = DcMbqcCompiler::new(config.clone())
                .compile_pattern(pattern)
                .unwrap_or_else(|e| panic!("{what}: direct: {e}"));
            let got = service
                .wait(service.submit(pattern.clone(), config))
                .unwrap_or_else(|e| panic!("round {round} {what}: {e}"));
            assert_eq!(got, direct, "round {round} {what}");
        }
    }
    let stats = service.stats();
    assert_eq!(stats.failed, 0);
    assert!(
        stats.hits_scheduled >= cases.len() as u64,
        "warm round must hit: {stats:?}"
    );
}

/// Error jobs surface the pipeline error (and are not cached as
/// artifacts).
#[test]
fn compile_errors_surface_per_job() {
    // Boundary reservation on a 2×2 grid leaves no usable sites.
    let hw = DistributedHardware::builder()
        .num_qpus(2)
        .grid_width(2)
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let config = DcMbqcConfig::new(hw).with_boundary_reservation(true);
    let pattern = transpile(&bench::qft(6));
    let service = CompileService::new(ServiceConfig::default()).unwrap();
    let id = service.submit(pattern, config);
    let err = service.wait(id).unwrap_err();
    assert!(matches!(err, mbqc_service::ServiceError::Compile(_)));
    let stats = service.stats();
    assert_eq!(stats.failed, 1);
    // Waiting again on a taken id is UnknownJob, as is a bogus id.
    assert!(matches!(
        service.wait(id),
        Err(mbqc_service::ServiceError::UnknownJob(_))
    ));
}

/// A storm of concurrent identical submits: every waiter gets bits
/// identical to the direct compilation, and each job is counted once —
/// answered by a schedule a twin stored before it, at submit or by its
/// planning task (`hits_scheduled`), or compiled from scratch
/// (`full_compiles`). No submit collapses into another.
#[test]
fn concurrent_identical_submits_are_bit_identical() {
    const STORM: usize = 12;
    let config = DcMbqcConfig::new(hardware(2, 8));
    let pattern = transpile(&bench::qft(8));
    let direct = DcMbqcCompiler::new(config.clone())
        .compile_pattern(&pattern)
        .expect("compiles");
    let service = CompileService::new(ServiceConfig {
        workers: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..STORM)
            .map(|_| {
                let service = &service;
                let pattern = pattern.clone();
                let config = config.clone();
                s.spawn(move || service.wait(service.submit(pattern, config)))
            })
            .collect();
        for h in handles {
            let got = h.join().expect("no panic").expect("compiles");
            assert_eq!(got, direct, "storm result diverged from direct compile");
        }
    });
    let stats = service.stats();
    assert_eq!(stats.completed, STORM as u64, "{stats:?}");
    assert_eq!(
        stats.hits_scheduled + stats.full_compiles,
        STORM as u64,
        "{stats:?}"
    );
    assert_eq!(stats.dedup_hits, 0, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(stats.pool_outstanding, 0, "{stats:?}");
}

/// `try_poll` returns `None` while queued/running and takes the result
/// exactly once after completion.
#[test]
fn try_poll_takes_result_once() {
    let config = DcMbqcConfig::new(hardware(2, 8));
    let pattern = transpile(&bench::qft(8));
    let service = CompileService::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let id = service.submit(pattern, config);
    let result = loop {
        match service.try_poll(id) {
            Some(r) => break r,
            None => std::thread::yield_now(),
        }
    };
    result.unwrap();
    assert!(matches!(
        service.try_poll(id),
        Some(Err(mbqc_service::ServiceError::UnknownJob(_)))
    ));
}
