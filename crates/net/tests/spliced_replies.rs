//! Spliced `Poll`/`Wait` replies, read off the socket as raw frames:
//! every one equals `encode_frame(KIND_REPLY,
//! &Response::Outcome(..).to_bytes())` of the schedule it carries,
//! byte for byte. The server writes a stored schedule with a frame
//! checksum cached once per stored buffer, so the cases are the ways a
//! buffer is reused or replaced: the same schedule served again, its
//! key overwritten on disk and promoted into memory, eviction and
//! recompile, and two connections reading the same buffer at once.

use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig, DistributedSchedule};
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{Request, Response, Server, WireJobOptions, WireOutcome, KIND_REPLY, KIND_REQUEST};
use mbqc_pattern::transpile::transpile;
use mbqc_pattern::Pattern;
use mbqc_service::{ArtifactKey, ArtifactStore, CompileService, ServiceConfig, StoreConfig};
use mbqc_util::frame::{encode_frame, write_frame, FRAME_HEADER_LEN};
use std::io::Read;

fn config(seed: u64) -> DcMbqcConfig {
    let hw = DistributedHardware::builder()
        .num_qpus(2)
        .grid_width(bench::grid_size_for(6))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    DcMbqcConfig::new(hw).with_seed(seed)
}

fn compile(pattern: &Pattern, config: &DcMbqcConfig) -> DistributedSchedule {
    DcMbqcCompiler::new(config.clone())
        .compile_pattern(pattern)
        .expect("compiles")
}

/// The frame a reply carrying `schedule` must be.
fn outcome_frame(schedule: &DistributedSchedule) -> Vec<u8> {
    let reply = Response::Outcome(WireOutcome::Ok(Box::new(schedule.clone())));
    encode_frame(KIND_REPLY, &reply.to_bytes())
}

/// A client that speaks raw frames, so replies are seen as sent.
struct Raw(TcpStream);

impl Raw {
    fn connect(addr: SocketAddr) -> Self {
        Self(TcpStream::connect(addr).expect("connect"))
    }

    /// Sends `req` and returns the reply frame, header included.
    fn call(&mut self, req: &Request) -> Vec<u8> {
        write_frame(&mut self.0, KIND_REQUEST, &req.to_bytes()).expect("request");
        let mut frame = vec![0u8; FRAME_HEADER_LEN];
        self.0.read_exact(&mut frame).expect("reply header");
        let len = u32::from_le_bytes(frame[5..9].try_into().unwrap()) as usize;
        frame.resize(FRAME_HEADER_LEN + len, 0);
        self.0
            .read_exact(&mut frame[FRAME_HEADER_LEN..])
            .expect("reply payload");
        frame
    }

    fn submit(&mut self, pattern: &Pattern, config: &DcMbqcConfig) -> u64 {
        let frame = self.call(&Request::Submit {
            pattern: pattern.clone(),
            config: config.clone(),
            options: WireJobOptions::default(),
        });
        match Response::from_bytes(&frame[FRAME_HEADER_LEN..]) {
            Ok(Response::Submitted { id }) => id,
            other => panic!("submit refused: {other:?}"),
        }
    }

    /// Submits, then takes the result with `Wait` (or `Poll` when
    /// `poll`, for a job answered at submit); returns the reply frame.
    fn serve(&mut self, pattern: &Pattern, config: &DcMbqcConfig, poll: bool) -> Vec<u8> {
        let id = self.submit(pattern, config);
        if poll {
            self.call(&Request::Poll { id })
        } else {
            self.call(&Request::Wait {
                id,
                timeout_ns: None,
            })
        }
    }
}

fn service(store: StoreConfig) -> Arc<CompileService> {
    Arc::new(
        CompileService::new(ServiceConfig {
            workers: 1,
            store,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    )
}

/// Memory-tier bytes one compile of `pattern` under `config` leaves
/// behind, measured on a throwaway service.
fn job_bytes(pattern: &Pattern, config: &DcMbqcConfig) -> usize {
    let probe = service(StoreConfig::default());
    let id = probe.submit(pattern.clone(), config.clone());
    probe.wait(id).expect("compiles");
    probe.stats().store.bytes
}

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mbqc-net-spliced-{tag}-{}", std::process::id()))
}

/// The cold compile's reply and every resident hit's after it carry
/// the same frame, by `Wait` and by `Poll`.
#[test]
fn the_same_schedule_is_served_byte_identically() {
    let (pattern, config) = (transpile(&bench::qft(6)), config(7));
    let want = outcome_frame(&compile(&pattern, &config));
    let service = service(StoreConfig::default());
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut raw = Raw::connect(server.local_addr());
    for round in 0..4 {
        assert_eq!(
            raw.serve(&pattern, &config, round % 2 == 1),
            want,
            "round {round}"
        );
    }
    let stats = service.stats();
    assert_eq!((stats.full_compiles, stats.hits_scheduled), (1, 3));
}

/// A schedule whose resident copy was evicted is compiled again into
/// a new buffer; its replies are the same frame.
#[test]
fn a_recompiled_schedule_is_served_byte_identically() {
    let (pattern, config) = (transpile(&bench::qft(6)), config(7));
    let want = outcome_frame(&compile(&pattern, &config));
    // Room for about two jobs' artifacts: three other jobs evict all of
    // the first one's.
    let service = service(StoreConfig {
        memory_capacity: 5 * job_bytes(&pattern, &config) / 2,
        ..StoreConfig::default()
    });
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut raw = Raw::connect(server.local_addr());
    assert_eq!(raw.serve(&pattern, &config, false), want);
    assert_eq!(raw.serve(&pattern, &config, true), want);
    for seed in 100..103 {
        raw.serve(&pattern, &config.clone().with_seed(seed), false);
    }
    assert!(service.stats().store.evictions > 0);
    let compiles = service.stats().full_compiles;
    assert_eq!(raw.serve(&pattern, &config, false), want, "recompiled");
    assert_eq!(service.stats().full_compiles, compiles + 1);
    assert_eq!(raw.serve(&pattern, &config, true), want, "served again");
}

/// A key overwritten on disk with another valid schedule (the same
/// pattern compiled under another seed, written by a second store on
/// the same directory) is promoted into memory as a new buffer once the
/// resident copy is evicted: its replies carry the new schedule, with a
/// checksum of their own, not the old buffer's.
#[test]
fn an_overwritten_and_promoted_schedule_is_served_byte_identically() {
    let (pattern, config) = (transpile(&bench::qft(6)), config(7));
    let first = compile(&pattern, &config);
    let other = compile(&pattern, &config.clone().with_seed(8));
    assert_ne!(first.to_bytes(), other.to_bytes(), "the seeds disagree");
    let dir = scratch_dir("promote");
    let _ = std::fs::remove_dir_all(&dir);
    let store = StoreConfig {
        memory_capacity: 5 * job_bytes(&pattern, &config) / 2,
        disk_dir: Some(dir.clone()),
        ..StoreConfig::default()
    };
    let service = service(store.clone());
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut raw = Raw::connect(server.local_addr());
    assert_eq!(raw.serve(&pattern, &config, false), outcome_frame(&first));
    assert_eq!(raw.serve(&pattern, &config, true), outcome_frame(&first));

    let key = ArtifactKey::new(&config.fingerprint_bytes(), &pattern.content_bytes());
    ArtifactStore::new(store)
        .expect("second store opens")
        .put(&key, other.to_bytes());
    for seed in 100..103 {
        raw.serve(&pattern, &config.clone().with_seed(seed), false);
    }
    let disk_hits = service.stats().store.disk_hits;
    assert_eq!(
        raw.serve(&pattern, &config, false),
        outcome_frame(&other),
        "promoted"
    );
    assert_eq!(service.stats().store.disk_hits, disk_hits + 1);
    assert_eq!(
        raw.serve(&pattern, &config, true),
        outcome_frame(&other),
        "resident after promotion"
    );
    drop(server);
    std::fs::remove_dir_all(&dir).expect("clean up");
}

/// Two connections served the same stored buffer at once both read
/// the frame of its schedule.
#[test]
fn two_connections_read_one_buffer_at_once() {
    let (pattern, config) = (transpile(&bench::qft(6)), config(7));
    let want = outcome_frame(&compile(&pattern, &config));
    let service = service(StoreConfig::default());
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    assert_eq!(Raw::connect(addr).serve(&pattern, &config, false), want);
    let rounds = 20;
    thread::scope(|s| {
        for c in 0..2 {
            let (pattern, config, want) = (&pattern, &config, &want);
            s.spawn(move || {
                let mut raw = Raw::connect(addr);
                for round in 0..rounds {
                    let frame = raw.serve(pattern, config, (round + c) % 2 == 0);
                    assert_eq!(&frame, want, "connection {c} round {round}");
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!((stats.full_compiles, stats.hits_scheduled), (1, 2 * rounds));
}
