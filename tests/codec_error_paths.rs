//! Error-path pins for every `from_bytes` codec in the workspace:
//! truncated buffers, corrupted length prefixes, wrong-stage bytes, and
//! fuzz-style random mutations of valid encodings must all return
//! [`CodecError`]s (or, for value-level mutations that happen to stay
//! structurally valid, a decoded value) — **never** a panic or a runaway
//! allocation.
//!
//! Covered impls: `Partition`, `Schedule`,
//! `LayerScheduleProblem`, `DistributedSchedule`, `DiGraph`, and the
//! `mbqc-net` request frames, `Stats` reply and worker-panic outcome.

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig, DistributedSchedule};
use mbqc_circuit::bench;
use mbqc_graph::DiGraph;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_partition::Partition;
use mbqc_pattern::{transpile::transpile, Pattern};
use mbqc_schedule::{LayerScheduleProblem, Schedule};
use mbqc_util::codec::CodecError;
use proptest::prelude::*;

/// One codec under test: a real valid encoding, a decode probe
/// (`true` = decoded successfully), and the byte offset of a length
/// prefix inside the encoding (every codec here has one in its fixed
/// header region).
struct Codec {
    name: &'static str,
    bytes: Vec<u8>,
    decodes: fn(&[u8]) -> bool,
    len_prefix_offset: usize,
}

/// The codecs are built from one real compilation, computed once per
/// test process (the fuzz property rebuilds nothing per case).
fn codecs() -> &'static [Codec] {
    static CODECS: std::sync::OnceLock<Vec<Codec>> = std::sync::OnceLock::new();
    CODECS.get_or_init(build_codecs)
}

fn build_codecs() -> Vec<Codec> {
    let qubits = 8;
    let pattern = transpile(&bench::qft(qubits));
    let hw = DistributedHardware::builder()
        .num_qpus(3)
        .grid_width(bench::grid_size_for(qubits))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let dist = DcMbqcCompiler::new(DcMbqcConfig::new(hw))
        .compile_pattern(&pattern)
        .expect("compiles");

    let deps = pattern.dependency_graph().real_time().clone();

    vec![
        Codec {
            name: "Partition",
            bytes: dist.partition().to_bytes(),
            decodes: |b| Partition::from_bytes(b).is_ok(),
            // Layout: k (u64), then the assignment length prefix.
            len_prefix_offset: 8,
        },
        Codec {
            name: "Schedule",
            bytes: dist.schedule().to_bytes(),
            decodes: |b| Schedule::from_bytes(b).is_ok(),
            // Layout: the per-QPU list count leads.
            len_prefix_offset: 0,
        },
        Codec {
            name: "LayerScheduleProblem",
            bytes: dist.problem().to_bytes(),
            decodes: |b| LayerScheduleProblem::from_bytes(b).is_ok(),
            // Layout: num_qpus (u64), then the main_counts length prefix.
            len_prefix_offset: 8,
        },
        Codec {
            name: "DistributedSchedule",
            bytes: dist.to_bytes(),
            decodes: |b| DistributedSchedule::from_bytes(b).is_ok(),
            // Layout: three cost u64s, then the schedule byte-string
            // length prefix.
            len_prefix_offset: 24,
        },
        Codec {
            name: "DiGraph",
            bytes: deps.to_bytes(),
            decodes: |b| DiGraph::from_bytes(b).is_ok(),
            // Layout: the node count leads.
            len_prefix_offset: 0,
        },
    ]
}

/// Every strict prefix of a valid encoding must fail to decode — a
/// truncated artifact can never masquerade as a shorter valid one.
#[test]
fn truncations_are_errors_for_every_codec() {
    for codec in codecs() {
        let bytes = &codec.bytes;
        assert!((codec.decodes)(bytes), "{}: valid encoding", codec.name);
        // Every cut point for short encodings; dense sampling plus the
        // boundary region for long ones.
        let step = (bytes.len() / 97).max(1);
        let cuts = (0..bytes.len())
            .step_by(step)
            .chain(bytes.len().saturating_sub(9)..bytes.len());
        for cut in cuts {
            assert!(
                !(codec.decodes)(&bytes[..cut]),
                "{}: truncation to {} of {} decoded",
                codec.name,
                cut,
                bytes.len()
            );
        }
    }
}

/// A corrupted length prefix (`u64::MAX`) must be rejected — without a
/// huge allocation and without a panic.
#[test]
fn corrupted_length_prefixes_are_errors() {
    for codec in codecs() {
        let mut bytes = codec.bytes.clone();
        let o = codec.len_prefix_offset;
        bytes[o..o + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(
            !(codec.decodes)(&bytes),
            "{}: corrupt length prefix decoded",
            codec.name
        );
        // A plausible-but-wrong length (off by one up) must fail too.
        let mut bytes = codec.bytes.clone();
        let len = u64::from_le_bytes(bytes[o..o + 8].try_into().unwrap());
        bytes[o..o + 8].copy_from_slice(&(len + 1).to_le_bytes());
        assert!(
            !(codec.decodes)(&bytes),
            "{}: off-by-one length prefix decoded",
            codec.name
        );
    }
}

/// Feeding one codec's bytes to another codec's decoder must return an
/// error, not a bogus value or a panic.
#[test]
fn wrong_stage_bytes_are_errors() {
    let all = codecs();
    for (i, codec) in all.iter().enumerate() {
        for (j, other) in all.iter().enumerate() {
            if i == j {
                continue;
            }
            assert!(
                !(codec.decodes)(&other.bytes),
                "{} decoder accepted {} bytes",
                codec.name,
                other.name
            );
        }
    }
}

/// The one difference between the two `DistributedSchedule` decoders:
/// bytes that stay structurally valid but carry a cost that disagrees
/// with the schedule are rejected by the validating `from_bytes` and
/// accepted, as stored, by `from_bytes_trusted`.
#[test]
fn tampered_cost_separates_the_two_schedule_decoders() {
    let valid = &codecs()
        .iter()
        .find(|c| c.name == "DistributedSchedule")
        .expect("codec present")
        .bytes;
    let fresh = DistributedSchedule::from_bytes(valid).expect("valid encoding");
    // `makespan` is the third cost word, bytes 16..24.
    let mut tampered = valid.clone();
    let makespan = u64::from_le_bytes(tampered[16..24].try_into().unwrap());
    tampered[16..24].copy_from_slice(&(makespan + 1).to_le_bytes());
    assert_eq!(
        DistributedSchedule::from_bytes(&tampered).unwrap_err(),
        CodecError::Invalid("stored cost disagrees with schedule")
    );
    let trusted = DistributedSchedule::from_bytes_trusted(&tampered).expect("structurally valid");
    assert_eq!(trusted.execution_time(), fresh.execution_time() + 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Fuzz: random byte mutations of valid encodings never panic.
    /// (A mutation that only shifts a *value* may still decode; the
    /// contract under test is errors-not-panics.)
    #[test]
    fn random_mutations_never_panic(
        which in 0usize..6,
        positions in prop::collection::vec(0usize..1_000_000, 1..8),
        values in prop::collection::vec(0u8..=255, 8..9),
        truncate_to in 0usize..1_000_000,
    ) {
        let all = codecs();
        let codec = &all[which % all.len()];
        let mut bytes = codec.bytes.clone();
        for (k, &pos) in positions.iter().enumerate() {
            let i = pos % bytes.len();
            bytes[i] = values[k % values.len()];
        }
        // Decode the mutated buffer and a truncation of it: both must
        // return (Ok or Err) without panicking.
        let _ = (codec.decodes)(&bytes);
        let cut = truncate_to % (bytes.len() + 1);
        let _ = (codec.decodes)(&bytes[..cut]);
    }
}

// ---------------------------------------------------------------------------
// Wire frames (mbqc-net): the same errors-not-panics contract at the
// network boundary — truncation, corrupted length prefix, bad
// checksum, unknown verb, and oversized frames must all surface as
// typed errors, never a panic, a hang, or a runaway allocation.
// ---------------------------------------------------------------------------

use mbqc_net::{Request, Response, WireJobOptions, WireOutcome, KIND_REQUEST};
use mbqc_service::{CompileService, JobOptions, ServiceConfig, ServiceStats, StageKind};
use mbqc_util::frame::{encode_frame, read_frame, FrameError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD};

/// A realistic request frame: a full `Submit` with a real pattern and
/// hardware config (the largest, most deeply nested payload the
/// protocol carries).
fn submit_frame() -> &'static [u8] {
    static FRAME: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    FRAME.get_or_init(|| {
        let qubits = 8;
        let pattern = transpile(&bench::qft(qubits));
        let hw = DistributedHardware::builder()
            .num_qpus(3)
            .grid_width(bench::grid_size_for(qubits))
            .resource_state(ResourceStateKind::FIVE_STAR)
            .kmax(4)
            .build();
        let request = Request::Submit {
            pattern,
            config: DcMbqcConfig::new(hw),
            options: WireJobOptions::default(),
        };
        encode_frame(KIND_REQUEST, &request.to_bytes())
    })
}

/// Decodes a request payload the way the server does: `Request::parse`,
/// then `Pattern::from_bytes` of a submit verb's pattern bytes (the
/// service decodes them when the pattern is not memoized).
fn server_decode(payload: &[u8]) -> Result<(), CodecError> {
    match Request::parse(payload)? {
        Request::Submit { pattern, .. } | Request::SubmitObserved { pattern, .. } => {
            Pattern::from_bytes(pattern).map(drop)
        }
        _ => Ok(()),
    }
}

#[test]
fn frame_truncation_is_typed_at_every_cut() {
    let wire = submit_frame();
    let step = (wire.len() / 97).max(1);
    let cuts = (0..wire.len())
        .step_by(step)
        .chain(wire.len().saturating_sub(FRAME_HEADER_LEN + 2)..wire.len());
    for cut in cuts {
        let mut r = &wire[..cut];
        assert!(
            matches!(
                read_frame(&mut r, MAX_FRAME_PAYLOAD),
                Err(FrameError::Truncated)
            ),
            "cut at {cut} of {} must be Truncated",
            wire.len()
        );
    }
}

#[test]
fn corrupted_length_prefix_is_typed() {
    // Length prefix lives at header bytes 5..9 (LE u32).
    let mut wire = submit_frame().to_vec();

    // Claim more than the ceiling: rejected before any allocation.
    wire[5..9].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
    assert!(matches!(
        read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
        Err(FrameError::Oversized { len, max })
            if len == MAX_FRAME_PAYLOAD + 1 && max == MAX_FRAME_PAYLOAD
    ));

    // Claim u32::MAX: still a typed rejection, no 4 GiB allocation.
    wire[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
        Err(FrameError::Oversized { .. })
    ));

    // Claim slightly less than the real payload: the bytes read no
    // longer hash to the header checksum.
    let real_len = (submit_frame().len() - FRAME_HEADER_LEN) as u32;
    wire[5..9].copy_from_slice(&(real_len - 1).to_le_bytes());
    assert!(matches!(
        read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
        Err(FrameError::BadChecksum { .. })
    ));

    // Claim slightly more: the stream ends mid-payload.
    wire[5..9].copy_from_slice(&(real_len + 1).to_le_bytes());
    assert!(matches!(
        read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
        Err(FrameError::Truncated)
    ));
}

#[test]
fn bad_magic_and_bad_checksum_are_typed() {
    let mut wire = submit_frame().to_vec();
    wire[0] ^= 0xFF;
    assert!(matches!(
        read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
        Err(FrameError::BadMagic(_))
    ));

    let mut wire = submit_frame().to_vec();
    let last = wire.len() - 1; // corrupt payload, not header
    wire[last] ^= 0x01;
    assert!(matches!(
        read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD),
        Err(FrameError::BadChecksum { .. })
    ));
}

#[test]
fn unknown_verbs_and_tags_are_typed() {
    // A perfectly framed payload with a verb the protocol doesn't
    // know: the frame reads fine, the request decode is a typed error.
    for verb in [7u8, 42, 255] {
        let wire = encode_frame(KIND_REQUEST, &[verb]);
        let frame = read_frame(&mut wire.as_slice(), MAX_FRAME_PAYLOAD).expect("framing intact");
        assert!(
            server_decode(&frame.payload).is_err(),
            "verb {verb} must not decode"
        );
    }
    for tag in [8u8, 99, 255] {
        assert!(Response::from_bytes(&[tag]).is_err(), "tag {tag}");
    }
}

/// A worker-panic outcome always names its stage: the encoding keeps a
/// stage-present flag, and a frame with the flag clear (the layout an
/// unattributed panic once had) is a typed error, not an outcome.
#[test]
fn internal_outcome_without_a_stage_is_rejected() {
    for stage in StageKind::ALL {
        let outcome = Response::Outcome(WireOutcome::Internal {
            stage,
            message: "boom".into(),
        });
        let bytes = outcome.to_bytes();
        // Reply tag `Outcome` (3), status `Internal` (4), flag set.
        assert_eq!(&bytes[..3], &[3, 4, 1], "{stage:?}");
        assert_eq!(Response::from_bytes(&bytes).expect("round trip"), outcome);

        // Flag cleared, stage tag dropped: the old unattributed layout.
        let mut unattributed = bytes[..2].to_vec();
        unattributed.push(0);
        unattributed.extend_from_slice(&bytes[4..]);
        assert!(
            Response::from_bytes(&unattributed).is_err(),
            "{stage:?}: unattributed panic decoded"
        );
        // Flag cleared, everything else intact.
        let mut flag_cleared = bytes.clone();
        flag_cleared[2] = 0;
        assert!(
            Response::from_bytes(&flag_cleared).is_err(),
            "{stage:?}: cleared stage flag decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Fuzz the network boundary: random byte mutations (and
    /// truncations) of a real request frame never panic — every
    /// outcome is a typed `FrameError`, a typed `CodecError`, or a
    /// (rare) still-valid decode.
    #[test]
    fn random_frame_mutations_never_panic(
        positions in prop::collection::vec(0usize..1_000_000, 1..8),
        values in prop::collection::vec(0u8..=255, 8..9),
        truncate_to in 0usize..1_000_000,
    ) {
        let mut wire = submit_frame().to_vec();
        for (k, &pos) in positions.iter().enumerate() {
            let i = pos % wire.len();
            wire[i] = values[k % values.len()];
        }
        let cut = truncate_to % (wire.len() + 1);
        for bytes in [&wire[..], &wire[..cut]] {
            if let Ok(frame) = read_frame(&mut &bytes[..], MAX_FRAME_PAYLOAD) {
                // Framing survived the mutation; the payload decode
                // must still be panic-free.
                let _ = server_decode(&frame.payload);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The `Stats` reply: a whole `ServiceStats` snapshot (store counters and
// tenant rows included) decoded off the wire — every truncation and
// every mutation is an error or a value, never a panic.
// ---------------------------------------------------------------------------

/// A `Stats` reply carrying a real service's snapshot after two jobs
/// from two tenants: non-zero counters, latency summaries, store
/// counters, and two tenant rows at the tail of the encoding.
fn stats_reply() -> &'static (ServiceStats, Vec<u8>) {
    static REPLY: std::sync::OnceLock<(ServiceStats, Vec<u8>)> = std::sync::OnceLock::new();
    REPLY.get_or_init(|| {
        let hw = DistributedHardware::builder()
            .num_qpus(2)
            .grid_width(bench::grid_size_for(4))
            .resource_state(ResourceStateKind::FIVE_STAR)
            .kmax(4)
            .build();
        let service = CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts");
        for tenant in [1, 4] {
            let options = JobOptions {
                tenant,
                ..JobOptions::default()
            };
            let h = service.submit_with(transpile(&bench::qft(4)), DcMbqcConfig::new(hw), options);
            service.wait(h.id()).expect("compiles");
        }
        let stats = service.stats();
        assert_eq!(stats.tenants.len(), 2, "{stats:?}");
        let bytes = Response::Stats(Box::new(stats.clone())).to_bytes();
        (stats, bytes)
    })
}

/// Tenant rows are three `u64`s each and close the encoding.
const TENANT_ROW: usize = 24;

#[test]
fn stats_reply_round_trips_and_every_truncation_is_an_error() {
    let (stats, bytes) = stats_reply();
    match Response::from_bytes(bytes) {
        Ok(Response::Stats(back)) => assert_eq!(&*back, stats),
        other => panic!("stats reply did not round-trip: {other:?}"),
    }
    for cut in 0..bytes.len() {
        assert!(
            Response::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} of {} decoded",
            bytes.len()
        );
    }
}

#[test]
fn stats_reply_rejects_corrupt_tenant_rows() {
    let (_, bytes) = stats_reply();
    let rows = bytes.len() - 2 * TENANT_ROW;
    // Out-of-order rows: swap the two tenant ids.
    let mut swapped = bytes.clone();
    swapped[rows..rows + 8].copy_from_slice(&bytes[rows + TENANT_ROW..rows + TENANT_ROW + 8]);
    swapped[rows + TENANT_ROW..rows + TENANT_ROW + 8].copy_from_slice(&bytes[rows..rows + 8]);
    assert!(
        Response::from_bytes(&swapped).is_err(),
        "unsorted rows decoded"
    );
    // A duplicated tenant id is not strictly sorted either.
    let mut duplicated = bytes.clone();
    duplicated[rows + TENANT_ROW..rows + TENANT_ROW + 8].copy_from_slice(&bytes[rows..rows + 8]);
    assert!(
        Response::from_bytes(&duplicated).is_err(),
        "duplicate rows decoded"
    );
    // A tenant id past `u32::MAX`.
    let mut wide = bytes.clone();
    wide[rows..rows + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(
        Response::from_bytes(&wide).is_err(),
        "oversized tenant id decoded"
    );
    // The row-count prefix: huge (no allocation) and off by one.
    let count = rows - 8;
    for claimed in [u64::MAX, 1, 3] {
        let mut corrupt = bytes.clone();
        corrupt[count..rows].copy_from_slice(&claimed.to_le_bytes());
        assert!(
            Response::from_bytes(&corrupt).is_err(),
            "row count {claimed} decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Fuzz the `Stats` reply: random byte mutations, and truncations
    /// of them, decode to an error or a value — never a panic.
    #[test]
    fn random_stats_reply_mutations_never_panic(
        positions in prop::collection::vec(0usize..1_000_000, 1..8),
        values in prop::collection::vec(0u8..=255, 8..9),
        truncate_to in 0usize..1_000_000,
    ) {
        let mut bytes = stats_reply().1.clone();
        for (k, &pos) in positions.iter().enumerate() {
            let i = pos % bytes.len();
            bytes[i] = values[k % values.len()];
        }
        let cut = truncate_to % (bytes.len() + 1);
        let _ = Response::from_bytes(&bytes);
        let _ = Response::from_bytes(&bytes[..cut]);
    }
}
