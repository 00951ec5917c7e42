//! A submit whose frame is intact but whose pattern bytes do not
//! decode gets a typed error (`Response::Error`, which `Client`
//! surfaces as `ClientError::Server`), on a connection that stays
//! usable. The test speaks raw frames, since `Client` only sends
//! patterns that encode validly. The server keys a repeat pattern
//! from its wire bytes without decoding them, so this also pins that
//! bytes which fail to decode are never remembered — not even when
//! they have the length of a resident pattern's bytes and differ from
//! them in one word.

use std::net::TcpStream;
use std::sync::Arc;

use dc_mbqc::{DcMbqcCompiler, DcMbqcConfig};
use mbqc_circuit::bench;
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{Request, Response, Server, WireJobOptions, WireOutcome, KIND_REPLY, KIND_REQUEST};
use mbqc_pattern::transpile::transpile;
use mbqc_service::{CompileService, ServiceConfig};
use mbqc_util::codec::Decoder;
use mbqc_util::frame::{read_frame, write_frame, MAX_FRAME_PAYLOAD};

/// One request/reply exchange on a raw connection.
fn call(stream: &mut TcpStream, payload: &[u8]) -> Response {
    write_frame(stream, KIND_REQUEST, payload).expect("write request");
    let frame = read_frame(stream, MAX_FRAME_PAYLOAD).expect("read reply");
    assert_eq!(frame.kind, KIND_REPLY);
    Response::from_bytes(&frame.payload).expect("reply decodes")
}

/// Submits `payload`, waits, and returns the served schedule's bytes.
fn served(stream: &mut TcpStream, payload: &[u8]) -> Vec<u8> {
    let id = match call(stream, payload) {
        Response::Submitted { id } => id,
        other => panic!("expected Submitted, got {other:?}"),
    };
    let wait = Request::Wait {
        id,
        timeout_ns: None,
    };
    match call(stream, &wait.to_bytes()) {
        Response::Outcome(WireOutcome::Ok(schedule)) => schedule.to_bytes(),
        other => panic!("job {id} should compile, got {other:?}"),
    }
}

#[test]
fn undecodable_pattern_bytes_get_a_typed_error_and_are_not_remembered() {
    let hw = DistributedHardware::builder()
        .num_qpus(2)
        .grid_width(bench::grid_size_for(6))
        .resource_state(ResourceStateKind::FIVE_STAR)
        .kmax(4)
        .build();
    let config = DcMbqcConfig::new(hw);
    let pattern = transpile(&bench::qft(6));
    let expected = DcMbqcCompiler::new(config.clone())
        .compile_pattern(&pattern)
        .expect("compiles")
        .to_bytes();
    let service = Arc::new(
        CompileService::new(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .expect("service starts"),
    );
    let server = Server::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");

    let valid = Request::Submit {
        pattern: pattern.clone(),
        config,
        options: WireJobOptions::default(),
    }
    .to_bytes();
    // A cold compile, then a resident hit: the server now knows these
    // pattern bytes.
    for _ in 0..2 {
        assert_eq!(served(&mut stream, &valid), expected);
    }

    // The same frame with one wire successor out of range. In the
    // pattern's bytes the successor column follows the framed graph
    // blob, the angles (8 bytes a node) and the measured flags (1).
    let start = match Request::parse(&valid).expect("parses") {
        Request::Submit { pattern, .. } => pattern.as_ptr() as usize - valid.as_ptr() as usize,
        other => panic!("expected a Submit, got {other:?}"),
    };
    let wire = pattern.to_bytes();
    let mut d = Decoder::new(&wire);
    d.bytes().expect("graph blob");
    let n = pattern.node_count();
    let succ = start + (wire.len() - d.remaining()) + 9 * n;
    let mut malformed = valid.clone();
    malformed[succ..succ + 8].copy_from_slice(&(n as u64).to_le_bytes());
    assert_eq!(malformed.len(), valid.len());

    let before = service.stats();
    let mut errors = Vec::new();
    for _ in 0..2 {
        match call(&mut stream, &malformed) {
            Response::Error { message } => {
                assert!(
                    message.starts_with("malformed request: "),
                    "unexpected error text: {message}"
                );
                assert!(message.contains("wire successor out of range"), "{message}");
                errors.push(message);
            }
            other => panic!("malformed submit must be a typed error, got {other:?}"),
        }
    }
    assert_eq!(errors[0], errors[1], "a resend must fail the same way");
    let after = service.stats();
    assert_eq!(after.submitted, before.submitted, "nothing was submitted");
    assert_eq!(after.hits_scheduled, before.hits_scheduled);

    // The connection is still usable, and a valid submit is served
    // bit-identically to the in-process compile.
    assert_eq!(served(&mut stream, &valid), expected);
}
