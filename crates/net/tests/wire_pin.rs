//! The client's submit frames, captured off the socket, equal
//! `Request::to_bytes` of the same request byte for byte — for
//! `Submit` and `SubmitObserved`, on the served hot set's shapes
//! ({QFT, QAOA, VQE, RCA} × {16, 36}). The client encodes straight
//! from the caller's pattern and configuration, without building a
//! `Request`; this pins that the frames did not change.

use std::net::TcpListener;
use std::thread;
use std::time::Duration;

use dc_mbqc::DcMbqcConfig;
use mbqc_circuit::bench::{self, BenchmarkKind};
use mbqc_hardware::{DistributedHardware, ResourceStateKind};
use mbqc_net::{
    Client, Request, Response, WireJobOptions, KIND_REPLY, KIND_REQUEST, KIND_STREAM_END,
};
use mbqc_pattern::transpile::transpile;
use mbqc_pattern::Pattern;
use mbqc_service::{Priority, RetryPolicy};
use mbqc_util::frame::{
    encode_frame, read_frame, write_frame, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};

fn hot_set() -> Vec<(Pattern, DcMbqcConfig)> {
    use BenchmarkKind::{Qaoa, Qft, Rca, Vqe};
    [Qft, Qaoa, Vqe, Rca]
        .into_iter()
        .flat_map(|kind| {
            [16, 36].map(|n| {
                let hw = DistributedHardware::builder()
                    .num_qpus(4)
                    .grid_width(bench::grid_size_for(n))
                    .resource_state(ResourceStateKind::FIVE_STAR)
                    .kmax(4)
                    .build();
                let config = DcMbqcConfig::new(hw).with_seed(2026).with_alpha_max(1.5);
                (transpile(&kind.generate(n, 2026)), config)
            })
        })
        .collect()
}

#[test]
fn client_submit_frames_equal_request_to_bytes() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let jobs = hot_set();
    let requests = 2 * jobs.len();
    // A stand-in server: records each request payload and answers
    // `Submitted`, closing an observed submit's stream at once.
    let capture = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        (0..requests)
            .map(|i| {
                let frame = read_frame(&mut stream, MAX_FRAME_PAYLOAD).expect("request frame");
                assert_eq!(frame.kind, KIND_REQUEST);
                let reply = Response::Submitted { id: i as u64 }.to_bytes();
                write_frame(&mut stream, KIND_REPLY, &reply).expect("reply");
                if i % 2 == 1 {
                    write_frame(&mut stream, KIND_STREAM_END, &[]).expect("stream end");
                }
                frame.payload
            })
            .collect::<Vec<_>>()
    });

    let options = WireJobOptions {
        priority: Priority::Interactive,
        deadline_ns: Some(5_000_000_000),
        tenant: 3,
        retry: RetryPolicy::attempts(2).with_backoff(Duration::from_millis(7)),
    };
    let mut client = Client::connect(addr).expect("connect");
    for (pattern, config) in &jobs {
        client.submit(pattern, config, options).expect("submitted");
        let events = client
            .submit_observed(pattern, config, options)
            .expect("submitted");
        client = events.finish().expect("stream ends").1;
    }
    let payloads = capture.join().expect("capture thread");

    for (i, (pattern, config)) in jobs.into_iter().enumerate() {
        let (submit, observed) = (&payloads[2 * i], &payloads[2 * i + 1]);
        // The layout: verb, then the pattern's and the configuration's
        // own encodings, then the options.
        let wire = pattern.to_bytes();
        for (payload, verb) in [(submit, 0), (observed, 1)] {
            assert_eq!(payload[0], verb, "job {i}");
            let (bytes, got_config, got_options) = match Request::parse(payload) {
                Ok(Request::Submit {
                    pattern,
                    config,
                    options,
                })
                | Ok(Request::SubmitObserved {
                    pattern,
                    config,
                    options,
                }) => (pattern, config, options),
                other => panic!("job {i}: expected a submit, got {other:?}"),
            };
            assert_eq!(bytes, &wire[..], "job {i}");
            assert_eq!(got_config.to_bytes(), config.to_bytes(), "job {i}");
            assert_eq!(got_options, options, "job {i}");
        }
        let want = Request::Submit {
            pattern: pattern.clone(),
            config: config.clone(),
            options,
        };
        assert_eq!(submit, &want.to_bytes(), "job {i}: Submit frame differs");
        let want = Request::SubmitObserved {
            pattern,
            config,
            options,
        };
        assert_eq!(
            observed,
            &want.to_bytes(),
            "job {i}: SubmitObserved frame differs"
        );
    }
}

/// Reads one frame off `stream` as it was sent, header included.
fn read_raw_frame(stream: &mut std::net::TcpStream) -> Vec<u8> {
    use std::io::Read;
    let mut frame = vec![0u8; FRAME_HEADER_LEN];
    stream.read_exact(&mut frame).expect("frame header");
    let len = u32::from_le_bytes(frame[5..9].try_into().unwrap()) as usize;
    frame.resize(FRAME_HEADER_LEN + len, 0);
    stream
        .read_exact(&mut frame[FRAME_HEADER_LEN..])
        .expect("frame payload");
    frame
}

/// A pattern caches its wire bytes on first use and shares them with
/// its clones: repeat submits of one value, of a clone made before the
/// first submit and of one made after it all send the first submit's
/// frame byte for byte, which is the frame of `Request::to_bytes` of a
/// separately built equal pattern.
#[test]
fn repeat_submits_send_the_first_frame() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (pattern, config) = hot_set().swap_remove(3);
    let early_clone = pattern.clone();
    let submits = 4;
    let capture = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        (0..submits)
            .map(|i| {
                let frame = read_raw_frame(&mut stream);
                let reply = Response::Submitted { id: i as u64 }.to_bytes();
                write_frame(&mut stream, KIND_REPLY, &reply).expect("reply");
                frame
            })
            .collect::<Vec<_>>()
    });

    let options = WireJobOptions::default();
    let mut client = Client::connect(addr).expect("connect");
    client.submit(&pattern, &config, options).expect("first");
    client
        .submit(&pattern, &config, options)
        .expect("same value");
    client
        .submit(&early_clone, &config, options)
        .expect("early clone");
    client
        .submit(&pattern.clone(), &config, options)
        .expect("late clone");
    let frames = capture.join().expect("capture thread");

    let (fresh, _) = hot_set().swap_remove(3);
    let want = encode_frame(
        KIND_REQUEST,
        &Request::Submit {
            pattern: fresh,
            config,
            options,
        }
        .to_bytes(),
    );
    assert_eq!(frames[0], want, "the first submit's frame");
    for (i, frame) in frames.iter().enumerate().skip(1) {
        assert_eq!(frame, &frames[0], "submit {i}");
    }
}
