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
use mbqc_util::frame::{read_frame, write_frame, MAX_FRAME_PAYLOAD};

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
