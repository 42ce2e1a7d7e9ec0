//! odq-net acceptance properties, over real localhost sockets.
//!
//! 1. **Wire bit-exactness** — for every engine kind, inference through
//!    the TCP front-end returns outputs element-wise *bit-identical* to
//!    submitting the same input in-process on the same server. The wire
//!    carries raw f32 little-endian words, so not a bit may move.
//! 2. **Robustness** — malformed, truncated, and oversized frames never
//!    panic the server and never leak a connection slot; the failure is a
//!    typed error frame, and a fresh well-formed connection afterwards is
//!    served normally.
//! 3. **Graceful drain** — shutting the front-end down with requests in
//!    flight answers every one of them exactly once, and the final
//!    ledger's `"net"` section accounts the traffic.
//! 4. **Connection cap** — the configured cap is enforced at accept time
//!    with a typed `TooManyConnections` frame, and closing a connection
//!    releases its slot.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use odq::net::wire::{
    self, encode_request, ErrorFrame, Frame, RequestFrame, WireErrorCode, WireLimits, NO_REQUEST_ID,
};
use odq::net::{NetClient, NetConfig, NetServer};
use odq::nn::models::{Model, ModelCfg};
use odq::nn::policy::{PrecisionPolicy, Route};
use odq::nn::Arch;
use odq::serve::{EngineKind, InferRequest, ServeConfig, ServeError, Server};
use odq::tensor::Tensor;

fn lenet(seed: u64) -> Model {
    let mut cfg = ModelCfg::small(Arch::LeNet5, 4);
    cfg.input_hw = 8;
    cfg.in_channels = 1;
    cfg.seed = seed;
    Model::build(cfg)
}

fn image(seed: usize) -> Tensor {
    let v: Vec<f32> = (0..64).map(|i| ((i * 31 + seed * 17) % 101) as f32 / 101.0).collect();
    Tensor::from_vec(vec![1, 1, 8, 8], v)
}

fn start_net(kind: EngineKind, cfg: ServeConfig, net: NetConfig) -> NetServer {
    let server = Server::builder(cfg).engine(kind).model("lenet", lenet(0x10e7)).start();
    NetServer::bind(server, "127.0.0.1:0", net).expect("bind ephemeral port")
}

fn fast_cfg() -> ServeConfig {
    ServeConfig { max_wait: Duration::from_micros(200), ..ServeConfig::default() }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn wire_round_trip_is_bit_exact_for_every_engine() {
    let engines: Vec<(&str, EngineKind)> = vec![
        ("float", EngineKind::Float),
        ("int8", EngineKind::Static { bits: 8 }),
        ("drq", EngineKind::Drq { input_threshold: 0.1 }),
        ("odq", EngineKind::Odq { threshold: 0.3 }),
        (
            "policy",
            EngineKind::Policy(Arc::new(
                PrecisionPolicy::uniform(Route::Odq { threshold: 0.3, sparse: false })
                    .with("C1", Route::Float),
            )),
        ),
    ];
    for (label, kind) in engines {
        let ns = start_net(kind, fast_cfg(), NetConfig::default());
        let client = NetClient::connect(ns.local_addr()).expect("connect");
        for seed in 0..4 {
            // Same server, same version, same input: once in-process,
            // once over the wire.
            let local = ns
                .server()
                .submit(InferRequest::new("lenet", image(seed)))
                .unwrap()
                .wait()
                .unwrap();
            let remote = client.infer(InferRequest::new("lenet", image(seed))).unwrap();
            assert_eq!(
                bits(&local.output),
                bits(&remote.output),
                "engine {label}, input {seed}: the wire must not move a bit"
            );
            assert!(remote.timing.batch_size >= 1);
        }
        client.close();
        let sum = ns.shutdown();
        assert_eq!(sum.net.connections_opened, 1, "engine {label}");
        assert_eq!(sum.net.connections_closed, 1, "engine {label}");
        assert_eq!(sum.net.frames_in, 4, "engine {label}");
        assert_eq!(sum.net.frames_out, 4, "engine {label}");
        assert!(sum.net.bytes_in > 0 && sum.net.bytes_out > 0, "engine {label}");
    }
}

#[test]
fn typed_errors_cross_the_wire() {
    let ns = start_net(EngineKind::Float, fast_cfg(), NetConfig::default());
    let client = NetClient::connect(ns.local_addr()).expect("connect");
    // Unknown model and bad shape come back as their own variants, not a
    // closed connection.
    let e = client.infer(InferRequest::new("ghost", image(0))).unwrap_err();
    assert!(matches!(e, ServeError::UnknownModel(_)), "got {e:?}");
    let bad = Tensor::from_vec(vec![1, 1, 4, 4], vec![0.0; 16]);
    let e = client.infer(InferRequest::new("lenet", bad)).unwrap_err();
    assert!(matches!(e, ServeError::BadInput(_)), "got {e:?}");
    // An immediate deadline expires in the pipeline, over the wire too.
    let e = client
        .infer(InferRequest::new("lenet", image(0)).with_deadline(Duration::ZERO))
        .unwrap_err();
    assert_eq!(e, ServeError::DeadlineExceeded);
    // The connection survived all three failures.
    assert!(client.infer(InferRequest::new("lenet", image(1))).is_ok());
    client.close();
    let sum = ns.shutdown();
    assert_eq!(sum.rejected_invalid, 2);
    assert_eq!(sum.net.protocol_errors, 0, "typed rejections are not protocol errors");
}

/// FLAG_TRACE end to end: a client-supplied trace id crosses the wire
/// and comes back bit-exact in the response; a request without the flag
/// (the v1 frame layout) still decodes, and its response body carries no
/// trailing trace echo — v1 clients keep v1 responses.
#[test]
fn trace_flag_round_trips_bit_exactly_and_v1_frames_still_decode() {
    let ns = start_net(EngineKind::Float, fast_cfg(), NetConfig::default());
    let client = NetClient::connect(ns.local_addr()).expect("connect");

    // Every bit of the u64 matters, including the top one.
    for t in [0u64, 1, 0x0123_4567_89AB_CDEF, u64::MAX] {
        let r = client.infer(InferRequest::new("lenet", image(0)).with_trace(t)).unwrap();
        assert_eq!(r.trace, Some(t), "trace id must round-trip bit-exactly");
    }
    // No flag → no echo, even on the same connection.
    let r = client.infer(InferRequest::new("lenet", image(1))).unwrap();
    assert_eq!(r.trace, None, "untraced wire responses must keep the v1 body");
    client.close();

    // Raw v1 frame (trace: None encodes without FLAG_TRACE): the server
    // decodes it and answers with a response frame whose trailing trace
    // echo is absent.
    let mut raw = TcpStream::connect(ns.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let bytes = encode_request(&RequestFrame {
        id: 7,
        model: "lenet".into(),
        deadline: None,
        trace: None,
        input: image(2),
    })
    .unwrap();
    raw.write_all(&bytes).unwrap();
    raw.flush().unwrap();
    let (frame, _) = wire::read_frame(&mut raw, &WireLimits::default()).expect("response frame");
    match frame {
        Frame::Response(rf) => {
            assert_eq!(rf.id, 7);
            assert_eq!(rf.trace, None, "v1 request must get a v1 response body");
        }
        other => panic!("expected a response frame, got {other:?}"),
    }
    drop(raw);
    await_all_closed(ns.server());
    ns.shutdown();
}

/// Wait (bounded) for the server to account all connections closed.
/// Teardown is asynchronous: the client's socket close and the server's
/// reader/writer joins race the assertion.
fn await_all_closed(server: &Server) {
    for _ in 0..500 {
        let net = server.stats().net;
        if net.active_connections == 0 && net.connections_opened == net.connections_closed {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let net = server.stats().net;
    panic!("connection slots leaked: {net:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Hostile bytes — random garbage, truncated real frames, oversized
    /// declarations — never panic the server and never leak a connection
    /// slot, and the server keeps serving well-formed traffic afterwards.
    #[test]
    fn hostile_frames_never_panic_or_leak_slots(
        mode in 0u8..3,
        garbage in prop::collection::vec(0u8..=255, 1..256),
        cut in 0usize..64,
        trace_seed in 0u64..u64::MAX,
    ) {
        // The vendored proptest has no Option strategy; derive one.
        let trace = (trace_seed % 2 == 0)
            .then(|| trace_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let ns = start_net(EngineKind::Float, fast_cfg(), NetConfig::default());
        let addr = ns.local_addr();

        let mut raw = TcpStream::connect(addr).unwrap();
        // A server-side bug must fail the test, not hang it.
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let payload: Vec<u8> = match mode {
            // Raw garbage from the first byte — padded to at least one
            // full header and forced off-magic, so the server always has
            // a complete (bad) header to reject rather than waiting for
            // more bytes.
            0 => {
                let mut g = garbage;
                while g.len() < wire::HEADER_LEN {
                    g.push(0);
                }
                g[0] = b'X';
                g
            }
            // A well-formed request truncated mid-frame, then EOF — with
            // and without the FLAG_TRACE extension, so the cut can land
            // inside the trailing trace id too.
            1 => {
                let full = encode_request(&RequestFrame {
                    id: 1,
                    model: "lenet".into(),
                    deadline: None,
                    trace,
                    input: image(0),
                }).unwrap();
                let keep = cut.min(full.len().saturating_sub(1)).max(1);
                full[..keep].to_vec()
            }
            // A valid header declaring a body far over the limit.
            _ => {
                let mut b = Vec::new();
                b.extend_from_slice(&wire::MAGIC);
                b.push(1);
                b.extend_from_slice(&u32::MAX.to_le_bytes());
                b.extend_from_slice(&garbage);
                b
            }
        };
        raw.write_all(&payload).ok();
        let _ = raw.flush();
        // Half-close: a server still waiting for the rest of a truncated
        // frame sees EOF instead of blocking forever.
        let _ = raw.shutdown(std::net::Shutdown::Write);
        // The server either answers with a typed error frame or just
        // closes (truncation looks like EOF); either way the connection
        // ends without a panic. Drain until EOF.
        if mode != 1 {
            // Parse failures produce one unattributable typed error frame.
            let (frame, _) = wire::read_frame(&mut raw, &WireLimits::default())
                .expect("a typed error frame must precede the close");
            match frame {
                Frame::Error(ErrorFrame { id, code, .. }) => {
                    prop_assert_eq!(id, NO_REQUEST_ID);
                    let expected = if mode == 2 {
                        WireErrorCode::TooLarge
                    } else {
                        // Garbage can first fail as magic, kind, length,
                        // or body parse; all are protocol-level.
                        code
                    };
                    prop_assert_eq!(code, expected);
                    prop_assert!(matches!(
                        code,
                        WireErrorCode::Malformed | WireErrorCode::TooLarge
                    ));
                }
                other => prop_assert!(false, "expected an error frame, got {:?}", other),
            }
        }
        let mut sink = Vec::new();
        let _ = raw.read_to_end(&mut sink);
        drop(raw);

        // The slot is released...
        await_all_closed(ns.server());
        // ...and a fresh well-formed request is served normally.
        let client = NetClient::connect(addr).unwrap();
        let r = client.infer(InferRequest::new("lenet", image(1)));
        prop_assert!(r.is_ok(), "server must keep serving after hostile input: {:?}", r);
        client.close();
        let sum = ns.shutdown();
        prop_assert_eq!(sum.net.connections_opened, sum.net.connections_closed);
        if mode != 1 {
            prop_assert!(sum.net.protocol_errors >= 1);
        }
    }
}

#[test]
fn graceful_drain_answers_every_inflight_request() {
    // Requests park in the batcher only while both workers are busy; a
    // wide batching window keeps those parked until the drain, so it has
    // real in-flight work to answer.
    let cfg = ServeConfig {
        max_wait: Duration::from_millis(150),
        max_batch: 64,
        ..ServeConfig::default()
    };
    let ns = start_net(EngineKind::Odq { threshold: 0.3 }, cfg, NetConfig::default());
    let client = NetClient::connect(ns.local_addr()).expect("connect");

    let handles: Vec<_> =
        (0..16).map(|i| client.submit(InferRequest::new("lenet", image(i))).unwrap()).collect();
    // Wait until the server has admitted all 16 (a submitted frame still
    // in the socket buffer would be cut off by the read-side shutdown).
    for _ in 0..500 {
        if ns.server().stats().admitted == 16 {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_eq!(ns.server().stats().admitted, 16, "all requests admitted before drain");

    let json_before = ns.server().stats_json();
    assert!(json_before.contains("\"net\""), "{json_before}");
    assert!(json_before.contains("\"bytes_in\""), "{json_before}");

    let sum = ns.shutdown();
    // Every in-flight request was answered — exactly once, successfully —
    // before the sockets closed.
    let mut ok = 0;
    for h in handles {
        let r = h.wait().expect("drain must answer, not abandon");
        assert_eq!(r.output.dims(), &[1, 4]);
        ok += 1;
    }
    assert_eq!(ok, 16);
    assert_eq!(sum.completed, 16);
    assert_eq!(sum.net.frames_in, 16);
    assert_eq!(sum.net.frames_out, 16);
    assert_eq!(sum.net.connections_opened, sum.net.connections_closed);
}

#[test]
fn connection_cap_refuses_with_a_typed_frame_and_slots_recycle() {
    let ns = start_net(
        EngineKind::Float,
        fast_cfg(),
        NetConfig { max_connections: 1, ..NetConfig::default() },
    );
    let addr = ns.local_addr();

    let first = NetClient::connect(addr).expect("first connection");
    // Prove the first connection is registered (accept() ran) before
    // racing a second one against the cap.
    first.infer(InferRequest::new("lenet", image(0))).unwrap();

    let mut second = TcpStream::connect(addr).expect("tcp connect succeeds");
    let (frame, _) = wire::read_frame(&mut second, &WireLimits::default())
        .expect("the refusal is a typed frame, not a silent close");
    match frame {
        Frame::Error(ErrorFrame { id, code, .. }) => {
            assert_eq!(id, NO_REQUEST_ID);
            assert_eq!(code, WireErrorCode::TooManyConnections);
        }
        other => panic!("expected TooManyConnections, got {other:?}"),
    }
    drop(second);
    assert_eq!(ns.server().stats().net.connections_rejected, 1);

    // Closing the first connection releases the slot.
    first.close();
    await_all_closed(ns.server());
    let third = NetClient::connect(addr).expect("slot released");
    third.infer(InferRequest::new("lenet", image(1))).unwrap();
    third.close();
    let sum = ns.shutdown();
    assert_eq!(sum.net.connections_rejected, 1);
    assert_eq!(sum.net.connections_opened, 2);
}

#[test]
fn client_maps_duplicate_ids_and_dead_connections() {
    let ns = start_net(
        EngineKind::Float,
        ServeConfig { max_wait: Duration::from_millis(100), ..ServeConfig::default() },
        NetConfig::default(),
    );
    let client = NetClient::connect(ns.local_addr()).expect("connect");
    let h = client.submit(InferRequest::new("lenet", image(0)).with_id(7)).unwrap();
    // Same id while the first is still (possibly) in flight: refused
    // locally, no ambiguous wire traffic.
    match client.submit(InferRequest::new("lenet", image(1)).with_id(7)) {
        Err(ServeError::BadInput(_)) => {}
        // The first may already have resolved, freeing the id.
        Ok(h2) => {
            h2.wait().unwrap();
        }
        Err(e) => panic!("unexpected {e:?}"),
    }
    h.wait().unwrap();
    client.close();
    ns.shutdown();
}

/// Kill the reader thread mid-request (a fake server answers with bytes
/// that are not a frame): every in-flight waiter resolves to a typed
/// `WorkerLost` — no waiter hangs — and a submit attempted after the
/// death fails typed instead of silently registering a request nothing
/// will ever answer. The fake server keeps its socket open throughout, so
/// resolution cannot be riding on EOF.
#[test]
fn reader_death_resolves_every_waiter_typed_and_fails_later_submits() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind fake server");
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("client connects");
        // Absorb one request frame header's worth, then poison the
        // response stream: 16 bytes that decode as no known frame.
        let mut sink = [0u8; 9];
        let _ = s.read_exact(&mut sink);
        s.write_all(b"XXXXXXXXXXXXXXXX").expect("write garbage");
        s.flush().unwrap();
        // Hold the connection open until the test is done with it.
        let mut drain = [0u8; 1024];
        while matches!(s.read(&mut drain), Ok(n) if n > 0) {}
    });

    let client = NetClient::connect(addr).expect("connect");
    let handles: Vec<_> =
        (0..4).filter_map(|i| client.submit(InferRequest::new("lenet", image(i))).ok()).collect();
    assert!(!handles.is_empty(), "at least the first submit lands before the poison");

    // Bounded polling, so a hang becomes a test failure, not a timeout.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut unresolved = handles;
    while !unresolved.is_empty() {
        assert!(
            std::time::Instant::now() < deadline,
            "{} waiter(s) still hanging after reader death",
            unresolved.len()
        );
        unresolved.retain(|h| match h.try_wait() {
            None => true,
            Some(Err(ServeError::WorkerLost)) => false,
            Some(other) => panic!("expected typed WorkerLost, got {other:?}"),
        });
        std::thread::sleep(Duration::from_millis(2));
    }

    // The death is published to submitters: eventually every new submit
    // is refused typed (the first few may still win the race and enqueue,
    // but their handles must then resolve WorkerLost, never hang).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        match client.submit(InferRequest::new("lenet", image(9))) {
            Err(ServeError::ShuttingDown) => break,
            Err(other) => panic!("expected typed ShuttingDown, got {other:?}"),
            Ok(h) => {
                let start = std::time::Instant::now();
                while h.try_wait().is_none() {
                    assert!(
                        start.elapsed() < Duration::from_secs(10),
                        "post-death submit produced a hanging handle"
                    );
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        assert!(std::time::Instant::now() < deadline, "submit never saw the dead connection");
        std::thread::sleep(Duration::from_millis(2));
    }

    client.close();
    fake.join().unwrap();
}
