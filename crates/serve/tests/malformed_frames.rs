//! Malformed-frame corpus: hostile bytes at the decoder and at a live
//! server.
//!
//! The serving boundary is adversary-facing by definition — the paper's
//! attacker *is* a client — so corrupt input must never panic a server
//! thread. Every corpus entry is checked twice:
//!
//! 1. at the codec level, where it must yield a *typed* `WireError`;
//! 2. over a real socket, where the connection must either recover
//!    (decode errors are answered with an `Error` response and the
//!    session continues) or close cleanly (framing corruption), with
//!    the server still accepting fresh connections afterwards.

use fia_defense::DefensePipeline;
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::wire::{
    decode_request, encode_request, encode_response, read_frame, write_frame, Request, Response,
    ServerInfo, WireError, MAX_FRAME_LEN,
};
use fia_serve::{
    run_load_open, ClientError, OpenLoadConfig, PredictionServer, RemoteOracle, ServeConfig,
};
use fia_vfl::{VerticalPartition, VflSystem};
use std::io::{Cursor, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn deployed() -> Arc<VflSystem<LogisticRegression>> {
    let d = 6;
    let w = Matrix::from_fn(d, 3, |i, j| 0.2 * (i as f64 + 1.0) - 0.1 * j as f64);
    let model = LogisticRegression::from_parameters(w, vec![0.0; 3], 3);
    let global = Matrix::from_fn(16, d, |i, j| ((i * d + j) % 7) as f64 * 0.1);
    let partition = VerticalPartition::contiguous(&[3, 3]);
    Arc::new(VflSystem::from_global(model, partition, &global))
}

/// Sends raw bytes on a fresh connection and reads whatever comes back
/// (until the peer closes or a short timeout), so hostile frames can be
/// thrown at a live server without the cooperating client code path.
fn send_raw(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("timeout");
    stream.write_all(bytes).expect("write");
    let mut back = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => back.extend_from_slice(&buf[..n]),
            Err(_) => break, // timeout: server kept the connection open
        }
    }
    back
}

/// A length-prefixed frame around an arbitrary payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

/// The server must still answer a well-formed client after the hostile
/// bytes — the real "never bricked" assertion.
fn assert_server_alive(addr: SocketAddr) {
    let mut oracle = RemoteOracle::connect(addr).expect("fresh connection after hostile frame");
    let scores = oracle.predict_batch(&[0, 1]).expect("predict");
    assert_eq!(scores.rows(), 2);
}

#[test]
fn truncated_length_prefix_is_typed_and_recoverable() {
    // Codec level: a stream that ends inside the 4-byte length prefix.
    let mut cursor = Cursor::new(vec![0x10u8, 0x00]);
    assert!(matches!(read_frame(&mut cursor), Err(WireError::Truncated)));

    // Live server: the connection dies cleanly, the listener survives.
    let server = PredictionServer::spawn(
        deployed(),
        Arc::new(DefensePipeline::new()),
        ServeConfig::default(),
    )
    .expect("bind");
    let back = send_raw(server.addr(), &[0x10, 0x00]);
    assert!(back.is_empty(), "half a length prefix must get no reply");
    assert_server_alive(server.addr());
    server.shutdown();
}

#[test]
fn length_one_past_the_oversize_cap_is_rejected() {
    // Exactly cap + 1: the first length the codec must refuse.
    let len = (MAX_FRAME_LEN + 1) as u32;
    let mut bytes = len.to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 8]);
    let mut cursor = Cursor::new(bytes.clone());
    match read_frame(&mut cursor) {
        Err(WireError::TooLarge(n)) => assert_eq!(n, MAX_FRAME_LEN + 1),
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // Boundary sanity: exactly the cap is still a valid (if huge) claim,
    // failing only as truncated since the payload is absent.
    let mut at_cap = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
    at_cap.extend_from_slice(&[0u8; 8]);
    assert!(matches!(
        read_frame(&mut Cursor::new(at_cap)),
        Err(WireError::Truncated)
    ));

    // Live server: an oversize claim is framing corruption — connection
    // closed, no allocation, server alive.
    let server = PredictionServer::spawn(
        deployed(),
        Arc::new(DefensePipeline::new()),
        ServeConfig::default(),
    )
    .expect("bind");
    let back = send_raw(server.addr(), &bytes);
    assert!(back.is_empty(), "oversize frame must get no reply");
    assert_server_alive(server.addr());
    server.shutdown();
}

#[test]
fn nan_smuggled_into_a_matrix_payload_is_rejected_and_survivable() {
    // Build a valid PredictFeatures request, then smuggle a NaN into the
    // raw IEEE-754 payload bytes (the encoder would have refused it).
    let blocks = vec![Matrix::zeros(1, 3), Matrix::zeros(1, 3)];
    let mut payload = encode_request(&Request::PredictFeatures(blocks)).expect("encode");
    let n = payload.len();
    payload[n - 8..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    assert!(matches!(
        decode_request(&payload),
        Err(WireError::NonFinite)
    ));

    // Live server: a decode error is answered with a typed Error
    // response and the *same* connection keeps working.
    let server = PredictionServer::spawn(
        deployed(),
        Arc::new(DefensePipeline::new()),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    write_frame(&mut stream, &payload).expect("send hostile frame");
    let reply = read_frame(&mut stream)
        .expect("read")
        .expect("server answered");
    match fia_serve::wire::decode_response(&reply).expect("typed response") {
        Response::Error(why) => assert!(why.contains("non-finite"), "{why}"),
        other => panic!("expected Error response, got {other:?}"),
    }
    // Same connection, now a well-formed request.
    let good = encode_request(&Request::Ping).expect("encode");
    write_frame(&mut stream, &good).expect("send");
    let reply = read_frame(&mut stream).expect("read").expect("answered");
    assert!(matches!(
        fia_serve::wire::decode_response(&reply),
        Ok(Response::Pong)
    ));
    assert_server_alive(server.addr());
    server.shutdown();
}

#[test]
fn unknown_tag_mid_stream_is_typed_and_the_connection_recovers() {
    // Codec level.
    assert!(matches!(
        decode_request(&[0x5A, 1, 2, 3]),
        Err(WireError::BadTag(0x5A))
    ));

    // Live server: a valid request, then a garbage tag, then another
    // valid request — all on one connection.
    let server = PredictionServer::spawn(
        deployed(),
        Arc::new(DefensePipeline::new()),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");

    let ping = encode_request(&Request::Ping).expect("encode");
    write_frame(&mut stream, &ping).expect("send");
    let reply = read_frame(&mut stream).expect("read").expect("answered");
    assert!(matches!(
        fia_serve::wire::decode_response(&reply),
        Ok(Response::Pong)
    ));

    stream.write_all(&frame(&[0x5A, 0, 0])).expect("bad tag");
    let reply = read_frame(&mut stream).expect("read").expect("answered");
    match fia_serve::wire::decode_response(&reply).expect("typed") {
        Response::Error(why) => assert!(why.contains("tag"), "{why}"),
        other => panic!("expected Error response, got {other:?}"),
    }

    write_frame(&mut stream, &ping).expect("send again");
    let reply = read_frame(&mut stream).expect("read").expect("answered");
    assert!(matches!(
        fia_serve::wire::decode_response(&reply),
        Ok(Response::Pong)
    ));

    let m = server.metrics();
    assert!(m.errors >= 1, "bad tag must be counted as an error");
    server.shutdown();
}

#[test]
fn corpus_of_random_garbage_never_panics_the_decoder() {
    // Defense-in-depth over the four named cases: seeded random byte
    // soup must always come back as *some* typed error or a (harmless)
    // decoded message — never a panic.
    let mut state = 0xC0FFEEu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u8
    };
    for len in 0..200usize {
        let payload: Vec<u8> = (0..len).map(|_| next()).collect();
        let _ = decode_request(&payload);
        let _ = fia_serve::wire::decode_response(&payload);
    }
}

/// The open-loop load generator frames replies with the shared splitter:
/// an over-cap length prefix ends the run with a typed error instead of a
/// wait for bytes that never come.
#[test]
fn open_loop_generator_refuses_an_over_cap_reply_prefix() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let server = std::thread::spawn(move || {
        // The generator's handshake: one blocking Info round trip.
        let (mut handshake, _) = listener.accept().expect("accept");
        let req = read_frame(&mut handshake).expect("read").expect("frame");
        assert_eq!(decode_request(&req).expect("decode"), Request::Info);
        let info = Response::Info(ServerInfo {
            n_samples: 4,
            n_features: 2,
            n_classes: 2,
            party_widths: vec![1, 1],
        });
        write_frame(&mut handshake, &encode_response(&info).expect("encode")).expect("write");
        // The sender: its request is answered with a bare over-cap prefix.
        let (mut sender, _) = listener.accept().expect("accept");
        read_frame(&mut sender).expect("read").expect("frame");
        sender
            .write_all(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes())
            .expect("write");
        sender // held open until the generator gives up
    });
    let run = run_load_open(
        addr,
        &OpenLoadConfig {
            connections: 1,
            arrival_rps: 1000.0,
            total_requests: 1,
            rows_per_request: 1,
        },
    );
    assert!(
        matches!(
            run,
            Err(ClientError::Wire(WireError::TooLarge(n))) if n == MAX_FRAME_LEN + 1
        ),
        "{run:?}"
    );
    drop(server.join().expect("fake server"));
}
