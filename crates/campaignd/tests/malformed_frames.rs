//! Hostile bytes at fia-campaignd's socket loop: the framing cases that
//! fia-serve's malformed-frame corpus sends to a prediction server. A
//! framing error closes the connection without a reply, a decode error
//! is answered with a typed `Error` and the connection stays in frame
//! sync, and after every case a fresh client still gets an answer.

use fia_campaignd::{start, CampaignClient, DaemonConfig, DaemonHandle};
use fia_serve::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, MAX_FRAME_LEN,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

fn daemon(tag: &str) -> (DaemonHandle, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "fia-campaignd-hostile-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    (start(DaemonConfig::new(&dir)).expect("daemon"), dir)
}

/// Sends `bytes` on a fresh connection, optionally half-closes it, and
/// reads until the daemon closes it. Every case here must end in a
/// close; the read timeout only bounds a daemon that never closes.
fn send_raw(addr: SocketAddr, bytes: &[u8], half_close: bool) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    stream.write_all(bytes).expect("write");
    if half_close {
        stream.shutdown(Shutdown::Write).expect("half-close");
    }
    let mut back = Vec::new();
    stream
        .read_to_end(&mut back)
        .expect("the daemon closes the connection");
    back
}

/// A fresh client must still be served after the hostile bytes.
fn assert_daemon_alive(addr: SocketAddr) {
    let mut client = CampaignClient::connect(addr).expect("fresh connection");
    client.ping().expect("ping after hostile bytes");
}

fn shut_down(daemon: DaemonHandle, dir: PathBuf) {
    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn length_one_past_the_cap_gets_no_reply_and_a_close() {
    let (daemon, dir) = daemon("over-cap");
    let mut bytes = ((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec();
    bytes.extend_from_slice(&[0u8; 8]);
    let back = send_raw(daemon.addr(), &bytes, false);
    assert!(back.is_empty(), "an over-cap prefix must get no reply");
    assert_daemon_alive(daemon.addr());
    shut_down(daemon, dir);
}

#[test]
fn unknown_tag_between_pings_is_a_typed_error_in_frame_sync() {
    let (daemon, dir) = daemon("bad-tag");
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let ping = encode_request(&Request::Ping).expect("encode");
    write_frame(&mut stream, &ping).expect("ping");
    write_frame(&mut stream, &[0x5A, 0, 0]).expect("unknown tag");
    write_frame(&mut stream, &ping).expect("ping again");
    let mut reply = || {
        let frame = read_frame(&mut stream).expect("read").expect("answered");
        decode_response(&frame).expect("typed response")
    };
    assert_eq!(reply(), Response::Pong);
    match reply() {
        Response::Error(why) => assert!(why.contains("tag"), "{why}"),
        other => panic!("expected a typed Error, got {other:?}"),
    }
    assert_eq!(reply(), Response::Pong);
    assert_daemon_alive(daemon.addr());
    shut_down(daemon, dir);
}

#[test]
fn half_a_length_prefix_then_a_close_gets_no_reply() {
    let (daemon, dir) = daemon("half-prefix");
    let back = send_raw(daemon.addr(), &[0x10, 0x00], true);
    assert!(back.is_empty(), "half a length prefix must get no reply");
    assert_daemon_alive(daemon.addr());
    shut_down(daemon, dir);
}
