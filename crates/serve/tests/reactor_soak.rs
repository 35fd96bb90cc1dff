//! Reactor soak and regression battery: the properties the
//! thread-per-connection server could not provide.
//!
//! * hundreds of idle connections cost *zero* additional threads (the
//!   server's own `fia_serve_threads` gauge stays at one reactor plus
//!   one batcher per replica), and connection bookkeeping is bounded by
//!   live connections (the old server reaped finished handles only when
//!   the next client arrived);
//! * `shutdown()` returns promptly with idle connections open (the old
//!   server could hang joining a thread whose `set_read_timeout` had
//!   silently failed);
//! * a mid-soak `shutdown()` still answers every job already queued;
//! * pipelined requests on one socket are answered strictly in order.

use fia_defense::DefensePipeline;
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use fia_serve::{
    run_load_open, OpenLoadConfig, PredictionServer, RemoteOracle, ServeConfig, ServerHandle,
};
use fia_vfl::{VerticalPartition, VflSystem};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn deployed() -> Arc<VflSystem<LogisticRegression>> {
    let d = 6;
    let w = Matrix::from_fn(d, 3, |i, j| 0.2 * (i as f64 + 1.0) - 0.1 * j as f64);
    let model = LogisticRegression::from_parameters(w, vec![0.0; 3], 3);
    let global = Matrix::from_fn(64, d, |i, j| ((i * d + j) % 7) as f64 * 0.1);
    let partition = VerticalPartition::contiguous(&[3, 3]);
    Arc::new(VflSystem::from_global(model, partition, &global))
}

fn spawn(config: ServeConfig) -> (Arc<VflSystem<LogisticRegression>>, ServerHandle) {
    let system = deployed();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        Arc::new(DefensePipeline::new()),
        config,
    )
    .expect("bind ephemeral port");
    (system, server)
}

/// The server's `fia_serve_threads` gauge: the threads it owns, counted
/// by the server itself. Unlike the process-wide count it cannot see the
/// servers that sibling tests in this binary spawn.
fn server_threads(server: &ServerHandle) -> f64 {
    server
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("fia_serve_threads "))
        .and_then(|v| v.trim().parse().ok())
        .expect("fia_serve_threads gauge in the exposition")
}

/// This process's live thread count (Linux); elsewhere returns `None`
/// and thread-budget assertions are skipped.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Polls `f` until it returns true or the deadline passes.
fn eventually(timeout: Duration, mut f: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if f() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    f()
}

/// Satellite: connection bookkeeping is a gauge over *live* sockets, and
/// idle clients cost the server no threads at all.
#[test]
fn idle_connections_cost_no_threads_and_bookkeeping_stays_bounded() {
    const IDLE: usize = 512;
    let config = ServeConfig::default();
    let owned = (1 + config.replicas) as f64;
    let (_system, server) = spawn(config);
    let addr = server.addr();
    assert_eq!(server_threads(&server), owned, "one reactor + one batcher");

    let conns: Vec<TcpStream> = (0..IDLE)
        .map(|i| TcpStream::connect(addr).unwrap_or_else(|e| panic!("connect #{i} failed: {e}")))
        .collect();

    assert!(
        eventually(Duration::from_secs(10), || {
            server.metrics().open_connections == IDLE as u64
        }),
        "gauge never reached {IDLE}: {}",
        server.metrics().open_connections
    );
    assert_eq!(server.metrics().total_connections, IDLE as u64);

    // The whole point of the reactor: 512 connected clients, zero new
    // threads.
    assert_eq!(
        server_threads(&server),
        owned,
        "{IDLE} idle connections grew the server's threads"
    );

    // Dropping the clients shrinks the bookkeeping back to zero without
    // any new connection arriving to trigger a reap.
    drop(conns);
    assert!(
        eventually(Duration::from_secs(10), || {
            server.metrics().open_connections == 0
        }),
        "gauge never drained: {}",
        server.metrics().open_connections
    );
    assert_eq!(server.metrics().total_connections, IDLE as u64);
    server.shutdown();
}

/// Satellite: a 512-connection open-loop soak — every scheduled request
/// is answered, on a client+server thread budget that does not scale
/// with the connection count.
#[test]
fn soak_512_connections_every_response_arrives() {
    const CONNS: usize = 512;
    const TOTAL: usize = 2048;
    let (_system, server) = spawn(ServeConfig {
        replicas: 2,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let owned = server_threads(&server);
    assert_eq!(owned, 3.0, "one reactor + two batchers");
    let before = thread_count();

    let load = std::thread::spawn(move || {
        run_load_open(
            addr,
            &OpenLoadConfig {
                connections: CONNS,
                arrival_rps: 4000.0,
                total_requests: TOTAL,
                rows_per_request: 1,
            },
        )
    });
    // Sample the process thread count while the soak runs: with
    // thread-per-connection (server) or thread-per-sender (client) this
    // would spike by hundreds.
    let mut peak = before;
    while !load.is_finished() {
        if let (Some(p), Some(now)) = (peak, thread_count()) {
            peak = Some(p.max(now));
        }
        assert_eq!(
            server_threads(&server),
            owned,
            "soak grew the server's threads"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = load.join().expect("load thread").expect("open-loop soak");

    assert_eq!(
        report.total_requests, TOTAL as u64,
        "every response arrives"
    );
    assert_eq!(report.total_rows, TOTAL as u64);
    assert!(report.p99_latency_us >= report.p50_latency_us);
    if let (Some(before), Some(peak)) = (before, peak) {
        assert!(
            peak <= before + 16,
            "soak grew the thread count {before} -> peak {peak}"
        );
    }

    let m = server.metrics();
    assert!(m.requests >= TOTAL as u64, "server counted {}", m.requests);
    assert!(
        eventually(Duration::from_secs(10), || {
            server.metrics().open_connections == 0
        }),
        "sockets not reaped after the soak"
    );
    server.shutdown();
}

/// Satellite regression: `shutdown()` with idle connections open must
/// return promptly — the blocking server hung here when a connection
/// thread's `set_read_timeout` had failed and `read()` blocked forever.
#[test]
fn shutdown_returns_promptly_under_idle_connections() {
    let (_system, server) = spawn(ServeConfig::default());
    let addr = server.addr();
    let _idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("connect"))
        .collect();
    assert!(
        eventually(Duration::from_secs(5), || {
            server.metrics().open_connections == 64
        }),
        "idle connections never registered"
    );

    let t0 = Instant::now();
    server.shutdown();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "shutdown with idle connections took {elapsed:?}"
    );
    // The listener is gone: fresh connects are refused (or reset at the
    // first byte on platforms that accept briefly into a dead queue).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(&3u32.to_le_bytes());
            assert!(
                matches!(read_frame(&mut s), Err(_) | Ok(None)),
                "server still answering after shutdown"
            );
        }
    }
}

/// A mid-soak shutdown still answers everything already queued: jobs
/// dispatched to the replica pool before the stop flag flipped are
/// drained, their responses flushed, and only then do sockets close.
#[test]
fn mid_soak_shutdown_drains_queued_jobs() {
    const CONNS: usize = 8;
    const PER_CONN: usize = 4;
    let (system, server) = spawn(ServeConfig {
        batch_cap: 1,
        round_cost: Duration::from_millis(5),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    // Pipeline PER_CONN predictions on each connection, then give the
    // reactor a moment to parse and dispatch them all.
    let mut conns: Vec<TcpStream> = Vec::new();
    for c in 0..CONNS {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        for r in 0..PER_CONN {
            let payload = encode_request(&Request::PredictByIndex(vec![(c * PER_CONN + r) as u32]))
                .expect("encode");
            write_frame(&mut s, &payload).expect("write");
        }
        conns.push(s);
    }
    std::thread::sleep(Duration::from_millis(50));

    // Shut down while ~32 rounds x 5ms of work is still queued.
    let stopper = std::thread::spawn(move || server.shutdown());

    for (c, s) in conns.iter_mut().enumerate() {
        for r in 0..PER_CONN {
            let frame = read_frame(s)
                .expect("read")
                .unwrap_or_else(|| panic!("conn {c} closed before response {r}"));
            match decode_response(&frame).expect("decode") {
                Response::Scores { scores, .. } => {
                    let idx = c * PER_CONN + r;
                    let want = system.predict_batch(&[idx]);
                    assert_eq!(scores, want, "conn {c} response {r} wrong scores");
                }
                other => panic!("conn {c} response {r}: unexpected {other:?}"),
            }
        }
        // After the drained responses the server closes the socket.
        assert!(
            matches!(read_frame(s), Ok(None) | Err(_)),
            "conn {c} not closed after drain"
        );
    }
    stopper.join().expect("shutdown thread");
}

/// Pipelined requests on one socket come back strictly in request order,
/// even though their rounds complete concurrently on different shards.
#[test]
fn pipelined_requests_are_answered_in_order() {
    const PIPELINED: usize = 24;
    let (system, server) = spawn(ServeConfig {
        replicas: 4,
        ..ServeConfig::default()
    });

    let mut s = TcpStream::connect(server.addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for k in 0..PIPELINED {
        // Spread across shards so reordering *would* happen if the
        // reactor didn't sequence responses.
        let payload = encode_request(&Request::PredictByIndex(vec![
            ((k * 17) % system.n_samples()) as u32,
        ]))
        .expect("encode");
        write_frame(&mut s, &payload).expect("write");
    }
    for k in 0..PIPELINED {
        let frame = read_frame(&mut s)
            .expect("read")
            .unwrap_or_else(|| panic!("closed before response {k}"));
        match decode_response(&frame).expect("decode") {
            Response::Scores { scores, .. } => {
                let want = system.predict_batch(&[(k * 17) % system.n_samples()]);
                assert_eq!(scores, want, "response {k} out of order or wrong");
            }
            other => panic!("response {k}: unexpected {other:?}"),
        }
    }

    // Interleave a Ping mid-pipeline and confirm FIFO still holds.
    let ping = encode_request(&Request::Ping).expect("encode");
    let predict = encode_request(&Request::PredictByIndex(vec![3])).expect("encode");
    write_frame(&mut s, &predict).expect("write");
    write_frame(&mut s, &ping).expect("write");
    let first = decode_response(&read_frame(&mut s).expect("read").expect("open")).expect("decode");
    let second =
        decode_response(&read_frame(&mut s).expect("read").expect("open")).expect("decode");
    assert!(
        matches!(first, Response::Scores { .. }),
        "predict must answer first, got {first:?}"
    );
    assert!(
        matches!(second, Response::Pong),
        "ping must answer second, got {second:?}"
    );

    // The oracle sees a coherent session on a fresh connection too.
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    oracle.ping().expect("ping");
    server.shutdown();
}
