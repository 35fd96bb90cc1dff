//! The adversary's side of the wire: a blocking client speaking the
//! frame codec, plus the [`fia_core::PredictionOracle`] implementation
//! that lets every attack in the workspace run unchanged against a live
//! endpoint.

use crate::audit::AuditSummary;
use crate::sys::{Event, FramedConn, Poller};
use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response, ServerInfo,
    WireError,
};
use fia_core::{OracleError, PredictionOracle, QueryCost, TraceContext};
use fia_linalg::Matrix;
use std::net::{TcpStream, ToSocketAddrs};

/// Client-side failure: transport, protocol violation, or a server-side
/// rejection.
#[derive(Debug)]
pub enum ClientError {
    /// The wire layer failed (socket error, truncation, bad frame).
    Wire(WireError),
    /// The server answered, but with an `Error` response.
    Rejected(String),
    /// The server answered with an unexpected message type.
    Protocol(&'static str),
    /// The server closed the connection mid-conversation.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "transport failure: {e}"),
            ClientError::Rejected(why) => write!(f, "server rejected request: {why}"),
            ClientError::Protocol(what) => write!(f, "protocol violation: {what}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::Io(e))
    }
}

/// A connection to a deployed prediction service, seen the way the
/// paper's adversary sees it: submit queries, receive confidence
/// vectors. One request/response pair is in flight per connection.
///
/// The oracle meters its own campaign: every prediction request updates
/// a [`QueryCost`] tally, including how many rows the server answered
/// from its released-score cache (the `Scores` response carries the
/// count), so attack reports can state what a corpus cost the
/// deployment.
pub struct RemoteOracle {
    stream: TcpStream,
    info: ServerInfo,
    cost: QueryCost,
    /// When set, prediction requests travel as their *traced* wire
    /// variants, carrying this context so the server opens linked
    /// `serve.request` spans.
    trace: Option<TraceContext>,
}

impl RemoteOracle {
    /// Connects and performs the `Info` handshake, so the oracle knows
    /// the deployment's shape before the first query.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut oracle = RemoteOracle {
            stream,
            info: ServerInfo {
                n_samples: 0,
                n_features: 0,
                n_classes: 0,
                party_widths: Vec::new(),
            },
            cost: QueryCost::default(),
            trace: None,
        };
        oracle.info = match oracle.call(&Request::Info)? {
            Response::Info(info) => info,
            Response::Error(why) => return Err(ClientError::Rejected(why)),
            _ => return Err(ClientError::Protocol("Info answered with wrong variant")),
        };
        Ok(oracle)
    }

    /// The deployment facts learned at connect time.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// One request/response round trip.
    fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        let payload = encode_request(req)?;
        write_frame(&mut self.stream, &payload)?;
        match read_frame(&mut self.stream)? {
            Some(payload) => Ok(decode_response(&payload)?),
            None => Err(ClientError::Disconnected),
        }
    }

    /// Unpacks a prediction response and folds it into the cost tally.
    fn expect_scores(&mut self, resp: Response) -> Result<Matrix, ClientError> {
        match resp {
            Response::Scores {
                scores,
                cached_rows,
            } => {
                self.cost.queries += 1;
                self.cost.rows += scores.rows() as u64;
                self.cost.cached_rows += u64::from(cached_rows);
                Ok(scores)
            }
            Response::Error(why) => Err(ClientError::Rejected(why)),
            _ => Err(ClientError::Protocol("predict answered with wrong variant")),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            _ => Err(ClientError::Protocol("Ping answered with wrong variant")),
        }
    }

    /// One prediction round over stored sample indices; returns the
    /// released `|indices| × c` confidence matrix. With a trace context
    /// set, the request travels as its traced wire variant — byte-
    /// identical body, plus the 16-byte context.
    pub fn predict_batch(&mut self, indices: &[usize]) -> Result<Matrix, ClientError> {
        let wire_indices: Vec<u32> = indices.iter().map(|&i| i as u32).collect();
        let req = match self.trace {
            Some(ctx) => Request::PredictByIndexTraced(wire_indices, ctx),
            None => Request::PredictByIndex(wire_indices),
        };
        let resp = self.call(&req)?;
        self.expect_scores(resp)
    }

    /// One prediction round over ad-hoc inputs: one `n × d_p` feature
    /// block per party, in party id order.
    pub fn predict_features(&mut self, slices: &[Matrix]) -> Result<Matrix, ClientError> {
        let req = match self.trace {
            Some(ctx) => Request::PredictFeaturesTraced(slices.to_vec(), ctx),
            None => Request::PredictFeatures(slices.to_vec()),
        };
        let resp = self.call(&req)?;
        self.expect_scores(resp)
    }

    /// Declares a stable session tag: the server's audit ledger keys
    /// this connection's traffic under `tag` instead of the ephemeral
    /// `conn-{id}` label (an empty tag reverts to the default).
    pub fn declare_session(&mut self, tag: &str) -> Result<(), ClientError> {
        match self.call(&Request::DeclareSession(tag.to_string()))? {
            Response::SessionAck => Ok(()),
            Response::Error(why) => Err(ClientError::Rejected(why)),
            _ => Err(ClientError::Protocol(
                "DeclareSession answered with wrong variant",
            )),
        }
    }

    /// The span trees the server keeps, as JSONL: for each request-latency
    /// bucket and outcome, the trees of its last
    /// [`KEPT_TREES_PER_BUCKET`](crate::KEPT_TREES_PER_BUCKET) traced
    /// requests, in answer order. Concatenated with a client-side
    /// tracer's JSONL this forms one merged trace: server span ids live
    /// in a disjoint id space and `serve.request` parents point at
    /// client span ids.
    pub fn server_trace_jsonl(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::TraceExport)? {
            Response::TraceJsonl(text) => Ok(text),
            Response::Error(why) => Err(ClientError::Rejected(why)),
            _ => Err(ClientError::Protocol(
                "TraceExport answered with wrong variant",
            )),
        }
    }

    /// The server's per-client audit ledger: counters, window rates and
    /// probe-shape flags for every client it has served.
    pub fn audit_report(&mut self) -> Result<AuditSummary, ClientError> {
        match self.call(&Request::AuditReport)? {
            Response::Audit(summary) => Ok(summary),
            Response::Error(why) => Err(ClientError::Rejected(why)),
            _ => Err(ClientError::Protocol(
                "AuditReport answered with wrong variant",
            )),
        }
    }

    /// What this connection's prediction traffic has cost the deployment
    /// so far (successful requests only).
    pub fn cost(&self) -> QueryCost {
        self.cost
    }

    /// The server's full telemetry surface as Prometheus-style text
    /// exposition — the scrape a monitoring stack would perform.
    pub fn metrics_text(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::MetricsText)? {
            Response::MetricsText(text) => Ok(text),
            Response::Error(why) => Err(ClientError::Rejected(why)),
            _ => Err(ClientError::Protocol(
                "MetricsText answered with wrong variant",
            )),
        }
    }

    /// Asks the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Protocol(
                "Shutdown answered with wrong variant",
            )),
        }
    }
}

/// The attacks' query surface, over the wire: this is what makes
/// `fia_core::accumulate_batch` / `run_over_oracle` — and therefore ESA,
/// PRA and GRNA — work against a live endpoint.
impl PredictionOracle for RemoteOracle {
    fn n_classes(&self) -> usize {
        self.info.n_classes
    }

    fn n_samples(&self) -> usize {
        self.info.n_samples
    }

    fn confidences(&mut self, indices: &[usize]) -> Result<Matrix, OracleError> {
        self.predict_batch(indices)
            .map_err(|e| OracleError(e.to_string()))
    }

    fn query_cost(&self) -> QueryCost {
        self.cost
    }

    fn set_trace_context(&mut self, ctx: Option<TraceContext>) {
        self.trace = ctx;
    }
}

// ---------------------------------------------------------------------
// Load generation.

/// Closed-loop load-generator configuration: `threads` clients, each
/// issuing `requests_per_thread` synchronous prediction requests of
/// `rows_per_request` stored samples.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub threads: usize,
    /// Requests each client issues before disconnecting.
    pub requests_per_thread: usize,
    /// Stored-sample rows per request.
    pub rows_per_request: usize,
}

/// What a load run achieved.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests completed across all clients.
    pub total_requests: u64,
    /// Query rows answered across all clients.
    pub total_rows: u64,
    /// Wall-clock duration of the run.
    pub elapsed: std::time::Duration,
    /// Aggregate requests per second.
    pub rps: f64,
}

/// Open-loop load-generator configuration: requests *arrive* on a
/// fixed schedule (`arrival_rps` aggregate), independent of how fast
/// the server answers — unlike the closed loop of [`run_load`], where
/// each client waits for its response before sending again and the
/// offered rate silently degenerates to whatever the server sustains.
///
/// The schedule is spread round-robin over `connections` sender
/// connections; each sender has one request in flight, so the
/// generator approximates a true open loop with concurrency bounded by
/// the connection count. A sender that falls behind its schedule fires
/// immediately and the lateness is counted ([`OpenLoadReport::late_sends`]) —
/// a saturated server therefore shows `achieved_rps < offered_rps`
/// *and* a high late count, instead of quietly stretching the
/// inter-arrival gap.
#[derive(Debug, Clone)]
pub struct OpenLoadConfig {
    /// Sender connections the arrival schedule is spread over.
    pub connections: usize,
    /// Aggregate target arrival rate, requests per second.
    pub arrival_rps: f64,
    /// Total requests in the schedule.
    pub total_requests: usize,
    /// Stored-sample rows per request.
    pub rows_per_request: usize,
}

/// What an open-loop run achieved.
#[derive(Debug, Clone)]
pub struct OpenLoadReport {
    /// The configured arrival rate.
    pub offered_rps: f64,
    /// Completed requests per second of wall clock.
    pub achieved_rps: f64,
    /// Requests completed across all senders.
    pub total_requests: u64,
    /// Query rows answered across all senders.
    pub total_rows: u64,
    /// Wall-clock duration of the schedule: the longest driver's
    /// send/receive window, connection setup excluded.
    pub elapsed: std::time::Duration,
    /// Client-observed p50 request latency, microseconds.
    pub p50_latency_us: f64,
    /// Client-observed p99 request latency, microseconds.
    pub p99_latency_us: f64,
    /// Sends that fired behind their scheduled arrival instant.
    pub late_sends: u64,
}

/// One multiplexed sender connection inside an open-loop driver thread.
struct MuxConn {
    io: FramedConn,
    /// A request is in flight (one per connection, as before).
    waiting: bool,
    sent_at: std::time::Instant,
    /// Next arrival index this connection owns (global schedule).
    next_k: usize,
    /// When that arrival is due, relative to the schedule epoch.
    due: std::time::Duration,
}

impl MuxConn {
    /// Writes the queued request and keeps write interest while the
    /// kernel pushes back.
    fn flush(&mut self, poller: &mut Poller) -> Result<(), ClientError> {
        self.io.flush()?;
        self.io.update_interest(poller, true)?;
        Ok(())
    }

    /// Still has arrivals to fire or a response outstanding.
    fn active(&self, total: usize) -> bool {
        self.waiting || self.next_k < total
    }
}

/// Drives a fixed-arrival-rate schedule at `addr` and reports achieved
/// throughput and client-observed latency. See [`OpenLoadConfig`] for
/// the open-loop semantics.
///
/// The schedule's `connections` sender sockets are *multiplexed* over a
/// small fixed pool of driver threads (readiness-driven, the same
/// [`crate::sys`] poller the server's reactor uses), so driving 4096
/// connections costs a handful of client threads, not 4096 — connection
/// `c` owns arrivals `k ≡ c (mod connections)`, exactly the schedule
/// the thread-per-connection generator produced.
pub fn run_load_open(
    addr: std::net::SocketAddr,
    cfg: &OpenLoadConfig,
) -> Result<OpenLoadReport, ClientError> {
    assert!(cfg.arrival_rps > 0.0, "arrival rate must be positive");
    let connections = cfg.connections.max(1);
    let interval = std::time::Duration::from_secs_f64(1.0 / cfg.arrival_rps);
    // One blocking handshake learns the deployment shape; the mux
    // sockets skip per-connection Info round trips entirely.
    let n_samples = RemoteOracle::connect(addr)?.info().n_samples.max(1);
    let drivers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(8)
        .min(connections)
        .max(1);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(drivers));
    let mut workers = Vec::with_capacity(drivers);
    for driver in 0..drivers {
        let barrier = std::sync::Arc::clone(&barrier);
        let cfg = cfg.clone();
        workers.push(std::thread::spawn(
            move || -> Result<(u64, u64, Vec<u64>, std::time::Duration), ClientError> {
                // Connect this driver's share before the barrier, so the
                // schedule epoch starts with every socket established.
                // Errors still reach the barrier — a failed driver must
                // never strand the rest.
                let conns = open_mux_conns(addr, driver, drivers, &cfg);
                barrier.wait();
                let (poller, conns) = conns?;
                drive_open_loop(poller, conns, &cfg, interval, n_samples)
            },
        ));
    }
    let mut total_rows = 0u64;
    let mut late_sends = 0u64;
    let mut latencies = Vec::with_capacity(cfg.total_requests);
    // The schedule window is the slowest driver's: all drivers share
    // one epoch (the barrier), so the max is the wall clock of the
    // schedule itself, uninflated by connection setup.
    let mut elapsed = std::time::Duration::from_nanos(1);
    let mut first_err = None;
    for worker in workers {
        match worker.join().expect("open-loop driver panicked") {
            Ok((rows, late, lat, driver_elapsed)) => {
                total_rows += rows;
                late_sends += late;
                latencies.extend(lat);
                elapsed = elapsed.max(driver_elapsed);
            }
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let (p50, p99) = crate::metrics::percentiles(&latencies);
    Ok(OpenLoadReport {
        offered_rps: cfg.arrival_rps,
        achieved_rps: latencies.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        total_requests: latencies.len() as u64,
        total_rows,
        elapsed,
        p50_latency_us: p50,
        p99_latency_us: p99,
        late_sends,
    })
}

/// Connects the sender sockets driver `driver` owns (global connection
/// ids `c ≡ driver (mod drivers)`) and registers each on the driver's
/// poller under its index.
fn open_mux_conns(
    addr: std::net::SocketAddr,
    driver: usize,
    drivers: usize,
    cfg: &OpenLoadConfig,
) -> Result<(Poller, Vec<MuxConn>), ClientError> {
    let connections = cfg.connections.max(1);
    let mut poller = Poller::new()?;
    let mut conns = Vec::new();
    let mut c = driver;
    while c < connections {
        let stream = std::net::TcpStream::connect(addr)?;
        conns.push(MuxConn {
            io: FramedConn::register(stream, &mut poller, conns.len() as u64)?,
            waiting: false,
            sent_at: std::time::Instant::now(),
            // Connection c owns arrivals k ≡ c (mod connections).
            next_k: c,
            due: std::time::Duration::ZERO,
        });
        c += drivers;
    }
    Ok((poller, conns))
}

/// One driver's event loop: fire each connection's arrivals on schedule,
/// collect responses, count lateness the way the blocking generator did
/// (evaluated once per arrival, at the moment its sender went idle).
fn drive_open_loop(
    mut poller: Poller,
    mut conns: Vec<MuxConn>,
    cfg: &OpenLoadConfig,
    interval: std::time::Duration,
    n_samples: usize,
) -> Result<(u64, u64, Vec<u64>, std::time::Duration), ClientError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let total = cfg.total_requests;
    let stride = cfg.connections.max(1);
    // Idle connections with a pending arrival, ordered by due time.
    // Firing pops exactly what is due — never an O(connections) scan,
    // which at 4096 sockets would dominate the very schedule this
    // generator exists to keep.
    let mut idle: BinaryHeap<Reverse<(std::time::Duration, usize)>> = BinaryHeap::new();
    for (i, conn) in conns.iter_mut().enumerate() {
        if conn.next_k < total {
            conn.due = interval.mul_f64(conn.next_k as f64);
            idle.push(Reverse((conn.due, i)));
        }
    }

    let start = std::time::Instant::now();
    let mut outstanding = 0usize;
    let mut rows_done = 0u64;
    let mut late = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];

    while outstanding > 0 || !idle.is_empty() {
        // Fire every arrival that has come due, in schedule order.
        let now = start.elapsed();
        while let Some(&Reverse((due, i))) = idle.peek() {
            if due > now {
                break;
            }
            idle.pop();
            let conn = &mut conns[i];
            let k = conn.next_k;
            let indices: Vec<u32> = (0..cfg.rows_per_request)
                .map(|r| ((k * cfg.rows_per_request + r) % n_samples) as u32)
                .collect();
            let payload = encode_request(&Request::PredictByIndex(indices))?;
            conn.io.queue(&payload)?;
            conn.sent_at = std::time::Instant::now();
            conn.waiting = true;
            outstanding += 1;
            conn.flush(&mut poller)?;
        }
        if outstanding == 0 && idle.is_empty() {
            break;
        }

        let timeout = match idle.peek() {
            Some(&Reverse((due, _))) => due
                .saturating_sub(start.elapsed())
                .max(std::time::Duration::from_micros(100)),
            None => std::time::Duration::from_millis(20),
        };
        events.clear();
        poller.wait(&mut events, Some(timeout))?;

        for ev in &events {
            let i = ev.token as usize;
            let conn = &mut conns[i];
            if !conn.active(total) {
                continue;
            }
            if ev.closed {
                return Err(ClientError::Disconnected);
            }
            if ev.writable {
                conn.flush(&mut poller)?;
            }
            if !ev.readable {
                continue;
            }
            // Drain the socket, then every complete response frame.
            conn.io.read(&mut scratch, usize::MAX)?;
            if conn.io.input_closed() {
                return Err(ClientError::Disconnected);
            }
            // An over-cap length prefix is a typed error: the stream can
            // no longer be framed.
            while let Some(frame) = conn.io.next_frame()? {
                match decode_response(&frame)? {
                    Response::Scores { scores, .. } => {
                        latencies.push(conn.sent_at.elapsed().as_micros() as u64);
                        rows_done += scores.rows() as u64;
                    }
                    Response::Error(why) => return Err(ClientError::Rejected(why)),
                    _ => return Err(ClientError::Protocol("predict answered with wrong variant")),
                }
                // The sender is idle again: schedule its next arrival
                // and judge lateness *now*, exactly when the blocking
                // generator would have evaluated its sleep.
                conn.waiting = false;
                outstanding -= 1;
                conn.next_k += stride;
                if conn.next_k < total {
                    conn.due = interval.mul_f64(conn.next_k as f64);
                    if start.elapsed() > conn.due {
                        late += 1;
                    }
                    idle.push(Reverse((conn.due, i)));
                }
            }
        }
    }
    Ok((rows_done, late, latencies, start.elapsed()))
}

/// Drives `cfg` worth of traffic at `addr` and reports the achieved
/// throughput. Clients start together (barrier) and each issues
/// synchronous requests over its own connection — a closed loop, so
/// aggregate throughput is what the *server* sustains, not an open-loop
/// arrival rate (see [`run_load_open`] for that).
pub fn run_load(addr: std::net::SocketAddr, cfg: &LoadConfig) -> Result<LoadReport, ClientError> {
    let threads = cfg.threads.max(1);
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(threads));
    let mut workers = Vec::with_capacity(threads);
    let t0 = std::time::Instant::now();
    for worker in 0..threads {
        let barrier = std::sync::Arc::clone(&barrier);
        let cfg = cfg.clone();
        workers.push(std::thread::spawn(move || -> Result<u64, ClientError> {
            // Reach the barrier whether or not the connection succeeded —
            // a worker that bailed before waiting would leave the others
            // blocked on it forever.
            let connected = RemoteOracle::connect(addr);
            barrier.wait();
            let mut oracle = connected?;
            let n = oracle.info().n_samples.max(1);
            let mut rows_done = 0u64;
            for r in 0..cfg.requests_per_thread {
                let base = worker * cfg.requests_per_thread + r;
                let indices: Vec<usize> = (0..cfg.rows_per_request)
                    .map(|k| (base * cfg.rows_per_request + k) % n)
                    .collect();
                let scores = oracle.predict_batch(&indices)?;
                rows_done += scores.rows() as u64;
            }
            Ok(rows_done)
        }));
    }
    let mut total_rows = 0u64;
    for worker in workers {
        total_rows += worker.join().expect("load worker panicked")?;
    }
    let elapsed = t0.elapsed();
    let total_requests = (threads * cfg.requests_per_thread) as u64;
    Ok(LoadReport {
        total_requests,
        total_rows,
        elapsed,
        rps: total_requests as f64 / elapsed.as_secs_f64().max(1e-9),
    })
}
