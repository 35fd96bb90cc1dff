//! The readiness-driven connection reactor: one event-loop thread owns
//! the listener and every client socket.
//!
//! The thread-per-connection server capped concurrency at the OS thread
//! budget and hid three failure modes in its accept/shutdown path (an
//! anonymous sleep on every accept error, a read timeout whose failure
//! silently produced an unjoinable thread, and connection bookkeeping
//! reaped only when the *next* client arrived). The reactor replaces
//! all of it structurally:
//!
//! * all sockets are nonblocking and multiplexed through the [`sys`]
//!   shim (`epoll`, or `poll` under `FIA_FORCE_POLL=1`), so 4096 idle
//!   connections cost four thousand fds and zero threads;
//! * inbound bytes are assembled *incrementally* per connection and
//!   complete frames are decoded with the same `wire.rs` codec the
//!   blocking path used;
//! * prediction work still flows to the [`Dispatcher`] → replica-pool
//!   batchers by channel; completed sub-rounds come back on a
//!   completion queue plus a [`Waker`] nudge, and responses are written
//!   through the reactor's writable-readiness machinery — a slow reader
//!   buffers its own responses and never blocks a batcher;
//! * responses are emitted strictly in per-connection request order
//!   (pipelined clients see FIFO answers even though rounds complete
//!   out of order);
//! * accept errors are classified ([`classify_accept_error`]) and
//!   counted per kind (`fia_serve_accept_errors_total{kind=}`); fd
//!   exhaustion backs off exponentially with listener interest
//!   suspended, so the EMFILE regime is a counted, paced retry instead
//!   of a silent hot loop;
//! * shutdown drains: the listener closes immediately, queued jobs are
//!   answered by the batchers, buffered responses are flushed (bounded
//!   by [`DRAIN_DEADLINE`]), and the loop exits with every connection
//!   accounted for.

use crate::audit::{AuditLedger, AuditSummary};
use crate::dispatch::StoredPlan;
use crate::metrics::AcceptErrorKind;
use crate::pool::{Completion, ReactorReply, ReplyTo};
use crate::server::Shared;
use crate::sys::{self, drain_wake_pipe, fd_of, Event, Interest, Poller, Waker};
use crate::wire::{decode_request, encode_response, Request, Response, MAX_FRAME_LEN};
use fia_core::TraceContext;
use fia_linalg::Matrix;
use fia_telemetry::Span;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token for the listening socket.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Token for the wake pipe's read end.
const WAKER_TOKEN: u64 = u64::MAX - 1;

/// Idle tick: the loop re-checks the stop flag at least this often even
/// if the waker is never fired (a safety net, not the signal path).
const TICK: Duration = Duration::from_millis(50);

/// How long a draining server waits for buffered responses to flush
/// before force-closing the stragglers.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Accept-error backoff window under resource exhaustion: starts here,
/// doubles per consecutive exhausted accept, caps at the max.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// In-flight prediction requests per connection before the reactor
/// stops reading from it — backpressure for pipelining clients, so one
/// greedy connection cannot queue unbounded jobs.
const PIPELINE_CAP: usize = 256;

/// Bounded read passes per readable event, so one firehose connection
/// cannot starve the rest of the loop.
const MAX_READ_PASSES: usize = 16;

/// Flushed-prefix length past which the output buffer is compacted.
const COMPACT_THRESHOLD: usize = 64 * 1024;

/// One client connection's entire state — a struct, not a thread.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (incremental frame assembly).
    buf: Vec<u8>,
    /// Outbound bytes; `out[out_pos..]` is still unwritten.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number of the next response to emit into `out`.
    emit_seq: u64,
    /// Completed responses waiting on earlier sequence numbers.
    staged: BTreeMap<u64, Staged>,
    /// Prediction requests handed to the pool and not yet answered.
    inflight: usize,
    /// No more requests will be parsed (peer EOF, framing corruption,
    /// or server drain).
    read_done: bool,
    /// Close once everything staged and buffered has been written.
    close_when_flushed: bool,
    /// Reads suspended at [`PIPELINE_CAP`].
    paused_read: bool,
    /// Interest currently registered with the poller.
    reg: Interest,
    /// Audit-ledger label: `conn-{id}` until the client declares a
    /// session tag (`DeclareSession`), which survives as the stable
    /// identity across reconnects.
    label: String,
}

impl Conn {
    fn new(stream: TcpStream, id: u64) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            emit_seq: 0,
            staged: BTreeMap::new(),
            inflight: 0,
            read_done: false,
            close_when_flushed: false,
            paused_read: false,
            reg: Interest::READ,
            label: format!("conn-{id}"),
        }
    }

    fn out_drained(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    fn removable(&self) -> bool {
        self.close_when_flushed
            && self.inflight == 0
            && self.staged.is_empty()
            && self.out_drained()
    }
}

/// An encoded response waiting for its in-order emission slot.
struct Staged {
    frame: Vec<u8>,
    t0: Instant,
    error: bool,
}

/// One prediction request fanned out as per-shard sub-rounds.
struct PendingRound {
    conn: u64,
    seq: u64,
    t0: Instant,
    /// Request-ordered output; cache hits prefilled, miss rows filled
    /// as sub-rounds complete.
    out: Matrix,
    hits: u64,
    /// `(shard, [(request pos, sample index)])` per part, as planned.
    groups: Vec<(usize, Vec<(usize, usize)>)>,
    remaining: usize,
    /// Ad-hoc requests have a single part whose release *is* the output.
    adhoc: bool,
    failed: Option<String>,
    /// The `serve.request` span (traced requests only); finishes just
    /// before the response is staged.
    req_span: Option<Span>,
    /// Per-part `serve.dispatch` spans, finished as parts complete.
    dispatch_spans: Vec<Option<Span>>,
    /// What the audit ledger records if the round succeeds (`None` when
    /// auditing is off).
    audit: Option<AuditKind>,
}

/// Audit-ledger accounting deferred until a round's response stages.
enum AuditKind {
    /// Stored-index query: the queried identities plus cache hits.
    Stored { indices: Vec<u32>, cached: u64 },
    /// Ad-hoc feature query: row count only (no stored identity).
    Features { rows: u64 },
}

/// Records a traced request's outcome (plus its cache hits, if any) and
/// finishes its `serve.request` span. Every answer path calls this
/// *before* staging the response, so a client that reads the trace
/// right after the reply always finds the span.
fn finish_request_span(span: Option<Span>, outcome: &str, cached_rows: u64) {
    if let Some(s) = span {
        s.record_str("outcome", outcome);
        if cached_rows > 0 {
            s.record_u64("cached_rows", cached_rows);
        }
        s.finish();
    }
}

/// The event loop. Owns the listener, every client socket, the poller
/// and the in-flight bookkeeping; everything else reaches it through
/// the completion queue + waker.
pub(crate) struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    pending: HashMap<u64, PendingRound>,
    next_pending: u64,
    completion_tx: Sender<Completion>,
    completion_rx: Receiver<Completion>,
    waker: Waker,
    wake_rx: UnixStream,
    scratch: Vec<u8>,
    accept_backoff: Duration,
    accept_paused_until: Option<Instant>,
    /// Drain deadline, set once the stop flag is noticed.
    draining: Option<Instant>,
    /// Per-client leakage audit ledger; `None` when [`crate::ServeConfig`]
    /// disables auditing. Owned by the reactor thread — counters are
    /// plain integers, no locks on the request path.
    ledger: Option<AuditLedger>,
}

impl Reactor {
    /// Builds the reactor around an already-bound nonblocking listener
    /// and returns it with the waker [`crate::ServerHandle`] uses to
    /// nudge the loop on shutdown.
    pub fn new(listener: TcpListener, shared: Arc<Shared>) -> io::Result<(Reactor, Waker)> {
        let mut poller = Poller::new()?;
        let (waker, wake_rx) = sys::wake_pair()?;
        poller.register(fd_of(&listener), LISTENER_TOKEN, Interest::READ)?;
        poller.register(fd_of(&wake_rx), WAKER_TOKEN, Interest::READ)?;
        let (completion_tx, completion_rx) = mpsc::channel();
        let handle_waker = waker.clone();
        let ledger = shared
            .audit
            .then(|| AuditLedger::new(Arc::clone(shared.metrics.registry())));
        Ok((
            Reactor {
                poller,
                listener: Some(listener),
                shared,
                conns: HashMap::new(),
                next_conn: 0,
                pending: HashMap::new(),
                next_pending: 0,
                completion_tx,
                completion_rx,
                waker,
                wake_rx,
                scratch: vec![0u8; 64 * 1024],
                accept_backoff: ACCEPT_BACKOFF_MIN,
                accept_paused_until: None,
                draining: None,
                ledger,
            },
            handle_waker,
        ))
    }

    /// The event loop body; runs until shutdown has drained.
    pub fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.stop.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if let Some(deadline) = self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if Instant::now() >= deadline {
                    // Slow readers don't get to hold shutdown hostage.
                    let ids: Vec<u64> = self.conns.keys().copied().collect();
                    for id in ids {
                        self.remove_conn(id);
                    }
                    break;
                }
            }
            self.maybe_resume_accept();
            events.clear();
            if self
                .poller
                .wait(&mut events, Some(self.wait_timeout()))
                .is_err()
            {
                // A wait that cannot make progress is fatal: drain out.
                self.shared.stop.store(true, Ordering::SeqCst);
                continue;
            }
            for ev in std::mem::take(&mut events) {
                match ev.token {
                    LISTENER_TOKEN => self.on_accept(),
                    WAKER_TOKEN => drain_wake_pipe(&self.wake_rx),
                    id => {
                        if ev.closed {
                            // Full hangup: nothing is deliverable.
                            self.remove_conn(id);
                            continue;
                        }
                        if ev.readable {
                            self.on_conn_readable(id);
                        }
                        if ev.writable {
                            self.flush_and_update(id);
                        }
                    }
                }
            }
            while let Ok(c) = self.completion_rx.try_recv() {
                self.on_completion(c);
            }
        }
        // Any pending completions past this point belong to connections
        // that no longer exist; the batchers drain and exit on their own
        // stop-flag tick, joined by the server handle.
    }

    fn wait_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut t = TICK;
        if let Some(until) = self.accept_paused_until {
            t = t.min(until.saturating_duration_since(now));
        }
        if let Some(deadline) = self.draining {
            t = t.min(deadline.saturating_duration_since(now));
        }
        t
    }

    // -----------------------------------------------------------------
    // Accepting.

    fn on_accept(&mut self) {
        if self.draining.is_some() || self.accept_paused_until.is_some() {
            return;
        }
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.accept_backoff = ACCEPT_BACKOFF_MIN;
                    // A socket that can't go nonblocking can't be driven
                    // by the event loop: close it rather than proceed
                    // with a mode that would hang the loop (the blocking
                    // server's set_read_timeout bug, fixed structurally).
                    if stream.set_nonblocking(true).is_err() {
                        self.shared
                            .metrics
                            .record_accept_error(AcceptErrorKind::Setup);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let id = self.next_conn;
                    self.next_conn += 1;
                    if self
                        .poller
                        .register(fd_of(&stream), id, Interest::READ)
                        .is_err()
                    {
                        self.shared
                            .metrics
                            .record_accept_error(AcceptErrorKind::Setup);
                        continue;
                    }
                    self.conns.insert(id, Conn::new(stream, id));
                    self.shared
                        .metrics
                        .record_connection_opened(self.conns.len() as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) => {
                    let kind = classify_accept_error(&e);
                    self.shared.metrics.record_accept_error(kind);
                    match kind {
                        // Per-connection failures consume the pending
                        // connection; keep accepting.
                        AcceptErrorKind::Aborted | AcceptErrorKind::Interrupted => continue,
                        // Resource exhaustion: back off exponentially.
                        AcceptErrorKind::Exhausted => {
                            self.pause_accept(true);
                            return;
                        }
                        // Unknown persistent errors: pace retries at the
                        // floor instead of spinning.
                        AcceptErrorKind::Setup | AcceptErrorKind::Other => {
                            self.pause_accept(false);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Suspends accepting for one backoff window. Listener *interest*
    /// is dropped too: under level-triggered readiness a still-pending
    /// connection would otherwise wake the loop hot for the whole pause.
    fn pause_accept(&mut self, exponential: bool) {
        let pause = if exponential {
            let p = self.accept_backoff;
            self.accept_backoff = (self.accept_backoff * 2).min(ACCEPT_BACKOFF_MAX);
            p
        } else {
            ACCEPT_BACKOFF_MIN
        };
        self.accept_paused_until = Some(Instant::now() + pause);
        if let Some(l) = &self.listener {
            let _ = self.poller.modify(fd_of(l), LISTENER_TOKEN, Interest::NONE);
        }
    }

    fn maybe_resume_accept(&mut self) {
        let Some(until) = self.accept_paused_until else {
            return;
        };
        if Instant::now() < until {
            return;
        }
        self.accept_paused_until = None;
        if let Some(l) = &self.listener {
            let _ = self.poller.modify(fd_of(l), LISTENER_TOKEN, Interest::READ);
        }
        self.on_accept();
    }

    // -----------------------------------------------------------------
    // Reading and frame assembly.

    fn on_conn_readable(&mut self, id: u64) {
        let mut dead = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            for _ in 0..MAX_READ_PASSES {
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        // Peer half-closed: no more requests, but
                        // everything already queued still gets answered
                        // and flushed before the socket closes.
                        conn.read_done = true;
                        conn.close_when_flushed = true;
                        break;
                    }
                    Ok(n) => {
                        if !conn.read_done {
                            conn.buf.extend_from_slice(&self.scratch[..n]);
                        }
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }
        if dead {
            self.remove_conn(id);
            return;
        }
        self.parse_frames(id);
        self.flush_and_update(id);
    }

    /// Drains every complete frame out of `buf`, up to the pipeline cap.
    fn parse_frames(&mut self, id: u64) {
        loop {
            let payload = {
                let Some(conn) = self.conns.get_mut(&id) else {
                    return;
                };
                if conn.read_done || conn.buf.len() < 4 {
                    None
                } else if conn.inflight >= PIPELINE_CAP {
                    // Backpressure: stop reading until rounds complete.
                    conn.paused_read = true;
                    None
                } else {
                    let len =
                        u32::from_le_bytes(conn.buf[..4].try_into().expect("4 bytes")) as usize;
                    if len > MAX_FRAME_LEN {
                        // Framing corruption: not a decodable request,
                        // so there is nothing to answer — stop reading
                        // and close once prior responses have flushed.
                        conn.read_done = true;
                        conn.close_when_flushed = true;
                        conn.buf.clear();
                        None
                    } else if conn.buf.len() < 4 + len {
                        None // incomplete frame: wait for more bytes
                    } else {
                        let payload = conn.buf[4..4 + len].to_vec();
                        conn.buf.drain(..4 + len);
                        Some(payload)
                    }
                }
            };
            match payload {
                Some(p) => self.handle_request(id, p),
                None => return,
            }
        }
    }

    // -----------------------------------------------------------------
    // Request handling (validation identical to the blocking server's).

    fn handle_request(&mut self, id: u64, payload: Vec<u8>) {
        let t0 = Instant::now();
        let seq = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let s = conn.next_seq;
            conn.next_seq += 1;
            s
        };
        match decode_request(&payload) {
            Err(e) => {
                self.shared.metrics.record_error();
                self.stage_response(
                    id,
                    seq,
                    t0,
                    &Response::Error(format!("bad request: {e}")),
                    true,
                );
            }
            Ok(Request::Ping) => self.stage_response(id, seq, t0, &Response::Pong, false),
            Ok(Request::Info) => {
                let info = self.shared.info.clone();
                self.stage_response(id, seq, t0, &Response::Info(info), false);
            }
            Ok(Request::Metrics) => {
                let report = self.shared.metrics.report();
                self.stage_response(id, seq, t0, &Response::Metrics(report), false);
            }
            Ok(Request::MetricsText) => {
                let text = self.shared.metrics.exposition();
                self.stage_response(id, seq, t0, &Response::MetricsText(text), false);
            }
            Ok(Request::Shutdown) => {
                self.stage_response(id, seq, t0, &Response::ShuttingDown, false);
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.read_done = true;
                    conn.close_when_flushed = true;
                }
                self.flush_and_update(id);
                self.shared.stop.store(true, Ordering::SeqCst);
                // The drain starts on the next loop turn.
            }
            Ok(Request::PredictByIndex(indices)) => self.start_stored(id, seq, t0, indices, None),
            Ok(Request::PredictFeatures(slices)) => self.start_adhoc(id, seq, t0, slices, None),
            Ok(Request::PredictByIndexTraced(indices, ctx)) => {
                self.start_stored(id, seq, t0, indices, Some(ctx))
            }
            Ok(Request::PredictFeaturesTraced(slices, ctx)) => {
                self.start_adhoc(id, seq, t0, slices, Some(ctx))
            }
            Ok(Request::TraceExport) => {
                let text = self.shared.tracer.to_jsonl();
                self.stage_response(id, seq, t0, &Response::TraceJsonl(text), false);
            }
            Ok(Request::AuditReport) => {
                let n = self.shared.info.n_samples as u64;
                let summary = match &mut self.ledger {
                    Some(ledger) => ledger.summary(n, Instant::now()),
                    // Auditing off: an empty report, not an error — the
                    // op stays probeable either way.
                    None => AuditSummary {
                        n_samples: n,
                        clients: Vec::new(),
                    },
                };
                self.stage_response(id, seq, t0, &Response::Audit(summary), false);
            }
            Ok(
                Request::JobSubmit(_)
                | Request::JobStatus(_)
                | Request::JobList
                | Request::JobCancel(_)
                | Request::JobAttach { .. }
                | Request::JobReport(_),
            ) => {
                // Job ops share the tag space but are a campaign-daemon
                // surface; a prediction server rejects them with a typed
                // error so a misdirected client fails loudly, not oddly.
                self.shared.metrics.record_error();
                self.stage_response(
                    id,
                    seq,
                    t0,
                    &Response::Error(
                        "job ops are served by fia-campaignd, not a prediction server".to_string(),
                    ),
                    true,
                );
            }
            Ok(Request::DeclareSession(tag)) => {
                if let Some(conn) = self.conns.get_mut(&id) {
                    // An empty tag reverts to the per-connection default.
                    conn.label = if tag.is_empty() {
                        format!("conn-{id}")
                    } else {
                        tag
                    };
                }
                self.stage_response(id, seq, t0, &Response::SessionAck, false);
            }
        }
    }

    /// Opens the `serve.request` span for a traced request: a
    /// server-side root *linked* to the client-side span id carried in
    /// the frame, which is what joins the two JSONL streams after a
    /// merge. Untraced requests cost no span at all.
    fn open_request_span(&self, ctx: Option<TraceContext>, op: &str) -> Option<Span> {
        ctx.map(|c| {
            let s = self
                .shared
                .tracer
                .root_with_parent("serve.request", c.parent_span);
            s.record_u64("trace_id", c.trace_id);
            s.record_str("op", op);
            s
        })
    }

    /// Records one successfully answered stored-index query against the
    /// connection's ledger entry. Called exactly where a `Scores`
    /// response stages — the same event the client meters — which is
    /// what the server/client `QueryCost` parity guarantee rests on.
    fn audit_stored(&mut self, id: u64, indices: &[u32], cached_rows: u64) {
        if let (Some(ledger), Some(conn)) = (&mut self.ledger, self.conns.get(&id)) {
            ledger.record_stored(&conn.label, indices, cached_rows, Instant::now());
        }
    }

    /// Ledger entry for one successfully answered ad-hoc feature query.
    fn audit_features(&mut self, id: u64, rows: u64) {
        if let (Some(ledger), Some(conn)) = (&mut self.ledger, self.conns.get(&id)) {
            ledger.record_features(&conn.label, rows, Instant::now());
        }
    }

    fn start_stored(
        &mut self,
        id: u64,
        seq: u64,
        t0: Instant,
        indices: Vec<u32>,
        trace: Option<TraceContext>,
    ) {
        let req_span = self.open_request_span(trace, "predict_by_index");
        if let Some(s) = &req_span {
            s.record_u64("rows", indices.len() as u64);
        }
        let n = self.shared.info.n_samples;
        if let Some(&bad) = indices.iter().find(|&&i| (i as usize) >= n) {
            finish_request_span(req_span, "rejected", 0);
            self.shared.metrics.record_error();
            let resp =
                Response::Error(format!("sample index {bad} out of range (n_samples = {n})"));
            self.stage_response(id, seq, t0, &resp, true);
            return;
        }
        // Keep the u32 identities: the audit ledger tracks distinct and
        // repeated stored rows by exactly what the client asked for.
        let raw = indices;
        let indices: Vec<usize> = raw.iter().map(|&i| i as usize).collect();
        if indices.is_empty() {
            // Nothing to compute or defend: answer the empty round
            // directly. It still counts as one query in the ledger,
            // exactly as the client meters it.
            self.audit_stored(id, &raw, 0);
            finish_request_span(req_span, "ok", 0);
            let resp = Response::Scores {
                scores: Matrix::zeros(0, self.shared.info.n_classes),
                cached_rows: 0,
            };
            self.stage_response(id, seq, t0, &resp, false);
            return;
        }
        let StoredPlan { out, hits, groups } = {
            let cache_span = req_span.as_ref().map(|s| s.child("serve.cache"));
            let plan = self.shared.dispatcher.plan_stored(&indices);
            if let Some(cs) = &cache_span {
                cs.record_u64("hit_rows", plan.hits);
                cs.record_u64(
                    "miss_rows",
                    (indices.len() as u64).saturating_sub(plan.hits),
                );
            }
            plan
        };
        if groups.is_empty() {
            // Fully cache-served: no round, no protocol cost.
            self.audit_stored(id, &raw, hits);
            finish_request_span(req_span, "ok", hits);
            let resp = Response::Scores {
                scores: out,
                cached_rows: hits as u32,
            };
            self.stage_response(id, seq, t0, &resp, false);
            return;
        }
        let pid = self.next_pending;
        self.next_pending += 1;
        let remaining = groups.len();
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight += 1;
        }
        let dispatch_spans: Vec<Option<Span>> = groups
            .iter()
            .map(|(shard, group)| {
                req_span.as_ref().map(|s| {
                    let d = s.child("serve.dispatch");
                    d.record_u64("shard", *shard as u64);
                    d.record_u64("rows", group.len() as u64);
                    d
                })
            })
            .collect();
        let audit = self.ledger.is_some().then_some(AuditKind::Stored {
            indices: raw,
            cached: hits,
        });
        self.pending.insert(
            pid,
            PendingRound {
                conn: id,
                seq,
                t0,
                out,
                hits,
                groups,
                remaining,
                adhoc: false,
                failed: None,
                req_span,
                dispatch_spans,
                audit,
            },
        );
        let round = self.pending.get(&pid).expect("just inserted");
        for (part, (shard, group)) in round.groups.iter().enumerate() {
            let reply = ReplyTo::Reactor(ReactorReply::new(
                self.completion_tx.clone(),
                self.waker.clone(),
                pid,
                part,
            ));
            let parent = round.dispatch_spans[part].as_ref().map(|d| d.id());
            self.shared
                .dispatcher
                .send_stored_part(*shard, group, reply, parent);
        }
    }

    fn start_adhoc(
        &mut self,
        id: u64,
        seq: u64,
        t0: Instant,
        slices: Vec<Matrix>,
        trace: Option<TraceContext>,
    ) {
        let req_span = self.open_request_span(trace, "predict_features");
        let widths = &self.shared.info.party_widths;
        if slices.len() != widths.len() {
            finish_request_span(req_span, "rejected", 0);
            self.shared.metrics.record_error();
            let resp = Response::Error(format!(
                "expected {} party feature blocks, got {}",
                widths.len(),
                slices.len()
            ));
            self.stage_response(id, seq, t0, &resp, true);
            return;
        }
        let rows = slices.first().map(|s| s.rows()).unwrap_or_default();
        if let Some(s) = &req_span {
            s.record_u64("rows", rows as u64);
        }
        for (p, (block, &width)) in slices.iter().zip(widths).enumerate() {
            if block.cols() != width {
                finish_request_span(req_span, "rejected", 0);
                self.shared.metrics.record_error();
                let resp = Response::Error(format!(
                    "party {p} block is {} wide, expected {width}",
                    block.cols()
                ));
                self.stage_response(id, seq, t0, &resp, true);
                return;
            }
            if block.rows() != rows {
                finish_request_span(req_span, "rejected", 0);
                self.shared.metrics.record_error();
                let resp = Response::Error("party blocks must be row-aligned".to_string());
                self.stage_response(id, seq, t0, &resp, true);
                return;
            }
        }
        if rows == 0 {
            self.audit_features(id, 0);
            finish_request_span(req_span, "ok", 0);
            let resp = Response::Scores {
                scores: Matrix::zeros(0, self.shared.info.n_classes),
                cached_rows: 0,
            };
            self.stage_response(id, seq, t0, &resp, false);
            return;
        }
        let pid = self.next_pending;
        self.next_pending += 1;
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight += 1;
        }
        let dispatch_span = req_span.as_ref().map(|s| {
            let d = s.child("serve.dispatch");
            d.record_u64("rows", rows as u64);
            d
        });
        let parent = dispatch_span.as_ref().map(|d| d.id());
        let audit = self
            .ledger
            .is_some()
            .then_some(AuditKind::Features { rows: rows as u64 });
        self.pending.insert(
            pid,
            PendingRound {
                conn: id,
                seq,
                t0,
                out: Matrix::zeros(0, 0),
                hits: 0,
                groups: Vec::new(),
                remaining: 1,
                adhoc: true,
                failed: None,
                req_span,
                dispatch_spans: vec![dispatch_span],
                audit,
            },
        );
        let reply = ReplyTo::Reactor(ReactorReply::new(
            self.completion_tx.clone(),
            self.waker.clone(),
            pid,
            0,
        ));
        self.shared
            .dispatcher
            .send_adhoc(slices, rows, reply, parent);
    }

    // -----------------------------------------------------------------
    // Completions.

    fn on_completion(&mut self, c: Completion) {
        let finished = {
            let Some(p) = self.pending.get_mut(&c.pending_id) else {
                return; // request's connection is long gone
            };
            p.remaining -= 1;
            // This part's dispatch span ends now, success or not.
            if let Some(slot) = p.dispatch_spans.get_mut(c.part) {
                drop(slot.take());
            }
            match c.result {
                Ok(part) => {
                    if p.adhoc {
                        p.out = part;
                    } else {
                        let group = &p.groups[c.part].1;
                        self.shared
                            .dispatcher
                            .finish_stored_part(group, &part, &mut p.out);
                    }
                }
                Err(why) => {
                    if p.failed.is_none() {
                        p.failed = Some(why);
                    }
                }
            }
            p.remaining == 0
        };
        if !finished {
            return;
        }
        let mut p = self.pending.remove(&c.pending_id).expect("checked above");
        let (resp, is_error) = match p.failed.take() {
            Some(why) => (Response::Error(why), true),
            None => (
                Response::Scores {
                    scores: std::mem::replace(&mut p.out, Matrix::zeros(0, 0)),
                    cached_rows: p.hits as u32,
                },
                false,
            ),
        };
        let outcome = if is_error { "error" } else { "ok" };
        finish_request_span(p.req_span.take(), outcome, p.hits);
        let resume = {
            let Some(conn) = self.conns.get_mut(&p.conn) else {
                return; // connection died while the round ran
            };
            conn.inflight -= 1;
            let resume = conn.paused_read && conn.inflight < PIPELINE_CAP;
            if resume {
                conn.paused_read = false;
            }
            resume
        };
        // Ledger accounting happens only when a `Scores` response really
        // stages to a live connection — the exact event the client's own
        // cost metering counts, so the two stay equal by construction.
        if !is_error {
            match p.audit.take() {
                Some(AuditKind::Stored { indices, cached }) => {
                    self.audit_stored(p.conn, &indices, cached)
                }
                Some(AuditKind::Features { rows }) => self.audit_features(p.conn, rows),
                None => {}
            }
        }
        self.stage_response(p.conn, p.seq, p.t0, &resp, is_error);
        if resume {
            // Frames buffered while the pipeline cap held are parsed now
            // — no new readable event will announce them.
            self.parse_frames(p.conn);
            self.flush_and_update(p.conn);
        }
    }

    // -----------------------------------------------------------------
    // Response emission and writing.

    /// Encodes `resp` into `seq`'s slot and emits every response that is
    /// now next in per-connection order.
    fn stage_response(&mut self, id: u64, seq: u64, t0: Instant, resp: &Response, is_error: bool) {
        let frame = encode_response(resp).unwrap_or_else(|_| {
            encode_response(&Response::Error("response encoding failed".to_string()))
                .expect("error responses always encode")
        });
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            conn.staged.insert(
                seq,
                Staged {
                    frame,
                    t0,
                    error: is_error,
                },
            );
            while let Some(s) = conn.staged.remove(&conn.emit_seq) {
                conn.out
                    .extend_from_slice(&(s.frame.len() as u32).to_le_bytes());
                conn.out.extend_from_slice(&s.frame);
                if !s.error {
                    self.shared
                        .metrics
                        .record_request(s.t0.elapsed().as_micros() as u64);
                }
                conn.emit_seq += 1;
            }
        }
        self.flush_and_update(id);
    }

    /// Greedily writes buffered output, then reconciles poller interest
    /// and the close-when-flushed state.
    fn flush_and_update(&mut self, id: u64) {
        let mut dead = false;
        let removable = {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            while conn.out_pos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.out_pos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.out_pos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if conn.out_drained() {
                conn.out.clear();
                conn.out_pos = 0;
            } else if conn.out_pos > COMPACT_THRESHOLD {
                conn.out.drain(..conn.out_pos);
                conn.out_pos = 0;
            }
            conn.removable()
        };
        if dead || removable {
            self.remove_conn(id);
            return;
        }
        self.update_interest(id);
    }

    fn update_interest(&mut self, id: u64) {
        let mut broken = false;
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            let desired = Interest {
                read: !conn.read_done && !conn.paused_read,
                write: !conn.out_drained(),
            };
            if desired != conn.reg {
                if self.poller.modify(fd_of(&conn.stream), id, desired).is_ok() {
                    conn.reg = desired;
                } else {
                    broken = true; // unwatchable socket: drop it
                }
            }
        }
        if broken {
            self.remove_conn(id);
        }
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            let _ = self.poller.deregister(fd_of(&conn.stream));
            self.shared
                .metrics
                .record_connection_closed(self.conns.len() as u64);
        }
    }

    // -----------------------------------------------------------------
    // Shutdown.

    /// Enters drain mode (idempotent): close the listener now, stop
    /// reading everywhere, let queued rounds finish and flush.
    fn begin_drain(&mut self) {
        if self.draining.is_some() {
            return;
        }
        self.draining = Some(Instant::now() + DRAIN_DEADLINE);
        self.accept_paused_until = None;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(fd_of(&l));
            // Dropping the listener closes it: new connects are refused
            // from this instant, which is what the shutdown contract
            // promises.
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.read_done = true;
                conn.close_when_flushed = true;
                conn.buf.clear();
            }
            self.flush_and_update(id);
        }
    }
}

/// What went wrong in `accept()`, coarse enough to be a counter label
/// and precise enough to pick a policy: per-connection failures are
/// retried immediately, resource exhaustion backs off.
pub(crate) fn classify_accept_error(e: &io::Error) -> AcceptErrorKind {
    // Raw errno values (Linux; EMFILE/ENFILE/ENOMEM are identical on
    // the other unices this crate compiles for).
    const EMFILE: i32 = 24;
    const ENFILE: i32 = 23;
    const ENOMEM: i32 = 12;
    #[cfg(target_os = "linux")]
    const ENOBUFS: i32 = 105;
    #[cfg(not(target_os = "linux"))]
    const ENOBUFS: i32 = 55;

    if matches!(e.raw_os_error(), Some(EMFILE | ENFILE | ENOMEM | ENOBUFS))
        || e.kind() == io::ErrorKind::OutOfMemory
    {
        return AcceptErrorKind::Exhausted;
    }
    match e.kind() {
        io::ErrorKind::ConnectionAborted | io::ErrorKind::ConnectionReset => {
            AcceptErrorKind::Aborted
        }
        io::ErrorKind::Interrupted => AcceptErrorKind::Interrupted,
        _ => AcceptErrorKind::Other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_errors_classify_by_errno_and_kind() {
        // EMFILE / ENFILE / ENOMEM / ENOBUFS are the fd-or-memory
        // exhaustion regime thousands of clients actually hit.
        for errno in [24, 23, 12, if cfg!(target_os = "linux") { 105 } else { 55 }] {
            assert_eq!(
                classify_accept_error(&io::Error::from_raw_os_error(errno)),
                AcceptErrorKind::Exhausted,
                "errno {errno}"
            );
        }
        assert_eq!(
            classify_accept_error(&io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "peer gave up in the backlog"
            )),
            AcceptErrorKind::Aborted
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::Interrupted, "signal")),
            AcceptErrorKind::Interrupted
        );
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::PermissionDenied, "firewall")),
            AcceptErrorKind::Other
        );
        // WouldBlock never reaches the classifier in the accept loop,
        // but if it did it must not be misread as exhaustion.
        assert_eq!(
            classify_accept_error(&io::Error::new(io::ErrorKind::WouldBlock, "empty backlog")),
            AcceptErrorKind::Other
        );
    }

    #[test]
    fn exhaustion_backoff_doubles_and_caps() {
        // The policy the reactor applies via pause_accept(true).
        let mut backoff = ACCEPT_BACKOFF_MIN;
        let mut seen = Vec::new();
        for _ in 0..10 {
            seen.push(backoff);
            backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
        }
        assert_eq!(seen[0], Duration::from_millis(10));
        assert_eq!(seen[1], Duration::from_millis(20));
        assert!(seen.windows(2).all(|w| w[1] >= w[0]), "monotone");
        assert_eq!(*seen.last().unwrap(), ACCEPT_BACKOFF_MAX, "capped");
    }
}
