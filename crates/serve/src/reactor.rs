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
//! * each socket is a [`FramedConn`], the connection `fia-campaignd`'s
//!   daemon loop and the open-loop generator drive too: inbound bytes
//!   are assembled *incrementally* and complete frames are decoded with
//!   the same `wire.rs` codec the blocking path uses. A half-closed peer
//!   is not read again, and its socket closes once every request it
//!   sent has been answered and written;
//! * prediction work flows through the [`Dispatcher`] to the replica
//!   pool. The reactor holds back the first prediction part of each
//!   loop pass if it fits one coalesced round and rounds cost nothing.
//!   If it stays the pass's only part, the reactor offers it to
//!   [`Dispatcher::run_here`](crate::dispatch::Dispatcher::run_here),
//!   which runs it as a round on this thread when its replica is idle:
//!   a lone closed-loop client then wakes one server thread per
//!   request, not three. Anything else — a second part in the pass, a
//!   busy replica, a large part, a simulated round cost — is queued to
//!   the replica batchers by channel, so bursts still coalesce.
//!   Completed sub-rounds come back on a completion queue (plus a
//!   [`Waker`] nudge from a batcher), and responses are written through
//!   the reactor's writable-readiness machinery — a slow reader buffers
//!   its own responses and never blocks a batcher;
//! * responses are emitted strictly in per-connection request order
//!   (pipelined clients see FIFO answers even though rounds complete
//!   out of order);
//! * accept errors are classified ([`sys::classify_accept_error`]) and
//!   counted per kind (`fia_serve_accept_errors_total{kind=}`); the
//!   shared [`AcceptBackoff`] policy pauses the listener, with its
//!   interest suspended, under fd exhaustion, so the EMFILE regime is a
//!   counted, paced retry instead of a silent hot loop;
//! * shutdown drains: the listener closes immediately, queued jobs are
//!   answered by the batchers, buffered responses are flushed (bounded
//!   by [`DRAIN_DEADLINE`]), and the loop exits with every connection
//!   accounted for.

use crate::audit::{AuditLedger, AuditSummary};
use crate::dispatch::{Part, StoredPlan};
use crate::metrics::AcceptErrorKind;
use crate::pool::{Completion, ReactorReply, ReplyTo, TraceLink};
use crate::server::Shared;
use crate::sys::{
    self, classify_accept_error, drain_wake_pipe, fd_of, AcceptBackoff, Event, FramedConn,
    Interest, Poller, Waker,
};
use crate::wire::{decode_request, encode_reply, Request, Response};
use fia_core::TraceContext;
use fia_linalg::Matrix;
use fia_telemetry::{Span, SpanRecord, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::TcpListener;
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

/// In-flight prediction requests per connection before the reactor
/// stops reading from it — backpressure for pipelining clients, so one
/// greedy connection cannot queue unbounded jobs.
const PIPELINE_CAP: usize = 256;

/// Bounded read passes per readable event, so one firehose connection
/// cannot starve the rest of the loop.
const MAX_READ_PASSES: usize = 16;

/// One client connection's entire state — a struct, not a thread.
struct Conn {
    io: FramedConn,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number of the next response to queue on `io`.
    emit_seq: u64,
    /// Encoded responses waiting on earlier sequence numbers.
    staged: BTreeMap<u64, Vec<u8>>,
    /// Prediction requests handed to the pool and not yet answered.
    inflight: usize,
    /// Reads suspended at [`PIPELINE_CAP`].
    paused_read: bool,
    /// Audit-ledger label: `conn-{id}` until the client declares a
    /// session tag (`DeclareSession`), which survives as the stable
    /// identity across reconnects.
    label: String,
}

impl Conn {
    fn new(io: FramedConn, id: u64) -> Self {
        Conn {
            io,
            next_seq: 0,
            emit_seq: 0,
            staged: BTreeMap::new(),
            inflight: 0,
            paused_read: false,
            label: format!("conn-{id}"),
        }
    }
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
    /// The request's span tree (traced requests only); it finishes just
    /// before the response is staged.
    trace: Option<RequestTrace>,
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

/// A traced request's spans while it is answered: its own sink, a fork
/// of the server tracer that every span of its tree files into on
/// whichever thread, and its open `serve.request` span.
struct RequestTrace {
    sink: Tracer,
    span: Span,
}

impl RequestTrace {
    /// Opens a `serve.dispatch` span for one part, and the link under
    /// which that part's round files its spans.
    fn dispatch(&self) -> (Span, TraceLink) {
        let span = self.span.child("serve.dispatch");
        let link = TraceLink {
            sink: self.sink.clone(),
            parent: span.id(),
        };
        (span, link)
    }

    /// Finishes the `serve.request` span with the request's latency and
    /// takes the whole tree, by now finished, out of the sink.
    fn finish(self, latency_us: u64) -> Vec<SpanRecord> {
        self.span.record_u64("latency_us", latency_us);
        self.span.finish();
        self.sink.take_records()
    }
}

/// Records a traced request's outcome (plus its cache hits, if any) on
/// its `serve.request` span, for [`Reactor::answer`] to finish.
fn with_outcome(
    trace: Option<RequestTrace>,
    outcome: &str,
    cached_rows: u64,
) -> Option<RequestTrace> {
    if let Some(t) = &trace {
        t.span.record_str("outcome", outcome);
        if cached_rows > 0 {
            t.span.record_u64("cached_rows", cached_rows);
        }
    }
    trace
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
    accept: AcceptBackoff,
    /// The first prediction part planned in this loop pass, held back
    /// so that a lone part can run on this thread (see `settle`).
    held: Option<Part>,
    /// This pass planned a part that could not be held: every part goes
    /// to the batcher queues at once, so a burst coalesces.
    burst: bool,
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
                accept: AcceptBackoff::new(LISTENER_TOKEN),
                held: None,
                burst: false,
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
            self.settle();
        }
        // Any pending completions past this point belong to connections
        // that no longer exist; the batchers drain and exit on their own
        // stop-flag tick, joined by the server handle.
    }

    fn wait_timeout(&self) -> Duration {
        let mut t = self.accept.wait_timeout(TICK);
        if let Some(deadline) = self.draining {
            t = t.min(deadline.saturating_duration_since(Instant::now()));
        }
        t
    }

    // -----------------------------------------------------------------
    // Sending prediction parts.

    /// Sends one planned part on its way. The first part of a loop pass
    /// is held for `settle` if it could run on this thread; any other
    /// part starts a burst, which sends the held part and every later
    /// part of the pass straight to the queues.
    fn submit(&mut self, part: Part) {
        if !self.burst && self.held.is_none() && self.shared.dispatcher.fits_here(&part) {
            self.held = Some(part);
            return;
        }
        self.burst = true;
        if let Some(first) = self.held.take() {
            self.shared.dispatcher.send(first);
        }
        self.shared.dispatcher.send(part);
    }

    /// Ends a loop pass: offers a still-held part to
    /// [`Dispatcher::run_here`](crate::dispatch::Dispatcher::run_here),
    /// then drains completions. A completion can resume a paused
    /// connection and parse new frames, so this repeats until nothing
    /// is held and no completion is pending. A round run here delivers
    /// its completion without a wake, so this drain is what answers it.
    fn settle(&mut self) {
        loop {
            self.burst = false;
            if let Some(part) = self.held.take() {
                self.shared.dispatcher.run_here(part);
            }
            let mut drained = false;
            while let Ok(c) = self.completion_rx.try_recv() {
                drained = true;
                self.on_completion(c);
            }
            if !drained && self.held.is_none() {
                return;
            }
        }
    }

    // -----------------------------------------------------------------
    // Accepting.

    /// Accepts every pending connection. A draining server has already
    /// closed its listener.
    fn on_accept(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match self.accept.accept(listener, &mut self.poller) {
                Ok(Some(stream)) => {
                    let id = self.next_conn;
                    self.next_conn += 1;
                    // A socket that can't go nonblocking can't be driven
                    // by the event loop: it is closed, not kept in a mode
                    // that would hang the loop.
                    let Ok(io) = FramedConn::register(stream, &mut self.poller, id) else {
                        self.shared
                            .metrics
                            .record_accept_error(AcceptErrorKind::Setup);
                        continue;
                    };
                    self.conns.insert(id, Conn::new(io, id));
                    self.shared
                        .metrics
                        .record_connection_opened(self.conns.len() as u64);
                }
                Ok(None) => return,
                Err(e) => self
                    .shared
                    .metrics
                    .record_accept_error(classify_accept_error(&e)),
            }
        }
    }

    fn maybe_resume_accept(&mut self) {
        let Some(l) = &self.listener else {
            return;
        };
        if self.accept.resume_due(&mut self.poller, fd_of(l)) {
            self.on_accept();
        }
    }

    // -----------------------------------------------------------------
    // Reading and frame assembly.

    fn on_conn_readable(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if conn.io.read(&mut self.scratch, MAX_READ_PASSES).is_err() {
            self.remove_conn(id);
            return;
        }
        self.parse_frames(id);
        self.flush_and_update(id);
    }

    /// Handles every complete frame received, up to the pipeline cap.
    /// Framing corruption is not a decodable request, so there is
    /// nothing to answer: the input closes, and the connection with it
    /// once prior responses have flushed.
    fn parse_frames(&mut self, id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.inflight >= PIPELINE_CAP {
                // Backpressure: stop reading until rounds complete.
                conn.paused_read = true;
                return;
            }
            let Ok(Some(payload)) = conn.io.next_frame() else {
                return;
            };
            self.handle_request(id, payload);
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
                self.answer(
                    id,
                    seq,
                    t0,
                    &Response::Error(format!("bad request: {e}")),
                    None,
                );
            }
            Ok(Request::Ping) => self.answer(id, seq, t0, &Response::Pong, None),
            Ok(Request::Info) => {
                let info = self.shared.info.clone();
                self.answer(id, seq, t0, &Response::Info(info), None);
            }
            Ok(Request::MetricsText) => {
                let text = self.shared.metrics.exposition();
                self.answer(id, seq, t0, &Response::MetricsText(text), None);
            }
            Ok(Request::Shutdown) => {
                self.answer(id, seq, t0, &Response::ShuttingDown, None);
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.io.close_input();
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
                let text = self.shared.traces.to_jsonl();
                self.answer(id, seq, t0, &Response::TraceJsonl(text), None);
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
                self.answer(id, seq, t0, &Response::Audit(summary), None);
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
                self.answer(
                    id,
                    seq,
                    t0,
                    &Response::Error(
                        "job ops are served by fia-campaignd, not a prediction server".to_string(),
                    ),
                    None,
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
                self.answer(id, seq, t0, &Response::SessionAck, None);
            }
        }
    }

    /// Opens a traced request's span tree on a fresh sink: a
    /// `serve.request` root *linked* to the client-side span id carried
    /// in the frame, which is what joins the two JSONL streams after a
    /// merge. Untraced requests cost no span at all.
    fn open_trace(&self, ctx: Option<TraceContext>, op: &str) -> Option<RequestTrace> {
        ctx.map(|c| {
            let sink = self.shared.traces.sink();
            let span = sink.root_with_parent("serve.request", c.parent_span);
            span.record_u64("trace_id", c.trace_id);
            span.record_str("op", op);
            RequestTrace { sink, span }
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
        let trace = self.open_trace(trace, "predict_by_index");
        if let Some(t) = &trace {
            t.span.record_u64("rows", indices.len() as u64);
        }
        let n = self.shared.info.n_samples;
        if let Some(&bad) = indices.iter().find(|&&i| (i as usize) >= n) {
            self.shared.metrics.record_error();
            let resp =
                Response::Error(format!("sample index {bad} out of range (n_samples = {n})"));
            self.answer(id, seq, t0, &resp, with_outcome(trace, "rejected", 0));
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
            let resp = Response::Scores {
                scores: Matrix::zeros(0, self.shared.info.n_classes),
                cached_rows: 0,
            };
            self.answer(id, seq, t0, &resp, with_outcome(trace, "ok", 0));
            return;
        }
        let StoredPlan { out, hits, groups } = {
            let cache_span = trace.as_ref().map(|t| t.span.child("serve.cache"));
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
            let resp = Response::Scores {
                scores: out,
                cached_rows: hits as u32,
            };
            self.answer(id, seq, t0, &resp, with_outcome(trace, "ok", hits));
            return;
        }
        let pid = self.next_pending;
        self.next_pending += 1;
        let remaining = groups.len();
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight += 1;
        }
        let (dispatch_spans, links): (Vec<Option<Span>>, Vec<Option<TraceLink>>) = groups
            .iter()
            .map(|(shard, group)| {
                trace
                    .as_ref()
                    .map(|t| {
                        let (d, link) = t.dispatch();
                        d.record_u64("shard", *shard as u64);
                        d.record_u64("rows", group.len() as u64);
                        (d, link)
                    })
                    .unzip()
            })
            .unzip();
        let audit = self.ledger.is_some().then_some(AuditKind::Stored {
            indices: raw,
            cached: hits,
        });
        let parts: Vec<Part> = groups
            .iter()
            .zip(links)
            .enumerate()
            .map(|(part, ((shard, group), link))| {
                Part::stored(*shard, group, self.reply_to(pid, part), link)
            })
            .collect();
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
                trace,
                dispatch_spans,
                audit,
            },
        );
        for part in parts {
            self.submit(part);
        }
    }

    /// The completion route for part `part` of pending request `pid`.
    fn reply_to(&self, pid: u64, part: usize) -> ReplyTo {
        ReplyTo::Reactor(ReactorReply::new(
            self.completion_tx.clone(),
            self.waker.clone(),
            pid,
            part,
        ))
    }

    fn start_adhoc(
        &mut self,
        id: u64,
        seq: u64,
        t0: Instant,
        slices: Vec<Matrix>,
        trace: Option<TraceContext>,
    ) {
        let trace = self.open_trace(trace, "predict_features");
        let widths = &self.shared.info.party_widths;
        if slices.len() != widths.len() {
            self.shared.metrics.record_error();
            let resp = Response::Error(format!(
                "expected {} party feature blocks, got {}",
                widths.len(),
                slices.len()
            ));
            self.answer(id, seq, t0, &resp, with_outcome(trace, "rejected", 0));
            return;
        }
        let rows = slices.first().map(|s| s.rows()).unwrap_or_default();
        if let Some(t) = &trace {
            t.span.record_u64("rows", rows as u64);
        }
        for (p, (block, &width)) in slices.iter().zip(widths).enumerate() {
            let why = if block.cols() != width {
                format!("party {p} block is {} wide, expected {width}", block.cols())
            } else if block.rows() != rows {
                "party blocks must be row-aligned".to_string()
            } else {
                continue;
            };
            self.shared.metrics.record_error();
            self.answer(
                id,
                seq,
                t0,
                &Response::Error(why),
                with_outcome(trace, "rejected", 0),
            );
            return;
        }
        if rows == 0 {
            self.audit_features(id, 0);
            let resp = Response::Scores {
                scores: Matrix::zeros(0, self.shared.info.n_classes),
                cached_rows: 0,
            };
            self.answer(id, seq, t0, &resp, with_outcome(trace, "ok", 0));
            return;
        }
        let pid = self.next_pending;
        self.next_pending += 1;
        if let Some(conn) = self.conns.get_mut(&id) {
            conn.inflight += 1;
        }
        let (dispatch_span, link) = trace.as_ref().map(|t| t.dispatch()).unzip();
        if let Some(d) = &dispatch_span {
            d.record_u64("rows", rows as u64);
        }
        let audit = self
            .ledger
            .is_some()
            .then_some(AuditKind::Features { rows: rows as u64 });
        let part = Part::adhoc(slices, rows, self.reply_to(pid, 0), link);
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
                trace,
                dispatch_spans: vec![dispatch_span],
                audit,
            },
        );
        self.submit(part);
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
        let p = self.pending.remove(&c.pending_id).expect("checked above");
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
        let (resp, outcome) = match p.failed {
            Some(why) => (Response::Error(why), "error"),
            None => {
                // Ledger accounting happens only when a `Scores`
                // response really stages to a live connection — the
                // exact event the client's own cost metering counts, so
                // the two stay equal by construction.
                match p.audit {
                    Some(AuditKind::Stored { indices, cached }) => {
                        self.audit_stored(p.conn, &indices, cached)
                    }
                    Some(AuditKind::Features { rows }) => self.audit_features(p.conn, rows),
                    None => {}
                }
                let scores = Response::Scores {
                    scores: p.out,
                    cached_rows: p.hits as u32,
                };
                (scores, "ok")
            }
        };
        let trace = with_outcome(p.trace, outcome, p.hits);
        self.answer(p.conn, p.seq, p.t0, &resp, trace);
        if resume {
            // Frames buffered while the pipeline cap held are parsed now
            // — no new readable event will announce them.
            self.parse_frames(p.conn);
            self.flush_and_update(p.conn);
        }
    }

    // -----------------------------------------------------------------
    // Response emission and writing.

    /// Answers request `seq` of connection `id`: measures its latency
    /// once, files a traced request's finished tree under that
    /// latency's bucket, then encodes `resp` into `seq`'s slot and
    /// emits every response that is now next in per-connection order.
    /// The same latency is an answered request's
    /// `fia_serve_request_duration_us` observation and its tree's
    /// `latency_us`. The tree is filed before the reply stages, so a
    /// client that reads the trace right after the reply finds it.
    fn answer(
        &mut self,
        id: u64,
        seq: u64,
        t0: Instant,
        resp: &Response,
        trace: Option<RequestTrace>,
    ) {
        let latency_us = t0.elapsed().as_micros() as u64;
        let failed = matches!(resp, Response::Error(_));
        let dropped = trace.and_then(|t| {
            self.shared
                .traces
                .keep(latency_us, failed, t.finish(latency_us))
        });
        if !failed {
            self.shared.metrics.record_request(latency_us);
        }
        let frame = encode_reply(resp);
        {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            conn.staged.insert(seq, frame);
            while let Some(frame) = conn.staged.remove(&conn.emit_seq) {
                conn.io
                    .queue(&frame)
                    .expect("encoded replies fit the frame cap");
                conn.emit_seq += 1;
            }
        }
        self.flush_and_update(id);
        // A tree that left the store is freed only now, after the reply
        // was written: its few dozen frees stay off the request's path.
        drop(dropped);
    }

    /// Greedily writes buffered output, then closes the connection if
    /// it is finished (its input ended and every request it sent has
    /// been answered and written) or broken, and otherwise reconciles
    /// its poller interest.
    fn flush_and_update(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let owes = conn.inflight > 0 || !conn.staged.is_empty();
        let keep = conn.io.flush().is_ok()
            && !conn.io.finished(owes)
            && conn
                .io
                .update_interest(&mut self.poller, !conn.paused_read)
                .is_ok();
        if !keep {
            self.remove_conn(id);
        }
    }

    fn remove_conn(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            conn.io.close(&mut self.poller);
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
        // The listener closes now, so no pause is left to wait out.
        self.accept = AcceptBackoff::new(LISTENER_TOKEN);
        if let Some(l) = self.listener.take() {
            let _ = self.poller.deregister(fd_of(&l));
            // Dropping the listener closes it: new connects are refused
            // from this instant, which is what the shutdown contract
            // promises.
        }
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.io.close_input();
            }
            self.flush_and_update(id);
        }
    }
}
