//! The campaign daemon: a durable, multi-tenant scheduler for attack
//! campaigns.
//!
//! One daemon process runs many campaigns concurrently on a bounded
//! worker pool, multiplexes all client traffic through a single
//! [`fia_serve::sys::Poller`] reactor thread (the same epoll/poll
//! abstraction the prediction server uses), and survives `SIGKILL`:
//!
//! - **Accept/submit**: clients speak the `fia-serve` wire protocol's
//!   job ops (`JOB_SUBMIT` … `JOB_REPORT`). A submitted [`JobSpec`] is
//!   persisted (atomically) before the daemon acknowledges it.
//! - **Shared deployments**: jobs are keyed by scenario fingerprint.
//!   Jobs with the same fingerprint share one resolved scenario — and,
//!   for [`JobOracle::Shared`] jobs, one spawned
//!   [`fia_serve::PredictionServer`] that all of them query over TCP.
//! - **Durability**: each worker appends a delta checkpoint frame — the
//!   rows released since the previous frame — to the job's write-ahead
//!   log (fsync'd) after every corpus chunk, *before* publishing that
//!   chunk's events. A killed daemon restarts, folds each job log's
//!   intact frames into the last durable checkpoint, cuts the log back
//!   to the last frame it folded, validates the scenario fingerprint,
//!   and resumes — bit-identically for the deterministic defenses the
//!   job spec admits.
//! - **Event streams**: every campaign event is appended to the job's
//!   `events.jsonl` under a gapless per-job sequence number; `JOB_ATTACH`
//!   replays from any sequence and then streams live, so a client that
//!   attaches mid-run (or re-attaches after a daemon restart) sees every
//!   event exactly once, in order.

use crate::outcome::JobOutcome;
use crate::spec::{JobOracle, JobSpec};
use crate::wal::{self, JobLog};
use fia_campaign::{
    Campaign, CampaignCheckpoint, CampaignEvent, OracleSpec, ResolvedScenario, StepOutcome,
};
use fia_serve::sys::{
    drain_wake_pipe, fd_of, wake_pair, AcceptBackoff, Event, FramedConn, Interest, Poller, Waker,
};
use fia_serve::wire::{decode_request, encode_reply, encode_response, Request, Response};
use fia_serve::{JobState, JobStatusInfo, PredictionServer, RemoteOracle, ServerHandle};
use fia_telemetry::{encode_prometheus, global, Counter};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::OpenOptions;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How the daemon is stood up.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Address to bind; use port `0` for an ephemeral port.
    pub bind: String,
    /// State directory: job specs, write-ahead logs, event streams and
    /// outcomes all live here, and a restart with the same directory
    /// resumes whatever was in flight.
    pub state_dir: PathBuf,
    /// Campaign worker threads (concurrent jobs).
    pub workers: usize,
}

impl DaemonConfig {
    /// Ephemeral-port daemon over `state_dir` with two workers.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            bind: "127.0.0.1:0".to_string(),
            state_dir: state_dir.into(),
            workers: 2,
        }
    }
}

/// A running daemon: bound address plus the shutdown switch.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until the daemon stops (a client sent `Shutdown`).
    pub fn wait(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the daemon and joins its threads. Running jobs checkpoint
    /// at their current chunk and return to `Pending`; a restart over
    /// the same state directory resumes them. Attached clients receive
    /// their stream up to that point and its `JobEventsEnd`.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// One job's in-memory row.
struct JobEntry {
    spec: JobSpec,
    fingerprint: String,
    state: JobState,
    chunks_done: u64,
    rows_done: u64,
    rows_planned: u64,
    queries: u64,
    rows: u64,
    cached_rows: u64,
    resumes: u64,
    events: u64,
    detail: String,
    cancel: bool,
    subscribers: Vec<u64>,
    events_file: Option<std::fs::File>,
}

impl JobEntry {
    fn row(&self, id: u64) -> JobStatusInfo {
        JobStatusInfo {
            id,
            state: self.state,
            fingerprint: self.fingerprint.clone(),
            chunks_done: self.chunks_done,
            rows_done: self.rows_done,
            rows_planned: self.rows_planned,
            queries: self.queries,
            rows: self.rows,
            cached_rows: self.cached_rows,
            resumes: self.resumes,
            events: self.events,
            detail: self.detail.clone(),
        }
    }
}

/// A resolved scenario shared by every job with its fingerprint, plus
/// the one prediction server `Shared`-oracle jobs query.
struct Deployment {
    scenario: ResolvedScenario,
    server: Option<ServerHandle>,
}

/// One encoded frame a worker hands the daemon loop for an attached
/// connection.
struct Delivery {
    token: u64,
    payload: Vec<u8>,
    /// The frame is the stream's `JobEventsEnd`: the connection is owed
    /// nothing more for that attach.
    ends_stream: bool,
}

struct Shared {
    state_dir: PathBuf,
    jobs: Mutex<BTreeMap<u64, JobEntry>>,
    next_id: Mutex<u64>,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    deployments: Mutex<HashMap<String, Arc<Deployment>>>,
    outbox: Mutex<Vec<Delivery>>,
    waker: Waker,
    shutdown: AtomicBool,
    /// Worker threads that have not returned. The daemon loop keeps
    /// writing after shutdown begins until this reaches zero.
    workers_live: AtomicUsize,
    jobs_total: Arc<Counter>,
    resumes_total: Arc<Counter>,
    replays_total: Arc<Counter>,
}

impl Shared {
    fn job_dir(&self, id: u64) -> PathBuf {
        self.state_dir.join("jobs").join(id.to_string())
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
        self.waker.wake();
    }

    /// Appends one event to the job's durable stream and fans it out to
    /// attached connections. The jobs lock serializes this against
    /// attach replay, which is what keeps every subscriber's view
    /// gapless.
    fn emit_event(&self, id: u64, event: &CampaignEvent) {
        let line = event.to_json();
        let mut jobs = self.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        let seq = entry.events;
        if let Some(f) = entry.events_file.as_mut() {
            let _ = f.write_all(line.as_bytes());
            let _ = f.write_all(b"\n");
        }
        entry.events += 1;
        if entry.subscribers.is_empty() {
            return;
        }
        let payload = encode_response(&Response::JobEvent {
            id,
            seq,
            json: line,
        })
        .expect("job event encodes");
        let subs = entry.subscribers.clone();
        drop(jobs);
        self.deliver(subs, &payload, false);
    }

    /// Hands `payload` to every connection in `subs` through the outbox
    /// and wakes the daemon loop to write it.
    fn deliver(&self, subs: Vec<u64>, payload: &[u8], ends_stream: bool) {
        let mut outbox = self.outbox.lock().unwrap();
        for token in subs {
            outbox.push(Delivery {
                token,
                payload: payload.to_vec(),
                ends_stream,
            });
        }
        drop(outbox);
        self.waker.wake();
    }

    /// Moves a job to a terminal state: durable marker first, then the
    /// table row, then `JobEventsEnd` to every subscriber.
    fn finish_job(&self, id: u64, state: JobState, detail: &str) {
        let marker = match state {
            JobState::Completed => "completed".to_string(),
            JobState::Canceled => "canceled".to_string(),
            _ => format!("failed:{detail}"),
        };
        let _ = wal::write_atomic(&self.job_dir(id).join("state"), marker.as_bytes());
        self.close_job(id, state, detail);
    }

    /// Updates the row and notifies subscribers without writing a
    /// terminal marker — shared by finish and suspend paths.
    fn close_job(&self, id: u64, state: JobState, detail: &str) {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        entry.state = state;
        entry.detail = detail.to_string();
        entry.events_file = None;
        let end = take_stream_end(id, entry);
        drop(jobs);
        if let Some((subs, payload)) = end {
            self.deliver(subs, &payload, true);
        }
    }

    /// Ends every attach stream still open, such as one on a job that
    /// was queued but never started. Called once the workers have
    /// returned, when no job emits again in this process.
    fn end_streams(&self) {
        let ends: Vec<_> = self
            .jobs
            .lock()
            .unwrap()
            .iter_mut()
            .filter_map(|(&id, entry)| take_stream_end(id, entry))
            .collect();
        for (subs, payload) in ends {
            self.deliver(subs, &payload, true);
        }
    }
}

/// Takes `entry`'s subscribers with the `JobEventsEnd` frame they are
/// owed, or `None` when no connection is attached.
fn take_stream_end(id: u64, entry: &mut JobEntry) -> Option<(Vec<u64>, Vec<u8>)> {
    if entry.subscribers.is_empty() {
        return None;
    }
    let next_seq = entry.events;
    let payload = encode_response(&Response::JobEventsEnd { id, next_seq }).expect("end encodes");
    Some((std::mem::take(&mut entry.subscribers), payload))
}

/// Starts a daemon: recovers the state directory, binds the listener,
/// spawns the reactor and worker threads, and records the bound address
/// in `state_dir/endpoint`.
pub fn start(config: DaemonConfig) -> io::Result<DaemonHandle> {
    std::fs::create_dir_all(config.state_dir.join("jobs"))?;
    let listener = TcpListener::bind(&config.bind)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (waker, wake_rx) = wake_pair()?;

    let shared = Arc::new(Shared {
        state_dir: config.state_dir.clone(),
        jobs: Mutex::new(BTreeMap::new()),
        next_id: Mutex::new(1),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        deployments: Mutex::new(HashMap::new()),
        outbox: Mutex::new(Vec::new()),
        waker,
        shutdown: AtomicBool::new(false),
        workers_live: AtomicUsize::new(config.workers.max(1)),
        jobs_total: global().counter(
            "fia_campaignd_jobs_total",
            "Campaign jobs accepted by the daemon",
        ),
        resumes_total: global().counter(
            "fia_campaignd_resumes_total",
            "Jobs resumed from a write-ahead checkpoint after a restart",
        ),
        replays_total: global().counter(
            "fia_campaignd_replays_total",
            "Attach requests that replayed buffered events to a client",
        ),
    });

    recover_state(&shared)?;
    wal::write_atomic(
        &config.state_dir.join("endpoint"),
        addr.to_string().as_bytes(),
    )?;

    let mut threads = Vec::new();
    let reactor_shared = Arc::clone(&shared);
    threads.push(
        std::thread::Builder::new()
            .name("fia-campaignd-reactor".to_string())
            .spawn(move || {
                let mut r = match Reactor::new(reactor_shared, listener, wake_rx) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("fia-campaignd: reactor init failed: {e}");
                        return;
                    }
                };
                r.run();
            })?,
    );
    for i in 0..config.workers.max(1) {
        let worker_shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("fia-campaignd-worker-{i}"))
                .spawn(move || worker_loop(worker_shared))?,
        );
    }

    Ok(DaemonHandle {
        addr,
        shared,
        threads,
    })
}

/// Scans `state_dir/jobs` and rebuilds the job table: terminal jobs
/// load their durable facts, everything else is re-enqueued to resume.
/// Torn tails on event streams (a crash mid-append) are truncated to
/// the last complete line so sequence numbers stay consistent.
fn recover_state(shared: &Shared) -> io::Result<()> {
    let jobs_dir = shared.state_dir.join("jobs");
    let mut max_id = 0u64;
    let mut recovered: Vec<(u64, JobEntry)> = Vec::new();
    for dir_entry in std::fs::read_dir(&jobs_dir)? {
        let dir_entry = dir_entry?;
        let Ok(id) = dir_entry.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let dir = dir_entry.path();
        let Ok(spec_blob) = std::fs::read(dir.join("spec.bin")) else {
            continue;
        };
        let Ok(spec) = JobSpec::from_blob(&spec_blob) else {
            continue;
        };
        max_id = max_id.max(id);
        let events = repair_event_stream(&dir.join("events.jsonl"))?;
        let mut entry = JobEntry {
            fingerprint: spec.fingerprint(),
            spec,
            state: JobState::Pending,
            chunks_done: 0,
            rows_done: 0,
            rows_planned: 0,
            queries: 0,
            rows: 0,
            cached_rows: 0,
            resumes: 0,
            events,
            detail: String::new(),
            cancel: false,
            subscribers: Vec::new(),
            events_file: None,
        };
        match std::fs::read_to_string(dir.join("state")) {
            Ok(marker) => {
                if marker == "completed" {
                    entry.state = JobState::Completed;
                    if let Ok(blob) = std::fs::read(dir.join("outcome.bin")) {
                        if let Ok(outcome) = JobOutcome::from_blob(&blob) {
                            entry.rows_done = outcome.rows_done;
                            entry.rows_planned = outcome.rows_planned;
                            entry.queries = outcome.cost.queries;
                            entry.rows = outcome.cost.rows;
                            entry.cached_rows = outcome.cost.cached_rows;
                        }
                    }
                } else if marker == "canceled" {
                    entry.state = JobState::Canceled;
                    entry.detail = "canceled".to_string();
                } else {
                    entry.state = JobState::Failed;
                    entry.detail = marker
                        .strip_prefix("failed:")
                        .unwrap_or(marker.as_str())
                        .to_string();
                }
            }
            Err(e) if e.kind() == ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        recovered.push((id, entry));
    }
    recovered.sort_by_key(|(id, _)| *id);
    let mut jobs = shared.jobs.lock().unwrap();
    let mut queue = shared.queue.lock().unwrap();
    for (id, entry) in recovered {
        if !entry.state.is_terminal() {
            queue.push_back(id);
        }
        jobs.insert(id, entry);
    }
    *shared.next_id.lock().unwrap() = max_id + 1;
    Ok(())
}

/// Truncates a torn trailing line (no `\n`) and returns the stream's
/// line count — the next event sequence number.
fn repair_event_stream(path: &Path) -> io::Result<u64> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let keep = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(last_nl) => last_nl + 1,
        None => 0,
    };
    if keep != bytes.len() {
        std::fs::write(path, &bytes[..keep])?;
    }
    Ok(bytes[..keep].iter().filter(|&&b| b == b'\n').count() as u64)
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

enum JobEnd {
    Completed,
    Canceled,
    Suspended,
}

fn worker_loop(shared: Arc<Shared>) {
    /// Counts the worker out when it returns or unwinds, and wakes the
    /// daemon loop, which may be waiting on the last one to shut down.
    struct Live(Arc<Shared>);
    impl Drop for Live {
        fn drop(&mut self) {
            self.0.workers_live.fetch_sub(1, Ordering::SeqCst);
            self.0.waker.wake();
        }
    }
    let _live = Live(Arc::clone(&shared));
    loop {
        let id = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(200))
                    .unwrap();
                queue = guard;
            }
        };
        run_job(&shared, id);
    }
}

fn run_job(shared: &Arc<Shared>, id: u64) {
    let spec = {
        let mut jobs = shared.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            return;
        };
        if entry.state != JobState::Pending {
            return;
        }
        if entry.cancel {
            drop(jobs);
            shared.finish_job(id, JobState::Canceled, "canceled before start");
            return;
        }
        entry.state = JobState::Running;
        entry.spec.clone()
    };
    match drive_job(shared, id, &spec) {
        Ok(JobEnd::Completed) => shared.finish_job(id, JobState::Completed, ""),
        Ok(JobEnd::Canceled) => shared.finish_job(id, JobState::Canceled, "canceled"),
        Ok(JobEnd::Suspended) => {
            // Daemon is shutting down: the job goes back to Pending with
            // no terminal marker, so a restart resumes it from its log.
            shared.close_job(id, JobState::Pending, "");
        }
        Err(detail) => shared.finish_job(id, JobState::Failed, &detail),
    }
}

fn spawn_deployment_server(scenario: &ResolvedScenario) -> Result<ServerHandle, String> {
    let OracleSpec::Served(cfg) = scenario.oracle_spec() else {
        return Err("shared oracle requires a served scenario".to_string());
    };
    PredictionServer::spawn(
        Arc::clone(scenario.system()),
        Arc::clone(scenario.defense()),
        cfg.serve_config(scenario.seed()),
    )
    .map_err(|e| format!("could not spawn shared deployment: {e}"))
}

fn drive_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec) -> Result<JobEnd, String> {
    let dir = shared.job_dir(id);
    let scenario_spec = spec.to_scenario();
    let fingerprint = scenario_spec.fingerprint();

    // Resolve (or reuse) the deployment for this fingerprint. The lock
    // is held across the build so two jobs racing on the same scenario
    // share one model and one server rather than each paying the build.
    let deployment = {
        let mut deployments = shared.deployments.lock().unwrap();
        match deployments.get(&fingerprint) {
            Some(d) => Arc::clone(d),
            None => {
                let scenario = scenario_spec.build();
                let server = match spec.oracle {
                    JobOracle::Shared { .. } => Some(spawn_deployment_server(&scenario)?),
                    JobOracle::InProcess => None,
                };
                let d = Arc::new(Deployment { scenario, server });
                deployments.insert(fingerprint.clone(), Arc::clone(&d));
                d
            }
        }
    };

    // Resume from the write-ahead log: fold its intact delta frames into
    // the last durable checkpoint. The fold ends at the first torn,
    // corrupt or discontinuous frame; `keep` is the log length up to the
    // last frame it accepted.
    let log_path = dir.join("job.log");
    let frames = JobLog::recover(&log_path).map_err(|e| format!("job log: {e}"))?;
    let folded = CampaignCheckpoint::fold(frames.iter().map(|f| f.payload.as_slice()));
    let keep = folded.accepted.checked_sub(1).map_or(0, |i| frames[i].end);
    let mut campaign = match folded.checkpoint {
        Some(cp) => {
            let c = Campaign::restore(deployment.scenario.clone(), &cp)
                .map_err(|e| format!("checkpoint restore: {e}"))?;
            shared.resumes_total.inc();
            if let Some(entry) = shared.jobs.lock().unwrap().get_mut(&id) {
                entry.resumes += 1;
            }
            c
        }
        None => Campaign::new(deployment.scenario.clone()),
    };
    campaign = campaign
        .with_attacks(spec.attack_specs())
        .with_budget(spec.budget())
        .with_chunk(spec.chunk as usize);

    // Shared-oracle jobs query the deployment's one server over TCP,
    // each under its own audit session tag.
    if let Some(server) = deployment.server.as_ref() {
        let mut client =
            RemoteOracle::connect(server.addr()).map_err(|e| format!("deployment connect: {e}"))?;
        client
            .declare_session(&format!("job-{id}"))
            .map_err(|e| format!("deployment session: {e}"))?;
        campaign.attach_oracle(Box::new(client));
    }

    let events_file = OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("events.jsonl"))
        .map_err(|e| format!("event stream: {e}"))?;
    update_row(shared, id, &campaign, Some(events_file));

    // Cut the log back to the last frame the fold accepted, so the frames
    // this run appends land where the next recovery reaches them.
    let mut log = JobLog::open(&log_path).map_err(|e| format!("job log: {e}"))?;
    log.truncate(keep)
        .map_err(|e| format!("job log truncate: {e}"))?;
    let mut logged = campaign.rows_done();
    let mut pending: Vec<CampaignEvent> = Vec::new();
    campaign
        .begin(&mut |e: &CampaignEvent| pending.push(e.clone()))
        .map_err(|e| e.to_string())?;
    flush_events(shared, id, &mut pending);

    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(JobEnd::Suspended);
        }
        let canceled = shared
            .jobs
            .lock()
            .unwrap()
            .get(&id)
            .is_some_and(|e| e.cancel);
        if canceled {
            return Ok(JobEnd::Canceled);
        }
        let outcome = campaign
            .step(&mut |e: &CampaignEvent| pending.push(e.clone()))
            .map_err(|e| e.to_string())?;
        // Durability order: the chunk's delta frame — the rows released
        // since the previous frame — hits the log (fsync) before the
        // chunk's events become visible anywhere. A kill between the two
        // loses at most the event line, never accumulated state.
        log.append(&campaign.delta_blob(logged))
            .map_err(|e| format!("checkpoint append: {e}"))?;
        logged = campaign.rows_done();
        update_row(shared, id, &campaign, None);
        flush_events(shared, id, &mut pending);
        match outcome {
            StepOutcome::Chunk => {
                if spec.throttle_ms > 0 {
                    std::thread::sleep(Duration::from_millis(u64::from(spec.throttle_ms)));
                }
            }
            StepOutcome::Exhausted | StepOutcome::Done => break,
        }
    }

    let report = campaign
        .finalize(&mut |e: &CampaignEvent| pending.push(e.clone()))
        .map_err(|e| e.to_string())?;
    let outcome = JobOutcome::from_report(&report);
    wal::write_atomic(&dir.join("outcome.bin"), &outcome.to_blob())
        .map_err(|e| format!("outcome write: {e}"))?;
    update_row(shared, id, &campaign, None);
    flush_events(shared, id, &mut pending);
    Ok(JobEnd::Completed)
}

fn update_row(shared: &Shared, id: u64, campaign: &Campaign, events_file: Option<std::fs::File>) {
    let spent = campaign.spent();
    let mut jobs = shared.jobs.lock().unwrap();
    if let Some(entry) = jobs.get_mut(&id) {
        entry.chunks_done = campaign.chunks_issued() as u64;
        entry.rows_done = campaign.rows_done() as u64;
        entry.rows_planned = campaign.rows_planned() as u64;
        entry.queries = spent.queries;
        entry.rows = spent.rows;
        entry.cached_rows = spent.cached_rows;
        if let Some(f) = events_file {
            entry.events_file = Some(f);
        }
    }
}

fn flush_events(shared: &Shared, id: u64, pending: &mut Vec<CampaignEvent>) {
    for event in pending.drain(..) {
        shared.emit_event(id, &event);
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;

/// Bounded read passes per readable event, as in the prediction reactor.
const MAX_READ_PASSES: usize = 16;

/// How long the daemon loop keeps writing after shutdown begins, for
/// workers still finishing a chunk and peers slow to read.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

struct Conn {
    io: FramedConn,
    /// Live attach streams: each still owes the peer its events and a
    /// `JobEventsEnd`, so a half-closed peer stays open until they end.
    streams: usize,
}

impl Conn {
    /// Queues `resp`, or the typed error that replaces a reply over the
    /// frame cap.
    fn stage(&mut self, resp: &Response) {
        self.io
            .queue(&encode_reply(resp))
            .expect("encoded replies fit the frame cap");
    }

    /// Writes what the socket accepts, then applies the end-of-input
    /// rule. Returns `false` when the connection is to close.
    fn flush(&mut self, poller: &mut Poller) -> bool {
        self.io.flush().is_ok()
            && !self.io.finished(self.streams > 0)
            && self.io.update_interest(poller, true).is_ok()
    }
}

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    /// fia-serve's accept policy: under fd exhaustion the listener is
    /// paused, not left to wake the loop hot.
    accept: AcceptBackoff,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    scratch: Vec<u8>,
}

impl Reactor {
    fn new(shared: Arc<Shared>, listener: TcpListener, wake_rx: UnixStream) -> io::Result<Self> {
        let mut poller = Poller::new()?;
        poller.register(fd_of(&listener), LISTENER_TOKEN, Interest::READ)?;
        poller.register(fd_of(&wake_rx), WAKE_TOKEN, Interest::READ)?;
        Ok(Reactor {
            shared,
            poller,
            listener,
            accept: AcceptBackoff::new(LISTENER_TOKEN),
            wake_rx,
            conns: HashMap::new(),
            next_token: 0,
            scratch: vec![0u8; 16 * 1024],
        })
    }

    /// Serves until shutdown begins, then drains: no new connections or
    /// requests, but the outbox is still written until every worker has
    /// returned and every connection has been sent what it is owed, or
    /// until [`SHUTDOWN_GRACE`] runs out. A worker suspends its job at
    /// its next chunk boundary, so the `JobEventsEnd` its attached
    /// clients are owed arrives after shutdown began.
    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut deadline: Option<Instant> = None;
        loop {
            let timeout = match deadline {
                Some(at) => {
                    let left = at.saturating_duration_since(Instant::now());
                    if left.is_zero() || (self.workers_done() && self.conns.is_empty()) {
                        return;
                    }
                    left.min(Duration::from_millis(250))
                }
                None if self.shared.shutdown.load(Ordering::SeqCst) => {
                    self.stop_serving();
                    deadline = Some(Instant::now() + SHUTDOWN_GRACE);
                    continue;
                }
                None => {
                    if self
                        .accept
                        .resume_due(&mut self.poller, fd_of(&self.listener))
                    {
                        self.accept_ready();
                    }
                    self.accept.wait_timeout(Duration::from_millis(250))
                }
            };
            events.clear();
            if let Err(e) = self.poller.wait(&mut events, Some(timeout)) {
                if e.kind() == ErrorKind::Interrupted {
                    continue;
                }
                eprintln!("fia-campaignd: poll failed: {e}");
                return;
            }
            for ev in &events {
                match ev.token {
                    WAKE_TOKEN => drain_wake_pipe(&self.wake_rx),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => {
                        if !self.conn_ready(token, ev) {
                            self.drop_conn(token);
                        }
                    }
                }
            }
            if deadline.is_some() && self.workers_done() {
                self.shared.end_streams();
            }
            // Events the workers published while this pass ran are
            // written in the same pass.
            self.drain_outbox();
            let mut done: Vec<u64> = Vec::new();
            for (&token, conn) in self.conns.iter_mut() {
                if !conn.flush(&mut self.poller) {
                    done.push(token);
                }
            }
            for token in done {
                self.drop_conn(token);
            }
        }
    }

    /// Whether every worker thread has returned.
    fn workers_done(&self) -> bool {
        self.shared.workers_live.load(Ordering::SeqCst) == 0
    }

    /// Stops accepting and closes every connection's input. Replies
    /// already staged and attach streams up to their `JobEventsEnd` are
    /// still written; a connection closes once it is owed nothing.
    fn stop_serving(&mut self) {
        let _ = self.poller.deregister(fd_of(&self.listener));
        for conn in self.conns.values_mut() {
            conn.io.close_input();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.accept.accept(&self.listener, &mut self.poller) {
                Ok(Some(stream)) => {
                    let token = self.next_token;
                    self.next_token += 1;
                    if let Ok(io) = FramedConn::register(stream, &mut self.poller, token) {
                        self.conns.insert(token, Conn { io, streams: 0 });
                    }
                }
                Ok(None) => return,
                Err(_) => {}
            }
        }
    }

    /// Reads a ready connection and serves every whole frame it sent.
    /// Returns `false` when the peer is gone. Writing waits for the
    /// flush at the end of the loop pass.
    fn conn_ready(&mut self, token: u64, ev: &Event) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else {
            return true;
        };
        let live = !ev.closed
            && (!ev.readable || conn.io.read(&mut self.scratch, MAX_READ_PASSES).is_ok());
        if live {
            // An over-cap length prefix closes the input; what the peer
            // is owed so far is still written.
            while let Ok(Some(payload)) = conn.io.next_frame() {
                let response = match decode_request(&payload) {
                    Ok(request) => self.handle_request(token, &mut conn, request),
                    Err(e) => Some(Response::Error(format!("bad request: {e}"))),
                };
                if let Some(resp) = response {
                    conn.stage(&resp);
                }
            }
        }
        self.conns.insert(token, conn);
        live
    }

    /// Serves one request. Returns the response to stage, or `None`
    /// when the handler staged its output itself (attach replay).
    fn handle_request(&mut self, token: u64, conn: &mut Conn, req: Request) -> Option<Response> {
        match req {
            Request::Ping => Some(Response::Pong),
            Request::MetricsText => Some(Response::MetricsText(encode_prometheus(
                &global().snapshot(),
            ))),
            Request::Shutdown => {
                self.shared.begin_shutdown();
                Some(Response::ShuttingDown)
            }
            Request::JobSubmit(blob) => Some(self.submit(&blob)),
            Request::JobStatus(id) => {
                let jobs = self.shared.jobs.lock().unwrap();
                Some(match jobs.get(&id) {
                    Some(entry) => Response::JobInfo(entry.row(id)),
                    None => Response::Error(format!("no such job: {id}")),
                })
            }
            Request::JobList => {
                let jobs = self.shared.jobs.lock().unwrap();
                Some(Response::JobTable(
                    jobs.iter().map(|(&id, e)| e.row(id)).collect(),
                ))
            }
            Request::JobCancel(id) => Some(self.cancel(id)),
            Request::JobAttach { id, from_seq } => {
                self.attach(token, conn, id, from_seq);
                None
            }
            Request::JobReport(id) => Some(self.report(id)),
            _ => Some(Response::Error(
                "fia-campaignd serves job ops; prediction ops are served by fia-serve deployments"
                    .to_string(),
            )),
        }
    }

    fn submit(&mut self, blob: &[u8]) -> Response {
        let spec = match JobSpec::from_blob(blob) {
            Ok(spec) => spec,
            Err(e) => return Response::Error(format!("bad job spec: {e}")),
        };
        let id = {
            let mut next = self.shared.next_id.lock().unwrap();
            let id = *next;
            *next += 1;
            id
        };
        let dir = self.shared.job_dir(id);
        if let Err(e) = std::fs::create_dir_all(&dir) {
            return Response::Error(format!("job dir: {e}"));
        }
        // The spec is durable before the id is acknowledged: a daemon
        // killed right after replying still knows the job on restart.
        if let Err(e) = wal::write_atomic(&dir.join("spec.bin"), &spec.to_blob()) {
            return Response::Error(format!("job spec write: {e}"));
        }
        let entry = JobEntry {
            fingerprint: spec.fingerprint(),
            spec,
            state: JobState::Pending,
            chunks_done: 0,
            rows_done: 0,
            rows_planned: 0,
            queries: 0,
            rows: 0,
            cached_rows: 0,
            resumes: 0,
            events: 0,
            detail: String::new(),
            cancel: false,
            subscribers: Vec::new(),
            events_file: None,
        };
        self.shared.jobs.lock().unwrap().insert(id, entry);
        self.shared.queue.lock().unwrap().push_back(id);
        self.shared.queue_cv.notify_one();
        self.shared.jobs_total.inc();
        Response::JobAccepted(id)
    }

    fn cancel(&mut self, id: u64) -> Response {
        let pending_cancel = {
            let mut jobs = self.shared.jobs.lock().unwrap();
            let Some(entry) = jobs.get_mut(&id) else {
                return Response::Error(format!("no such job: {id}"));
            };
            if !entry.state.is_terminal() {
                entry.cancel = true;
            }
            entry.state == JobState::Pending
        };
        if pending_cancel {
            // Never started: terminal immediately, no worker involved.
            self.shared
                .finish_job(id, JobState::Canceled, "canceled before start");
        }
        let jobs = self.shared.jobs.lock().unwrap();
        match jobs.get(&id) {
            Some(entry) => Response::JobInfo(entry.row(id)),
            None => Response::Error(format!("no such job: {id}")),
        }
    }

    fn report(&self, id: u64) -> Response {
        let state = {
            let jobs = self.shared.jobs.lock().unwrap();
            match jobs.get(&id) {
                Some(entry) => entry.state,
                None => return Response::Error(format!("no such job: {id}")),
            }
        };
        if state != JobState::Completed {
            return Response::Error(format!("job {id} has no report (state: {})", state.name()));
        }
        match std::fs::read(self.shared.job_dir(id).join("outcome.bin")) {
            Ok(blob) => Response::JobReportBlob(blob),
            Err(e) => Response::Error(format!("outcome read: {e}")),
        }
    }

    /// Replays the job's buffered events from `from_seq` and, for live
    /// jobs, subscribes the connection for everything after. Both happen
    /// under the jobs lock — the same lock every `emit_event` takes — so
    /// the replayed prefix and the live tail meet with no gap and no
    /// duplicate.
    fn attach(&mut self, token: u64, conn: &mut Conn, id: u64, from_seq: u64) {
        let mut jobs = self.shared.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(&id) else {
            drop(jobs);
            conn.stage(&Response::Error(format!("no such job: {id}")));
            return;
        };
        let mut replayed = 0u64;
        if from_seq < entry.events {
            let text = std::fs::read_to_string(self.shared.job_dir(id).join("events.jsonl"))
                .unwrap_or_default();
            for (seq, line) in text.lines().enumerate().skip(from_seq as usize) {
                conn.stage(&Response::JobEvent {
                    id,
                    seq: seq as u64,
                    json: line.to_string(),
                });
                replayed += 1;
            }
        }
        if entry.state.is_terminal() {
            let next_seq = entry.events;
            drop(jobs);
            conn.stage(&Response::JobEventsEnd { id, next_seq });
        } else {
            entry.subscribers.push(token);
            conn.streams += 1;
        }
        if replayed > 0 {
            self.shared.replays_total.inc();
        }
    }

    fn drain_outbox(&mut self) {
        let staged = std::mem::take(&mut *self.shared.outbox.lock().unwrap());
        for d in staged {
            if let Some(conn) = self.conns.get_mut(&d.token) {
                conn.io
                    .queue(&d.payload)
                    .expect("encoded events fit the frame cap");
                conn.streams -= usize::from(d.ends_stream);
            }
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            conn.io.close(&mut self.poller);
        }
        let mut jobs = self.shared.jobs.lock().unwrap();
        for entry in jobs.values_mut() {
            entry.subscribers.retain(|&t| t != token);
        }
    }
}
