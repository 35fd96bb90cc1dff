//! The length-prefixed binary wire codec.
//!
//! Every message travels as one *frame*: a little-endian `u32` payload
//! length followed by the payload; the payload's first byte is a message
//! tag. Matrices are encoded as raw IEEE-754 bit patterns, so a
//! confidence score survives the wire *bit-exactly* — which is what lets
//! an attack replayed over the network reproduce the in-process result
//! to the last ulp.
//!
//! The codec enforces a NaN-free invariant: confidence scores and
//! feature values are finite by construction everywhere in the system,
//! so a NaN on the wire can only mean corruption — both encoder and
//! decoder reject it.

use fia_core::TraceContext;
use fia_linalg::bytes::{ByteReader, ByteWriter, Truncated};
use fia_linalg::Matrix;
use std::io::{Read, Write};

use crate::audit::{AuditSummary, ClientAudit};

/// Hard cap on a frame payload (64 MiB). A length prefix above the cap
/// is treated as corruption rather than an allocation request.
pub const MAX_FRAME_LEN: usize = 1 << 26;

/// Request tags (client → server).
mod req_tag {
    pub const PING: u8 = 0x01;
    pub const PREDICT_BY_INDEX: u8 = 0x02;
    pub const PREDICT_FEATURES: u8 = 0x03;
    pub const INFO: u8 = 0x04;
    pub const SHUTDOWN: u8 = 0x06;
    pub const METRICS_TEXT: u8 = 0x07;
    // Traced prediction ops carry a 16-byte trace context *before* the
    // legacy body. They are new tags rather than optional suffixes on
    // 0x02/0x03 because the decoder rejects trailing bytes — the legacy
    // encodings stay bit-identical for untraced clients.
    pub const PREDICT_BY_INDEX_TRACED: u8 = 0x08;
    pub const PREDICT_FEATURES_TRACED: u8 = 0x09;
    pub const TRACE_EXPORT: u8 = 0x0A;
    pub const AUDIT_REPORT: u8 = 0x0B;
    pub const DECLARE_SESSION: u8 = 0x0C;
    // Campaign-job ops (served by `fia-campaignd`; a prediction server
    // answers them with a typed Error so the tag space stays unified).
    pub const JOB_SUBMIT: u8 = 0x0D;
    pub const JOB_STATUS: u8 = 0x0E;
    pub const JOB_LIST: u8 = 0x0F;
    pub const JOB_CANCEL: u8 = 0x10;
    pub const JOB_ATTACH: u8 = 0x11;
    pub const JOB_REPORT: u8 = 0x12;
}

/// Response tags (server → client).
mod resp_tag {
    pub const PONG: u8 = 0x81;
    pub const SCORES: u8 = 0x82;
    pub const INFO: u8 = 0x83;
    pub const SHUTTING_DOWN: u8 = 0x85;
    pub const METRICS_TEXT: u8 = 0x86;
    pub const TRACE_JSONL: u8 = 0x87;
    pub const AUDIT: u8 = 0x88;
    pub const SESSION_ACK: u8 = 0x89;
    pub const JOB_ACCEPTED: u8 = 0x8A;
    pub const JOB_INFO: u8 = 0x8B;
    pub const JOB_TABLE: u8 = 0x8C;
    pub const JOB_EVENT: u8 = 0x8D;
    pub const JOB_EVENTS_END: u8 = 0x8E;
    pub const JOB_REPORT_BLOB: u8 = 0x8F;
    pub const ERROR: u8 = 0xEE;
}

/// Cap on a client-declared session tag (bytes) — a label, not a blob.
pub const MAX_SESSION_TAG_LEN: usize = 256;

/// Cap on a job's failure-detail string (bytes) on the wire.
pub const MAX_JOB_DETAIL_LEN: usize = 1024;

/// Lifecycle state of a submitted campaign job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Pending,
    /// A worker is driving the campaign.
    Running,
    /// Finished; a report blob is available.
    Completed,
    /// The campaign errored; see [`JobStatusInfo::detail`].
    Failed,
    /// Canceled before completion.
    Canceled,
}

impl JobState {
    /// Stable single-byte wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            JobState::Pending => 0,
            JobState::Running => 1,
            JobState::Completed => 2,
            JobState::Failed => 3,
            JobState::Canceled => 4,
        }
    }

    /// Decodes the wire byte; unknown values are malformed.
    pub fn from_u8(b: u8) -> Result<JobState, WireError> {
        Ok(match b {
            0 => JobState::Pending,
            1 => JobState::Running,
            2 => JobState::Completed,
            3 => JobState::Failed,
            4 => JobState::Canceled,
            _ => return Err(WireError::Malformed("unknown job state byte")),
        })
    }

    /// Short stable identifier (`"pending"`, `"running"`, …).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Pending => "pending",
            JobState::Running => "running",
            JobState::Completed => "completed",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        }
    }

    /// `true` once the job can no longer make progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Completed | JobState::Failed | JobState::Canceled
        )
    }
}

/// One row of the campaign daemon's job table: identity, lifecycle
/// state, accumulation progress and the budget meter as last
/// checkpointed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatusInfo {
    /// Daemon-assigned job id (monotonic, stable across restarts).
    pub id: u64,
    /// Current lifecycle state.
    pub state: JobState,
    /// The job's scenario fingerprint (shared-deployment key).
    pub fingerprint: String,
    /// Accumulation chunks completed so far.
    pub chunks_done: u64,
    /// Corpus rows accumulated so far.
    pub rows_done: u64,
    /// Rows the full campaign would accumulate.
    pub rows_planned: u64,
    /// Oracle rounds spent so far.
    pub queries: u64,
    /// Confidence rows spent so far.
    pub rows: u64,
    /// Rows answered from the deployment's released-score cache.
    pub cached_rows: u64,
    /// Times the daemon resumed this job from its checkpoint log.
    pub resumes: u64,
    /// Events appended to the job's stream so far (the next attach
    /// sequence number).
    pub events: u64,
    /// Failure reason for [`JobState::Failed`] jobs; empty otherwise.
    pub detail: String,
}

/// Everything that can go wrong while encoding, decoding or transporting
/// a frame.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream failure.
    Io(std::io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// A frame payload exceeds [`MAX_FRAME_LEN`]: a length prefix read
    /// off the stream, or a payload the encoder built.
    TooLarge(usize),
    /// Unknown message tag.
    BadTag(u8),
    /// Structurally invalid payload (bad counts, trailing bytes, …).
    Malformed(&'static str),
    /// A non-finite value where the protocol requires finite ones.
    NonFinite,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Truncated => write!(f, "frame truncated mid-message"),
            WireError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::BadTag(t) => write!(f, "unknown message tag {t:#04x}"),
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
            WireError::NonFinite => write!(f, "non-finite value violates the wire invariant"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Static facts about a deployment, answered to `Info` requests so a
/// remote adversary can size its attack without out-of-band knowledge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerInfo {
    /// Number of aligned samples the deployment can answer by index.
    pub n_samples: usize,
    /// Total feature width `d` of the joint model.
    pub n_features: usize,
    /// Number of classes `c` in each revealed confidence vector.
    pub n_classes: usize,
    /// Per-party feature widths, in party id order.
    pub party_widths: Vec<usize>,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// One prediction round over stored sample indices.
    PredictByIndex(Vec<u32>),
    /// One prediction round over ad-hoc inputs: one `n × d_p` feature
    /// block per party, in party id order.
    PredictFeatures(Vec<Matrix>),
    /// Ask for the deployment's static facts.
    Info,
    /// Ask the server to shut down gracefully.
    Shutdown,
    /// Ask for the full telemetry surface as Prometheus-style text
    /// exposition (server registry + process-global instruments).
    MetricsText,
    /// [`Request::PredictByIndex`] carrying a distributed-trace context:
    /// the server opens a `serve.request` span parented to the client's
    /// span so merged traces join across the process boundary.
    PredictByIndexTraced(Vec<u32>, TraceContext),
    /// [`Request::PredictFeatures`] carrying a distributed-trace context.
    PredictFeaturesTraced(Vec<Matrix>, TraceContext),
    /// Ask for the span trees the server keeps as JSONL — the server
    /// half of a merged cross-process trace. The server keeps the trees
    /// of the last few traced requests per request-latency bucket and
    /// outcome ([`crate::KEPT_TREES_PER_BUCKET`]), in answer order.
    TraceExport,
    /// Ask for the per-client audit ledger summary.
    AuditReport,
    /// Declare a session tag for this connection: subsequent audit
    /// accounting is keyed by the tag instead of the connection id (and
    /// aggregates across reconnections that declare the same tag).
    DeclareSession(String),
    /// Submit a campaign job to a `fia-campaignd` daemon. The payload is
    /// an opaque versioned job-spec blob (the wire layer does not
    /// interpret it).
    JobSubmit(Vec<u8>),
    /// Ask for one job's status row.
    JobStatus(u64),
    /// Ask for the daemon's full job table.
    JobList,
    /// Ask the daemon to cancel a job (answered with the job's status
    /// row after the cancel request lands).
    JobCancel(u64),
    /// Attach to a job's event stream from a sequence number: the daemon
    /// replays events `from_seq..` and then streams live ones, each as a
    /// [`Response::JobEvent`], ending with [`Response::JobEventsEnd`].
    JobAttach {
        /// The job to attach to.
        id: u64,
        /// First event sequence number to deliver (0 = from the start).
        from_seq: u64,
    },
    /// Ask for a completed job's typed outcome blob.
    JobReport(u64),
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The revealed `n × c` confidence matrix for a prediction round,
    /// plus how many of its rows were re-released from the server's
    /// score cache (adversary-visible query-cost accounting: a cached
    /// row cost the deployment no joint prediction round).
    Scores {
        /// The released confidence matrix.
        scores: Matrix,
        /// Rows answered from the released-score cache.
        cached_rows: u32,
    },
    /// Deployment facts.
    Info(ServerInfo),
    /// Acknowledgement that the server is shutting down.
    ShuttingDown,
    /// Prometheus-style text exposition of the server's telemetry.
    MetricsText(String),
    /// The server's kept span trees, one JSON object per span and line.
    TraceJsonl(String),
    /// Per-client audit ledger summary.
    Audit(AuditSummary),
    /// Acknowledgement of a declared session tag.
    SessionAck,
    /// A submitted job was accepted under this id.
    JobAccepted(u64),
    /// One job's status row.
    JobInfo(JobStatusInfo),
    /// The daemon's job table, in id order.
    JobTable(Vec<JobStatusInfo>),
    /// One event from an attached job's stream.
    JobEvent {
        /// The job the event belongs to.
        id: u64,
        /// Gapless per-job sequence number (line number in the job's
        /// event log).
        seq: u64,
        /// The event as one compact JSON object.
        json: String,
    },
    /// The attached stream ended (the job reached a terminal state).
    JobEventsEnd {
        /// The job whose stream ended.
        id: u64,
        /// The sequence number the next attach should resume from.
        next_seq: u64,
    },
    /// A completed job's typed outcome blob (opaque to the wire layer).
    JobReportBlob(Vec<u8>),
    /// Server-side rejection with a human-readable reason.
    Error(String),
}

// ---------------------------------------------------------------------
// The wire's own field shapes over the shared byte codec
// (`fia_linalg::bytes`): u32-prefixed capped strings and blobs, finite-
// only frame-capped matrices, and trace contexts.

impl From<Truncated> for WireError {
    fn from(_: Truncated) -> Self {
        WireError::Truncated
    }
}

/// Length-prefixed UTF-8 string, capped at `max` bytes.
fn put_str(out: &mut Vec<u8>, s: &str, max: usize) -> Result<(), WireError> {
    if s.len() > max {
        return Err(WireError::Malformed("string exceeds field cap"));
    }
    out.put_u32(s.len() as u32);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Reads a string written by [`put_str`] under the same cap.
fn get_str(r: &mut ByteReader<'_>, max: usize) -> Result<String, WireError> {
    let n = r.u32()? as usize;
    if n > max {
        return Err(WireError::Malformed("string exceeds field cap"));
    }
    std::str::from_utf8(r.take(n)?)
        .map(str::to_string)
        .map_err(|_| WireError::Malformed("string not utf-8"))
}

/// Length-prefixed text capped only by the frame: the bodies of the
/// exposition, trace-export and error replies, each naming its own
/// failures.
fn put_text(out: &mut Vec<u8>, text: &str) {
    out.put_u32(text.len() as u32);
    out.extend_from_slice(text.as_bytes());
}

fn get_text(
    r: &mut ByteReader<'_>,
    too_long: &'static str,
    not_utf8: &'static str,
) -> Result<String, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_FRAME_LEN {
        return Err(WireError::Malformed(too_long));
    }
    std::str::from_utf8(r.take(n)?)
        .map(str::to_string)
        .map_err(|_| WireError::Malformed(not_utf8))
}

/// A message must use its whole payload.
fn finish(r: &ByteReader<'_>) -> Result<(), WireError> {
    if r.remaining() == 0 {
        Ok(())
    } else {
        Err(WireError::Malformed("trailing bytes after message"))
    }
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) -> Result<(), WireError> {
    if !m.is_finite() {
        return Err(WireError::NonFinite);
    }
    out.put_u32(m.rows() as u32);
    out.put_u32(m.cols() as u32);
    out.put_f64s(m.as_slice());
    Ok(())
}

fn get_matrix(r: &mut ByteReader<'_>) -> Result<Matrix, WireError> {
    let rows = r.u32()? as usize;
    let cols = r.u32()? as usize;
    let elements = rows.saturating_mul(cols);
    if elements > MAX_FRAME_LEN / 8 {
        return Err(WireError::Malformed("matrix larger than frame cap"));
    }
    // The run read checks the header against the remaining payload
    // before sizing a buffer, so a tiny frame cannot request a
    // frame-cap-sized one.
    let data = r.f64s(elements)?;
    if !data.iter().all(|v| v.is_finite()) {
        return Err(WireError::NonFinite);
    }
    Matrix::from_vec(rows, cols, data).map_err(|_| WireError::Malformed("bad matrix shape"))
}

/// 16-byte trace context: trace id then parent span id, little-endian.
fn put_trace(out: &mut Vec<u8>, ctx: &TraceContext) {
    out.put_u64(ctx.trace_id);
    out.put_u64(ctx.parent_span);
}

fn get_trace(r: &mut ByteReader<'_>) -> Result<TraceContext, WireError> {
    Ok(TraceContext {
        trace_id: r.u64()?,
        parent_span: r.u64()?,
    })
}

fn put_audit(out: &mut Vec<u8>, audit: &AuditSummary) -> Result<(), WireError> {
    out.put_u64(audit.n_samples);
    out.put_u32(audit.clients.len() as u32);
    for c in &audit.clients {
        put_str(out, &c.client, MAX_SESSION_TAG_LEN)?;
        out.put_u64(c.queries);
        out.put_u64(c.rows);
        out.put_u64(c.cached_rows);
        out.put_u64(c.distinct_rows);
        out.put_u64(c.repeat_rows);
        out.put_u64(c.feature_queries);
        if !c.window_rate_rps.is_finite() {
            return Err(WireError::NonFinite);
        }
        out.put_f64(c.window_rate_rps);
        out.put_u32(c.flags.len() as u32);
        for f in &c.flags {
            put_str(out, f, 64)?;
        }
    }
    Ok(())
}

fn get_audit(r: &mut ByteReader<'_>) -> Result<AuditSummary, WireError> {
    let n_samples = r.u64()?;
    let n_clients = r.u32()? as usize;
    if n_clients > 65_536 {
        return Err(WireError::Malformed("implausible audit client count"));
    }
    let mut clients = Vec::with_capacity(n_clients.min(1024));
    for _ in 0..n_clients {
        let client = get_str(r, MAX_SESSION_TAG_LEN)?;
        let queries = r.u64()?;
        let rows = r.u64()?;
        let cached_rows = r.u64()?;
        let distinct_rows = r.u64()?;
        let repeat_rows = r.u64()?;
        let feature_queries = r.u64()?;
        let window_rate_rps = r.f64()?;
        if !window_rate_rps.is_finite() {
            return Err(WireError::NonFinite);
        }
        let n_flags = r.u32()? as usize;
        if n_flags > 64 {
            return Err(WireError::Malformed("implausible audit flag count"));
        }
        let mut flags = Vec::with_capacity(n_flags);
        for _ in 0..n_flags {
            flags.push(get_str(r, 64)?);
        }
        clients.push(ClientAudit {
            client,
            queries,
            rows,
            cached_rows,
            distinct_rows,
            repeat_rows,
            feature_queries,
            window_rate_rps,
            flags,
        });
    }
    Ok(AuditSummary { n_samples, clients })
}

/// Length-prefixed opaque byte blob (job specs, outcome blobs).
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> Result<(), WireError> {
    if bytes.len() > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(bytes.len()));
    }
    out.put_u32(bytes.len() as u32);
    out.extend_from_slice(bytes);
    Ok(())
}

fn get_bytes(r: &mut ByteReader<'_>) -> Result<Vec<u8>, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_FRAME_LEN {
        return Err(WireError::Malformed("blob larger than frame cap"));
    }
    Ok(r.take(n)?.to_vec())
}

fn put_job_info(out: &mut Vec<u8>, info: &JobStatusInfo) -> Result<(), WireError> {
    out.put_u64(info.id);
    out.push(info.state.as_u8());
    put_str(out, &info.fingerprint, 64)?;
    out.put_u64(info.chunks_done);
    out.put_u64(info.rows_done);
    out.put_u64(info.rows_planned);
    out.put_u64(info.queries);
    out.put_u64(info.rows);
    out.put_u64(info.cached_rows);
    out.put_u64(info.resumes);
    out.put_u64(info.events);
    put_str(out, &info.detail, MAX_JOB_DETAIL_LEN)?;
    Ok(())
}

fn get_job_info(r: &mut ByteReader<'_>) -> Result<JobStatusInfo, WireError> {
    Ok(JobStatusInfo {
        id: r.u64()?,
        state: JobState::from_u8(r.u8()?)?,
        fingerprint: get_str(r, 64)?,
        chunks_done: r.u64()?,
        rows_done: r.u64()?,
        rows_planned: r.u64()?,
        queries: r.u64()?,
        rows: r.u64()?,
        cached_rows: r.u64()?,
        resumes: r.u64()?,
        events: r.u64()?,
        detail: get_str(r, MAX_JOB_DETAIL_LEN)?,
    })
}

// ---------------------------------------------------------------------
// Message codecs.

/// Serializes a request into a frame payload (no length prefix).
pub fn encode_request(req: &Request) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    match req {
        Request::Ping => out.push(req_tag::PING),
        Request::PredictByIndex(indices) => {
            out.push(req_tag::PREDICT_BY_INDEX);
            put_indices(&mut out, indices);
        }
        Request::PredictFeatures(slices) => {
            out.push(req_tag::PREDICT_FEATURES);
            put_feature_blocks(&mut out, slices)?;
        }
        Request::Info => out.push(req_tag::INFO),
        Request::Shutdown => out.push(req_tag::SHUTDOWN),
        Request::MetricsText => out.push(req_tag::METRICS_TEXT),
        Request::PredictByIndexTraced(indices, ctx) => {
            out.push(req_tag::PREDICT_BY_INDEX_TRACED);
            put_trace(&mut out, ctx);
            put_indices(&mut out, indices);
        }
        Request::PredictFeaturesTraced(slices, ctx) => {
            out.push(req_tag::PREDICT_FEATURES_TRACED);
            put_trace(&mut out, ctx);
            put_feature_blocks(&mut out, slices)?;
        }
        Request::TraceExport => out.push(req_tag::TRACE_EXPORT),
        Request::AuditReport => out.push(req_tag::AUDIT_REPORT),
        Request::DeclareSession(tag) => {
            out.push(req_tag::DECLARE_SESSION);
            put_str(&mut out, tag, MAX_SESSION_TAG_LEN)?;
        }
        Request::JobSubmit(blob) => {
            out.push(req_tag::JOB_SUBMIT);
            put_bytes(&mut out, blob)?;
        }
        Request::JobStatus(id) => {
            out.push(req_tag::JOB_STATUS);
            out.put_u64(*id);
        }
        Request::JobList => out.push(req_tag::JOB_LIST),
        Request::JobCancel(id) => {
            out.push(req_tag::JOB_CANCEL);
            out.put_u64(*id);
        }
        Request::JobAttach { id, from_seq } => {
            out.push(req_tag::JOB_ATTACH);
            out.put_u64(*id);
            out.put_u64(*from_seq);
        }
        Request::JobReport(id) => {
            out.push(req_tag::JOB_REPORT);
            out.put_u64(*id);
        }
    }
    Ok(out)
}

/// Index-list body shared by the plain and traced predict-by-index ops.
fn put_indices(out: &mut Vec<u8>, indices: &[u32]) {
    out.put_u32(indices.len() as u32);
    for &i in indices {
        out.put_u32(i);
    }
}

fn get_indices(r: &mut ByteReader<'_>) -> Result<Vec<u32>, WireError> {
    let n = r.u32()? as usize;
    if n > MAX_FRAME_LEN / 4 {
        return Err(WireError::Malformed("index batch larger than frame cap"));
    }
    // Take the run first, so the count is checked against the payload
    // before it sizes a buffer.
    let mut run = ByteReader::new(r.take(n * 4)?);
    let mut indices = Vec::with_capacity(n);
    for _ in 0..n {
        indices.push(run.u32()?);
    }
    Ok(indices)
}

/// Per-party feature-block body shared by the plain and traced
/// predict-features ops.
fn put_feature_blocks(out: &mut Vec<u8>, slices: &[Matrix]) -> Result<(), WireError> {
    out.put_u32(slices.len() as u32);
    slices.iter().try_for_each(|m| put_matrix(out, m))
}

fn get_feature_blocks(r: &mut ByteReader<'_>) -> Result<Vec<Matrix>, WireError> {
    let parties = r.u32()? as usize;
    if parties > 4096 {
        return Err(WireError::Malformed("implausible party count"));
    }
    let mut slices = Vec::with_capacity(parties);
    for _ in 0..parties {
        slices.push(get_matrix(r)?);
    }
    Ok(slices)
}

/// Parses a frame payload into a request, rejecting trailing bytes.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = ByteReader::new(payload);
    let req = match r.u8()? {
        req_tag::PING => Request::Ping,
        req_tag::PREDICT_BY_INDEX => Request::PredictByIndex(get_indices(&mut r)?),
        req_tag::PREDICT_FEATURES => Request::PredictFeatures(get_feature_blocks(&mut r)?),
        req_tag::INFO => Request::Info,
        req_tag::SHUTDOWN => Request::Shutdown,
        req_tag::METRICS_TEXT => Request::MetricsText,
        req_tag::PREDICT_BY_INDEX_TRACED => {
            let ctx = get_trace(&mut r)?;
            Request::PredictByIndexTraced(get_indices(&mut r)?, ctx)
        }
        req_tag::PREDICT_FEATURES_TRACED => {
            let ctx = get_trace(&mut r)?;
            Request::PredictFeaturesTraced(get_feature_blocks(&mut r)?, ctx)
        }
        req_tag::TRACE_EXPORT => Request::TraceExport,
        req_tag::AUDIT_REPORT => Request::AuditReport,
        req_tag::DECLARE_SESSION => Request::DeclareSession(get_str(&mut r, MAX_SESSION_TAG_LEN)?),
        req_tag::JOB_SUBMIT => Request::JobSubmit(get_bytes(&mut r)?),
        req_tag::JOB_STATUS => Request::JobStatus(r.u64()?),
        req_tag::JOB_LIST => Request::JobList,
        req_tag::JOB_CANCEL => Request::JobCancel(r.u64()?),
        req_tag::JOB_ATTACH => Request::JobAttach {
            id: r.u64()?,
            from_seq: r.u64()?,
        },
        req_tag::JOB_REPORT => Request::JobReport(r.u64()?),
        t => return Err(WireError::BadTag(t)),
    };
    finish(&r)?;
    Ok(req)
}

/// Serializes a response into a frame payload (no length prefix).
pub fn encode_response(resp: &Response) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    match resp {
        Response::Pong => out.push(resp_tag::PONG),
        Response::Scores {
            scores,
            cached_rows,
        } => {
            out.push(resp_tag::SCORES);
            out.put_u32(*cached_rows);
            put_matrix(&mut out, scores)?;
        }
        Response::Info(info) => {
            out.push(resp_tag::INFO);
            out.put_u32(info.n_samples as u32);
            out.put_u32(info.n_features as u32);
            out.put_u32(info.n_classes as u32);
            out.put_u32(info.party_widths.len() as u32);
            for &w in &info.party_widths {
                out.put_u32(w as u32);
            }
        }
        Response::ShuttingDown => out.push(resp_tag::SHUTTING_DOWN),
        Response::MetricsText(text) => {
            out.push(resp_tag::METRICS_TEXT);
            put_text(&mut out, text);
        }
        Response::TraceJsonl(text) => {
            out.push(resp_tag::TRACE_JSONL);
            put_text(&mut out, text);
        }
        Response::Audit(audit) => {
            out.push(resp_tag::AUDIT);
            put_audit(&mut out, audit)?;
        }
        Response::SessionAck => out.push(resp_tag::SESSION_ACK),
        Response::JobAccepted(id) => {
            out.push(resp_tag::JOB_ACCEPTED);
            out.put_u64(*id);
        }
        Response::JobInfo(info) => {
            out.push(resp_tag::JOB_INFO);
            put_job_info(&mut out, info)?;
        }
        Response::JobTable(rows) => {
            out.push(resp_tag::JOB_TABLE);
            out.put_u32(rows.len() as u32);
            for info in rows {
                put_job_info(&mut out, info)?;
            }
        }
        Response::JobEvent { id, seq, json } => {
            out.push(resp_tag::JOB_EVENT);
            out.put_u64(*id);
            out.put_u64(*seq);
            put_bytes(&mut out, json.as_bytes())?;
        }
        Response::JobEventsEnd { id, next_seq } => {
            out.push(resp_tag::JOB_EVENTS_END);
            out.put_u64(*id);
            out.put_u64(*next_seq);
        }
        Response::JobReportBlob(blob) => {
            out.push(resp_tag::JOB_REPORT_BLOB);
            put_bytes(&mut out, blob)?;
        }
        Response::Error(msg) => {
            out.push(resp_tag::ERROR);
            put_text(&mut out, msg);
        }
    }
    // The peer's frame readers refuse an over-cap length prefix after
    // reading only the prefix, so sending one would leave the payload in
    // the stream to be misread as later frames.
    if out.len() > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(out.len()));
    }
    Ok(out)
}

/// Encodes a server's reply. A reply that does not encode (its payload
/// is over the frame cap) becomes the typed `Response::Error` that says
/// so, which keeps the peer in frame sync.
pub fn encode_reply(resp: &Response) -> Vec<u8> {
    encode_response(resp).unwrap_or_else(|_| {
        encode_response(&Response::Error("response encoding failed".to_string()))
            .expect("error responses always encode")
    })
}

/// Parses a frame payload into a response, rejecting trailing bytes.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = ByteReader::new(payload);
    let resp = match r.u8()? {
        resp_tag::PONG => Response::Pong,
        resp_tag::SCORES => {
            let cached_rows = r.u32()?;
            let scores = get_matrix(&mut r)?;
            if (cached_rows as usize) > scores.rows() {
                return Err(WireError::Malformed("cached_rows exceeds row count"));
            }
            Response::Scores {
                scores,
                cached_rows,
            }
        }
        resp_tag::INFO => {
            let n_samples = r.u32()? as usize;
            let n_features = r.u32()? as usize;
            let n_classes = r.u32()? as usize;
            let parties = r.u32()? as usize;
            if parties > 4096 {
                return Err(WireError::Malformed("implausible party count"));
            }
            let mut party_widths = Vec::with_capacity(parties);
            for _ in 0..parties {
                party_widths.push(r.u32()? as usize);
            }
            Response::Info(ServerInfo {
                n_samples,
                n_features,
                n_classes,
                party_widths,
            })
        }
        resp_tag::SHUTTING_DOWN => Response::ShuttingDown,
        resp_tag::METRICS_TEXT => Response::MetricsText(get_text(
            &mut r,
            "exposition larger than frame",
            "exposition not utf-8",
        )?),
        resp_tag::TRACE_JSONL => Response::TraceJsonl(get_text(
            &mut r,
            "trace export larger than frame",
            "trace export not utf-8",
        )?),
        resp_tag::AUDIT => Response::Audit(get_audit(&mut r)?),
        resp_tag::SESSION_ACK => Response::SessionAck,
        resp_tag::JOB_ACCEPTED => Response::JobAccepted(r.u64()?),
        resp_tag::JOB_INFO => Response::JobInfo(get_job_info(&mut r)?),
        resp_tag::JOB_TABLE => {
            let n = r.u32()? as usize;
            if n > 65_536 {
                return Err(WireError::Malformed("implausible job table size"));
            }
            let mut rows = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                rows.push(get_job_info(&mut r)?);
            }
            Response::JobTable(rows)
        }
        resp_tag::JOB_EVENT => {
            let id = r.u64()?;
            let seq = r.u64()?;
            let bytes = get_bytes(&mut r)?;
            let json = String::from_utf8(bytes)
                .map_err(|_| WireError::Malformed("job event not utf-8"))?;
            Response::JobEvent { id, seq, json }
        }
        resp_tag::JOB_EVENTS_END => Response::JobEventsEnd {
            id: r.u64()?,
            next_seq: r.u64()?,
        },
        resp_tag::JOB_REPORT_BLOB => Response::JobReportBlob(get_bytes(&mut r)?),
        resp_tag::ERROR => Response::Error(get_text(
            &mut r,
            "error message larger than frame",
            "error message not utf-8",
        )?),
        t => return Err(WireError::BadTag(t)),
    };
    finish(&r)?;
    Ok(resp)
}

// ---------------------------------------------------------------------
// Framing. A frame is a little-endian `u32` payload length, at most
// `MAX_FRAME_LEN`, then the payload. `append_frame` writes one,
// `split_frame` cuts one off a nonblocking connection's input and
// `read_frame` reads one off a blocking stream; nothing else lays out
// the prefix.

/// The payload length a frame prefix announces, refused over the cap.
fn frame_len(prefix: u32) -> Result<usize, WireError> {
    let len = prefix as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(len));
    }
    Ok(len)
}

/// Appends one frame — length prefix, then `payload` — to `out`. A
/// payload over [`MAX_FRAME_LEN`] is [`WireError::TooLarge`] and appends
/// nothing.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::TooLarge(payload.len()));
    }
    out.reserve(4 + payload.len());
    out.put_u32(payload.len() as u32);
    out.extend_from_slice(payload);
    Ok(())
}

/// Cuts the first whole frame off the front of `buf`, the bytes a
/// nonblocking connection has received so far, and returns its payload.
/// `Ok(None)` means `buf` does not hold a whole frame yet. A length
/// prefix over [`MAX_FRAME_LEN`] is [`WireError::TooLarge`] and leaves
/// `buf` as it was: the stream can no longer be framed, and the caller
/// decides how to end it.
pub fn split_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, WireError> {
    let mut r = ByteReader::new(buf);
    let Ok(prefix) = r.u32() else {
        return Ok(None);
    };
    let Ok(payload) = r.take(frame_len(prefix)?) else {
        return Ok(None);
    };
    let payload = payload.to_vec();
    let used = buf.len() - r.remaining();
    buf.drain(..used);
    Ok(Some(payload))
}

/// Writes one frame, assembled into one buffer and handed to the writer
/// in one `write_all`, so a `TCP_NODELAY` socket sends the frame as one
/// segment rather than a lone 4-byte prefix followed by the payload.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let mut frame = Vec::new();
    append_frame(&mut frame, payload)?;
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame. `Ok(None)` means the peer closed the connection
/// cleanly *between* frames; EOF inside a frame is [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        match r.read(&mut prefix[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(WireError::Truncated),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = frame_len(ByteReader::new(&prefix).u32()?)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::io::Cursor;

    fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen::<f64>() * 2.0 - 1.0)
    }

    fn random_trace(rng: &mut StdRng) -> fia_core::TraceContext {
        fia_core::TraceContext {
            trace_id: rng.gen(),
            parent_span: rng.gen(),
        }
    }

    fn random_job_info(rng: &mut StdRng) -> JobStatusInfo {
        let state = JobState::from_u8(rng.gen_range(0..5u8)).unwrap();
        JobStatusInfo {
            id: rng.gen(),
            state,
            fingerprint: format!("{:016x}", rng.gen::<u64>()),
            chunks_done: rng.gen_range(0..10_000u64),
            rows_done: rng.gen_range(0..1_000_000u64),
            rows_planned: rng.gen_range(0..1_000_000u64),
            queries: rng.gen_range(0..1_000_000u64),
            rows: rng.gen_range(0..1_000_000u64),
            cached_rows: rng.gen_range(0..1_000_000u64),
            resumes: rng.gen_range(0..16u64),
            events: rng.gen_range(0..100_000u64),
            detail: if state == JobState::Failed {
                "oracle failure: boom".to_string()
            } else {
                String::new()
            },
        }
    }

    fn random_request(rng: &mut StdRng, case: usize) -> Request {
        match case % 17 {
            0 => Request::Ping,
            1 => {
                // Includes the empty batch when n == 0.
                let n = rng.gen_range(0..40usize);
                Request::PredictByIndex((0..n).map(|_| rng.gen_range(0..10_000u32)).collect())
            }
            2 => {
                let parties = rng.gen_range(1..4usize);
                let rows = rng.gen_range(0..8usize);
                let slices = (0..parties)
                    .map(|_| {
                        let cols = rng.gen_range(1..6usize);
                        random_matrix(rng, rows, cols)
                    })
                    .collect();
                Request::PredictFeatures(slices)
            }
            3 => Request::Info,
            4 => Request::MetricsText,
            5 => Request::Shutdown,
            6 => {
                let n = rng.gen_range(0..40usize);
                Request::PredictByIndexTraced(
                    (0..n).map(|_| rng.gen_range(0..10_000u32)).collect(),
                    random_trace(rng),
                )
            }
            7 => {
                let parties = rng.gen_range(1..4usize);
                let rows = rng.gen_range(0..8usize);
                let slices = (0..parties)
                    .map(|_| {
                        let cols = rng.gen_range(1..6usize);
                        random_matrix(rng, rows, cols)
                    })
                    .collect();
                Request::PredictFeaturesTraced(slices, random_trace(rng))
            }
            8 => Request::TraceExport,
            9 => Request::AuditReport,
            10 => {
                let n = rng.gen_range(0..32usize);
                Request::DeclareSession(
                    (0..n)
                        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
                        .collect(),
                )
            }
            11 => {
                // Includes the empty blob when n == 0.
                let n = rng.gen_range(0..256usize);
                Request::JobSubmit((0..n).map(|_| rng.gen::<u32>() as u8).collect())
            }
            12 => Request::JobStatus(rng.gen()),
            13 => Request::JobList,
            14 => Request::JobCancel(rng.gen()),
            15 => Request::JobAttach {
                id: rng.gen(),
                from_seq: rng.gen_range(0..100_000u64),
            },
            _ => Request::JobReport(rng.gen()),
        }
    }

    fn random_audit(rng: &mut StdRng) -> AuditSummary {
        let n_clients = rng.gen_range(0..5usize);
        AuditSummary {
            n_samples: rng.gen_range(0..1_000_000u64),
            clients: (0..n_clients)
                .map(|i| {
                    let n_flags = rng.gen_range(0..3usize);
                    ClientAudit {
                        client: format!("client-{i}"),
                        queries: rng.gen_range(0..1_000_000u64),
                        rows: rng.gen_range(0..1_000_000u64),
                        cached_rows: rng.gen_range(0..1_000_000u64),
                        distinct_rows: rng.gen_range(0..1_000_000u64),
                        repeat_rows: rng.gen_range(0..1_000_000u64),
                        feature_queries: rng.gen_range(0..1_000u64),
                        window_rate_rps: rng.gen::<f64>() * 1e4,
                        flags: ["high-coverage", "repeat-heavy", "feature-burst"][..n_flags]
                            .iter()
                            .map(|s| s.to_string())
                            .collect(),
                    }
                })
                .collect(),
        }
    }

    fn random_response(rng: &mut StdRng, case: usize) -> Response {
        match case % 15 {
            0 => Response::Pong,
            1 => {
                let rows = rng.gen_range(0..16usize);
                let cols = rng.gen_range(1..12usize);
                Response::Scores {
                    cached_rows: rng.gen_range(0..=rows) as u32,
                    scores: random_matrix(rng, rows, cols),
                }
            }
            2 => Response::Info(ServerInfo {
                n_samples: rng.gen_range(0..100_000usize),
                n_features: rng.gen_range(1..500usize),
                n_classes: rng.gen_range(2..12usize),
                party_widths: (0..rng.gen_range(1..5usize))
                    .map(|_| rng.gen_range(1..64usize))
                    .collect(),
            }),
            3 => Response::ShuttingDown,
            4 => Response::MetricsText(
                "# TYPE fia_serve_requests_total counter\nfia_serve_requests_total 7\n"
                    .repeat(rng.gen_range(0..4usize)),
            ),
            5 => Response::Error("sample index 99 out of range (n_samples = 10)".to_string()),
            6 => Response::TraceJsonl(
                "{\"id\":4294967296,\"parent\":7,\"name\":\"serve.request\"}\n"
                    .repeat(rng.gen_range(0..4usize)),
            ),
            7 => Response::Audit(random_audit(rng)),
            8 => Response::SessionAck,
            9 => Response::JobAccepted(rng.gen()),
            10 => Response::JobInfo(random_job_info(rng)),
            11 => {
                let n = rng.gen_range(0..6usize);
                Response::JobTable((0..n).map(|_| random_job_info(rng)).collect())
            }
            12 => Response::JobEvent {
                id: rng.gen(),
                seq: rng.gen_range(0..100_000u64),
                json: "{\"event\":\"chunk-done\",\"chunk\":3}".to_string(),
            },
            13 => Response::JobEventsEnd {
                id: rng.gen(),
                next_seq: rng.gen_range(0..100_000u64),
            },
            _ => {
                let n = rng.gen_range(0..256usize);
                Response::JobReportBlob((0..n).map(|_| rng.gen::<u32>() as u8).collect())
            }
        }
    }

    /// Seeded property sweep: every random frame round-trips bit-exactly,
    /// including empty batches and zero-row matrices.
    #[test]
    fn request_round_trip_sweep() {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for case in 0..300 {
            let req = random_request(&mut rng, case);
            let payload = encode_request(&req).unwrap();
            let back = decode_request(&payload).unwrap();
            assert_eq!(req, back, "case {case}");
        }
    }

    #[test]
    fn response_round_trip_sweep() {
        let mut rng = StdRng::seed_from_u64(0xB0B);
        for case in 0..300 {
            let resp = random_response(&mut rng, case);
            let payload = encode_response(&resp).unwrap();
            let back = decode_response(&payload).unwrap();
            assert_eq!(resp, back, "case {case}");
        }
    }

    /// A maximum-width row (one row, many columns) survives intact and
    /// bit-exactly, including subnormal and extreme-magnitude values.
    #[test]
    fn max_width_row_is_bit_exact() {
        let cols = 4096;
        let m = Matrix::from_fn(1, cols, |_, j| match j % 4 {
            0 => f64::MIN_POSITIVE / 2.0, // subnormal
            1 => -1.0 + (j as f64) * 1e-17,
            2 => 1e308,
            _ => -(j as f64) * 0.001,
        });
        let payload = encode_response(&Response::Scores {
            scores: m.clone(),
            cached_rows: 1,
        })
        .unwrap();
        match decode_response(&payload).unwrap() {
            Response::Scores {
                scores: back,
                cached_rows: 1,
            } => {
                for (a, b) in m.as_slice().iter().zip(back.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    /// NaN-free invariant: both directions refuse non-finite payloads.
    #[test]
    fn nan_rejected_both_ways() {
        let bad = Matrix::from_fn(1, 2, |_, j| if j == 0 { f64::NAN } else { 0.5 });
        assert!(matches!(
            encode_response(&Response::Scores {
                scores: bad.clone(),
                cached_rows: 0
            }),
            Err(WireError::NonFinite)
        ));
        assert!(matches!(
            encode_request(&Request::PredictFeatures(vec![bad])),
            Err(WireError::NonFinite)
        ));
        // Decoder-side: craft a frame with an infinity in the score block.
        let good = Matrix::from_fn(1, 2, |_, j| j as f64);
        let mut payload = encode_response(&Response::Scores {
            scores: good,
            cached_rows: 0,
        })
        .unwrap();
        let inf_bits = f64::INFINITY.to_bits().to_le_bytes();
        let n = payload.len();
        payload[n - 8..].copy_from_slice(&inf_bits);
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::NonFinite)
        ));
    }

    /// Every proper prefix of `payload` is [`WireError::Truncated`], and
    /// every single-bit flip of it decodes to `Ok` or a typed `Err`
    /// without panicking.
    fn cut_and_flip<T: std::fmt::Debug>(payload: &[u8], decode: fn(&[u8]) -> Result<T, WireError>) {
        let op = payload[0];
        for cut in 0..payload.len() {
            match decode(&payload[..cut]) {
                Err(WireError::Truncated) => {}
                other => panic!("op {op:#04x}: cut {cut} gave {other:?}"),
            }
        }
        let mut flipped = payload.to_vec();
        for bit in 0..payload.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Truncated frames fail with a typed error at every cut point, and
    /// bit flips never panic, for every request and response op — the
    /// decoder must never panic or misread garbage as a message.
    #[test]
    fn truncated_payload_errors_at_every_cut() {
        let mut rng = StdRng::seed_from_u64(7);
        let req = Request::PredictFeatures(vec![
            random_matrix(&mut rng, 3, 4),
            random_matrix(&mut rng, 3, 2),
        ]);
        cut_and_flip(&encode_request(&req).unwrap(), decode_request);
        // Two values of every op.
        for case in 0..2 * 17 {
            let req = random_request(&mut rng, case);
            cut_and_flip(&encode_request(&req).unwrap(), decode_request);
        }
        for case in 0..2 * 15 {
            let resp = random_response(&mut rng, case);
            cut_and_flip(&encode_response(&resp).unwrap(), decode_response);
        }
    }

    #[test]
    fn truncated_stream_frame_errors() {
        let payload = encode_request(&Request::PredictByIndex(vec![1, 2, 3])).unwrap();
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        // Cut inside the length prefix and inside the payload.
        for cut in [1usize, 3, 5, framed.len() - 1] {
            let mut cursor = Cursor::new(framed[..cut].to_vec());
            assert!(
                matches!(read_frame(&mut cursor), Err(WireError::Truncated)),
                "cut {cut}"
            );
        }
        // Clean close between frames is not an error.
        let mut empty = Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Ok(None)));
    }

    #[test]
    fn huge_matrix_header_in_tiny_frame_rejected() {
        // A 17-byte payload whose matrix header claims 2^23 × 1 elements
        // (inside the element cap) must be rejected as truncated before
        // the decoder sizes any buffer from the header.
        let mut payload = vec![resp_tag::SCORES];
        payload.extend_from_slice(&0u32.to_le_bytes()); // cached_rows
        payload.extend_from_slice(&(1u32 << 23).to_le_bytes());
        payload.extend_from_slice(&1u32.to_le_bytes());
        assert!(matches!(
            decode_response(&payload),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        let mut cursor = Cursor::new(bytes);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::TooLarge(_))
        ));
    }

    #[test]
    fn over_cap_responses_do_not_encode() {
        let text = "x".repeat(MAX_FRAME_LEN - 4);
        for resp in [
            Response::TraceJsonl(text.clone()),
            Response::MetricsText(text),
        ] {
            assert!(matches!(
                encode_response(&resp),
                Err(WireError::TooLarge(n)) if n == MAX_FRAME_LEN + 1
            ));
        }
        // Tag + length prefix + text lands exactly on the cap.
        let payload =
            encode_response(&Response::MetricsText("x".repeat(MAX_FRAME_LEN - 5))).unwrap();
        assert_eq!(payload.len(), MAX_FRAME_LEN);
    }

    #[test]
    fn unknown_tags_rejected() {
        // 0x05/0x84 were the retired binary metrics op.
        for tag in [0x05, 0x7F] {
            assert!(matches!(decode_request(&[tag]), Err(WireError::BadTag(t)) if t == tag));
        }
        for tag in [0x42, 0x84] {
            assert!(matches!(decode_response(&[tag]), Err(WireError::BadTag(t)) if t == tag));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(&Request::Ping).unwrap();
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::Malformed(_))
        ));
    }

    /// Back-compat: the legacy (untraced) encodings are pinned byte for
    /// byte. A client that has never heard of trace contexts keeps
    /// producing — and a server keeps accepting — exactly these frames.
    #[test]
    fn legacy_encodings_are_bit_identical_golden_bytes() {
        assert_eq!(encode_request(&Request::Ping).unwrap(), vec![0x01]);
        assert_eq!(
            encode_request(&Request::PredictByIndex(vec![1, 258])).unwrap(),
            vec![0x02, 2, 0, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0]
        );
        let m = Matrix::from_vec(1, 1, vec![1.5]).unwrap();
        let mut expect = vec![0x03, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0];
        expect.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(
            encode_request(&Request::PredictFeatures(vec![m.clone()])).unwrap(),
            expect
        );
        assert_eq!(encode_request(&Request::Info).unwrap(), vec![0x04]);
        assert_eq!(encode_request(&Request::Shutdown).unwrap(), vec![0x06]);
        assert_eq!(encode_request(&Request::MetricsText).unwrap(), vec![0x07]);
    }

    /// One small value of every op the legacy test above leaves out,
    /// pinned byte for byte (spaces only separate fields), so a layout
    /// change names the op it moved.
    #[test]
    fn every_other_op_encodes_to_golden_bytes() {
        let hex = |bytes: &[u8]| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let ctx = fia_core::TraceContext {
            trace_id: 0x0807_0605_0403_0201,
            parent_span: 0x1817_1615_1413_1211,
        };
        let m = Matrix::from_vec(1, 1, vec![1.5]).unwrap();
        let info = JobStatusInfo {
            id: 7,
            state: JobState::Running,
            fingerprint: "ab".to_string(),
            chunks_done: 1,
            rows_done: 2,
            rows_planned: 3,
            queries: 4,
            rows: 5,
            cached_rows: 6,
            resumes: 0,
            events: 8,
            detail: String::new(),
        };
        let info_hex = concat!(
            "0700000000000000 01 02000000 6162 0100000000000000 0200000000000000 ",
            "0300000000000000 0400000000000000 0500000000000000 0600000000000000 ",
            "0000000000000000 0800000000000000 00000000",
        );
        let requests = [
            (
                "PredictByIndexTraced",
                Request::PredictByIndexTraced(vec![1], ctx),
                "08 0102030405060708 1112131415161718 01000000 01000000".to_string(),
            ),
            (
                "PredictFeaturesTraced",
                Request::PredictFeaturesTraced(vec![m.clone()], ctx),
                "09 0102030405060708 1112131415161718 01000000 01000000 01000000 000000000000f83f"
                    .to_string(),
            ),
            ("TraceExport", Request::TraceExport, "0a".to_string()),
            ("AuditReport", Request::AuditReport, "0b".to_string()),
            (
                "DeclareSession",
                Request::DeclareSession("ab".to_string()),
                "0c 02000000 6162".to_string(),
            ),
            (
                "JobSubmit",
                Request::JobSubmit(vec![0xAB, 0xCD]),
                "0d 02000000 abcd".to_string(),
            ),
            (
                "JobStatus",
                Request::JobStatus(7),
                "0e 0700000000000000".to_string(),
            ),
            ("JobList", Request::JobList, "0f".to_string()),
            (
                "JobCancel",
                Request::JobCancel(7),
                "10 0700000000000000".to_string(),
            ),
            (
                "JobAttach",
                Request::JobAttach { id: 7, from_seq: 3 },
                "11 0700000000000000 0300000000000000".to_string(),
            ),
            (
                "JobReport",
                Request::JobReport(7),
                "12 0700000000000000".to_string(),
            ),
        ];
        for (op, req, want) in requests {
            let bytes = encode_request(&req).unwrap();
            assert_eq!(hex(&bytes), want.replace(' ', ""), "{op}");
            assert_eq!(decode_request(&bytes).unwrap(), req, "{op}");
        }
        let responses = [
            ("Pong", Response::Pong, "81".to_string()),
            (
                "Scores",
                Response::Scores {
                    scores: Matrix::from_vec(1, 2, vec![0.5, 0.25]).unwrap(),
                    cached_rows: 1,
                },
                "82 01000000 01000000 02000000 000000000000e03f 000000000000d03f".to_string(),
            ),
            (
                "Info",
                Response::Info(ServerInfo {
                    n_samples: 10,
                    n_features: 3,
                    n_classes: 2,
                    party_widths: vec![1, 2],
                }),
                "83 0a000000 03000000 02000000 02000000 01000000 02000000".to_string(),
            ),
            ("ShuttingDown", Response::ShuttingDown, "85".to_string()),
            (
                "MetricsText",
                Response::MetricsText("m 1\n".to_string()),
                "86 04000000 6d20310a".to_string(),
            ),
            (
                "TraceJsonl",
                Response::TraceJsonl("{}\n".to_string()),
                "87 03000000 7b7d0a".to_string(),
            ),
            (
                "Audit",
                Response::Audit(AuditSummary {
                    n_samples: 4,
                    clients: vec![ClientAudit {
                        client: "c".to_string(),
                        queries: 1,
                        rows: 2,
                        cached_rows: 0,
                        distinct_rows: 2,
                        repeat_rows: 0,
                        feature_queries: 0,
                        window_rate_rps: 0.5,
                        flags: vec!["f".to_string()],
                    }],
                }),
                concat!(
                    "88 0400000000000000 01000000 01000000 63 0100000000000000 ",
                    "0200000000000000 0000000000000000 0200000000000000 0000000000000000 ",
                    "0000000000000000 000000000000e03f 01000000 01000000 66",
                )
                .to_string(),
            ),
            ("SessionAck", Response::SessionAck, "89".to_string()),
            (
                "JobAccepted",
                Response::JobAccepted(7),
                "8a 0700000000000000".to_string(),
            ),
            (
                "JobInfo",
                Response::JobInfo(info.clone()),
                format!("8b {info_hex}"),
            ),
            (
                "JobTable",
                Response::JobTable(vec![info]),
                format!("8c 01000000 {info_hex}"),
            ),
            (
                "JobEvent",
                Response::JobEvent {
                    id: 7,
                    seq: 2,
                    json: "{}".to_string(),
                },
                "8d 0700000000000000 0200000000000000 02000000 7b7d".to_string(),
            ),
            (
                "JobEventsEnd",
                Response::JobEventsEnd { id: 7, next_seq: 3 },
                "8e 0700000000000000 0300000000000000".to_string(),
            ),
            (
                "JobReportBlob",
                Response::JobReportBlob(vec![1, 2]),
                "8f 02000000 0102".to_string(),
            ),
            (
                "Error",
                Response::Error("no".to_string()),
                "ee 02000000 6e6f".to_string(),
            ),
        ];
        for (op, resp, want) in responses {
            let bytes = encode_response(&resp).unwrap();
            assert_eq!(hex(&bytes), want.replace(' ', ""), "{op}");
            assert_eq!(decode_response(&bytes).unwrap(), resp, "{op}");
        }
    }

    /// The traced predict layout is tag, 16-byte trace context, then the
    /// byte-identical legacy body.
    #[test]
    fn traced_predict_is_trace_context_plus_legacy_body() {
        let ctx = fia_core::TraceContext {
            trace_id: 0x1111_2222_3333_4444,
            parent_span: 0x5555_6666_7777_8888,
        };
        let indices = vec![9u32, 8, 7];
        let legacy = encode_request(&Request::PredictByIndex(indices.clone())).unwrap();
        let traced = encode_request(&Request::PredictByIndexTraced(indices.clone(), ctx)).unwrap();
        assert_eq!(traced[0], 0x08);
        assert_eq!(&traced[1..9], &ctx.trace_id.to_le_bytes());
        assert_eq!(&traced[9..17], &ctx.parent_span.to_le_bytes());
        assert_eq!(&traced[17..], &legacy[1..]);
        assert_eq!(
            decode_request(&traced).unwrap(),
            Request::PredictByIndexTraced(indices, ctx)
        );
    }

    #[test]
    fn session_tag_cap_is_enforced_both_ways() {
        let long = "x".repeat(MAX_SESSION_TAG_LEN + 1);
        assert!(matches!(
            encode_request(&Request::DeclareSession(long)),
            Err(WireError::Malformed(_))
        ));
        let ok = "campaign-abc".to_string();
        let payload = encode_request(&Request::DeclareSession(ok.clone())).unwrap();
        assert_eq!(
            decode_request(&payload).unwrap(),
            Request::DeclareSession(ok)
        );
        // Decoder-side: a crafted over-cap length prefix is rejected.
        let mut crafted = vec![0x0C];
        crafted.extend_from_slice(&((MAX_SESSION_TAG_LEN as u32) + 1).to_le_bytes());
        crafted.extend(std::iter::repeat_n(b'x', MAX_SESSION_TAG_LEN + 1));
        assert!(matches!(
            decode_request(&crafted),
            Err(WireError::Malformed(_))
        ));
    }

    /// Job-op payloads fail with a typed error at every truncation cut,
    /// and an unknown state byte is malformed rather than a panic.
    #[test]
    fn job_table_truncation_and_bad_state_rejected() {
        let mut rng = StdRng::seed_from_u64(0x10B);
        let resp = Response::JobTable(vec![random_job_info(&mut rng), random_job_info(&mut rng)]);
        let payload = encode_response(&resp).unwrap();
        assert_eq!(decode_response(&payload).unwrap(), resp);
        for cut in 0..payload.len() {
            assert!(decode_response(&payload[..cut]).is_err(), "cut {cut}");
        }
        // Corrupt the first row's state byte (tag + count + id = 13).
        let mut bad = payload.clone();
        bad[13] = 9;
        assert!(matches!(
            decode_response(&bad),
            Err(WireError::Malformed(_))
        ));
        // The detail cap is enforced on encode.
        let mut info = random_job_info(&mut rng);
        info.detail = "x".repeat(MAX_JOB_DETAIL_LEN + 1);
        assert!(matches!(
            encode_response(&Response::JobInfo(info)),
            Err(WireError::Malformed(_))
        ));
    }

    /// The job-submit blob is opaque: arbitrary bytes (including ones
    /// that look like frame headers) survive the round trip untouched.
    #[test]
    fn job_submit_blob_is_opaque_and_exact() {
        let blob: Vec<u8> = (0..=255u8).cycle().take(1024).collect();
        let payload = encode_request(&Request::JobSubmit(blob.clone())).unwrap();
        assert_eq!(decode_request(&payload).unwrap(), Request::JobSubmit(blob));
        // A crafted length prefix past the frame cap is malformed.
        let mut crafted = vec![req_tag::JOB_SUBMIT];
        crafted.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        assert!(matches!(
            decode_request(&crafted),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn audit_summary_round_trips_and_rejects_non_finite_rate() {
        let audit = AuditSummary {
            n_samples: 512,
            clients: vec![ClientAudit {
                client: "campaign-1".to_string(),
                queries: 8,
                rows: 512,
                cached_rows: 64,
                distinct_rows: 448,
                repeat_rows: 64,
                feature_queries: 0,
                window_rate_rps: 1.25,
                flags: vec!["high-coverage".to_string()],
            }],
        };
        let payload = encode_response(&Response::Audit(audit.clone())).unwrap();
        assert_eq!(decode_response(&payload).unwrap(), Response::Audit(audit));
        let bad = AuditSummary {
            n_samples: 1,
            clients: vec![ClientAudit {
                client: "x".to_string(),
                queries: 0,
                rows: 0,
                cached_rows: 0,
                distinct_rows: 0,
                repeat_rows: 0,
                feature_queries: 0,
                window_rate_rps: f64::NAN,
                flags: vec![],
            }],
        };
        assert!(matches!(
            encode_response(&Response::Audit(bad)),
            Err(WireError::NonFinite)
        ));
    }

    #[test]
    fn frame_round_trip_over_stream() {
        let req = Request::PredictByIndex(vec![9, 8, 7]);
        let payload = encode_request(&req).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(decode_request(&back).unwrap(), req);
        assert!(matches!(read_frame(&mut cursor), Ok(None)));
    }

    /// `split_frame` cuts exactly the frames `append_frame` wrote, waits
    /// on a partial one, and refuses an over-cap prefix without consuming
    /// anything.
    #[test]
    fn appended_frames_split_back_one_at_a_time() {
        let mut buf = Vec::new();
        append_frame(&mut buf, b"one").unwrap();
        append_frame(&mut buf, b"").unwrap();
        append_frame(&mut buf, b"three").unwrap();
        assert_eq!(&buf[..7], &[3, 0, 0, 0, b'o', b'n', b'e']);
        buf.truncate(buf.len() - 1);
        assert_eq!(split_frame(&mut buf).unwrap().as_deref(), Some(&b"one"[..]));
        assert_eq!(split_frame(&mut buf).unwrap().as_deref(), Some(&b""[..]));
        for _ in 0..2 {
            assert_eq!(split_frame(&mut buf).unwrap(), None);
        }
        buf.push(b'e');
        assert_eq!(
            split_frame(&mut buf).unwrap().as_deref(),
            Some(&b"three"[..])
        );
        assert!(buf.is_empty());
        assert_eq!(split_frame(&mut buf).unwrap(), None);

        let mut bad = ((MAX_FRAME_LEN as u32) + 1).to_le_bytes().to_vec();
        bad.push(0);
        assert!(matches!(
            split_frame(&mut bad),
            Err(WireError::TooLarge(n)) if n == MAX_FRAME_LEN + 1
        ));
        assert_eq!(bad.len(), 5);
        let mut out = vec![9];
        assert!(matches!(
            append_frame(&mut out, &vec![0; MAX_FRAME_LEN + 1]),
            Err(WireError::TooLarge(_))
        ));
        assert_eq!(out, [9]);
    }

    #[test]
    fn a_frame_is_one_write() {
        // Counts `write` calls; accepts every byte it is offered.
        #[derive(Default)]
        struct CountingWriter {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes += 1;
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let payload = encode_request(&Request::PredictByIndex(vec![3, 1, 4])).unwrap();
        let mut w = CountingWriter::default();
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.writes, 1, "prefix and payload leave in one write");
        assert_eq!(&w.bytes[..4], &(payload.len() as u32).to_le_bytes());
        assert_eq!(&w.bytes[4..], &payload[..]);
    }
}
