//! Per-server metrics: throughput, request latency, batch fill,
//! per-replica round/row gauges and released-score-cache hit rates.
//!
//! The counters are [`fia_telemetry`] instruments on a per-server
//! [`Registry`]: lock-free atomics on the hot path, and scrapeable.
//! [`ServerMetrics::exposition`] renders the server's registry (merged
//! with the process-global one, which holds kernel/campaign/attack
//! instruments) as Prometheus-style text, and that is what the
//! `MetricsText` wire op returns — the server's one remote metrics
//! surface. Each server owns its *own* registry so parallel deployments
//! in one process — the normal test topology — never share counters.
//! [`ServerMetrics::report`] folds the instruments into the
//! plain-old-data [`MetricsReport`] for in-process readers.
//!
//! Request latency has one record: the `fia_serve_request_duration_us`
//! histogram in the scrape.

use fia_telemetry::{encode_prometheus, global, Counter, Gauge, Histogram, Registry};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Per-replica round/row counters.
struct ReplicaCounters {
    rounds: Arc<Counter>,
    rows: Arc<Counter>,
}

/// Classified `accept()` failures — the label set of
/// `fia_serve_accept_errors_total{kind=}`. The old server collapsed all
/// of these into one anonymous sleep; the reactor counts them and picks
/// a policy per kind (see `crate::sys::classify_accept_error`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AcceptErrorKind {
    /// fd or memory exhaustion (`EMFILE`/`ENFILE`/`ENOBUFS`/`ENOMEM`):
    /// retrying immediately cannot succeed, so accept backs off.
    Exhausted,
    /// The pending connection died in the backlog
    /// (`ECONNABORTED`/reset): consumed, accept continues.
    Aborted,
    /// `EINTR`: accept retries immediately.
    Interrupted,
    /// Accept succeeded but the socket could not be configured for the
    /// event loop (`set_nonblocking`/poller registration failed); the
    /// connection is closed rather than run in a mode that would hang.
    Setup,
    /// Anything else: retried at the minimum backoff, never a hot loop.
    Other,
}

impl AcceptErrorKind {
    /// Every kind, in counter-array order.
    pub(crate) const ALL: [AcceptErrorKind; 5] = [
        AcceptErrorKind::Exhausted,
        AcceptErrorKind::Aborted,
        AcceptErrorKind::Interrupted,
        AcceptErrorKind::Setup,
        AcceptErrorKind::Other,
    ];

    /// The `kind` label value.
    pub(crate) fn label(self) -> &'static str {
        match self {
            AcceptErrorKind::Exhausted => "exhausted",
            AcceptErrorKind::Aborted => "aborted",
            AcceptErrorKind::Interrupted => "interrupted",
            AcceptErrorKind::Setup => "setup",
            AcceptErrorKind::Other => "other",
        }
    }

    fn index(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).expect("in ALL")
    }
}

/// A server thread's entry in `fia_serve_threads`; see
/// [`ServerMetrics::own_thread`].
pub(crate) struct OwnedThread(Arc<ServerMetrics>);

impl Drop for OwnedThread {
    fn drop(&mut self) {
        self.0.shift_threads(false);
    }
}

/// Live counters shared by every server thread.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    started: Instant,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    latency_us: Arc<Histogram>,
    uptime: Arc<Gauge>,
    connections_open: Arc<Gauge>,
    connections_total: Arc<Counter>,
    threads: Arc<Gauge>,
    /// The count behind `threads`, changed and published under one lock
    /// so concurrent thread exits cannot publish out of order.
    live_threads: Mutex<u64>,
    /// One counter per [`AcceptErrorKind`], in `ALL` order.
    accept_errors: Vec<Arc<Counter>>,
    replicas: Vec<ReplicaCounters>,
    reactor_rounds: Arc<Counter>,
}

impl std::fmt::Debug for ServerMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerMetrics")
            .field("requests", &self.requests.get())
            .field("errors", &self.errors.get())
            .field("replicas", &self.replicas.len())
            .finish_non_exhaustive()
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    /// Fresh single-replica metrics; the uptime clock starts now.
    pub fn new() -> Self {
        Self::with_replicas(1)
    }

    /// Fresh metrics tracking `replicas` backend replicas, on a private
    /// telemetry registry.
    pub fn with_replicas(replicas: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let replicas = (0..replicas.max(1))
            .map(|i| {
                let idx = i.to_string();
                ReplicaCounters {
                    rounds: registry.counter_with(
                        "fia_serve_replica_rounds_total",
                        "Coalesced prediction rounds executed, per backend replica.",
                        &[("replica", &idx)],
                    ),
                    rows: registry.counter_with(
                        "fia_serve_replica_rows_total",
                        "Query rows answered, per backend replica.",
                        &[("replica", &idx)],
                    ),
                }
            })
            .collect();
        ServerMetrics {
            started: Instant::now(),
            requests: registry.counter(
                "fia_serve_requests_total",
                "Completed requests (read-complete to response-written).",
            ),
            errors: registry.counter("fia_serve_errors_total", "Rejected requests."),
            cache_hits: registry.counter(
                "fia_serve_cache_hit_rows_total",
                "Stored-index rows released from the score cache.",
            ),
            cache_misses: registry.counter(
                "fia_serve_cache_miss_rows_total",
                "Stored-index rows that required (part of) a joint round.",
            ),
            latency_us: registry.histogram(
                "fia_serve_request_duration_us",
                "End-to-end service latency, microseconds.",
            ),
            uptime: registry.gauge(
                "fia_serve_uptime_seconds",
                "Seconds since the server started (set at scrape time).",
            ),
            connections_open: registry.gauge(
                "fia_serve_connections_open",
                "Client connections currently held by the reactor.",
            ),
            connections_total: registry.counter(
                "fia_serve_connections_total",
                "Client connections accepted over the server's lifetime.",
            ),
            accept_errors: AcceptErrorKind::ALL
                .iter()
                .map(|kind| {
                    registry.counter_with(
                        "fia_serve_accept_errors_total",
                        "accept() failures, classified by what went wrong.",
                        &[("kind", kind.label())],
                    )
                })
                .collect(),
            threads: registry.gauge(
                "fia_serve_threads",
                "Threads this server owns (reactor and replica batchers).",
            ),
            live_threads: Mutex::new(0),
            replicas,
            reactor_rounds: registry.counter(
                "fia_serve_reactor_rounds_total",
                "Prediction rounds the reactor thread ran itself, not a batcher.",
            ),
            registry,
        }
    }

    /// Number of replicas being tracked.
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// The server's private telemetry registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Switches this server's instrument recording on/off (the bench's
    /// overhead-pricing knob).
    pub fn set_recording(&self, on: bool) {
        self.registry.set_recording(on);
    }

    /// Records one completed request and its end-to-end service latency
    /// (request read to reply staged). A traced request's kept span tree
    /// carries the same value as `latency_us`.
    pub fn record_request(&self, latency_us: u64) {
        self.requests.inc();
        self.latency_us.record(latency_us);
    }

    /// Records one rejected request.
    pub fn record_error(&self) {
        self.errors.inc();
    }

    /// Records one classified `accept()` failure.
    pub(crate) fn record_accept_error(&self, kind: AcceptErrorKind) {
        self.accept_errors[kind.index()].inc();
    }

    /// Records an accepted connection; `open_now` is the reactor's live
    /// connection count after the accept.
    pub(crate) fn record_connection_opened(&self, open_now: u64) {
        self.connections_total.inc();
        self.connections_open.set(open_now as f64);
    }

    /// Records a closed connection; `open_now` is the reactor's live
    /// connection count after the close.
    pub(crate) fn record_connection_closed(&self, open_now: u64) {
        self.connections_open.set(open_now as f64);
    }

    /// Counts one server-owned thread in `fia_serve_threads` until the
    /// returned guard drops. The spawner takes the guard and moves it
    /// into the thread, so the gauge is exact once spawning returns and
    /// falls when the thread exits (also by unwinding).
    pub(crate) fn own_thread(self: &Arc<Self>) -> OwnedThread {
        self.shift_threads(true);
        OwnedThread(Arc::clone(self))
    }

    /// Never panics: it runs in `OwnedThread::drop`, possibly while the
    /// thread unwinds. A poisoned lock still holds a valid count, since
    /// every update is a single store.
    fn shift_threads(&self, up: bool) {
        let mut live = self
            .live_threads
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *live = if up {
            *live + 1
        } else {
            live.saturating_sub(1)
        };
        self.threads.set(*live as f64);
    }

    /// Records one coalesced prediction round answering `rows` queries
    /// on backend `replica`.
    pub fn record_round(&self, replica: usize, rows: usize) {
        let r = &self.replicas[replica.min(self.replicas.len() - 1)];
        r.rounds.inc();
        r.rows.add(rows as u64);
    }

    /// Records one round that the reactor thread ran itself. The round
    /// is also counted per replica by [`Self::record_round`].
    pub(crate) fn record_reactor_round(&self) {
        self.reactor_rounds.inc();
    }

    /// Records the cache outcome of one stored-index request: `hits`
    /// rows released from the cache, `misses` rows that needed a round.
    pub fn record_cache(&self, hits: u64, misses: u64) {
        if hits > 0 {
            self.cache_hits.add(hits);
        }
        if misses > 0 {
            self.cache_misses.add(misses);
        }
    }

    /// Prometheus-style text exposition of this server's registry
    /// followed by the process-global one (kernel, campaign and attack
    /// instruments) — what the `MetricsText` wire op returns.
    pub fn exposition(&self) -> String {
        self.uptime.set(self.started.elapsed().as_secs_f64());
        encode_prometheus(&self.registry.snapshot().merge(global().snapshot()))
    }

    /// Snapshot of everything, as plain data.
    pub fn report(&self) -> MetricsReport {
        let requests = self.requests.get();
        let replica_rounds: Vec<u64> = self.replicas.iter().map(|r| r.rounds.get()).collect();
        let replica_rows: Vec<u64> = self.replicas.iter().map(|r| r.rows.get()).collect();
        let rounds: u64 = replica_rounds.iter().sum();
        let rows: u64 = replica_rows.iter().sum();
        let uptime_secs = self.started.elapsed().as_secs_f64();
        MetricsReport {
            requests,
            rows,
            rounds,
            errors: self.errors.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            open_connections: self.connections_open.get() as u64,
            total_connections: self.connections_total.get(),
            accept_errors: self.accept_errors.iter().map(|c| c.get()).sum(),
            mean_batch_fill: if rounds == 0 {
                0.0
            } else {
                rows as f64 / rounds as f64
            },
            uptime_secs,
            throughput_rps: if uptime_secs > 0.0 {
                requests as f64 / uptime_secs
            } else {
                0.0
            },
            replica_rounds,
            replica_rows,
        }
    }
}

/// `(p50, p99)` of latency samples, in microseconds.
///
/// Quantiles use linear interpolation between the two closest order
/// statistics (the same convention as numpy's default): the empty
/// window reports `(0, 0)`, a single sample is every percentile of
/// itself, and two samples give `p50 = midpoint` rather than snapping
/// to either endpoint.
pub(crate) fn percentiles(samples: &[u64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted: Vec<u64> = samples.to_vec();
    sorted.sort_unstable();
    let rank = |q: f64| {
        let pos = (sorted.len() - 1) as f64 * q;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
    };
    (rank(0.50), rank(0.99))
}

/// A point-in-time metrics snapshot, read in-process through
/// `ServerHandle::metrics` — what tests and the serve benches record.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Completed requests.
    pub requests: u64,
    /// Total query rows answered across all rounds.
    pub rows: u64,
    /// Prediction rounds executed (coalesced batches), all replicas.
    pub rounds: u64,
    /// Rejected requests.
    pub errors: u64,
    /// Stored-index rows released from the score cache.
    pub cache_hits: u64,
    /// Stored-index rows that required (part of) a joint round.
    pub cache_misses: u64,
    /// Client connections currently held by the reactor.
    pub open_connections: u64,
    /// Client connections accepted over the server's lifetime.
    pub total_connections: u64,
    /// `accept()` failures, all kinds (per-kind counts live in the text
    /// exposition's `fia_serve_accept_errors_total{kind=}` series).
    pub accept_errors: u64,
    /// Mean queries per round — the coalescer's fill factor.
    pub mean_batch_fill: f64,
    /// Seconds since the server started.
    pub uptime_secs: f64,
    /// Requests per second over the whole uptime.
    pub throughput_rps: f64,
    /// Rounds executed per backend replica, in replica order.
    pub replica_rounds: Vec<u64>,
    /// Rows answered per backend replica, in replica order.
    pub replica_rows: Vec<u64>,
}

impl MetricsReport {
    /// Fraction of stored-index rows answered from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Per-replica mean batch fill (rows per round), in replica order.
    pub fn replica_fill(&self) -> Vec<f64> {
        self.replica_rounds
            .iter()
            .zip(&self.replica_rows)
            .map(|(&rounds, &rows)| {
                if rounds == 0 {
                    0.0
                } else {
                    rows as f64 / rounds as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_fill_is_mean() {
        let m = ServerMetrics::new();
        m.record_round(0, 4);
        m.record_round(0, 8);
        for lat in [100, 200, 300, 400] {
            m.record_request(lat);
        }
        m.record_error();
        let r = m.report();
        assert_eq!(r.requests, 4);
        assert_eq!(r.rows, 12);
        assert_eq!(r.rounds, 2);
        assert_eq!(r.errors, 1);
        assert!((r.mean_batch_fill - 6.0).abs() < 1e-12);
        assert!(r.uptime_secs >= 0.0);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = ServerMetrics::new().report();
        assert_eq!(r.requests, 0);
        assert_eq!(r.mean_batch_fill, 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
    }

    #[test]
    fn percentiles_of_empty_window_are_zero() {
        assert_eq!(percentiles(&[]), (0.0, 0.0));
    }

    #[test]
    fn percentiles_of_single_sample_are_that_sample() {
        let (p50, p99) = percentiles(&[740]);
        assert_eq!(p50, 740.0);
        assert_eq!(p99, 740.0);
    }

    #[test]
    fn percentiles_of_two_samples_interpolate() {
        // p50 of a two-sample window is the midpoint — snapping to
        // either endpoint (the old round-half-up behaviour picked the
        // *max*) misreports the median of tiny warm-up windows.
        let (p50, p99) = percentiles(&[100, 300]);
        assert!((p50 - 200.0).abs() < 1e-9);
        assert!((p99 - 298.0).abs() < 1e-9);
        // Order must not matter.
        assert_eq!(percentiles(&[300, 100]), (p50, p99));
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let samples: Vec<u64> = (0..101).map(|i| i * 10).collect();
        let (p50, p99) = percentiles(&samples);
        assert!((p50 - 500.0).abs() < 1e-9);
        assert!((p99 - 990.0).abs() < 1e-9);
        assert!(p50 <= p99);
        assert!(p99 <= *samples.last().unwrap() as f64);
    }

    #[test]
    fn per_replica_gauges_split_rounds_and_rows() {
        let m = ServerMetrics::with_replicas(3);
        assert_eq!(m.n_replicas(), 3);
        m.record_round(0, 10);
        m.record_round(2, 2);
        m.record_round(2, 4);
        let r = m.report();
        assert_eq!(r.replica_rounds, vec![1, 0, 2]);
        assert_eq!(r.replica_rows, vec![10, 0, 6]);
        assert_eq!(r.rounds, 3);
        assert_eq!(r.rows, 16);
        let fill = r.replica_fill();
        assert!((fill[0] - 10.0).abs() < 1e-12);
        assert_eq!(fill[1], 0.0);
        assert!((fill[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn cache_counters_and_hit_rate() {
        let m = ServerMetrics::new();
        m.record_cache(3, 1);
        m.record_cache(0, 0); // no-op
        m.record_cache(1, 3);
        let r = m.report();
        assert_eq!(r.cache_hits, 4);
        assert_eq!(r.cache_misses, 4);
        assert!((r.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exposition_covers_the_serve_instruments() {
        let m = ServerMetrics::with_replicas(2);
        m.record_request(150);
        m.record_round(1, 8);
        m.record_cache(3, 1);
        let text = m.exposition();
        assert!(text.contains("fia_serve_requests_total 1\n"));
        assert!(text.contains("fia_serve_replica_rows_total{replica=\"1\"} 8\n"));
        assert!(text.contains("fia_serve_cache_hit_rows_total 3\n"));
        assert!(text.contains("# TYPE fia_serve_request_duration_us histogram"));
        assert!(text.contains("fia_serve_request_duration_us_count 1\n"));
        assert!(text
            .lines()
            .any(|l| l.starts_with("fia_serve_uptime_seconds ")));
    }

    #[test]
    fn servers_have_isolated_registries() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.record_request(10);
        assert_eq!(a.report().requests, 1);
        assert_eq!(b.report().requests, 0);
        assert!(b.exposition().contains("fia_serve_requests_total 0\n"));
    }

    #[test]
    fn recording_toggle_freezes_counters() {
        let m = ServerMetrics::new();
        m.set_recording(false);
        m.record_request(123);
        m.record_error();
        let r = m.report();
        assert_eq!(r.requests, 0);
        assert_eq!(r.errors, 0);
        m.set_recording(true);
        m.record_request(123);
        assert_eq!(m.report().requests, 1);
    }

    #[test]
    fn accept_errors_count_per_kind_and_sum_in_the_report() {
        let m = ServerMetrics::new();
        m.record_accept_error(AcceptErrorKind::Exhausted);
        m.record_accept_error(AcceptErrorKind::Exhausted);
        m.record_accept_error(AcceptErrorKind::Aborted);
        let r = m.report();
        assert_eq!(r.accept_errors, 3);
        let text = m.exposition();
        assert!(text.contains("fia_serve_accept_errors_total{kind=\"exhausted\"} 2\n"));
        assert!(text.contains("fia_serve_accept_errors_total{kind=\"aborted\"} 1\n"));
        // Unseen kinds are registered eagerly, so the scrape shows the
        // full label set at zero rather than omitting it.
        assert!(text.contains("fia_serve_accept_errors_total{kind=\"setup\"} 0\n"));
    }

    #[test]
    fn connection_gauges_track_open_and_lifetime_counts() {
        let m = ServerMetrics::new();
        m.record_connection_opened(1);
        m.record_connection_opened(2);
        m.record_connection_closed(1);
        let r = m.report();
        assert_eq!(r.open_connections, 1);
        assert_eq!(r.total_connections, 2);
        m.record_connection_closed(0);
        assert_eq!(m.report().open_connections, 0);
        assert_eq!(m.report().total_connections, 2);
    }

    #[test]
    fn thread_gauge_counts_live_guards_even_across_threads() {
        let m = Arc::new(ServerMetrics::new());
        let a = m.own_thread();
        let b = m.own_thread();
        assert_eq!(m.threads.get(), 2.0);
        std::thread::spawn(move || drop(b)).join().unwrap();
        assert_eq!(m.threads.get(), 1.0);
        let panicked = std::thread::spawn(move || {
            let _owned = a;
            panic!("batcher died");
        })
        .join();
        assert!(panicked.is_err());
        assert_eq!(m.threads.get(), 0.0, "an unwinding thread lowers the gauge");
        assert!(m.exposition().contains("fia_serve_threads 0"));
    }
}
