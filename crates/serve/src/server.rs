//! The TCP prediction service.
//!
//! Thread layout:
//!
//! * a single *reactor* thread ([`crate::reactor`]) owns the listener
//!   and every client socket: nonblocking accept, incremental frame
//!   assembly, request validation, and in-order response writes all run
//!   on readiness events from the [`crate::sys`] poller (`epoll`, or
//!   `poll` under `FIA_FORCE_POLL=1`) — thousands of connections on one
//!   thread;
//! * a [`ReplicaPool`] of N *batcher* threads, each owning a cheap
//!   replica of the deployment: stored-index traffic is routed by shard
//!   of the stored prediction set, ad-hoc feature traffic by least
//!   loaded replica, and each batcher drains its queue through a
//!   [`Coalescer`](crate::Coalescer) into joint-prediction rounds with
//!   the [`DefensePipeline`] applied once per round at the score-release
//!   boundary.
//!
//! One round in flight *per replica* keeps the faithfulness of the
//! modelled deployment (the `m` parties run one secure computation at a
//! time per backend) while scaling throughput with the replica count.
//! [`ServeConfig::round_cost`] makes each round's fixed protocol
//! overhead explicit; the optional released-score cache
//! ([`ServeConfig::cache_capacity`]) answers repeated stored-index
//! queries without paying it again — and, deliberately, re-releases the
//! first-released bytes so repetition leaks nothing fresh.
//!
//! Shutdown is graceful: a stop flag flips and the waker nudges the
//! reactor, which immediately closes the listener (new connects are
//! refused), stops reading, lets every batcher answer the jobs still
//! queued, flushes buffered responses, and exits; the handle then joins
//! the reactor and the batchers.

use crate::cache::ScoreCache;
use crate::coalesce::Coalescer;
use crate::dispatch::{Dispatcher, ShardMap};
use crate::metrics::{MetricsReport, ServerMetrics};
use crate::pool::ReplicaPool;
use crate::reactor::Reactor;
use crate::sys::Waker;
use crate::wire::ServerInfo;
use fia_defense::DefensePipeline;
use fia_models::PredictProba;
use fia_telemetry::Tracer;
use fia_vfl::{PartyId, VflSystem};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning knobs for one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; use port `0` for an ephemeral port (tests and
    /// examples should, so parallel runs never collide).
    pub bind: String,
    /// Backend replicas: clones of the deployment, each with its own
    /// coalescer and batcher thread. The stored prediction set is
    /// range-sharded across them (`1` reproduces PR 2's single-batcher
    /// server exactly).
    pub replicas: usize,
    /// Row budget per coalesced round.
    pub batch_cap: usize,
    /// Deadline past a round's first request (see
    /// [`Coalescer`](crate::Coalescer)).
    pub batch_deadline: Duration,
    /// `false` turns the coalescer off: every request is its own round.
    pub coalesce: bool,
    /// Released-score cache capacity in rows; `0` disables caching.
    /// The cache stores post-defense released rows keyed by stored
    /// sample index and re-releases them bit-identically.
    pub cache_capacity: usize,
    /// Seed for the cache's eviction choices (reproducible experiments).
    pub cache_seed: u64,
    /// Simulated fixed cost of one secure joint-prediction round. The
    /// in-tree deployment evaluates the model in the clear, so the
    /// per-round protocol overhead a real VFL serving stack pays
    /// (secure aggregation, HE, party round trips) would be invisible;
    /// setting this reinstates it. `Duration::ZERO` for tests.
    pub round_cost: Duration,
    /// Per-client audit ledger ([`crate::AuditLedger`]): query/row/
    /// distinct-row counters, sliding-window rates and probe-shape flags
    /// keyed by connection (or declared session tag). `false` removes
    /// the ledger entirely — the bench's overhead-pricing knob.
    pub audit: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            bind: "127.0.0.1:0".to_string(),
            replicas: 1,
            batch_cap: 64,
            batch_deadline: Duration::from_micros(500),
            coalesce: true,
            cache_capacity: 0,
            cache_seed: 0x5C0_7E5,
            round_cost: Duration::ZERO,
            audit: true,
        }
    }
}

impl ServeConfig {
    /// The coalescing policy this config describes.
    fn coalescer(&self) -> Coalescer {
        if self.coalesce {
            Coalescer::adaptive(self.batch_cap, self.batch_deadline)
        } else {
            Coalescer::passthrough()
        }
    }
}

/// State shared by the reactor and the server handle. Deliberately not
/// generic over the model type: the generic deployment lives inside the
/// pool's batcher threads, so connection handling stays monomorphic.
pub(crate) struct Shared {
    pub(crate) dispatcher: Dispatcher,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) info: ServerInfo,
    /// Server-side span tracer. Its id space starts at `1 << 32` so a
    /// merged client+server trace never collides span ids (client
    /// tracers start at 1), which is what lets cross-process parent
    /// links resolve unambiguously.
    pub(crate) tracer: Tracer,
    /// Whether the reactor keeps a per-client [`crate::AuditLedger`].
    pub(crate) audit: bool,
}

/// Where the server-side span id space starts: server span ids are
/// `>= SERVER_SPAN_ID_BASE`, client span ids below it, so a merged trace
/// tells the two processes apart by id alone.
pub const SERVER_SPAN_ID_BASE: u64 = 1 << 32;

/// The prediction service; [`PredictionServer::spawn`] is its only
/// entry point.
pub struct PredictionServer;

impl PredictionServer {
    /// Binds `config.bind`, spawns the server threads (one reactor + one
    /// batcher per replica), and returns a handle carrying the bound
    /// address (resolve ephemeral ports from it). The deployment and the
    /// defense pipeline are shared, not consumed — the caller keeps its
    /// `Arc` clones, which is what lets tests compare over-the-wire
    /// results against in-process runs of the *same* system.
    pub fn spawn<M>(
        system: Arc<VflSystem<M>>,
        defense: Arc<DefensePipeline>,
        config: ServeConfig,
    ) -> std::io::Result<ServerHandle>
    where
        M: PredictProba + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let partition = system.partition();
        let info = ServerInfo {
            n_samples: system.n_samples(),
            n_features: partition.n_features(),
            n_classes: system.model().n_classes(),
            party_widths: (0..partition.n_parties())
                .map(|p| partition.features_of(PartyId(p)).len())
                .collect(),
        };

        let replicas = config.replicas.max(1);
        let metrics = Arc::new(ServerMetrics::with_replicas(replicas));
        let stop = Arc::new(AtomicBool::new(false));
        let tracer = Tracer::with_id_base(SERVER_SPAN_ID_BASE);
        let (pool, batchers) = ReplicaPool::spawn(
            &system,
            &defense,
            &metrics,
            &stop,
            &tracer,
            config.coalescer(),
            config.round_cost,
            replicas,
        );
        let cache = (config.cache_capacity > 0)
            .then(|| ScoreCache::new(config.cache_capacity, config.cache_seed));
        let dispatcher = Dispatcher::new(
            pool,
            ShardMap::new(info.n_samples, replicas),
            cache,
            Arc::clone(&metrics),
            info.n_classes,
        );

        let shared = Arc::new(Shared {
            dispatcher,
            metrics: Arc::clone(&metrics),
            stop: Arc::clone(&stop),
            info,
            tracer: tracer.clone(),
            audit: config.audit,
        });

        let (reactor, waker) = Reactor::new(listener, shared)?;
        let owned = metrics.own_thread();
        let reactor = std::thread::Builder::new()
            .name("fia-serve-reactor".to_string())
            .spawn(move || {
                let _owned = owned;
                reactor.run()
            })?;

        Ok(ServerHandle {
            addr,
            stop,
            metrics,
            tracer,
            waker,
            reactor: Some(reactor),
            batchers,
        })
    }
}

/// A running server: its bound address, live metrics, and the shutdown
/// switch. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    metrics: Arc<ServerMetrics>,
    tracer: Tracer,
    waker: Waker,
    reactor: Option<JoinHandle<()>>,
    batchers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address — with an ephemeral-port bind this is where the
    /// kernel actually put the server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Snapshot of the server's live metrics.
    pub fn metrics(&self) -> MetricsReport {
        self.metrics.report()
    }

    /// Prometheus-style text exposition of this server's telemetry (the
    /// same text the `MetricsText` wire op returns).
    pub fn metrics_text(&self) -> String {
        self.metrics.exposition()
    }

    /// Switches this server's telemetry recording on/off — the serve
    /// bench's overhead-pricing knob.
    pub fn set_telemetry_recording(&self, on: bool) {
        self.metrics.set_recording(on);
    }

    /// Finished server-side spans as JSONL (the same text the
    /// `TraceExport` wire op returns). Server span ids start at
    /// `1 << 32`, so concatenating this with a client tracer's JSONL
    /// yields a merged trace with no id collisions.
    pub fn trace_jsonl(&self) -> String {
        self.tracer.to_jsonl()
    }

    /// Stops accepting, lets in-flight rounds finish, answers everything
    /// queued, and joins every server thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The reactor may be parked in poller.wait with no traffic due
        // for a whole tick: the waker makes shutdown prompt, not
        // tick-quantized.
        self.waker.wake();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in std::mem::take(&mut self.batchers) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}
