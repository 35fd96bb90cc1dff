#![warn(missing_docs)]

//! # fia-serve — the deployed prediction boundary
//!
//! The paper's adversary is not handed a `VflSystem` — it *queries a
//! deployed prediction API* and accumulates `(x_adv, v)` pairs from what
//! the API releases. This crate models that boundary as a real network
//! service, std-only (`std::net` + threads + channels):
//!
//! * [`wire`] — a length-prefixed binary codec whose matrices travel as
//!   raw IEEE-754 bits, so over-the-wire attack replays reproduce
//!   in-process results to the last ulp.
//! * [`Coalescer`] — adaptive micro-batch coalescing: queued requests
//!   drain into one joint-prediction round when a row budget or a
//!   deadline is hit, amortizing the per-round protocol cost a real VFL
//!   deployment pays.
//! * [`PredictionServer`] — the TCP service: a single *reactor* thread
//!   (nonblocking sockets multiplexed through an in-tree `epoll` shim,
//!   with a portable `poll` fallback selectable via `FIA_FORCE_POLL=1`)
//!   owns the listener and every client connection — incremental frame
//!   assembly, classified accept-error backoff, in-order response
//!   writes — and feeds a *replica pool* of batchers
//!   ([`ServeConfig::replicas`]), each owning a cheap clone of the
//!   deployment, with the [`fia_defense::DefensePipeline`] applied once
//!   per round at each replica's score-release boundary (a lone small
//!   round with an idle replica runs on the reactor thread instead, the
//!   same round code without the two thread handoffs), graceful
//!   shutdown, and live [`ServerMetrics`] (throughput, a request-latency
//!   histogram, per-replica batch fill, cache hit rate, connection
//!   gauges), scraped remotely through the one `MetricsText` wire op and
//!   read in-process through [`ServerHandle::metrics`]. Four thousand
//!   idle clients cost four thousand fds, not four thousand threads.
//! * [`ShardMap`] — consistent contiguous row-range sharding of the
//!   stored prediction set across the replicas: stored-index queries
//!   route by shard, ad-hoc feature queries by least-loaded replica.
//! * [`ScoreCache`] — the bounded, seeded released-score cache
//!   ([`ServeConfig::cache_capacity`]). It sits strictly *after* the
//!   defense pipeline: what it stores is what crossed the release
//!   boundary, and a re-queried row is re-released bit-identically —
//!   repetition gives the adversary nothing fresh to average over,
//!   and costs the deployment no joint round.
//! * Traced requests
//!   ([`set_trace_context`](fia_core::PredictionOracle::set_trace_context))
//!   open a `serve.request` span tree linked to the client's span. The
//!   server keeps only the trees of the last [`KEPT_TREES_PER_BUCKET`]
//!   requests per request-latency bucket and outcome, so its trace stays
//!   bounded however long it serves, and exports them through the
//!   `TraceExport` wire op and [`ServerHandle::trace_jsonl`].
//! * [`RemoteOracle`] — the client half: it implements
//!   [`fia_core::PredictionOracle`], so ESA, PRA and GRNA run unchanged
//!   against a live endpoint via `fia_core::accumulate_batch` /
//!   `run_over_oracle`, and it meters its campaign's
//!   [`fia_core::QueryCost`] (including server-cached rows). [`run_load`]
//!   drives closed-loop benchmark traffic at a server; [`run_load_open`]
//!   drives a fixed-arrival-rate (open-loop) schedule.
//!
//! Servers in tests and examples bind port `0` (ephemeral) and read the
//! real address back from [`ServerHandle::addr`], keeping parallel test
//! runs collision-free.
//!
//! Everything above the wire codec is behind [`PredictionServer::spawn`]:
//! pool, dispatch and cache landed without changing a client.

pub mod audit;
mod cache;
mod client;
mod coalesce;
mod dispatch;
mod metrics;
mod pool;
mod reactor;
mod server;
pub mod sys;
mod traces;
pub mod wire;

pub use audit::{AuditLedger, AuditSummary, ClientAudit};
pub use cache::ScoreCache;
pub use client::{
    run_load, run_load_open, ClientError, LoadConfig, LoadReport, OpenLoadConfig, OpenLoadReport,
    RemoteOracle,
};
pub use coalesce::{Coalescer, Coalescible};
pub use dispatch::ShardMap;
pub use metrics::{MetricsReport, ServerMetrics};
pub use server::{PredictionServer, ServeConfig, ServerHandle, SERVER_SPAN_ID_BASE};
pub use traces::KEPT_TREES_PER_BUCKET;
pub use wire::{JobState, JobStatusInfo, ServerInfo, WireError};
