#![warn(missing_docs)]

//! # fia-campaignd — a durable campaign service over the serving wire
//!
//! `fia-campaign` gives one process one adversary session.
//! `fia-campaignd` turns that into a *service*: a daemon that accepts
//! submitted campaign jobs over the `fia-serve` wire protocol, runs
//! many of them concurrently on a bounded worker pool, shares one
//! resolved scenario (and, for served oracles, one spawned
//! [`fia_serve::PredictionServer`]) between jobs whose scenario
//! fingerprints match, and streams each job's
//! [`fia_campaign::CampaignEvent`]s to any number of attached clients
//! with resume-from-sequence semantics.
//!
//! The load-bearing property is durability. Every corpus chunk a
//! campaign completes is checkpointed to the job's write-ahead log as a
//! delta frame holding that chunk's rows — fsync'd, checksummed,
//! appended *before* the chunk's events are published ([`wal`]). A
//! daemon killed with `SIGKILL` restarts over the same state directory,
//! folds each log's intact frames into its last durable checkpoint,
//! validates the scenario fingerprint, and resumes every in-flight job
//! — bit-identically, because the job spec only admits deterministic
//! release boundaries ([`spec`]).
//!
//! ```text
//!  client ──JOB_SUBMIT──▶ ┌────────────────────────────────┐
//!  client ──JOB_ATTACH──▶ │ reactor (epoll/poll, 1 thread) │
//!                         └──────┬─────────────────────────┘
//!                          queue │           ▲ events
//!                         ┌──────▼──────┐    │
//!                         │ worker pool │────┘  checkpoint per chunk
//!                         └──────┬──────┘       └▶ jobs/<id>/job.log
//!                     fingerprint│
//!                         ┌──────▼──────────────────┐
//!                         │ shared deployments      │
//!                         │ (one PredictionServer   │
//!                         │  per scenario)          │
//!                         └─────────────────────────┘
//! ```
//!
//! The daemon binary is `fia-campaignd`; [`CampaignClient`] is the
//! typed client. See `tests/` for the kill-and-restart pin.

pub mod client;
mod codec;
pub mod daemon;
pub mod outcome;
pub mod spec;
pub mod wal;

pub use client::{CampaignClient, DaemonClientError};
pub use codec::BlobError;
pub use daemon::{start, DaemonConfig, DaemonHandle};
pub use outcome::{AttackOutcome, JobOutcome};
pub use spec::{JobAttack, JobDefense, JobModel, JobOracle, JobSpec};
