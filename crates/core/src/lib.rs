#![warn(missing_docs)]

//! # fia-core — the paper's feature inference attacks
//!
//! Reference implementation of the three attacks from *"Feature Inference
//! Attack on Model Predictions in Vertical Federated Learning"* (ICDE
//! 2021), in the paper's most stringent setting: the adversary controls
//! only the trained model `θ`, the confidence scores `v` and its own
//! feature values `x_adv` — no gradients, no background distribution of
//! the target's data.
//!
//! * [`EqualitySolvingAttack`] (ESA, Section IV-A) — inverts logistic
//!   regression predictions through a linear system solved by
//!   Moore–Penrose pseudo-inverse; *exact* whenever
//!   `d_target ≤ c − 1`.
//! * [`PathRestrictionAttack`] (PRA, Section IV-B, Algorithm 1) —
//!   restricts a decision tree's candidate prediction paths using the
//!   adversary's features and the predicted class.
//! * [`Grna`] (Section V, Algorithm 2) — trains a generator network
//!   against the frozen vertical FL model over many accumulated
//!   predictions; handles LR, NN and (through a distilled surrogate)
//!   random forests.
//!
//! All three attacks implement the batch-first [`Attack`] trait
//! (`infer_batch(&QueryBatch) → AttackResult`) and can be dispatched over
//! accumulated query streams by the row-striping [`AttackEngine`];
//! single-record calls are thin wrappers over 1-row batches. The
//! [`oracle`] module abstracts *where* the stream comes from: the same
//! attack code accumulates its corpus from an in-process deployment or a
//! live prediction endpoint ([`PredictionOracle`]).
//!
//! Plus the evaluation machinery: MSE-per-feature (Eqn 10), correct
//! branching rate, the ESA error upper bound (Eqn 15), random-guess
//! baselines, and the correlation diagnostics of Fig. 10.

pub mod baseline;
pub mod engine;
mod esa;
mod grna;
mod hash;
pub mod metrics;
pub mod oracle;
mod pra;
mod telemetry;

pub use engine::{row_seed, Attack, AttackEngine, AttackResult, QueryBatch};
pub use esa::EqualitySolvingAttack;
/// Re-exported little-endian byte codec from `fia-linalg`.
pub use fia_linalg::bytes;
pub use grna::{Grna, GrnaConfig, TrainedGenerator};
pub use hash::{fnv, fnv_words};
pub use oracle::{
    accumulate_batch, run_over_oracle, OracleError, PredictionOracle, QueryCost, TraceContext,
};
pub use pra::{BranchConstraint, InferredPath, PathRestrictionAttack};

/// Re-exported correlation diagnostics (Eqns 16–17) from `fia-data`.
pub use fia_data::correlation::{correlation_report, CorrelationReport};
