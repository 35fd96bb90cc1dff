#![warn(missing_docs)]

//! # fia-vfl — vertical federated learning substrate
//!
//! Models the deployment the paper attacks (Sections II-B and III):
//! `m` parties hold the same samples with disjoint feature subsets; one
//! *active* party owns the labels and initiates predictions; the parties
//! jointly evaluate a trained model through a protocol that reveals
//! *only* the confidence-score vector `v` to the active party.
//!
//! Components:
//!
//! * [`VerticalPartition`] — which party owns which global feature column.
//! * [`Party`] / [`PartyId`] — a participant with its private columns.
//! * [`align_samples`] — PSI-style sample alignment, simulated: it
//!   outputs the intersection and row positions a private set
//!   intersection would, without the cryptographic blinding.
//! * [`VflSystem`] — the joint prediction protocol plus the audit trail
//!   showing the adversary accumulated nothing beyond `(x_adv, v)` pairs.
//! * [`ThreatModel`] — which parties collude; yields the adversary /
//!   target feature-index split every attack consumes.

mod alignment;
mod partition;
mod party;
mod system;
mod threat;
mod training;

pub use alignment::{align_samples, AlignmentResult};
pub use partition::VerticalPartition;
pub use party::{Party, PartyId};
pub use system::{PredictionRecord, VflSystem};
pub use threat::{AdversaryView, ThreatModel};
pub use training::{train_federated_lr, FederatedLrConfig, TrainingAudit};
