#![warn(missing_docs)]

//! # fia-defense — countermeasures from Section VII
//!
//! * [`RoundingDefense`] — coarsen confidence scores to `b` floating
//!   digits before releasing them (Fig. 11a–d). Breaks ESA at aggressive
//!   rounding; GRNA is largely insensitive.
//! * [`NoiseDefense`] — perturb released scores with clamped,
//!   renormalised Gaussian noise.
//! * Dropout — a training-time defense (Fig. 11e–f), configured with
//!   [`fia_models::MlpConfig::with_dropout`].
//! * [`screening`] — the pre-processing step: check the `d_target ≤ c−1`
//!   exposure condition and flag features whose cross-party correlation
//!   makes them easy GRNA targets.
//! * [`verify`] — the post-processing step: a (simulated) enclave replays
//!   the attack against each candidate prediction output and withholds
//!   responses that would leak too much.
//! * [`ScoreDefense`] / [`DefensePipeline`] — the batch-first hook every
//!   score-transforming defense implements, matching the protocol's
//!   batched release rounds. A deployment applies its defenses here, at
//!   the score-release boundary, and nowhere else.

pub mod screening;
pub mod verify;

mod batch;
mod noise;
mod rounding;

pub use batch::{DefensePipeline, ScoreDefense};
pub use noise::NoiseDefense;
pub use rounding::RoundingDefense;
