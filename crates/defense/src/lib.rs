#![warn(missing_docs)]

//! # fia-defense — countermeasures from Section VII
//!
//! * [`RoundingDefense`] — coarsen confidence scores to `b` floating
//!   digits before releasing them (Fig. 11a–d). Breaks ESA at aggressive
//!   rounding; GRNA is largely insensitive.
//! * [`NoiseDefense`] — perturb released scores with clamped,
//!   renormalised Gaussian noise.
//! * Dropout — plumbed through [`fia_models::MlpConfig::with_dropout`];
//!   [`dropout_defended_mlp`] is the convenience constructor used by the
//!   Fig. 11e–f benches.
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

use fia_data::Dataset;
use fia_models::{Mlp, MlpConfig};

/// Trains the paper's vertical-FL NN with dropout regularization between
/// hidden layers — the Fig. 11e–f countermeasure.
pub fn dropout_defended_mlp(train: &Dataset, base: &MlpConfig, p: f64) -> Mlp {
    let cfg = base.clone().with_dropout(p);
    Mlp::fit(train, &cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fia_data::{make_classification, normalize_dataset, SynthConfig};
    use fia_models::{accuracy, Activation};

    #[test]
    fn dropout_defended_model_still_learns() {
        let cfg = SynthConfig {
            n_samples: 400,
            n_features: 8,
            n_informative: 6,
            n_redundant: 1,
            n_classes: 2,
            class_sep: 2.0,
            redundant_noise: 0.2,
            flip_y: 0.0,
            shuffle_features: false,
            seed: 5,
        };
        let ds = normalize_dataset(&make_classification(&cfg)).0;
        let base = MlpConfig {
            hidden: vec![32, 16],
            activation: Activation::Relu,
            layer_norm: false,
            dropout: None,
            epochs: 25,
            batch_size: 32,
            lr: 3e-3,
            seed: 1,
        };
        let model = dropout_defended_mlp(&ds, &base, 0.25);
        let acc = accuracy(&model, &ds.features, &ds.labels);
        assert!(acc > 0.8, "defended accuracy {acc}");
    }
}
