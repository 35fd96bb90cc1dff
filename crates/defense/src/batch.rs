//! Batch-aware defense hooks.
//!
//! The protocol's scale path ([`fia_vfl`'s] batched joint-prediction
//! round) releases an `n × c` confidence matrix per round, so defenses
//! must operate on batches too. [`ScoreDefense`] is the uniform hook:
//! rounding and noise implement it, and [`DefensePipeline`] composes
//! several defenses in release order. Single-vector calls are thin
//! wrappers over a 1-row batch — mirroring the attack side's
//! [`fia_core::Attack`] design.

use crate::noise::NoiseDefense;
use crate::rounding::RoundingDefense;
use fia_linalg::Matrix;

/// A confidence-score transformation applied at the protocol boundary
/// before scores are revealed to the active party.
pub trait ScoreDefense {
    /// Short stable identifier for reports.
    fn name(&self) -> &'static str;

    /// Stable *parameterized* identifier (`"rounding(b=3)"`) for
    /// scenario fingerprints: two defenses with the same descriptor
    /// must transform scores identically. Defaults to the bare name
    /// for parameter-free defenses.
    fn descriptor(&self) -> String {
        self.name().to_string()
    }

    /// Transforms a whole released batch (`n × c`).
    fn defend_batch(&self, scores: &Matrix) -> Matrix;

    /// Single-vector compatibility wrapper: a 1-row batch.
    fn defend_one(&self, v: &[f64]) -> Vec<f64> {
        self.defend_batch(&Matrix::row_vector(v)).row(0).to_vec()
    }
}

impl ScoreDefense for RoundingDefense {
    fn name(&self) -> &'static str {
        "rounding"
    }

    fn descriptor(&self) -> String {
        format!("rounding(b={})", self.digits)
    }

    fn defend_batch(&self, scores: &Matrix) -> Matrix {
        self.round_matrix(scores)
    }
}

impl ScoreDefense for NoiseDefense {
    fn name(&self) -> &'static str {
        "noise"
    }

    fn descriptor(&self) -> String {
        format!("noise(sigma={},seed={})", self.sigma, self.seed)
    }

    /// Unlike a bare [`NoiseDefense::perturb`] call (which reseeds from
    /// the fixed config seed every time), the protocol-boundary hook
    /// folds the released scores into the seed: two different release
    /// rounds draw different noise, so an adversary cannot cancel the
    /// perturbation by differencing rounds, while a given batch remains
    /// deterministic for reproducible experiments.
    fn defend_batch(&self, scores: &Matrix) -> Matrix {
        let key = fia_core::fnv_words(self.seed, scores.as_slice().iter().map(|v| v.to_bits()));
        NoiseDefense::new(self.sigma, key).perturb(scores)
    }
}

/// Several defenses applied in order, batch-first.
#[derive(Default)]
pub struct DefensePipeline {
    stages: Vec<Box<dyn ScoreDefense + Send + Sync>>,
}

impl DefensePipeline {
    /// An empty (identity) pipeline.
    pub fn new() -> Self {
        DefensePipeline { stages: Vec::new() }
    }

    /// Appends a defense stage.
    pub fn then(mut self, stage: impl ScoreDefense + Send + Sync + 'static) -> Self {
        self.stages.push(Box::new(stage));
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// `true` when the pipeline is the identity.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Stage names in release order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Parameterized stage descriptors in release order (see
    /// [`ScoreDefense::descriptor`]) — what scenario fingerprints hash,
    /// so configurations differing only in a stage parameter do not
    /// collide.
    pub fn stage_descriptors(&self) -> Vec<String> {
        self.stages.iter().map(|s| s.descriptor()).collect()
    }
}

impl ScoreDefense for DefensePipeline {
    fn name(&self) -> &'static str {
        "pipeline"
    }

    fn defend_batch(&self, scores: &Matrix) -> Matrix {
        let mut out = scores.clone();
        for stage in &self.stages {
            out = stage.defend_batch(&out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scores() -> Matrix {
        Matrix::from_rows(&[
            vec![0.731, 0.168, 0.101],
            vec![0.334, 0.333, 0.333],
            vec![0.055, 0.925, 0.020],
        ])
        .unwrap()
    }

    #[test]
    fn rounding_hook_matches_direct_call() {
        let d = RoundingDefense::coarse();
        let batch = ScoreDefense::defend_batch(&d, &scores());
        assert_eq!(batch, d.round_matrix(&scores()));
        assert_eq!(d.name(), "rounding");
    }

    #[test]
    fn defend_one_wraps_single_row() {
        let d = RoundingDefense::fine();
        let one = d.defend_one(&[0.7315, 0.1685, 0.1]);
        assert_eq!(one, vec![0.731, 0.168, 0.1]);
    }

    #[test]
    fn descriptors_carry_parameters() {
        assert_eq!(RoundingDefense::coarse().descriptor(), "rounding(b=1)");
        assert_ne!(
            RoundingDefense::coarse().descriptor(),
            RoundingDefense::fine().descriptor()
        );
        assert_ne!(
            NoiseDefense::new(0.01, 5).descriptor(),
            NoiseDefense::new(0.02, 5).descriptor()
        );
    }

    #[test]
    fn pipeline_applies_in_order() {
        // Noise then rounding: output must be rounded (rounding is last).
        let p = DefensePipeline::new()
            .then(NoiseDefense::new(0.01, 5))
            .then(RoundingDefense::coarse());
        assert_eq!(p.len(), 2);
        assert_eq!(p.stage_names(), vec!["noise", "rounding"]);
        assert_eq!(
            p.stage_descriptors(),
            vec!["noise(sigma=0.01,seed=5)", "rounding(b=1)"]
        );
        let out = p.defend_batch(&scores());
        for &v in out.as_slice() {
            assert!(
                ((v * 10.0) - (v * 10.0).round()).abs() < 1e-9,
                "score {v} not rounded"
            );
        }
    }

    #[test]
    fn noise_hook_draws_fresh_noise_per_round() {
        let d = NoiseDefense::new(0.05, 9);
        let round1 = scores();
        let round2 = scores().map(|v| (v + 0.01).min(1.0));
        let out1 = ScoreDefense::defend_batch(&d, &round1);
        let out1_again = ScoreDefense::defend_batch(&d, &round1);
        let out2 = ScoreDefense::defend_batch(&d, &round2);
        // Deterministic per batch content, and pinned bit for bit…
        assert_eq!(out1, out1_again);
        let bits: Vec<u64> = out1.as_slice().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3fe7_f67f_d41b_c909,
                0x3fbc_b7f9_4291_479d,
                0x3fc1_ca04_0e48_380d,
                0x3fd6_8261_7306_9c20,
                0x3fd5_6b32_df09_c5c3,
                0x3fd4_126b_adef_9e1e,
                0x3fa4_c86d_a405_2089,
                0x3fed_c9d0_8363_6938,
                0x3f9d_3514_4b88_97fa,
            ]
        );
        // …but round 2's noise is not round 1's shifted by the same
        // deltas (which a fixed seed would produce and an adversary
        // could difference away).
        let delta1 = out1.sub(&round1).unwrap();
        let delta2 = out2.sub(&round2).unwrap();
        assert!(delta1.max_abs_diff(&delta2).unwrap() > 1e-6);
    }

    #[test]
    fn empty_pipeline_is_identity() {
        let p = DefensePipeline::new();
        assert!(p.is_empty());
        assert_eq!(p.defend_batch(&scores()), scores());
    }
}
