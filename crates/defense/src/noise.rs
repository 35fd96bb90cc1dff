//! Gaussian noise injection on confidence scores.
//!
//! An additional countermeasure beyond the paper's evaluated pair
//! (Section VII discusses randomization in the DP context and dismisses
//! *formal* DP as utility-destroying; calibrated light noise is the
//! practical middle ground). Scores are perturbed with `N(0, σ²)`,
//! clamped to `[0, 1]` and re-normalized to sum to one, so the released
//! vector is still a distribution.
//!
//! The ablation bench shows the expected spectrum: enough noise breaks
//! ESA's exact equations (like coarse rounding does) but GRNA degrades
//! only gradually, since the generator learns from many noisy outputs.

use fia_linalg::Matrix;
use fia_tensor::standard_normal;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Gaussian-noise defense configuration.
#[derive(Debug, Clone, Copy)]
pub struct NoiseDefense {
    /// Noise standard deviation σ.
    pub sigma: f64,
    /// RNG seed (the defense is stochastic; deployments would use an
    /// entropy source, experiments want determinism).
    pub seed: u64,
}

impl NoiseDefense {
    /// Creates the defense with noise level `sigma`.
    pub fn new(sigma: f64, seed: u64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        NoiseDefense { sigma, seed }
    }

    /// Perturbs a confidence matrix row-wise (clamp + renormalize).
    pub fn perturb(&self, scores: &Matrix) -> Matrix {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut out = scores.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v + self.sigma * standard_normal(&mut rng)).clamp(0.0, 1.0);
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            } else {
                // All mass clipped away: release the uninformative uniform.
                let c = row.len() as f64;
                for v in row.iter_mut() {
                    *v = 1.0 / c;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fia_models::{LogisticRegression, PredictProba};

    fn toy_model() -> LogisticRegression {
        let w = Matrix::from_fn(3, 3, |i, j| 0.3 * (i as f64 + 1.0) - 0.2 * j as f64);
        LogisticRegression::from_parameters(w, vec![0.0; 3], 3)
    }

    #[test]
    fn perturbed_rows_remain_distributions() {
        let model = toy_model();
        let x = Matrix::from_fn(20, 3, |i, j| ((i + j) % 5) as f64 / 5.0);
        let clean = model.predict_proba(&x);
        let noisy = NoiseDefense::new(0.05, 7).perturb(&clean);
        for i in 0..noisy.rows() {
            let s: f64 = noisy.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
            assert!(noisy.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn zero_sigma_is_identity() {
        let model = toy_model();
        let x = Matrix::from_fn(5, 3, |i, j| (i * 3 + j) as f64 / 15.0);
        let clean = model.predict_proba(&x);
        let noisy = NoiseDefense::new(0.0, 1).perturb(&clean);
        assert!(noisy.max_abs_diff(&clean).unwrap() < 1e-12);
    }

    #[test]
    fn noise_magnitude_scales_with_sigma() {
        let model = toy_model();
        let x = Matrix::from_fn(50, 3, |i, j| ((i * 2 + j) % 7) as f64 / 7.0);
        let clean = model.predict_proba(&x);
        let small = NoiseDefense::new(0.01, 3).perturb(&clean);
        let large = NoiseDefense::new(0.2, 3).perturb(&clean);
        let dev = |m: &Matrix| {
            m.as_slice()
                .iter()
                .zip(clean.as_slice())
                .map(|(&a, &b)| (a - b).abs())
                .sum::<f64>()
        };
        assert!(dev(&large) > 3.0 * dev(&small));
    }
}
