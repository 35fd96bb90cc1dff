//! Post-processing verification (Section VII).
//!
//! "If the parties utilize secure hardware, e.g., Intel SGX, for
//! computing the model predictions, then they can mimic these attacks
//! inside the secure enclaves … if the possible leakage exceeds a
//! pre-defined threshold for any party, they do not reveal the prediction
//! output." The enclave is simulated as a plain process: no attestation
//! or memory isolation is modelled, because only the release decision
//! changes what the adversary sees. That decision logic is implemented
//! faithfully: replay ESA against the candidate output and withhold it
//! when the reconstruction lands too close to the true private values.

use fia_core::{Attack, EqualitySolvingAttack, QueryBatch};
use fia_linalg::Matrix;
use fia_models::LogisticRegression;

/// Verdict for one candidate prediction release.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Safe to reveal; carries the (possibly post-processed) scores.
    Released(Vec<f64>),
    /// Withheld; carries the per-feature absolute reconstruction errors
    /// that fell below the threshold.
    Withheld(Vec<f64>),
}

/// The simulated-enclave verifier for logistic regression deployments.
pub struct LeakageVerifier<'a> {
    attack: EqualitySolvingAttack<'a>,
    /// Minimum tolerated per-feature absolute error: a reconstruction
    /// closer than this to the truth on *any* target feature blocks the
    /// release.
    pub min_error: f64,
}

impl<'a> LeakageVerifier<'a> {
    /// Builds a verifier that replays ESA with the adversary's exact
    /// knowledge (`θ`, `x_adv`, `v`).
    pub fn new(
        model: &'a LogisticRegression,
        adv_indices: &[usize],
        target_indices: &[usize],
        min_error: f64,
    ) -> Self {
        LeakageVerifier {
            attack: EqualitySolvingAttack::new(model, adv_indices, target_indices),
            min_error,
        }
    }

    /// Replays the attack on one candidate output. `x_adv` is the
    /// adversary-visible slice, `x_target_true` the private values the
    /// enclave knows, `v` the scores about to be released.
    pub fn check(&self, x_adv: &[f64], x_target_true: &[f64], v: &[f64]) -> Verdict {
        let est = self.attack.infer(x_adv, v);
        let errors: Vec<f64> = est
            .iter()
            .zip(x_target_true.iter())
            .map(|(&a, &b)| (a - b).abs())
            .collect();
        if errors.iter().any(|&e| e < self.min_error) {
            Verdict::Withheld(errors)
        } else {
            Verdict::Released(v.to_vec())
        }
    }

    /// Replays the attack against a whole candidate release round in one
    /// batched pass — the enclave-side mirror of the protocol's batch
    /// prediction path. Rows of `x_adv` / `x_target_true` / `v` are
    /// aligned; one verdict is returned per row.
    pub fn check_batch(&self, x_adv: &Matrix, x_target_true: &Matrix, v: &Matrix) -> Vec<Verdict> {
        assert_eq!(x_adv.rows(), v.rows(), "row count mismatch");
        assert_eq!(x_target_true.rows(), v.rows(), "row count mismatch");
        let result = self
            .attack
            .infer_batch(&QueryBatch::new(x_adv.clone(), v.clone()));
        (0..v.rows())
            .map(|i| {
                let errors: Vec<f64> = result
                    .estimates
                    .row(i)
                    .iter()
                    .zip(x_target_true.row(i).iter())
                    .map(|(&a, &b)| (a - b).abs())
                    .collect();
                if errors.iter().any(|&e| e < self.min_error) {
                    Verdict::Withheld(errors)
                } else {
                    Verdict::Released(v.row(i).to_vec())
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fia_linalg::Matrix;
    use fia_models::PredictProba;

    fn model() -> LogisticRegression {
        // 3 classes, 4 features → 2 equations; 2 target features are
        // exactly recoverable, so the verifier must withhold.
        let mut state = 0xDEADBEEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let w = Matrix::from_fn(4, 3, |_, _| next());
        LogisticRegression::from_parameters(w, vec![0.0; 3], 3)
    }

    #[test]
    fn exact_leak_is_withheld() {
        let m = model();
        let verifier = LeakageVerifier::new(&m, &[0, 1], &[2, 3], 1e-3);
        let x = [0.4, 0.9, 0.3, 0.7];
        let v = m.predict_proba(&Matrix::row_vector(&x));
        let verdict = verifier.check(&[0.4, 0.9], &[0.3, 0.7], v.row(0));
        assert!(matches!(verdict, Verdict::Withheld(_)), "{verdict:?}");
    }

    #[test]
    fn garbled_scores_are_released() {
        let m = model();
        let verifier = LeakageVerifier::new(&m, &[0, 1], &[2, 3], 1e-3);
        // Uniform scores carry no usable signal: the replayed attack's
        // reconstruction will be far from the truth.
        let verdict = verifier.check(&[0.4, 0.9], &[0.3, 0.7], &[0.34, 0.33, 0.33]);
        assert!(matches!(verdict, Verdict::Released(_)), "{verdict:?}");
    }

    #[test]
    fn batch_check_matches_per_record_verdicts() {
        let m = model();
        let verifier = LeakageVerifier::new(&m, &[0, 1], &[2, 3], 1e-3);
        let xs = [
            [0.4, 0.9, 0.3, 0.7],
            [0.1, 0.2, 0.8, 0.5],
            [0.6, 0.1, 0.2, 0.9],
        ];
        let mut x_adv = Matrix::zeros(3, 2);
        let mut truth = Matrix::zeros(3, 2);
        let mut v = Matrix::zeros(3, 3);
        for (i, x) in xs.iter().enumerate() {
            x_adv.row_mut(i).copy_from_slice(&x[..2]);
            truth.row_mut(i).copy_from_slice(&x[2..]);
            let p = m.predict_proba(&Matrix::row_vector(x));
            v.row_mut(i).copy_from_slice(p.row(0));
        }
        // Garble the middle row so it is released.
        v.row_mut(1).copy_from_slice(&[0.34, 0.33, 0.33]);

        let batch = verifier.check_batch(&x_adv, &truth, &v);
        assert_eq!(batch.len(), 3);
        for (i, verdict) in batch.iter().enumerate() {
            let single = verifier.check(x_adv.row(i), truth.row(i), v.row(i));
            assert_eq!(*verdict, single, "row {i}");
        }
        assert!(matches!(batch[0], Verdict::Withheld(_)));
        assert!(matches!(batch[1], Verdict::Released(_)));
    }

    #[test]
    fn threshold_zero_always_releases() {
        let m = model();
        let verifier = LeakageVerifier::new(&m, &[0, 1], &[2, 3], 0.0);
        let x = [0.1, 0.2, 0.8, 0.5];
        let v = m.predict_proba(&Matrix::row_vector(&x));
        let verdict = verifier.check(&[0.1, 0.2], &[0.8, 0.5], v.row(0));
        assert!(matches!(verdict, Verdict::Released(_)));
    }
}
