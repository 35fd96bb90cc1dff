//! Logistic regression: binary (sigmoid) and multinomial (softmax).
//!
//! The attack math in Section IV-A addresses exactly this family:
//!
//! * binary: `v₁ = σ(θᵀx + b)`;
//! * multi-class: `c` linear models `z_k = x·θ^{(k)} + b_k` composed with
//!   a softmax.
//!
//! Weights are stored as a dense `d × c` matrix (one column per class;
//! binary uses `c = 1` column) plus a bias row, and are directly readable
//! by the adversary — the threat model hands the trained `θ` to the
//! active party.

use crate::traits::{DifferentiableModel, PredictProba};
use fia_data::{one_hot, Dataset};
use fia_linalg::vecops::{sigmoid, softmax};
use fia_linalg::Matrix;
use fia_tensor::{xavier_uniform, Adam, Optimizer, Params, Tape, VarId};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

/// Training configuration for [`LogisticRegression::fit`].
#[derive(Debug, Clone)]
pub struct LrConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 regularization coefficient (the paper's Ω(θ) term).
    pub l2: f64,
    /// RNG seed for init and batch shuffling.
    pub seed: u64,
}

impl Default for LrConfig {
    fn default() -> Self {
        LrConfig {
            epochs: 40,
            batch_size: 64,
            lr: 0.05,
            l2: 1e-4,
            seed: 0,
        }
    }
}

/// A trained (multinomial or binary) logistic regression model.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    /// Weight matrix: `d × c` for multi-class, `d × 1` for binary.
    weights: Matrix,
    /// Bias per class column (length matches `weights.cols()`).
    bias: Vec<f64>,
    /// Number of classes `c` (≥ 2; binary stores one column but reports 2).
    n_classes: usize,
}

impl LogisticRegression {
    /// Trains on a dataset with mini-batch Adam.
    ///
    /// Binary problems (`c = 2`) train a single sigmoid column (the
    /// paper's binary LR); `c > 2` trains a softmax over `c` columns.
    pub fn fit(train: &Dataset, config: &LrConfig) -> Self {
        let d = train.n_features();
        let c = train.n_classes;
        assert!(c >= 2, "need at least two classes");
        let binary = c == 2;
        let out_cols = if binary { 1 } else { c };

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = Params::new();
        let w = params.insert(xavier_uniform(d, out_cols, &mut rng));
        let b = params.insert(Matrix::zeros(1, out_cols));
        let mut opt = Adam::new(config.lr);

        let n = train.n_samples();
        let mut order: Vec<usize> = (0..n).collect();
        let targets_soft = one_hot(&train.labels, c);

        let mut tape = Tape::new();
        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                tape.reset();
                let x = tape.input_rows(&train.features, chunk);
                let wv = tape.param(&params, w);
                let bv = tape.param(&params, b);
                let z = tape.linear(x, wv, bv);
                let loss = if binary {
                    // Sigmoid + MSE-on-probability is adequate for binary
                    // LR at this scale and keeps the engine's fused ops
                    // exercised. Following the paper's convention, the
                    // sigmoid output v₁ is the probability of the *first*
                    // class (label 0).
                    let p = tape.sigmoid(z);
                    let yv = tape.input_with(chunk.len(), 1, |y| {
                        for (v, &r) in y.iter_mut().zip(chunk) {
                            *v = if train.labels[r] == 0 { 1.0 } else { 0.0 };
                        }
                    });
                    tape.mse_loss(p, yv)
                } else {
                    let tv = tape.input_rows(&targets_soft, chunk);
                    tape.cross_entropy_logits(z, tv)
                };
                // L2 penalty on weights.
                let loss = if config.l2 > 0.0 {
                    let w2 = tape.hadamard(wv, wv);
                    let w2s = tape.sum_all(w2);
                    let reg = tape.scale(w2s, config.l2);
                    tape.add(loss, reg)
                } else {
                    loss
                };
                tape.backward(loss);
                opt.step(&mut params, tape.param_grads());
            }
        }

        LogisticRegression {
            weights: params.get(w).clone(),
            bias: params.get(b).row(0).to_vec(),
            n_classes: c,
        }
    }

    /// Builds a model directly from parameters (used by tests and the
    /// paper's worked Example 1, which specifies `Θ` explicitly).
    ///
    /// `weights` is `d × c` (or `d × 1` with `n_classes = 2`), `bias` one
    /// entry per weight column.
    pub fn from_parameters(weights: Matrix, bias: Vec<f64>, n_classes: usize) -> Self {
        assert_eq!(weights.cols(), bias.len(), "bias length mismatch");
        assert!(
            (n_classes == 2 && weights.cols() == 1) || weights.cols() == n_classes,
            "weight columns must be 1 (binary) or c"
        );
        LogisticRegression {
            weights,
            bias,
            n_classes,
        }
    }

    /// `true` for the single-column sigmoid parameterization.
    pub fn is_binary(&self) -> bool {
        self.weights.cols() == 1
    }

    /// The weight matrix `θ` (readable by the adversary).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The bias vector (readable by the adversary).
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Raw linear scores `z` before the link function (`n × cols`).
    pub fn decision_function(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.weights).expect("feature width matches");
        for i in 0..z.rows() {
            for (j, v) in z.row_mut(i).iter_mut().enumerate() {
                *v += self.bias[j];
            }
        }
        z
    }
}

impl PredictProba for LogisticRegression {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let z = self.decision_function(x);
        if self.is_binary() {
            // v = (p, 1 − p): the paper's convention that v₁ is the
            // probability of the *first* class.
            Matrix::from_fn(z.rows(), 2, |i, j| {
                let p = sigmoid(z[(i, 0)]);
                if j == 0 {
                    p
                } else {
                    1.0 - p
                }
            })
        } else {
            let mut out = Matrix::zeros(z.rows(), self.n_classes);
            for i in 0..z.rows() {
                let s = softmax(z.row(i));
                out.row_mut(i).copy_from_slice(&s);
            }
            out
        }
    }

    fn n_features(&self) -> usize {
        self.weights.rows()
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

impl DifferentiableModel for LogisticRegression {
    fn forward_frozen(&self, tape: &mut Tape, x: VarId) -> VarId {
        let w = tape.input_copy(&self.weights);
        let b = tape.input_with(1, self.bias.len(), |b| b.copy_from_slice(&self.bias));
        let z = tape.linear(x, w, b);
        if self.is_binary() {
            let p = tape.sigmoid(z); // batch × 1
            let negp = tape.scale(p, -1.0);
            let one_minus = tape.add_scalar(negp, 1.0);
            tape.concat_cols(p, one_minus)
        } else {
            tape.softmax_rows(z)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::accuracy;
    use fia_data::{make_classification, normalize_dataset, SynthConfig};

    fn toy_dataset(c: usize, seed: u64) -> Dataset {
        let cfg = SynthConfig {
            n_samples: 600,
            n_features: 8,
            n_informative: 6,
            n_redundant: 2,
            n_classes: c,
            class_sep: 2.0,
            redundant_noise: 0.2,
            flip_y: 0.0,
            shuffle_features: false,
            seed,
        };
        normalize_dataset(&make_classification(&cfg)).0
    }

    #[test]
    fn binary_training_beats_chance() {
        let ds = toy_dataset(2, 1);
        let model = LogisticRegression::fit(&ds, &LrConfig::default());
        let acc = accuracy(&model, &ds.features, &ds.labels);
        assert!(acc > 0.85, "binary accuracy {acc}");
        assert!(model.is_binary());
        assert_eq!(model.n_classes(), 2);
    }

    #[test]
    fn multiclass_training_beats_chance() {
        let ds = toy_dataset(4, 2);
        let model = LogisticRegression::fit(&ds, &LrConfig::default());
        let acc = accuracy(&model, &ds.features, &ds.labels);
        assert!(acc > 0.7, "multiclass accuracy {acc}");
        assert!(!model.is_binary());
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let ds = toy_dataset(3, 3);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let p = model.predict_proba(&ds.features);
        assert_eq!(p.cols(), 3);
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn binary_proba_is_p_and_one_minus_p() {
        let w = Matrix::from_rows(&[vec![1.0], vec![-1.0]]).unwrap();
        let model = LogisticRegression::from_parameters(w, vec![0.5], 2);
        let x = Matrix::from_rows(&[vec![0.3, 0.2]]).unwrap();
        let p = model.predict_proba(&x);
        let z = 0.3 - 0.2 + 0.5;
        assert!((p[(0, 0)] - sigmoid(z)).abs() < 1e-12);
        assert!((p[(0, 0)] + p[(0, 1)] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frozen_forward_matches_predict_proba() {
        for c in [2usize, 4] {
            let ds = toy_dataset(c, 7);
            let model = LogisticRegression::fit(
                &ds,
                &LrConfig {
                    epochs: 3,
                    ..Default::default()
                },
            );
            let x = ds.features.select_rows(&[0, 1, 2]).unwrap();
            let direct = model.predict_proba(&x);
            let mut tape = Tape::new();
            let xv = tape.input(x);
            let out = model.forward_frozen(&mut tape, xv);
            assert!(
                tape.value(out).max_abs_diff(&direct).unwrap() < 1e-10,
                "c = {c}"
            );
        }
    }

    #[test]
    fn frozen_forward_collects_no_param_grads() {
        let ds = toy_dataset(2, 8);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let mut tape = Tape::new();
        let x = tape.input(ds.features.select_rows(&[0]).unwrap());
        let out = model.forward_frozen(&mut tape, x);
        let loss = tape.mean_all(out);
        tape.backward(loss);
        assert!(tape.param_grads().is_empty());
    }

    #[test]
    fn decision_function_applies_bias() {
        let w = Matrix::from_rows(&[vec![2.0, 0.0], vec![0.0, 3.0]]).unwrap();
        let model = LogisticRegression::from_parameters(w, vec![1.0, -1.0], 2);
        // Note: 2 weight columns with n_classes = 2 is also accepted
        // (softmax parameterization of a binary problem).
        let x = Matrix::from_rows(&[vec![1.0, 1.0]]).unwrap();
        let z = model.decision_function(&x);
        assert_eq!(z.row(0), &[3.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mismatched_bias_rejected() {
        LogisticRegression::from_parameters(Matrix::zeros(2, 2), vec![0.0], 2);
    }
}
