//! Finite-difference gradient checking.
//!
//! Every backward rule in the engine is validated against central
//! differences. The checker is exported so downstream crates (models,
//! attacks) can verify their composite graphs too.

use crate::params::Params;
use crate::tape::{Tape, VarId};
use fia_linalg::Matrix;

/// Outcome of a gradient check.
#[derive(Debug, Clone)]
pub struct GradCheckReport {
    /// Largest relative error across all checked coordinates.
    pub max_rel_error: f64,
    /// Coordinate `(param_index, row, col)` attaining the maximum.
    pub worst: (usize, usize, usize),
    /// Number of scalar coordinates checked.
    pub checked: usize,
}

impl GradCheckReport {
    /// `true` when the maximum relative error is below `tol`.
    pub fn passes(&self, tol: f64) -> bool {
        self.max_rel_error < tol
    }
}

/// Compares analytic gradients against central finite differences.
///
/// `build` must construct the scalar loss from the given tape and the
/// bound variables for each parameter (in store order). The same closure
/// is evaluated at perturbed parameter values, so it must be
/// deterministic (no dropout).
///
/// `eps` is the finite-difference step; `1e-5` suits well-scaled graphs.
pub fn check_gradients(
    params: &Params,
    build: impl Fn(&mut Tape, &[VarId]) -> VarId,
    eps: f64,
) -> GradCheckReport {
    // Analytic pass.
    let mut tape = Tape::new();
    let vars: Vec<VarId> = params
        .ids()
        .iter()
        .map(|&id| tape.param(params, id))
        .collect();
    let loss = build(&mut tape, &vars);
    tape.backward(loss);
    let analytic: Vec<Matrix> = vars
        .iter()
        .zip(params.ids().iter())
        .map(|(&v, &id)| {
            tape.grad(v)
                .cloned()
                .unwrap_or_else(|| Matrix::zeros(params.get(id).rows(), params.get(id).cols()))
        })
        .collect();

    let eval = |p: &Params| -> f64 {
        let mut t = Tape::new();
        let vs: Vec<VarId> = p.ids().iter().map(|&id| t.param(p, id)).collect();
        let l = build(&mut t, &vs);
        t.value(l)[(0, 0)]
    };

    let mut max_rel = 0.0;
    let mut worst = (0, 0, 0);
    let mut checked = 0;
    for (pi, id) in params.ids().into_iter().enumerate() {
        let (rows, cols) = params.get(id).shape();
        for i in 0..rows {
            for j in 0..cols {
                let mut plus = params.clone();
                plus.get_mut(id)[(i, j)] += eps;
                let mut minus = params.clone();
                minus.get_mut(id)[(i, j)] -= eps;
                let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
                let a = analytic[pi][(i, j)];
                let denom = a.abs().max(numeric.abs()).max(1.0);
                let rel = (a - numeric).abs() / denom;
                if rel > max_rel {
                    max_rel = rel;
                    worst = (pi, i, j);
                }
                checked += 1;
            }
        }
    }
    GradCheckReport {
        max_rel_error: max_rel,
        worst,
        checked,
    }
}

/// Convenience: asserts the check passes, printing the report on failure.
pub fn assert_gradients_ok(
    params: &Params,
    build: impl Fn(&mut Tape, &[VarId]) -> VarId,
    eps: f64,
    tol: f64,
) {
    let report = check_gradients(params, build, eps);
    assert!(
        report.passes(tol),
        "gradient check failed: {report:?} (tol = {tol})"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init;
    use rand::{rngs::StdRng, SeedableRng};

    fn tiny_params(shapes: &[(usize, usize)], seed: u64) -> Params {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = Params::new();
        for &(r, c) in shapes {
            p.insert(init::normal_matrix(r, c, 0.0, 0.7, &mut rng));
        }
        p
    }

    #[test]
    fn linear_layer_gradcheck() {
        let params = tiny_params(&[(3, 4), (1, 4)], 1);
        assert_gradients_ok(
            &params,
            |tape, vars| {
                let x = tape.input(Matrix::from_fn(2, 3, |i, j| {
                    0.3 * (i as f64) - 0.2 * j as f64
                }));
                let z = tape.matmul(x, vars[0]);
                let z = tape.add_row_broadcast(z, vars[1]);
                let t = tape.input(Matrix::filled(2, 4, 0.25));
                tape.mse_loss(z, t)
            },
            1e-5,
            1e-6,
        );
    }

    #[test]
    fn deep_mlp_with_activations_gradcheck() {
        let params = tiny_params(&[(3, 5), (1, 5), (5, 4), (1, 4), (4, 2), (1, 2)], 2);
        assert_gradients_ok(
            &params,
            |tape, vars| {
                let x = tape.input(Matrix::from_fn(3, 3, |i, j| {
                    0.1 + 0.15 * (i as f64) - 0.07 * (j as f64)
                }));
                let h1 = tape.matmul(x, vars[0]);
                let h1 = tape.add_row_broadcast(h1, vars[1]);
                let h1 = tape.tanh(h1);
                let h2 = tape.matmul(h1, vars[2]);
                let h2 = tape.add_row_broadcast(h2, vars[3]);
                let h2 = tape.sigmoid(h2);
                let z = tape.matmul(h2, vars[4]);
                let z = tape.add_row_broadcast(z, vars[5]);
                let t = tape.input(Matrix::from_fn(3, 2, |i, _| if i == 0 { 1.0 } else { 0.0 }));
                tape.cross_entropy_logits(z, t)
            },
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn layer_norm_gradcheck() {
        let params = tiny_params(&[(2, 4), (1, 4), (1, 4)], 3);
        assert_gradients_ok(
            &params,
            |tape, vars| {
                let y = tape.layer_norm(vars[0], vars[1], vars[2], 1e-5);
                let t = tape.input(Matrix::filled(2, 4, 0.1));
                tape.mse_loss(y, t)
            },
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn softmax_log_chain_gradcheck() {
        let params = tiny_params(&[(2, 3)], 4);
        assert_gradients_ok(
            &params,
            |tape, vars| {
                let s = tape.softmax_rows(vars[0]);
                let l = tape.log(s);
                let neg = tape.scale(l, -1.0);
                tape.mean_all(neg)
            },
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn variance_penalty_gradcheck() {
        let params = tiny_params(&[(5, 3)], 5);
        assert_gradients_ok(
            &params,
            // Threshold 0 keeps the hinge active everywhere, avoiding the
            // kink that finite differences cannot cross.
            |tape, vars| tape.variance_penalty(vars[0], 0.0),
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn concat_slice_gradcheck() {
        let params = tiny_params(&[(2, 3), (2, 2)], 6);
        assert_gradients_ok(
            &params,
            |tape, vars| {
                let cat = tape.concat_cols(vars[0], vars[1]);
                let sl = tape.slice_cols(cat, 1, 4);
                let sq = tape.hadamard(sl, sl);
                tape.sum_all(sq)
            },
            1e-5,
            1e-6,
        );
    }

    #[test]
    fn gather_cols_with_repeated_column_gradcheck() {
        // Column 2 is gathered three times and column 1 never, so the
        // backward must both accumulate and leave a zero gradient.
        let params = tiny_params(&[(3, 4)], 8);
        assert_gradients_ok(
            &params,
            |tape, vars| {
                let g = tape.gather_cols(vars[0], &[2, 0, 2, 3, 2]);
                let w = tape.input(Matrix::from_fn(3, 5, |i, j| 0.5 + 0.1 * (i + 2 * j) as f64));
                let sq = tape.hadamard(g, g);
                let weighted = tape.hadamard(sq, w);
                tape.sum_all(weighted)
            },
            1e-5,
            1e-6,
        );
    }

    /// Entries of both signs at least 0.2 from zero, so a finite
    /// difference never crosses the kink at 0.
    fn off_kink_params() -> Params {
        let mut p = Params::new();
        p.insert(Matrix::from_fn(3, 4, |i, j| {
            let magnitude = 0.2 + 0.15 * ((i * 4 + j) % 5) as f64;
            if (i + j) % 2 == 0 {
                magnitude
            } else {
                -magnitude
            }
        }));
        p
    }

    #[test]
    fn relu_gradcheck_away_from_kink() {
        assert_gradients_ok(
            &off_kink_params(),
            |tape, vars| {
                let y = tape.relu(vars[0]);
                let t = tape.input(Matrix::filled(3, 4, 0.1));
                tape.mse_loss(y, t)
            },
            1e-5,
            1e-6,
        );
    }

    #[test]
    fn leaky_relu_gradcheck_away_from_kink() {
        assert_gradients_ok(
            &off_kink_params(),
            |tape, vars| {
                let y = tape.leaky_relu(vars[0], 0.1);
                let t = tape.input(Matrix::filled(3, 4, -0.05));
                tape.mse_loss(y, t)
            },
            1e-5,
            1e-6,
        );
    }

    #[test]
    fn report_counts_coordinates() {
        let params = tiny_params(&[(2, 2)], 7);
        let r = check_gradients(&params, |tape, vars| tape.sum_all(vars[0]), 1e-5);
        assert_eq!(r.checked, 4);
        assert!(r.passes(1e-8));
    }
}
