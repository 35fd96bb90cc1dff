//! Property tests: every randomly assembled network must pass the
//! finite-difference gradient check, and optimizers must make progress on
//! random convex problems.
//!
//! Cases are driven by a seeded [`rand::rngs::StdRng`] sweep (the offline
//! build has no `proptest`); each case is reproducible from its index.

use fia_linalg::Matrix;
use fia_tensor::{check_gradients, Adam, Optimizer, Params, Sgd, Tape};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: u64 = 24;

fn case_rng(test: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(test.wrapping_mul(0x9E3779B97F4A7C15) ^ case)
}

/// Deterministic pseudo-random matrix from a seed.
fn lcg_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        0.6 * (((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0)
    })
}

/// A random 2-layer network with a random choice of activation and loss
/// always passes the gradient check.
#[test]
fn random_mlp_gradcheck() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let seed: u64 = rng.gen_range(1..100_000u64);
        let batch = rng.gen_range(1..5usize);
        let d_in = rng.gen_range(1..5usize);
        let d_hidden = rng.gen_range(1..6usize);
        let d_out = rng.gen_range(1..4usize);
        let act = rng.gen_range(0..3u32) as u8;
        let use_ln: bool = rng.gen();

        let mut params = Params::new();
        let _w1 = params.insert(lcg_matrix(d_in, d_hidden, seed));
        let _b1 = params.insert(lcg_matrix(1, d_hidden, seed ^ 1));
        let _w2 = params.insert(lcg_matrix(d_hidden, d_out, seed ^ 2));
        let _b2 = params.insert(lcg_matrix(1, d_out, seed ^ 3));
        let use_ln = use_ln && d_hidden > 1;
        if use_ln {
            params.insert(Matrix::filled(1, d_hidden, 1.0));
            params.insert(Matrix::zeros(1, d_hidden));
        }

        let x = lcg_matrix(batch, d_in, seed ^ 4);
        let t = lcg_matrix(batch, d_out, seed ^ 5).map(|v| v.abs());

        let report = check_gradients(
            &params,
            |tape, vars| {
                let xv = tape.input(x.clone());
                let h = tape.matmul(xv, vars[0]);
                let mut h = tape.add_row_broadcast(h, vars[1]);
                // ReLU's kink makes finite differences unreliable at
                // activation boundaries; use smooth activations here and
                // cover ReLU in the dedicated unit tests.
                h = match act {
                    0 => tape.sigmoid(h),
                    1 => tape.tanh(h),
                    _ => tape.leaky_relu(h, 0.7), // mild kink, smooth-ish
                };
                if use_ln {
                    let gv = vars[4];
                    let bv = vars[5];
                    h = tape.layer_norm(h, gv, bv, 1e-4);
                }
                let z = tape.matmul(h, vars[2]);
                let z = tape.add_row_broadcast(z, vars[3]);
                let tv = tape.input(t.clone());
                tape.mse_loss(z, tv)
            },
            1e-5,
        );
        // Leaky-ReLU kinks occasionally sit exactly at a sample point;
        // allow a slightly looser bound there.
        let tol = if act == 2 { 5e-3 } else { 1e-4 };
        assert!(
            report.max_rel_error < tol,
            "gradcheck failed: {report:?} (act = {act}, case = {case})"
        );
    }
}

/// Softmax + cross-entropy against a random one-hot target.
#[test]
fn random_softmax_ce_gradcheck() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let seed: u64 = rng.gen_range(1..100_000u64);
        let batch = rng.gen_range(1..4usize);
        let classes = rng.gen_range(2..6usize);
        let hot = rng.gen_range(0..6usize);

        let mut params = Params::new();
        let _z = params.insert(lcg_matrix(batch, classes, seed));
        let target = Matrix::from_fn(
            batch,
            classes,
            |_, j| {
                if j == hot % classes {
                    1.0
                } else {
                    0.0
                }
            },
        );
        let report = check_gradients(
            &params,
            |tape, vars| {
                let tv = tape.input(target.clone());
                tape.cross_entropy_logits(vars[0], tv)
            },
            1e-5,
        );
        assert!(report.max_rel_error < 1e-5, "{report:?} (case = {case})");
    }
}

/// SGD strictly decreases a positive-definite quadratic at a small
/// enough rate.
#[test]
fn sgd_descends_quadratic() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let seed: u64 = rng.gen_range(1..10_000u64);
        let dim = rng.gen_range(1..6usize);

        let target = lcg_matrix(1, dim, seed);
        let mut params = Params::new();
        let w = params.insert(Matrix::zeros(1, dim));
        let mut opt = Sgd::new(0.1);
        let loss_at = |p: &Params| {
            let mut tape = Tape::new();
            let wv = tape.param(p, w);
            let tv = tape.input(target.clone());
            let l = tape.mse_loss(wv, tv);
            tape.value(l)[(0, 0)]
        };
        let before = loss_at(&params);
        let mut tape = Tape::new();
        for _ in 0..5 {
            tape.reset();
            let wv = tape.param(&params, w);
            let tv = tape.input_copy(&target);
            let l = tape.mse_loss(wv, tv);
            tape.backward(l);
            opt.step(&mut params, tape.param_grads());
        }
        let after = loss_at(&params);
        assert!(after <= before + 1e-12, "loss rose: {before} → {after}");
    }
}

/// Adam drives a separable quadratic near its optimum.
#[test]
fn adam_reaches_optimum() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let seed: u64 = rng.gen_range(1..10_000u64);
        let target = lcg_matrix(1, 3, seed);
        let mut params = Params::new();
        let w = params.insert(Matrix::zeros(1, 3));
        let mut opt = Adam::new(0.05);
        let mut tape = Tape::new();
        for _ in 0..400 {
            tape.reset();
            let wv = tape.param(&params, w);
            let tv = tape.input_copy(&target);
            let l = tape.mse_loss(wv, tv);
            tape.backward(l);
            opt.step(&mut params, tape.param_grads());
        }
        let dist = params.get(w).max_abs_diff(&target).unwrap();
        assert!(dist < 1e-2, "distance to optimum {dist} (case = {case})");
    }
}

/// Concat/slice round-trips values for arbitrary widths.
#[test]
fn concat_slice_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let seed: u64 = rng.gen_range(1..10_000u64);
        let rows = rng.gen_range(1..5usize);
        let c1 = rng.gen_range(1..5usize);
        let c2 = rng.gen_range(1..5usize);

        let a = lcg_matrix(rows, c1, seed);
        let b = lcg_matrix(rows, c2, seed ^ 9);
        let mut tape = Tape::new();
        let av = tape.input(a.clone());
        let bv = tape.input(b.clone());
        let cat = tape.concat_cols(av, bv);
        let left = tape.slice_cols(cat, 0, c1);
        let right = tape.slice_cols(cat, c1, c1 + c2);
        assert!(tape.value(left).max_abs_diff(&a).unwrap() < 1e-15);
        assert!(tape.value(right).max_abs_diff(&b).unwrap() < 1e-15);
    }
}

/// Backward on a mini-batch equals the average of per-sample backwards:
/// the linearity that lets GRNA train on batched tape passes instead of
/// per-sample loops.
#[test]
fn batch_gradient_is_mean_of_per_sample_gradients() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let seed: u64 = rng.gen_range(1..10_000u64);
        let batch = rng.gen_range(2..6usize);
        let d_in = rng.gen_range(1..4usize);
        let d_out = rng.gen_range(1..4usize);

        let mut params = Params::new();
        let w = params.insert(lcg_matrix(d_in, d_out, seed));
        let x = lcg_matrix(batch, d_in, seed ^ 21);
        let t = lcg_matrix(batch, d_out, seed ^ 22);

        let grad_for = |rows: &[usize]| -> Matrix {
            let sel: Vec<usize> = rows.to_vec();
            let xb = x.select_rows(&sel).unwrap();
            let tb = t.select_rows(&sel).unwrap();
            let mut tape = Tape::new();
            let wv = tape.param(&params, w);
            let xv = tape.input(xb);
            let z = tape.matmul(xv, wv);
            let tv = tape.input(tb);
            let l = tape.mse_loss(z, tv);
            tape.backward(l);
            tape.grad(wv).unwrap().clone()
        };

        let all: Vec<usize> = (0..batch).collect();
        let batched = grad_for(&all);
        let mut mean = Matrix::zeros(d_in, d_out);
        for i in 0..batch {
            mean = mean.add(&grad_for(&[i])).unwrap();
        }
        let mean = mean.scale(1.0 / batch as f64);
        assert!(
            batched.max_abs_diff(&mean).unwrap() < 1e-12,
            "batched grad ≠ mean of per-sample grads (case = {case})"
        );
    }
}
