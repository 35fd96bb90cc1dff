//! Property-based tests for the linear algebra kernels.
//!
//! The offline build has no `proptest`, so cases are driven by a seeded
//! [`rand::rngs::StdRng`]: every property is checked over a sweep of
//! random shapes and entries, deterministically reproducible from the
//! case index.

use fia_linalg::{pinv, svd, vecops, Matrix};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: u64 = 64;

/// Random matrix with entries in `[-10, 10]` and dims in `1..=max_dim`.
fn random_matrix(rng: &mut StdRng, max_dim: usize) -> Matrix {
    let r = rng.gen_range(1..=max_dim);
    let c = rng.gen_range(1..=max_dim);
    Matrix::from_fn(r, c, |_, _| rng.gen_range(-10.0..10.0))
}

fn case_rng(test: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(test.wrapping_mul(0x9E3779B97F4A7C15) ^ case)
}

#[test]
fn transpose_involution() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let a = random_matrix(&mut rng, 8);
        assert_eq!(a.transpose().transpose(), a);
    }
}

#[test]
fn matmul_identity_right() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let a = random_matrix(&mut rng, 8);
        let i = Matrix::identity(a.cols());
        let prod = a.matmul(&i).unwrap();
        assert!(prod.max_abs_diff(&a).unwrap() < 1e-12);
    }
}

#[test]
fn matmul_transpose_identity() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let a = random_matrix(&mut rng, 6);
        let rows = a.cols();
        let cols = rng.gen_range(1..=6);
        let b = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-10.0..10.0));
        // (A·B)ᵀ = Bᵀ·Aᵀ.
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-9);
    }
}

#[test]
fn matmul_transposed_matches_naive() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let m = rng.gen_range(1..20);
        let k = rng.gen_range(1..20);
        let n = rng.gen_range(1..20);
        let a = Matrix::from_fn(m, k, |_, _| rng.gen_range(-5.0..5.0));
        let b = Matrix::from_fn(k, n, |_, _| rng.gen_range(-5.0..5.0));
        let direct = a.matmul(&b).unwrap();
        let via_t = a.matmul_transposed(&b.transpose()).unwrap();
        assert!(via_t.max_abs_diff(&direct).unwrap() < 1e-12);
    }
}

#[test]
fn svd_reconstruction() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let a = random_matrix(&mut rng, 7);
        let f = svd(&a).unwrap();
        let rec = f.reconstruct().unwrap();
        assert!(
            rec.max_abs_diff(&a).unwrap() < 1e-8,
            "reconstruction error too large"
        );
        // Singular values sorted and non-negative.
        for w in f.sigma.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(f.sigma.iter().all(|&s| s >= 0.0));
    }
}

#[test]
fn svd_frobenius_identity() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let a = random_matrix(&mut rng, 7);
        let f = svd(&a).unwrap();
        let fro2 = a.frobenius_norm().powi(2);
        let sum2: f64 = f.sigma.iter().map(|s| s * s).sum();
        assert!((fro2 - sum2).abs() < 1e-7 * (1.0 + fro2));
    }
}

/// The pseudo-inverse satisfies the first Penrose condition
/// `A · A⁺ · A = A` on random *rectangular* matrices of every
/// aspect ratio — the property the equality solving attack relies on
/// (Section IV-A).
#[test]
fn pinv_penrose_one_rectangular() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        // Force a mix of wide, tall and square shapes.
        let r = rng.gen_range(1..=7);
        let c = match case % 3 {
            0 => rng.gen_range(r..=9), // wide or square
            1 => rng.gen_range(1..=r), // tall or square
            _ => rng.gen_range(1..=7), // anything
        };
        let a = Matrix::from_fn(r, c, |_, _| rng.gen_range(-10.0..10.0));
        let p = pinv(&a).unwrap();
        assert_eq!(p.shape(), (c, r));
        let c1 = a.matmul(&p).unwrap().matmul(&a).unwrap();
        assert!(
            c1.max_abs_diff(&a).unwrap() < 1e-7 * (1.0 + a.max_abs()),
            "Penrose 1 failed for {r}x{c} (case {case})"
        );
    }
}

#[test]
fn pinv_penrose_two() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let a = random_matrix(&mut rng, 6);
        let p = pinv(&a).unwrap();
        let c = p.matmul(&a).unwrap().matmul(&p).unwrap();
        assert!(c.max_abs_diff(&p).unwrap() < 1e-7 * (1.0 + p.max_abs()));
    }
}

#[test]
fn lu_solve_residual() {
    for case in 0..CASES {
        let mut rng = case_rng(12, case);
        let n = rng.gen_range(1..=6);
        let mut a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-10.0..10.0));
        // Diagonally dominate to avoid near-singular draws.
        for i in 0..n {
            a[(i, i)] += 50.0;
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
        let x = fia_linalg::solve(&a, &b).unwrap();
        let r = a.matvec(&x).unwrap();
        for i in 0..n {
            assert!((r[i] - b[i]).abs() < 1e-8);
        }
    }
}

#[test]
fn softmax_is_distribution() {
    for case in 0..CASES {
        let mut rng = case_rng(13, case);
        let len = rng.gen_range(1..10);
        let z: Vec<f64> = (0..len).map(|_| rng.gen_range(-50.0..50.0)).collect();
        let s = vecops::softmax(&z);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

#[test]
fn logit_sigmoid_roundtrip() {
    // Beyond |x| ≈ 15, 1 − σ(x) loses enough f64 precision that the
    // roundtrip error dominates; the attack only ever sees confidence
    // scores well inside this band.
    for case in 0..CASES {
        let mut rng = case_rng(14, case);
        let x = rng.gen_range(-15.0..15.0);
        let p = vecops::sigmoid(x);
        assert!((vecops::logit(p) - x).abs() < 1e-6 * (1.0 + x.abs()));
    }
}

#[test]
fn pearson_bounded() {
    for case in 0..CASES {
        let mut rng = case_rng(15, case);
        let n = rng.gen_range(3..40);
        let a: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let b: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let r = vecops::pearson(&a, &b);
        assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r));
    }
}
