//! Cholesky decomposition for symmetric positive-definite systems.
//!
//! The ridge-regularized normal equations `(ΘᵀΘ + λI) x = Θᵀa` that the
//! solver-ablation bench builds are SPD by construction; Cholesky solves
//! them in half the flops of LU and fails loudly (instead of silently
//! producing garbage) when the input is not positive definite.

use crate::{LinAlgError, Matrix, Result};

/// A lower-triangular Cholesky factor `A = L · Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` by forward/back substitution through `L`.
    // Triangular substitution is clearest with explicit indices.
    #[allow(clippy::needless_range_loop)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinAlgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
                op: "cholesky-solve",
            });
        }
        // L y = b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.l[(i, j)] * y[j];
            }
            y[i] = s / self.l[(i, i)];
        }
        // Lᵀ x = y
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.l[(j, i)] * x[j];
            }
            x[i] = s / self.l[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the original matrix (product of squared diagonal).
    pub fn determinant(&self) -> f64 {
        (0..self.l.rows()).fold(1.0, |acc, i| acc * self.l[(i, i)] * self.l[(i, i)])
    }
}

/// Factors a symmetric positive-definite matrix.
///
/// # Errors
/// * [`LinAlgError::InvalidArgument`] for non-square or asymmetric input.
/// * [`LinAlgError::Singular`] when a pivot is not strictly positive
///   (matrix not positive definite).
pub fn cholesky(a: &Matrix) -> Result<Cholesky> {
    let (m, n) = a.shape();
    if m != n || n == 0 {
        return Err(LinAlgError::InvalidArgument(format!(
            "cholesky: need a non-empty square matrix, got {m}x{n}"
        )));
    }
    let sym_tol = 1e-8 * (1.0 + a.max_abs());
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[(i, j)] - a[(j, i)]).abs() > sym_tol {
                return Err(LinAlgError::InvalidArgument(format!(
                    "cholesky: matrix not symmetric at ({i}, {j})"
                )));
            }
        }
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if s <= 0.0 {
                    return Err(LinAlgError::Singular);
                }
                l[(i, i)] = s.sqrt();
            } else {
                l[(i, j)] = s / l[(j, j)];
            }
        }
    }
    Ok(Cholesky { l })
}

/// Convenience: solves the SPD system `A x = b` via a fresh factorization.
pub fn cholesky_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    cholesky(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize) -> Matrix {
        // Aᵀ·A + I is SPD for any A.
        let a = Matrix::from_fn(n, n, |i, j| ((i * 3 + j * 7) % 5) as f64 - 2.0);
        let mut m = a.transpose().matmul(&a).unwrap();
        for i in 0..n {
            m[(i, i)] += 1.0;
        }
        m
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(5);
        let f = cholesky(&a).unwrap();
        let rec = f.l().matmul(&f.l().transpose()).unwrap();
        assert!(rec.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn solve_satisfies_the_system() {
        let a = spd(6);
        let b: Vec<f64> = (0..6).map(|i| (i as f64) - 2.5).collect();
        let x = cholesky_solve(&a, &b).unwrap();
        for (r, want) in a.matvec(&x).unwrap().iter().zip(&b) {
            assert!((r - want).abs() < 1e-9);
        }
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap(); // eigenvalues 3, −1
        assert!(matches!(cholesky(&a), Err(LinAlgError::Singular)));
    }

    #[test]
    fn rejects_asymmetric() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![0.0, 2.0]]).unwrap();
        assert!(matches!(cholesky(&a), Err(LinAlgError::InvalidArgument(_))));
    }

    #[test]
    fn determinant_positive() {
        // The n × n tridiagonal (−1, 2, −1) matrix is SPD with
        // determinant n + 1.
        let n = 6;
        let a = Matrix::from_fn(n, n, |i, j| match i.abs_diff(j) {
            0 => 2.0,
            1 => -1.0,
            _ => 0.0,
        });
        let f = cholesky(&a).unwrap();
        let det = (n + 1) as f64;
        assert!((f.determinant() - det).abs() < 1e-6 * det);
    }
}
