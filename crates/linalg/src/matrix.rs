//! Dense row-major `f64` matrix.

use crate::{LinAlgError, Result};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, row-major matrix of `f64` values.
///
/// The type is deliberately simple: a length-`rows*cols` boxed buffer plus
/// the two dimensions. Element `(i, j)` lives at `data[i * cols + j]`.
///
/// ```
/// use fia_linalg::Matrix;
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a function of the index pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinAlgError::InvalidArgument(
                "from_rows: no rows given".into(),
            ));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinAlgError::InvalidArgument(
                "from_rows: rows are empty".into(),
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinAlgError::InvalidArgument(format!(
                    "from_rows: row {i} has length {} but expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix taking ownership of a row-major buffer.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinAlgError::InvalidArgument(format!(
                "from_vec: buffer has {} elements but shape is {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a single-column matrix from a slice.
    pub fn column_vector(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Creates a single-row matrix from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw row-major data slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Borrow row `i` mutably.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy column `j` into a new vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        debug_assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix multiplication `self * rhs`.
    ///
    /// Dispatches to the active [`crate::kernel`] backend: the scalar arm
    /// keeps the historical ikj loop (with its cache-blocked cutover for
    /// large products), the AVX2 arm runs packed register-blocked
    /// microkernels. Both arms accumulate in the same sequence per output
    /// element, so results are bit-identical regardless of backend.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::kernel::gemm_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(out)
    }

    /// Cache-blocked matrix multiplication. Since the kernel layer now
    /// picks its own panel sizes per backend, this is the same dispatched
    /// multiply as [`Matrix::matmul`]; the `block` hint is retained for
    /// API compatibility (results never depended on it — every blocking
    /// accumulates in the same per-element order).
    pub fn matmul_blocked(&self, rhs: &Matrix, block: usize) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "matmul_blocked",
            });
        }
        let _ = block;
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::kernel::gemm_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs.cols,
        );
        Ok(out)
    }

    /// Computes `self · rhs_tᵀ` from an already-transposed right factor
    /// ([`crate::kernel::gemm_tn_acc`]): the same bits as
    /// `self.matmul(&rhs_t.transpose())` without the caller forming the
    /// transpose.
    pub fn matmul_transposed(&self, rhs_t: &Matrix) -> Result<Matrix> {
        if self.cols != rhs_t.cols {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs_t.shape(),
                op: "matmul_transposed",
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs_t.rows);
        crate::kernel::gemm_tn_acc(
            &self.data,
            &rhs_t.data,
            &mut out.data,
            self.rows,
            self.cols,
            rhs_t.rows,
        );
        Ok(out)
    }

    /// Computes `selfᵀ · rhs` ([`crate::kernel::gemm_at_acc`]): the same
    /// bits as `self.transpose().matmul(rhs)` without forming the
    /// transpose.
    pub fn transpose_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "transpose_matmul",
            });
        }
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        crate::kernel::gemm_at_acc(
            &self.data,
            &rhs.data,
            &mut out.data,
            self.cols,
            self.rows,
            rhs.cols,
        );
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: (v.len(), 1),
                op: "matvec",
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v.iter()).map(|(&a, &x)| a * x).sum())
            .collect())
    }

    /// Element-wise sum `self + rhs`.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_kernel(rhs, "add", crate::kernel::vadd)
    }

    /// Element-wise difference `self - rhs`.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_kernel(rhs, "sub", crate::kernel::vsub)
    }

    /// Element-wise product (Hadamard).
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_kernel(rhs, "hadamard", crate::kernel::vmul)
    }

    fn zip_kernel(
        &self,
        rhs: &Matrix,
        op: &'static str,
        kernel: fn(&[f64], &[f64], &mut [f64]),
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op,
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols);
        kernel(&self.data, &rhs.data, &mut out.data);
        Ok(out)
    }

    /// Multiplies every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        crate::kernel::vscale(&self.data, s, &mut out.data);
        out
    }

    /// Applies `f` element-wise, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Frobenius norm `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// Returns a new matrix keeping only the given columns, in order.
    pub fn select_columns(&self, cols: &[usize]) -> Result<Matrix> {
        for &c in cols {
            if c >= self.cols {
                return Err(LinAlgError::InvalidArgument(format!(
                    "select_columns: column {c} out of bounds (cols = {})",
                    self.cols
                )));
            }
        }
        let mut out = Matrix::zeros(self.rows, cols.len());
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (d, &c) in dst.iter_mut().zip(cols.iter()) {
                *d = src[c];
            }
        }
        Ok(out)
    }

    /// Returns a new matrix keeping only the given rows, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Result<Matrix> {
        for &r in rows {
            if r >= self.rows {
                return Err(LinAlgError::InvalidArgument(format!(
                    "select_rows: row {r} out of bounds (rows = {})",
                    self.rows
                )));
            }
        }
        let mut out = Matrix::zeros(rows.len(), self.cols);
        for (oi, &r) in rows.iter().enumerate() {
            out.row_mut(oi).copy_from_slice(self.row(r));
        }
        Ok(out)
    }

    /// Horizontal concatenation `[self | rhs]`.
    pub fn hstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "hstack",
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for i in 0..self.rows {
            let dst = out.row_mut(i);
            dst[..self.cols].copy_from_slice(self.row(i));
            dst[self.cols..].copy_from_slice(rhs.row(i));
        }
        Ok(out)
    }

    /// Vertical concatenation `[self ; rhs]`.
    pub fn vstack(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.cols {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "vstack",
            });
        }
        let mut data = Vec::with_capacity((self.rows + rhs.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&rhs.data);
        Ok(Matrix {
            rows: self.rows + rhs.rows,
            cols: self.cols,
            data,
        })
    }

    /// In-place vertical concatenation `self = [self ; rhs]`. The buffer
    /// grows with amortized doubling, so appending `n` rows one chunk at
    /// a time copies O(n) elements in total — unlike repeated
    /// [`Matrix::vstack`], which copies the whole matrix every time.
    pub fn append_rows(&mut self, rhs: &Matrix) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "append_rows",
            });
        }
        self.data.extend_from_slice(&rhs.data);
        self.rows += rhs.rows;
        Ok(())
    }

    /// `true` if all elements are finite (no NaN/±inf).
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Maximum absolute difference to another matrix of equal shape.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Result<f64> {
        if self.shape() != rhs.shape() {
            return Err(LinAlgError::ShapeMismatch {
                left: self.shape(),
                right: rhs.shape(),
                op: "max_abs_diff",
            });
        }
        Ok(self
            .data
            .iter()
            .zip(rhs.data.iter())
            .fold(0.0_f64, |m, (&a, &b)| m.max((a - b).abs())))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for j in 0..self.cols.min(8) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            if self.cols > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = m22();
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap();
        assert_eq!(c, expected);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = m22();
        let b = Matrix::zeros(3, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinAlgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_known() {
        let a = m22();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (5, 3));
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m22();
        let b = Matrix::filled(2, 2, 0.5);
        let c = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(c.max_abs_diff(&a).unwrap() < 1e-12);
    }

    #[test]
    fn hadamard_known() {
        let a = m22();
        let h = a.hadamard(&a).unwrap();
        assert_eq!(h.as_slice(), &[1.0, 4.0, 9.0, 16.0]);
    }

    #[test]
    fn scale_and_map() {
        let a = m22();
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(a.map(|x| x - 1.0).as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m22();
        assert!((a.frobenius_norm() - 30.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn select_columns_subset() {
        let a = Matrix::from_fn(2, 4, |i, j| (i * 4 + j) as f64);
        let s = a.select_columns(&[3, 1]).unwrap();
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert_eq!(s.row(1), &[7.0, 5.0]);
    }

    #[test]
    fn select_columns_out_of_bounds() {
        let a = m22();
        assert!(a.select_columns(&[2]).is_err());
    }

    #[test]
    fn select_rows_subset() {
        let a = Matrix::from_fn(4, 2, |i, j| (i * 2 + j) as f64);
        let s = a.select_rows(&[2, 0]).unwrap();
        assert_eq!(s.row(0), &[4.0, 5.0]);
        assert_eq!(s.row(1), &[0.0, 1.0]);
    }

    #[test]
    fn hstack_vstack() {
        let a = m22();
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h.row(0), &[1.0, 2.0, 1.0, 2.0]);
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v.col(0), vec![1.0, 3.0, 1.0, 3.0]);
    }

    #[test]
    fn append_rows_matches_vstack() {
        let a = m22();
        let mut grown = Matrix::zeros(0, 2);
        let mut stacked = Matrix::zeros(0, 2);
        for _ in 0..5 {
            grown.append_rows(&a).unwrap();
            stacked = stacked.vstack(&a).unwrap();
            assert_eq!(grown, stacked);
        }
        assert_eq!(grown.shape(), (10, 2));
        grown.append_rows(&Matrix::zeros(0, 2)).unwrap();
        assert_eq!(grown.shape(), (10, 2));
        let err = grown.append_rows(&Matrix::zeros(1, 3)).unwrap_err();
        assert!(matches!(
            err,
            LinAlgError::ShapeMismatch {
                op: "append_rows",
                ..
            }
        ));
        assert_eq!(
            grown, stacked,
            "a rejected append leaves the matrix as it was"
        );
    }

    #[test]
    fn from_rows_ragged_rejected() {
        assert!(Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_vec_wrong_len_rejected() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn row_col_vectors() {
        let c = Matrix::column_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(c.shape(), (3, 1));
        let r = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(r.shape(), (1, 3));
        assert_eq!(r.transpose(), c);
    }

    #[test]
    fn is_finite_detects_nan() {
        let mut a = m22();
        assert!(a.is_finite());
        a[(0, 0)] = f64::NAN;
        assert!(!a.is_finite());
    }
}
