//! Free-standing vector helpers used across the workspace.
//!
//! These operate on plain `&[f64]` slices so callers do not need to wrap
//! short-lived vectors in [`crate::Matrix`].

/// `y ← y + alpha * x` in place, dispatched through the
/// [`crate::kernel`] backend (bit-identical across backends — the update
/// is elementwise, no reduction).
///
/// # Panics
/// Panics if the lengths differ — same contract in debug and release
/// builds, consistent with the typed shape errors on [`crate::Matrix`]
/// ops (a slice helper has no `Result` channel, so the mismatch is a
/// programming error and fails loudly).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    crate::kernel::axpy(alpha, x, y)
}

/// Arithmetic mean; `0.0` for an empty slice.
pub fn mean(a: &[f64]) -> f64 {
    if a.is_empty() {
        return 0.0;
    }
    a.iter().sum::<f64>() / a.len() as f64
}

/// Population variance; `0.0` for slices with fewer than two elements.
pub fn variance(a: &[f64]) -> f64 {
    if a.len() < 2 {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / a.len() as f64
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns `0.0` when either side has (numerically) zero variance, which
/// matches how the paper's correlation diagnostics treat constant
/// features: a constant feature carries no usable correlation signal.
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "pearson: length mismatch");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for i in 0..n {
        let da = a[i] - ma;
        let db = b[i] - mb;
        cov += da * db;
        va += da * da;
        vb += db * db;
    }
    let denom = (va * vb).sqrt();
    if denom <= f64::EPSILON * n as f64 {
        0.0
    } else {
        cov / denom
    }
}

/// Index of the maximum element (first one on ties).
///
/// # Panics
/// Panics if the slice is empty.
pub fn argmax(a: &[f64]) -> usize {
    assert!(!a.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > a[best] {
            best = i;
        }
    }
    best
}

/// Numerically-stable softmax.
pub fn softmax(z: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; z.len()];
    softmax_into(z, &mut out);
    out
}

/// [`softmax`] written into `out` (same length as `z`) instead of a fresh
/// vector.
///
/// # Panics
/// Panics on a length mismatch.
pub fn softmax_into(z: &[f64], out: &mut [f64]) {
    assert_eq!(z.len(), out.len(), "softmax_into: length mismatch");
    let max = z.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (o, &x) in out.iter_mut().zip(z) {
        *o = (x - max).exp();
    }
    let sum: f64 = out.iter().sum();
    for o in out.iter_mut() {
        *o /= sum;
    }
}

/// Logistic sigmoid `1 / (1 + e^{-x})`, stable for large |x|.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse sigmoid (logit). Clamps the argument into `(eps, 1-eps)` so the
/// equality-solving attack tolerates confidence scores that were rounded
/// to exactly 0 or 1 by a defense.
pub fn logit(p: f64) -> f64 {
    let eps = 1e-12;
    let p = p.clamp(eps, 1.0 - eps);
    (p / (1.0 - p)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 3.0], &mut y);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut y = vec![0.0, 0.0];
        axpy(1.0, &[1.0, 2.0, 3.0], &mut y);
    }

    #[test]
    fn mean_variance_known() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&v), 2.5);
        assert!((variance(&v) - 1.25).abs() < 1e-15);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_correlations() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
        let c = [8.0, 6.0, 4.0, 2.0];
        assert!((pearson(&a, &c) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_is_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let s = softmax(&[1000.0, 1001.0, 1002.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
        assert!(s.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn sigmoid_symmetry_and_stability() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(800.0).is_finite());
        assert!(sigmoid(-800.0).is_finite());
    }

    #[test]
    fn logit_inverts_sigmoid() {
        for &x in &[-5.0, -0.5, 0.0, 0.5, 5.0] {
            assert!((logit(sigmoid(x)) - x).abs() < 1e-9, "x = {x}");
        }
    }

    #[test]
    fn logit_clamps_extremes() {
        assert!(logit(0.0).is_finite());
        assert!(logit(1.0).is_finite());
    }
}
