//! Confidence-score rounding (Fig. 11a–d).
//!
//! "A possible defense to ESA is to coarsen the confidence scores v
//! returned to the active party, for example, round v down to b floating
//! point digits before revealing it."

use fia_linalg::Matrix;

/// Rounds confidence scores *down* to `b` floating-point digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundingDefense {
    /// Number of retained decimal digits `b` (paper evaluates 1 and 3).
    pub digits: u32,
}

impl RoundingDefense {
    /// Rounding to one digit (`0.1` granularity) — the setting that
    /// defeats ESA in Fig. 11a–b.
    pub fn coarse() -> Self {
        RoundingDefense { digits: 1 }
    }

    /// Rounding to three digits (`0.001`) — barely affects the attacks.
    pub fn fine() -> Self {
        RoundingDefense { digits: 3 }
    }

    /// Rounds one score down to the retained precision.
    pub fn round_value(&self, v: f64) -> f64 {
        let scale = 10f64.powi(self.digits as i32);
        (v * scale).floor() / scale
    }

    /// Rounds a whole confidence matrix.
    pub fn round_matrix(&self, scores: &Matrix) -> Matrix {
        scores.map(|v| self.round_value(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_down_not_nearest() {
        let d = RoundingDefense { digits: 1 };
        assert_eq!(d.round_value(0.19), 0.1);
        assert_eq!(d.round_value(0.99), 0.9);
        assert_eq!(d.round_value(0.10), 0.1);
    }

    #[test]
    fn three_digits_small_perturbation() {
        let d = RoundingDefense::fine();
        let v = 0.123456;
        assert!((d.round_value(v) - 0.123).abs() < 1e-12);
        assert!((d.round_value(v) - v).abs() < 1e-3);
    }

    #[test]
    fn coarse_rounding_may_zero_scores() {
        let d = RoundingDefense::coarse();
        assert_eq!(d.round_value(0.049), 0.0);
    }
}
