//! Weight initializers and Gaussian sampling helpers.
//!
//! Gaussian variates come from a Box–Muller transform over `rand`'s
//! uniform output, avoiding an extra `rand_distr` dependency.

use fia_linalg::Matrix;
use rand::Rng;

/// Draws one standard-normal variate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1] to keep ln(u1) finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// A `rows × cols` matrix with i.i.d. `N(mean, std²)` entries.
pub fn normal_matrix<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    mean: f64,
    std: f64,
    rng: &mut R,
) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    fill_normal(m.as_mut_slice(), mean, std, rng);
    m
}

/// Overwrites `out`, in order, with i.i.d. `N(mean, std²)` draws: the
/// values and rng stream of [`normal_matrix`] without the matrix.
pub fn fill_normal<R: Rng + ?Sized>(out: &mut [f64], mean: f64, std: f64, rng: &mut R) {
    for v in out {
        *v = mean + std * standard_normal(rng);
    }
}

/// A `rows × cols` matrix with i.i.d. `U(lo, hi)` entries.
pub fn uniform_matrix<R: Rng + ?Sized>(
    rows: usize,
    cols: usize,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Xavier/Glorot uniform initialization for a `fan_in × fan_out` weight
/// matrix: `U(-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out)))`.
pub fn xavier_uniform<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    uniform_matrix(fan_in, fan_out, -limit, limit, rng)
}

/// He/Kaiming normal initialization, suited to ReLU stacks:
/// `N(0, 2/fan_in)`.
pub fn he_normal<R: Rng + ?Sized>(fan_in: usize, fan_out: usize, rng: &mut R) -> Matrix {
    let std = (2.0 / fan_in as f64).sqrt();
    normal_matrix(fan_in, fan_out, 0.0, std, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn normal_matrix_shape_and_spread() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = normal_matrix(30, 40, 2.0, 0.5, &mut rng);
        assert_eq!(m.shape(), (30, 40));
        let mean = m.as_slice().iter().sum::<f64>() / 1200.0;
        assert!((mean - 2.0).abs() < 0.1);
    }

    #[test]
    fn uniform_matrix_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = uniform_matrix(10, 10, -0.25, 0.25, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (-0.25..0.25).contains(&x)));
    }

    #[test]
    fn xavier_limit_respected() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = xavier_uniform(100, 200, &mut rng);
        let limit = (6.0 / 300.0_f64).sqrt();
        assert!(m.max_abs() <= limit);
    }

    #[test]
    fn he_normal_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = he_normal(800, 10, &mut rng);
        // std = sqrt(2/800) = 0.05 → sample std should be near that.
        let n = m.as_slice().len() as f64;
        let var = m.as_slice().iter().map(|x| x * x).sum::<f64>() / n;
        assert!((var.sqrt() - 0.05).abs() < 0.01);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            normal_matrix(3, 3, 0.0, 1.0, &mut a),
            normal_matrix(3, 3, 0.0, 1.0, &mut b)
        );
    }
}
