//! SIMD-vs-scalar parity sweep for the kernel layer.
//!
//! The f64 contract (see `fia_linalg::kernel`) is *bit identity*: the AVX2
//! microkernels preserve the scalar arm's per-element, k-ascending
//! accumulation order, so every f64 entry point except `dot` must agree
//! exactly — the only licensed difference is the sign of an exact zero,
//! which `==` treats as equal. `dot` carries a documented ULP bound,
//! checked here. Every check runs on randomized shapes that deliberately
//! include ragged edges (`n % 8 != 0`, `m % 4 != 0`, tiny and skinny
//! matrices).

use fia_linalg::kernel::{self, Backend};
use fia_linalg::{par_matmul_with, with_backend, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// NaN-free uniform draw in [-1, 1).
fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Shape sweep: randomized dims plus fixed ragged/degenerate cases that
/// exercise every masked edge of the 4×8 microkernel.
fn shapes(rng: &mut StdRng) -> Vec<(usize, usize, usize)> {
    let mut s = vec![
        (1, 1, 1),
        (3, 1, 10),  // k = 1, ragged n
        (5, 7, 9),   // everything ragged
        (4, 256, 8), // exactly one full panel
        (4, 257, 8), // one k past the panel boundary
        (16, 300, 17),
        (13, 64, 31),
        (64, 64, 64),
    ];
    for _ in 0..12 {
        s.push((
            rng.gen_range(1..40usize),
            rng.gen_range(1..70usize),
            rng.gen_range(1..40usize),
        ));
    }
    s
}

fn assert_bitwise_eq(a: &[f64], b: &[f64], what: &str, shape: (usize, usize, usize)) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        // `==` deliberately: -0.0 == +0.0 is the one licensed difference.
        assert!(
            x == y,
            "{what} diverged at index {i} for shape {shape:?}: {x:e} vs {y:e} \
             (bits {:#x} vs {:#x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

#[test]
fn gemm_f64_bit_identical_across_backends() {
    if !fia_linalg::avx2_available() {
        eprintln!("skipping: no AVX2 on this host, both arms would be scalar");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0001);
    for (m, k, n) in shapes(&mut rng) {
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        // gemm_acc accumulates, so seed both arms with the same nonzero out.
        let init = rand_vec(&mut rng, m * n);
        let mut out_s = init.clone();
        let mut out_v = init;
        with_backend(Backend::Scalar, || {
            kernel::gemm_acc(&a, &b, &mut out_s, m, k, n)
        });
        with_backend(Backend::Avx2, || {
            kernel::gemm_acc(&a, &b, &mut out_v, m, k, n)
        });
        assert_bitwise_eq(&out_s, &out_v, "gemm_acc", (m, k, n));
    }
}

#[test]
fn gemm_tn_bit_identical_across_backends() {
    if !fia_linalg::avx2_available() {
        eprintln!("skipping: no AVX2 on this host");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0002);
    for (m, k, n) in shapes(&mut rng) {
        // gemm_tn computes A·Bᵀ from a stored n×k B.
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, n * k);
        let init = rand_vec(&mut rng, m * n);
        let mut out_s = init.clone();
        let mut out_v = init;
        with_backend(Backend::Scalar, || {
            kernel::gemm_tn_acc(&a, &b, &mut out_s, m, k, n)
        });
        with_backend(Backend::Avx2, || {
            kernel::gemm_tn_acc(&a, &b, &mut out_v, m, k, n)
        });
        assert_bitwise_eq(&out_s, &out_v, "gemm_tn_acc", (m, k, n));
    }
}

#[test]
fn gemm_at_bit_identical_across_backends() {
    if !fia_linalg::avx2_available() {
        eprintln!("skipping: no AVX2 on this host");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0007);
    for (m, k, n) in shapes(&mut rng) {
        // gemm_at computes Aᵀ·B from a stored k×m A.
        let a = rand_vec(&mut rng, k * m);
        let b = rand_vec(&mut rng, k * n);
        let init = rand_vec(&mut rng, m * n);
        let mut out_s = init.clone();
        let mut out_v = init;
        with_backend(Backend::Scalar, || {
            kernel::gemm_at_acc(&a, &b, &mut out_s, m, k, n)
        });
        with_backend(Backend::Avx2, || {
            kernel::gemm_at_acc(&a, &b, &mut out_v, m, k, n)
        });
        assert_bitwise_eq(&out_s, &out_v, "gemm_at_acc", (m, k, n));
    }
}

#[test]
fn transposed_operand_products_match_explicit_transpose_bitwise() {
    // The tape's MatMul backward relies on this: `g·Bᵀ` and `Aᵀ·g` formed
    // inside the kernel are the same bits, on each arm, as transposing
    // first — zero signs and zero operands included.
    let mut rng = StdRng::seed_from_u64(0x5eed_0008);
    let backends = if fia_linalg::avx2_available() {
        vec![Backend::Scalar, Backend::Avx2]
    } else {
        vec![Backend::Scalar]
    };
    for (m, k, n) in shapes(&mut rng) {
        let mut a = Matrix::from_vec(m, k, rand_vec(&mut rng, m * k)).unwrap();
        let b = Matrix::from_vec(n, k, rand_vec(&mut rng, n * k)).unwrap();
        let c = Matrix::from_vec(m, n, rand_vec(&mut rng, m * n)).unwrap();
        // Exact zeros exercise the scalar arm's zero skip.
        a.as_mut_slice()[0] = 0.0;
        for &backend in &backends {
            with_backend(backend, || {
                let tn = a.matmul_transposed(&b).unwrap();
                let via_t = a.matmul(&b.transpose()).unwrap();
                assert_eq!(bits(&tn), bits(&via_t), "{backend:?} a·bᵀ {:?}", (m, k, n));
                let at = a.transpose_matmul(&c).unwrap();
                let via_t = a.transpose().matmul(&c).unwrap();
                assert_eq!(bits(&at), bits(&via_t), "{backend:?} aᵀ·c {:?}", (m, k, n));
            });
        }
    }
}

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn matrix_level_routing_bit_identical_across_backends() {
    if !fia_linalg::avx2_available() {
        eprintln!("skipping: no AVX2 on this host");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0003);
    for (m, k, n) in shapes(&mut rng) {
        let a = Matrix::from_vec(m, k, rand_vec(&mut rng, m * k)).unwrap();
        let b = Matrix::from_vec(k, n, rand_vec(&mut rng, k * n)).unwrap();
        let bt = b.transpose();
        let run = || {
            (
                a.matmul(&b).unwrap(),
                a.matmul_blocked(&b, 32).unwrap(),
                a.matmul_transposed(&bt).unwrap(),
                par_matmul_with(&a, &b, 3).unwrap(),
                a.transpose().transpose_matmul(&b).unwrap(),
            )
        };
        let s = with_backend(Backend::Scalar, run);
        let v = with_backend(Backend::Avx2, run);
        for (which, (ms, mv)) in [s.0, s.1, s.2, s.3, s.4]
            .iter()
            .zip([v.0, v.1, v.2, v.3, v.4])
            .enumerate()
        {
            assert_bitwise_eq(
                ms.as_slice(),
                mv.as_slice(),
                "matmul variant",
                (m, k, which),
            );
            let _ = mv;
        }
    }
}

#[test]
fn axpy_and_elementwise_bit_identical_across_backends() {
    if !fia_linalg::avx2_available() {
        eprintln!("skipping: no AVX2 on this host");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0004);
    for len in [1usize, 3, 7, 8, 9, 31, 64, 127, 1000] {
        let x = rand_vec(&mut rng, len);
        let init = rand_vec(&mut rng, len);
        let alpha: f64 = rng.gen_range(-2.0..2.0);

        let mut y_s = init.clone();
        let mut y_v = init.clone();
        with_backend(Backend::Scalar, || kernel::axpy(alpha, &x, &mut y_s));
        with_backend(Backend::Avx2, || kernel::axpy(alpha, &x, &mut y_v));
        assert_bitwise_eq(&y_s, &y_v, "axpy", (len, 0, 0));

        let a = Matrix::from_vec(1, len, x.clone()).unwrap();
        let b = Matrix::from_vec(1, len, init).unwrap();
        let run = || {
            (
                a.add(&b).unwrap(),
                a.sub(&b).unwrap(),
                a.hadamard(&b).unwrap(),
                a.scale(alpha),
            )
        };
        let s = with_backend(Backend::Scalar, run);
        let v = with_backend(Backend::Avx2, run);
        assert_bitwise_eq(s.0.as_slice(), v.0.as_slice(), "add", (len, 0, 0));
        assert_bitwise_eq(s.1.as_slice(), v.1.as_slice(), "sub", (len, 0, 0));
        assert_bitwise_eq(s.2.as_slice(), v.2.as_slice(), "hadamard", (len, 0, 0));
        assert_bitwise_eq(s.3.as_slice(), v.3.as_slice(), "scale", (len, 0, 0));
    }
}

#[test]
fn dot_agrees_within_documented_ulp_bound() {
    if !fia_linalg::avx2_available() {
        eprintln!("skipping: no AVX2 on this host");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0005);
    for len in [1usize, 4, 5, 8, 13, 100, 1023, 4096] {
        let a = rand_vec(&mut rng, len);
        let b = rand_vec(&mut rng, len);
        let d_s = with_backend(Backend::Scalar, || kernel::dot(&a, &b));
        let d_v = with_backend(Backend::Avx2, || kernel::dot(&a, &b));
        // Documented bound: |Δ| ≤ 4·ε·Σ|aᵢ·bᵢ| (re-association across 4
        // lanes plus the pairwise horizontal reduction).
        let abs_sum: f64 = a.iter().zip(&b).map(|(x, y)| (x * y).abs()).sum();
        let bound = 4.0 * f64::EPSILON * abs_sum;
        assert!(
            (d_s - d_v).abs() <= bound,
            "dot len {len}: scalar {d_s:e} vs avx2 {d_v:e} exceeds bound {bound:e}"
        );
    }
}

#[test]
fn forced_scalar_env_reports_scalar_backend() {
    // `detected_backend` latches the env var once per process; we can't
    // toggle it here, but the name round-trip and the thread-local
    // override must compose. (The CI leg runs the whole workspace under
    // FIA_FORCE_SCALAR=1 to cover the env path end to end.)
    let base = fia_linalg::detected_backend();
    assert!(matches!(base, Backend::Scalar | Backend::Avx2));
    let inside = with_backend(Backend::Scalar, kernel::active_backend);
    assert_eq!(inside, Backend::Scalar);
    assert_eq!(kernel::active_backend(), base);
}
