//! SIMD-vs-scalar parity sweep for the kernel layer.
//!
//! The f64 contract (see `fia_linalg::kernel`) is *bit identity*: the AVX2
//! microkernels preserve the scalar arm's per-element, k-ascending
//! accumulation order, so every f64 entry point must agree exactly — the
//! only licensed difference is the sign of an exact zero, which `==`
//! treats as equal. Every check runs on randomized shapes that
//! deliberately include ragged edges (`n % 8 != 0`, `m % 4 != 0`, tiny
//! and skinny matrices), and on fixed grids that put every entry point
//! on both sides of each AVX2 routing rule: the narrow output (`n ≤ 4`),
//! one GEBP block (`k ≤ KC = 256`, `n ≤ NC = 512`) and the operands such
//! a block reads in place (a row-major B of at most 8192 values, and the
//! transposed A of `gemm_at_acc` while `n ≤ 32` or `m·n ≤ 16384`).

use fia_linalg::kernel::{self, Backend};
use fia_linalg::{with_backend, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// NaN-free uniform draw in [-1, 1).
fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
    (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// Shape sweep, as `(m, k, n)`: randomized dims plus fixed ragged and
/// degenerate cases that exercise every masked edge of the 4×8 tile,
/// GRNA's training products, and grids across each routing rule.
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
        // Logistic-regression training and serving: the forward
        // product, the weight gradient and the one-row prediction.
        (64, 23, 1),
        (23, 64, 1),
        (1, 23, 1),
        (64, 48, 4), // the kernels bench's narrow GRNA layer
    ];
    // The narrow path serves n ≤ 4 and GEBP n = 5. The rows fall short
    // of, fill and pass multi-block groups; k covers the register
    // transpose's tail (k % 4 != 0) and a k past the GEBP panel.
    for n in 1..=5 {
        for m in [1, 3, 15, 16, 23, 64] {
            for k in [1, 3, 23, 64, 257] {
                s.push((m, k, n));
            }
        }
    }
    // GRNA training on the grna-nn scenario: every generator layer
    // (48 → 96 → 48 → 24 → 14) and frozen-MLP layer (48 → 64 → 32 → 16
    // → 11) as the forward product x·W, the input gradient g·Wᵀ and the
    // weight gradient xᵀ·g, on a full 64-row and the last 54-row batch.
    let layers = [
        (48, 96),
        (96, 48),
        (48, 24),
        (24, 14),
        (48, 64),
        (64, 32),
        (32, 16),
        (16, 11),
    ];
    for m in [64, 54] {
        for (w_in, w_out) in layers {
            s.extend([(m, w_in, w_out), (m, w_out, w_in), (w_in, m, w_out)]);
        }
    }
    // Routing edges: k at and one past KC; n just past the narrow rule,
    // at one tile, ragged, GRNA's 14, and at and one past NC.
    for k in [256, 257] {
        for n in [5, 8, 11, 14, 512, 513] {
            s.push((7, k, n));
        }
    }
    // The in-place rules of a one-block product: a row-major B of
    // k·n = 8192 values and just past it; a transposed A at n = 32 and
    // at m·n = 16384 (read in place), and just past each (packed).
    s.extend([
        (9, 64, 128),
        (9, 65, 128),
        (600, 5, 32),
        (600, 5, 33),
        (128, 64, 128),
        (129, 64, 128),
    ]);
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

/// The AVX2 arm keeps its packing panels per thread and never clears
/// them, so a product packs over what a larger one left behind. Every
/// product after the large one must still match the scalar arm bit for
/// bit: a slot the tile reads but a packer skipped would carry the large
/// product's values into the result. Each shape runs `gemm_acc`, then
/// `gemm_tn_acc`, then `gemm_at_acc`, so GRNA's pack-free products are
/// each followed by a `gemm_tn_acc` that packs B into the reused panel,
/// and one-block products with a packed B (`k·n` past 8192) and with a
/// packed transposed A follow too.
#[test]
fn reused_panels_never_leak_an_earlier_product() {
    if !fia_linalg::avx2_available() {
        eprintln!("skipping: no AVX2 on this host");
        return;
    }
    let mut rng = StdRng::seed_from_u64(0x5eed_0009);
    let large = (300, 300, 300);
    let after = [
        (64, 48, 96),
        (54, 96, 48),
        (13, 200, 100),
        (200, 30, 100),
        (5, 7, 9),
        (64, 23, 1),
        (3, 257, 13),
        (16, 300, 17),
        (23, 64, 4),
        (1, 1, 6),
        (9, 33, 301),
    ];
    for (m, k, n) in std::iter::once(large).chain(after) {
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let bt = rand_vec(&mut rng, n * k);
        let at = rand_vec(&mut rng, k * m);
        let init = rand_vec(&mut rng, m * n);
        let run = |backend| {
            with_backend(backend, || {
                let mut outs = [init.clone(), init.clone(), init.clone()];
                kernel::gemm_acc(&a, &b, &mut outs[0], m, k, n);
                kernel::gemm_tn_acc(&a, &bt, &mut outs[1], m, k, n);
                kernel::gemm_at_acc(&at, &b, &mut outs[2], m, k, n);
                outs
            })
        };
        let (s, v) = (run(Backend::Scalar), run(Backend::Avx2));
        for (which, (os, ov)) in ["gemm_acc", "gemm_tn_acc", "gemm_at_acc"]
            .iter()
            .zip(s.iter().zip(&v))
        {
            assert_bitwise_eq(os, ov, which, (m, k, n));
        }
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
                a.matmul_transposed(&bt).unwrap(),
                a.transpose().transpose_matmul(&b).unwrap(),
            )
        };
        let s = with_backend(Backend::Scalar, run);
        let v = with_backend(Backend::Avx2, run);
        for (which, (ms, mv)) in [s.0, s.1, s.2].iter().zip([v.0, v.1, v.2]).enumerate() {
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
