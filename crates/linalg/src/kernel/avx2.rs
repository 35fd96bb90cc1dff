//! x86-64 AVX2 arm.
//!
//! GEBP-style blocked GEMM: operands are packed into panel buffers
//! (`MR`-row strips of A, `NR`-column strips of B, zero-padded at the
//! edges) and a register-blocked 4×8 microkernel sweeps each tile with
//! the output block held in ymm registers. Remainder rows ride the
//! zero-padding; remainder columns use `maskload`/`maskstore` so edge
//! tiles never touch memory outside the output buffer.
//!
//! Ordering contract (see the module docs on [`super`]): the f64
//! microkernel keeps the *output tile* in registers as the running
//! total — it loads `out`, adds one separately-rounded `a·b` product per
//! `k` step in ascending order, and stores at the panel boundary
//! (store/reload is exact). That is precisely the scalar arm's
//! per-element accumulation sequence, so f64 results match the scalar
//! arm bit-for-bit (up to the sign of exact zeros: the scalar arm skips
//! `a_ik == 0` terms, this arm adds the signed-zero product). No kernel
//! fuses a multiply and an add. The `fma` target feature on the kernels
//! and the FMA check in [`avx2_available`](super::avx2_available) are
//! kept only pending a decision on which hosts get this arm.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;

/// Microkernel tile height (output rows held in registers).
const MR: usize = 4;
/// Microkernel tile width in f64 columns (two `__m256d`).
const NR: usize = 8;
/// `k`-panel depth: one packed A strip (`MR × KC` f64 = 8 KiB) stays L1
/// resident while the B panel streams.
const KC: usize = 256;
/// `j`-panel width: one packed B panel (`KC × NC` f64 = 1 MiB) stays L2
/// resident across all row strips.
const NC: usize = 512;

/// Builds a lane mask selecting the first `lanes` of 4 f64 lanes.
#[inline]
#[target_feature(enable = "avx2")]
fn lane_mask(lanes: usize) -> __m256i {
    let l = |i: usize| if i < lanes { -1_i64 } else { 0 };
    _mm256_setr_epi64x(l(0), l(1), l(2), l(3))
}

/// Loads an up-to-8-wide f64 row segment into two vectors (masked at the
/// edge; lanes past `nr` read as zero and are never dereferenced).
///
/// Safety: `p` must be valid for reads of `nr` f64 values.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load2(p: *const f64, nr: usize, ml: __m256i, mh: __m256i) -> (__m256d, __m256d) {
    if nr == NR {
        (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)))
    } else {
        let lo = _mm256_maskload_pd(p, ml);
        let hi = if nr > 4 {
            _mm256_maskload_pd(p.add(4), mh)
        } else {
            _mm256_setzero_pd()
        };
        (lo, hi)
    }
}

/// Stores an up-to-8-wide f64 row segment (masked at the edge).
///
/// Safety: `p` must be valid for writes of `nr` f64 values.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store2(p: *mut f64, nr: usize, ml: __m256i, mh: __m256i, v0: __m256d, v1: __m256d) {
    if nr == NR {
        _mm256_storeu_pd(p, v0);
        _mm256_storeu_pd(p.add(4), v1);
    } else {
        _mm256_maskstore_pd(p, ml, v0);
        if nr > 4 {
            _mm256_maskstore_pd(p.add(4), mh, v1);
        }
    }
}

/// `out += a · b` (both row-major, `b` is `k × n`).
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn gemm_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_driver(a, b, out, m, k, n, false, false);
}

/// `out += a · btᵀ` (`bt` is the transposed right factor, `n × k`).
/// The B packing performs the transpose, so the same microkernel runs.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn gemm_tn_acc(a: &[f64], bt: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_driver(a, bt, out, m, k, n, false, true);
}

/// `out += atᵀ · b` (`at` is the transposed left factor, `k × m`). The
/// A packing performs the transpose, so the same microkernel runs.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn gemm_at_acc(at: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_driver(at, b, out, m, k, n, true, false);
}

#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
fn gemm_driver(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    a_is_transposed: bool,
    b_is_transposed: bool,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let kc_cap = k.min(KC);
    let nc_cap = n.min(NC).div_ceil(NR) * NR;
    let mut bp = vec![0.0_f64; kc_cap * nc_cap];
    let mut ap = vec![0.0_f64; MR * kc_cap];
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        for j0 in (0..n).step_by(NC) {
            let nc = NC.min(n - j0);
            let strips = nc.div_ceil(NR);
            if b_is_transposed {
                pack_b_tn(b, &mut bp, k0, kc, j0, nc, k);
            } else {
                pack_b_nn(b, &mut bp, k0, kc, j0, nc, n);
            }
            for i0 in (0..m).step_by(MR) {
                let mr = MR.min(m - i0);
                if a_is_transposed {
                    pack_a_t(a, &mut ap, i0, mr, k0, kc, m);
                } else {
                    pack_a(a, &mut ap, i0, mr, k0, kc, k);
                }
                for s in 0..strips {
                    let j = j0 + s * NR;
                    let nr = NR.min(j0 + nc - j);
                    let strip = &bp[s * kc * NR..(s + 1) * kc * NR];
                    microkernel(&ap, strip, out, i0, mr, j, nr, n, kc);
                }
            }
        }
    }
}

/// Packs the `mr × kc` A strip at `(i0, k0)` as `ap[kk*MR + r]`,
/// zero-padding rows past `mr` (padded rows multiply to signed zeros
/// that are never stored).
fn pack_a(a: &[f64], ap: &mut [f64], i0: usize, mr: usize, k0: usize, kc: usize, k: usize) {
    for kk in 0..kc {
        for r in 0..MR {
            ap[kk * MR + r] = if r < mr {
                a[(i0 + r) * k + k0 + kk]
            } else {
                0.0
            };
        }
    }
}

/// As [`pack_a`] but gathers from a transposed (`k × m`) factor, whose
/// strip columns are contiguous — the pack performs the transpose.
fn pack_a_t(at: &[f64], ap: &mut [f64], i0: usize, mr: usize, k0: usize, kc: usize, m: usize) {
    for kk in 0..kc {
        let src = &at[(k0 + kk) * m + i0..];
        for r in 0..MR {
            ap[kk * MR + r] = if r < mr { src[r] } else { 0.0 };
        }
    }
}

/// Packs the `kc × nc` B panel at `(k0, j0)` into `NR`-wide strips,
/// `bp[s*kc*NR + kk*NR + jj]`, zero-padding columns past `nc`.
fn pack_b_nn(b: &[f64], bp: &mut [f64], k0: usize, kc: usize, j0: usize, nc: usize, n: usize) {
    let strips = nc.div_ceil(NR);
    for s in 0..strips {
        let dst = &mut bp[s * kc * NR..(s + 1) * kc * NR];
        let jw = NR.min(nc - s * NR);
        for kk in 0..kc {
            let src = &b[(k0 + kk) * n + j0 + s * NR..];
            for jj in 0..NR {
                dst[kk * NR + jj] = if jj < jw { src[jj] } else { 0.0 };
            }
        }
    }
}

/// As [`pack_b_nn`] but gathers from a transposed (`n × k`) factor —
/// the pack performs the transpose once per panel.
fn pack_b_tn(bt: &[f64], bp: &mut [f64], k0: usize, kc: usize, j0: usize, nc: usize, k: usize) {
    let strips = nc.div_ceil(NR);
    for s in 0..strips {
        let dst = &mut bp[s * kc * NR..(s + 1) * kc * NR];
        let jw = NR.min(nc - s * NR);
        for jj in 0..NR {
            if jj < jw {
                let src = &bt[(j0 + s * NR + jj) * k + k0..];
                for kk in 0..kc {
                    dst[kk * NR + jj] = src[kk];
                }
            } else {
                for kk in 0..kc {
                    dst[kk * NR + jj] = 0.0;
                }
            }
        }
    }
}

/// 4×8 f64 tile: the output block rides in 8 ymm accumulators as the
/// running total; each `k` step adds one separately-rounded product
/// (`add(mul)` — deliberately *not* FMA, to preserve the scalar arm's
/// rounding sequence).
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
fn microkernel(
    ap: &[f64],
    bp: &[f64],
    out: &mut [f64],
    i0: usize,
    mr: usize,
    j: usize,
    nr: usize,
    n: usize,
    kc: usize,
) {
    let ml = lane_mask(nr.min(4));
    let mh = lane_mask(nr.saturating_sub(4).min(4));
    let zero = _mm256_setzero_pd();
    let base = i0 * n + j;
    let po = out.as_ptr();
    // SAFETY: rows r < mr lie fully inside `out`; load2 touches only the
    // first `nr` columns of each row.
    let (mut c00, mut c01) = unsafe { load2(po.add(base), nr, ml, mh) };
    let (mut c10, mut c11) = if mr > 1 {
        unsafe { load2(po.add(base + n), nr, ml, mh) }
    } else {
        (zero, zero)
    };
    let (mut c20, mut c21) = if mr > 2 {
        unsafe { load2(po.add(base + 2 * n), nr, ml, mh) }
    } else {
        (zero, zero)
    };
    let (mut c30, mut c31) = if mr > 3 {
        unsafe { load2(po.add(base + 3 * n), nr, ml, mh) }
    } else {
        (zero, zero)
    };

    let bpp = bp.as_ptr();
    for (kk, a4) in ap.chunks_exact(MR).take(kc).enumerate() {
        // SAFETY: the packed strip holds kc * NR elements.
        let b0 = unsafe { _mm256_loadu_pd(bpp.add(kk * NR)) };
        let b1 = unsafe { _mm256_loadu_pd(bpp.add(kk * NR + 4)) };
        let a0 = _mm256_set1_pd(a4[0]);
        c00 = _mm256_add_pd(c00, _mm256_mul_pd(a0, b0));
        c01 = _mm256_add_pd(c01, _mm256_mul_pd(a0, b1));
        let a1 = _mm256_set1_pd(a4[1]);
        c10 = _mm256_add_pd(c10, _mm256_mul_pd(a1, b0));
        c11 = _mm256_add_pd(c11, _mm256_mul_pd(a1, b1));
        let a2 = _mm256_set1_pd(a4[2]);
        c20 = _mm256_add_pd(c20, _mm256_mul_pd(a2, b0));
        c21 = _mm256_add_pd(c21, _mm256_mul_pd(a2, b1));
        let a3 = _mm256_set1_pd(a4[3]);
        c30 = _mm256_add_pd(c30, _mm256_mul_pd(a3, b0));
        c31 = _mm256_add_pd(c31, _mm256_mul_pd(a3, b1));
    }

    let pm = out.as_mut_ptr();
    // SAFETY: same bounds as the loads above.
    unsafe { store2(pm.add(base), nr, ml, mh, c00, c01) };
    if mr > 1 {
        unsafe { store2(pm.add(base + n), nr, ml, mh, c10, c11) };
    }
    if mr > 2 {
        unsafe { store2(pm.add(base + 2 * n), nr, ml, mh, c20, c21) };
    }
    if mr > 3 {
        unsafe { store2(pm.add(base + 3 * n), nr, ml, mh, c30, c31) };
    }
}

// ----------------------------------------------------------------------
// Vector kernels
// ----------------------------------------------------------------------

/// Lane-parallel dot: 4 running lane sums, combined pairwise at the end,
/// scalar tail. Reassociates the reduction, hence the documented ULP
/// bound instead of bit-equality.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn dot(a: &[f64], b: &[f64]) -> f64 {
    let chunks = a.len() / 4;
    let mut acc = _mm256_setzero_pd();
    let (pa, pb) = (a.as_ptr(), b.as_ptr());
    for c in 0..chunks {
        // SAFETY: c*4 + 4 <= len by construction.
        let (av, bv) = unsafe {
            (
                _mm256_loadu_pd(pa.add(c * 4)),
                _mm256_loadu_pd(pb.add(c * 4)),
            )
        };
        acc = _mm256_add_pd(acc, _mm256_mul_pd(av, bv));
    }
    let lo = _mm256_castpd256_pd128(acc);
    let hi = _mm256_extractf128_pd::<1>(acc);
    let s2 = _mm_add_pd(lo, hi);
    let s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
    let mut total = _mm_cvtsd_f64(s1);
    for i in chunks * 4..a.len() {
        total += a[i] * b[i];
    }
    total
}

/// `y ← y + alpha·x`; elementwise `add(mul)` matches the scalar arm
/// bit-for-bit.
#[target_feature(enable = "avx2", enable = "fma")]
pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    let chunks = y.len() / 4;
    let av = _mm256_set1_pd(alpha);
    let px = x.as_ptr();
    let py = y.as_mut_ptr();
    for c in 0..chunks {
        // SAFETY: c*4 + 4 <= len by construction.
        unsafe {
            let xv = _mm256_loadu_pd(px.add(c * 4));
            let yv = _mm256_loadu_pd(py.add(c * 4));
            _mm256_storeu_pd(py.add(c * 4), _mm256_add_pd(yv, _mm256_mul_pd(av, xv)));
        }
    }
    for i in chunks * 4..y.len() {
        y[i] += alpha * x[i];
    }
}

macro_rules! elementwise {
    ($name:ident, $vop:ident, $sop:tt) => {
        #[target_feature(enable = "avx2")]
        pub(super) fn $name(a: &[f64], b: &[f64], out: &mut [f64]) {
            let chunks = out.len() / 4;
            let (pa, pb) = (a.as_ptr(), b.as_ptr());
            let po = out.as_mut_ptr();
            for c in 0..chunks {
                // SAFETY: c*4 + 4 <= len by construction.
                unsafe {
                    let av = _mm256_loadu_pd(pa.add(c * 4));
                    let bv = _mm256_loadu_pd(pb.add(c * 4));
                    _mm256_storeu_pd(po.add(c * 4), $vop(av, bv));
                }
            }
            for i in chunks * 4..out.len() {
                out[i] = a[i] $sop b[i];
            }
        }
    };
}

elementwise!(vadd, _mm256_add_pd, +);
elementwise!(vsub, _mm256_sub_pd, -);
elementwise!(vmul, _mm256_mul_pd, *);

/// `out = a · s`; elementwise, bit-identical to the scalar arm.
#[target_feature(enable = "avx2")]
pub(super) fn vscale(a: &[f64], s: f64, out: &mut [f64]) {
    let chunks = out.len() / 4;
    let sv = _mm256_set1_pd(s);
    let pa = a.as_ptr();
    let po = out.as_mut_ptr();
    for c in 0..chunks {
        // SAFETY: c*4 + 4 <= len by construction.
        unsafe {
            let av = _mm256_loadu_pd(pa.add(c * 4));
            _mm256_storeu_pd(po.add(c * 4), _mm256_mul_pd(av, sv));
        }
    }
    for i in chunks * 4..out.len() {
        out[i] = a[i] * s;
    }
}
