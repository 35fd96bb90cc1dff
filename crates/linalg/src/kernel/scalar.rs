//! Portable scalar arm — the reference semantics every other backend
//! must reproduce bit for bit.
//!
//! These loops are byte-for-byte the pre-kernel-layer implementations
//! that used to live in `Matrix`/`vecops`, so routing through the
//! dispatch changed nothing for `FIA_FORCE_SCALAR=1` runs.

/// `k`-block width the scalar gemm switches to once the working set
/// outgrows L1/L2 — same cutover the old `Matrix::matmul` used.
const SCALAR_KC: usize = 64;
const SCALAR_CUTOVER: usize = 64 * 1024;

/// `out += a · b`, row-major. Accumulates `k`-ascending per output
/// element (blocked and plain orderings agree bit-for-bit).
pub(super) fn gemm_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_rows(|i, kk| a[i * k + kk], b, out, m, k, n);
}

/// `out += atᵀ · b` with the left factor stored transposed (`at` is
/// `k × m`): the same row kernel as [`gemm_acc`], reading `a[i][kk]` as
/// `at[kk][i]`, so the per-element order (and the zero skip) is exactly
/// that of transposing `at` first and calling [`gemm_acc`].
pub(super) fn gemm_at_acc(at: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_rows(|i, kk| at[kk * m + i], b, out, m, k, n);
}

/// `out += a · btᵀ` with `bt` stored `n × k`. A per-element row-dot is a
/// sequential fold that does not vectorize, so this arm transposes `bt`
/// once and runs the [`gemm_acc`] row kernel, whose inner loop does. The
/// accumulation is the same `k`-ascending sequence seeded from `out`;
/// the row kernel's zero skip can only change the sign of an exact zero.
pub(super) fn gemm_tn_acc(a: &[f64], bt: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    let mut b = vec![0.0; k * n];
    for (j, bt_row) in bt.chunks_exact(k.max(1)).enumerate() {
        for (kk, &v) in bt_row.iter().enumerate() {
            b[kk * n + j] = v;
        }
    }
    gemm_acc(a, &b, out, m, k, n);
}

/// The ikj loop nest behind every f64 product on this arm; `a(i, kk)`
/// reads the left factor in whatever layout the caller stores it.
/// Switches to `k`-blocking once the working set outgrows the caches.
#[inline(always)]
fn gemm_rows(
    a: impl Fn(usize, usize) -> f64,
    b: &[f64],
    out: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    let kc = if m * k + k * n > SCALAR_CUTOVER {
        SCALAR_KC
    } else {
        k.max(1)
    };
    for k0 in (0..k).step_by(kc) {
        let k1 = (k0 + kc).min(k);
        for (i, o_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
            for kk in k0..k1 {
                let a_ik = a(i, kk);
                if a_ik == 0.0 {
                    continue;
                }
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in o_row.iter_mut().zip(b_row.iter()) {
                    *o += a_ik * bv;
                }
            }
        }
    }
}

/// `y ← y + alpha·x`.
#[inline]
pub(super) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

pub(super) fn vadd(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x + y;
    }
}

pub(super) fn vsub(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x - y;
    }
}

pub(super) fn vmul(a: &[f64], b: &[f64], out: &mut [f64]) {
    for ((o, &x), &y) in out.iter_mut().zip(a.iter()).zip(b.iter()) {
        *o = x * y;
    }
}

pub(super) fn vscale(a: &[f64], s: f64, out: &mut [f64]) {
    for (o, &x) in out.iter_mut().zip(a.iter()) {
        *o = x * s;
    }
}
