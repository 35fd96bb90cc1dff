//! x86-64 AVX2 arm.
//!
//! Each product takes one of two paths, chosen by its output width:
//!
//! 1. **Narrow** — an output at most [`NARROW_N`] = 4 columns wide.
//! 2. **Tiled** — anything wider: GEBP blocks swept by one 4×8 tile.
//!    A product that fits one block reads what it can in place instead
//!    of packing it (the pack-free single-panel case).
//!
//! **Narrow path** (no packing, no allocation). Each ymm holds four
//! consecutive output rows of one column. The left factor is read where
//! it lies: a row-major A becomes 4-row column vectors four `k` steps at
//! a time through a 4×4 register transpose, and the transposed factor of
//! [`gemm_at_acc`] already stores those vectors contiguously. Each `k`
//! step broadcasts one element of B per output column. Up to four 4-row
//! blocks are in flight at once, so their add chains overlap. In the
//! last block, rows past `m` re-read the last row of A and are never
//! stored.
//!
//! **Tiled path.** The product runs in GEBP blocks of `KC` steps of `k`
//! by `NC` columns. In each block a register-blocked 4×8 tile sweeps
//! every `MR`-row strip of A against every `NR`-column strip of B, with
//! the output block held in ymm registers; edge columns use
//! `maskload`/`maskstore`, so edge tiles never touch memory outside the
//! output buffer. The tile broadcasts A from four row pointers and loads
//! B from one, each advancing by its own stride per `k` step, so each
//! operand is read either in place or from a packed copy:
//!
//! - In a product that spans several blocks, every A strip and B panel
//!   is packed (zero-padded at the edges) into one per-thread scratch
//!   buffer. It grows to the largest panel the thread has packed, at
//!   most `KC×NC + MR×KC` f64 (about 1 MiB), and is never zeroed
//!   between products: the packers write every slot the tile reads.
//! - A product that fits one block (`k ≤ KC`, `n ≤ NC`) reads a
//!   row-major A in place, rows past `m` clamped to the last row and
//!   never stored. It reads a transposed A (of [`gemm_at_acc`], four
//!   adjacent values per `k`) in place only while [`at_in_place`]
//!   holds, and a row-major B of at most [`B_IN_PLACE_MAX`] values in
//!   place with masked loads at the right edge. It packs any other
//!   operand once, the transposed B of [`gemm_tn_acc`] included. Every
//!   GRNA training product is such a product, with nothing packed but
//!   `gemm_tn_acc`'s B.
//!
//! Ordering contract (see the module docs on [`super`]): every path
//! keeps each output element in a register as the running total. It
//! loads `out`, adds one separately-rounded `a·b` product per `k` step
//! in ascending order, and stores at the end (the tiled path at each
//! block boundary; store/reload is exact). That is precisely the scalar
//! arm's per-element accumulation sequence, so f64 results match the
//! scalar arm bit-for-bit (up to the sign of exact zeros: the scalar arm
//! skips `a_ik == 0` terms, this arm adds the signed-zero product). No
//! kernel fuses a multiply and an add or reduces across lanes, so the
//! arm needs AVX2 alone.

#![allow(unsafe_op_in_unsafe_fn)]

use core::arch::x86_64::*;
use std::cell::Cell;

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
/// Widest output the narrow path serves: half the tile width, below
/// which that tile would run with most of its lanes masked off.
const NARROW_N: usize = NR / 2;
/// Largest row-major B, in f64 values (64 KiB), that a one-block product
/// reads in place. Every A strip re-reads all of B; up to about this
/// size B stays cache resident, so packing it only adds a copy, and
/// beyond it its rows, `n` values apart, stream worse than a panel.
const B_IN_PLACE_MAX: usize = 8192;

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
#[target_feature(enable = "avx2")]
pub(super) fn gemm_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    if n <= NARROW_N {
        narrow::<false>(&Narrow::new(a, b, m, k, n, n, 1), out);
    } else {
        gemm_driver(a, b, out, m, k, n, false, false);
    }
}

/// `out += a · btᵀ` (`bt` is the transposed right factor, `n × k`).
/// The narrow path broadcasts from `bt` directly; the tiled path
/// transposes `bt` in the B packing, so the same tile runs.
#[target_feature(enable = "avx2")]
pub(super) fn gemm_tn_acc(a: &[f64], bt: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    if n <= NARROW_N {
        narrow::<false>(&Narrow::new(a, bt, m, k, n, 1, k), out);
    } else {
        gemm_driver(a, bt, out, m, k, n, false, true);
    }
}

/// `out += atᵀ · b` (`at` is the transposed left factor, `k × m`). The
/// narrow path, and a one-block product while [`at_in_place`] holds,
/// read `at`'s rows as output-row values in place; otherwise the A
/// packing performs the transpose, so the same tile runs.
#[target_feature(enable = "avx2")]
pub(super) fn gemm_at_acc(at: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    if n <= NARROW_N {
        narrow::<true>(&Narrow::new(at, b, m, k, n, n, 1), out);
    } else {
        gemm_driver(at, b, out, m, k, n, true, false);
    }
}

// ----------------------------------------------------------------------
// Narrow path
// ----------------------------------------------------------------------

/// One narrow product's operands. A is `m × k` row-major, or `k × m`
/// when the path runs with `AT`; `B(kk, j)` is `b[kk * bk + j * bj]`.
struct Narrow<'a> {
    a: &'a [f64],
    b: &'a [f64],
    m: usize,
    k: usize,
    n: usize,
    bk: usize,
    bj: usize,
}

impl<'a> Narrow<'a> {
    /// # Panics
    /// Panics unless `a` holds `m·k` and `b` holds `k·n` values, the
    /// bounds every read of the narrow path relies on.
    fn new(a: &'a [f64], b: &'a [f64], m: usize, k: usize, n: usize, bk: usize, bj: usize) -> Self {
        assert!(
            a.len() == m * k && b.len() == k * n,
            "gemm: operand/shape mismatch"
        );
        Narrow {
            a,
            b,
            m,
            k,
            n,
            bk,
            bj,
        }
    }
}

/// `out += A · B` for an output `n ≤ NARROW_N` columns wide: groups of
/// `G` 4-row blocks, then single blocks for the rows left over. `G × N`
/// stays at 8 or below, so the accumulators fit in registers next to
/// the A vectors.
#[target_feature(enable = "avx2")]
fn narrow<const AT: bool>(p: &Narrow, out: &mut [f64]) {
    assert_eq!(out.len(), p.m * p.n, "gemm: output buffer/shape mismatch");
    match p.n {
        0 => {}
        1 => narrow_rows::<AT, 4, 1>(p, out),
        2 => narrow_rows::<AT, 4, 2>(p, out),
        3 => narrow_rows::<AT, 2, 3>(p, out),
        4 => narrow_rows::<AT, 2, 4>(p, out),
        _ => unreachable!("outputs wider than NARROW_N take the tiled path"),
    }
}

#[target_feature(enable = "avx2")]
fn narrow_rows<const AT: bool, const G: usize, const N: usize>(p: &Narrow, out: &mut [f64]) {
    let mut i0 = 0;
    while i0 + 4 * G <= p.m {
        narrow_blocks::<AT, G, N>(p, out, i0);
        i0 += 4 * G;
    }
    while i0 < p.m {
        narrow_blocks::<AT, 1, N>(p, out, i0);
        i0 += 4;
    }
}

/// Output rows `i0 .. i0 + 4·G` (those below `m`) of all `N` columns:
/// `G × N` ymm accumulators, each seeded from `out` and stored back
/// once, after the last `k` step.
#[target_feature(enable = "avx2")]
fn narrow_blocks<const AT: bool, const G: usize, const N: usize>(
    p: &Narrow,
    out: &mut [f64],
    i0: usize,
) {
    let (m, k) = (p.m, p.k);
    let (pa, pb, po) = (p.a.as_ptr(), p.b.as_ptr(), out.as_mut_ptr());
    let (bk, bj) = (p.bk, p.bj);
    let mut acc = [[_mm256_setzero_pd(); N]; G];
    for (g, acc_g) in acc.iter_mut().enumerate() {
        for (j, c) in acc_g.iter_mut().enumerate() {
            // SAFETY: `out` holds `m × N` values (asserted in `narrow`)
            // and `load_col` reads only rows below `m`.
            *c = unsafe { load_col::<N>(po, i0 + 4 * g, m, j) };
        }
    }
    if AT {
        // Row `kk` of the `k × m` factor holds `A(i, kk)` for every `i`
        // contiguously; lanes past `m` are masked off.
        let full = i0 + 4 * G <= m;
        let masks: [__m256i; G] =
            core::array::from_fn(|g| lane_mask(m.saturating_sub(i0 + 4 * g).min(4)));
        for kk in 0..k {
            for (g, acc_g) in acc.iter_mut().enumerate() {
                // SAFETY: `a` holds `k × m` values (asserted in
                // `Narrow::new`) and `kk < k`; an unmasked load reads
                // rows `i0 + 4g .. + 4 ≤ m`, a masked one only rows
                // below `m`. `b` holds `k × n` values and `kk < k`.
                unsafe {
                    let src = pa.wrapping_add(kk * m + i0 + 4 * g);
                    let av = if full {
                        _mm256_loadu_pd(src)
                    } else {
                        _mm256_maskload_pd(src, masks[g])
                    };
                    step(acc_g, av, pb.add(kk * bk), bj);
                }
            }
        }
    } else {
        // Rows past `m` (last block only) re-read row `m - 1`: their
        // lanes compute values `store_col` never writes.
        let rows: [[*const f64; 4]; G] = core::array::from_fn(|g| {
            core::array::from_fn(|r| pa.wrapping_add((i0 + 4 * g + r).min(m - 1) * k))
        });
        let mut kk = 0;
        while kk + 4 <= k {
            for (acc_g, rows_g) in acc.iter_mut().zip(&rows) {
                // SAFETY: every row pointer starts one of A's `m` rows of
                // `k` values, and `kk + 4 ≤ k`. `b` holds `k × n` values
                // and `kk + t < k`.
                unsafe {
                    let cols = transpose4(rows_g, kk);
                    for (t, &av) in cols.iter().enumerate() {
                        step(acc_g, av, pb.add((kk + t) * bk), bj);
                    }
                }
            }
            kk += 4;
        }
        while kk < k {
            for (acc_g, r) in acc.iter_mut().zip(&rows) {
                // SAFETY: as above, with `kk < k`.
                unsafe {
                    let av =
                        _mm256_setr_pd(*r[0].add(kk), *r[1].add(kk), *r[2].add(kk), *r[3].add(kk));
                    step(acc_g, av, pb.add(kk * bk), bj);
                }
            }
            kk += 1;
        }
    }
    for (g, acc_g) in acc.iter().enumerate() {
        for (j, &c) in acc_g.iter().enumerate() {
            // SAFETY: as for the loads above.
            unsafe { store_col::<N>(po, i0 + 4 * g, m, j, c) };
        }
    }
}

/// One `k` step of a block: `acc[j] += a · B(kk, j)` for each column,
/// where `bkk` points at `B(kk, 0)` and columns lie `bj` apart.
///
/// # Safety
/// `bkk.add(j * bj)` must be valid for a read for every `j < N`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn step<const N: usize>(acc: &mut [__m256d; N], a: __m256d, bkk: *const f64, bj: usize) {
    for (j, c) in acc.iter_mut().enumerate() {
        *c = _mm256_add_pd(*c, _mm256_mul_pd(a, _mm256_set1_pd(*bkk.add(j * bj))));
    }
}

/// Columns `kk .. kk + 4` of the four rows starting at `r`, as four
/// vectors: vector `t` holds `[r0[kk+t], r1[kk+t], r2[kk+t], r3[kk+t]]`.
/// Rows 0 and 2 (and 1 and 3) share a register, one per 128-bit half,
/// so a single unpack per vector finishes the transpose.
///
/// # Safety
/// Each `r[i]` must be valid for reads of `kk + 4` f64 values.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose4(r: &[*const f64; 4], kk: usize) -> [__m256d; 4] {
    let lo02 = _mm256_loadu2_m128d(r[2].add(kk), r[0].add(kk));
    let lo13 = _mm256_loadu2_m128d(r[3].add(kk), r[1].add(kk));
    let hi02 = _mm256_loadu2_m128d(r[2].add(kk + 2), r[0].add(kk + 2));
    let hi13 = _mm256_loadu2_m128d(r[3].add(kk + 2), r[1].add(kk + 2));
    [
        _mm256_unpacklo_pd(lo02, lo13),
        _mm256_unpackhi_pd(lo02, lo13),
        _mm256_unpacklo_pd(hi02, hi13),
        _mm256_unpackhi_pd(hi02, hi13),
    ]
}

/// Output rows `i .. i + 4` of column `j` in an `N`-column `out`; lanes
/// for rows at or past `m` read zero.
///
/// # Safety
/// `po` must be valid for reads of `m × N` values, `i < m` and `j < N`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_col<const N: usize>(po: *const f64, i: usize, m: usize, j: usize) -> __m256d {
    if i + 4 <= m {
        let p = po.add(i * N + j);
        return if N == 1 {
            _mm256_loadu_pd(p)
        } else {
            _mm256_setr_pd(*p, *p.add(N), *p.add(2 * N), *p.add(3 * N))
        };
    }
    let mut lanes = [0.0; 4];
    for (r, l) in lanes.iter_mut().enumerate().take(m - i) {
        *l = *po.add((i + r) * N + j);
    }
    _mm256_loadu_pd(lanes.as_ptr())
}

/// Writes the lanes of `v` for rows below `m` back to column `j`; see
/// [`load_col`].
///
/// # Safety
/// `po` must be valid for writes of `m × N` values, `i < m` and `j < N`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_col<const N: usize>(po: *mut f64, i: usize, m: usize, j: usize, v: __m256d) {
    if N == 1 && i + 4 <= m {
        _mm256_storeu_pd(po.add(i), v);
        return;
    }
    let mut lanes = [0.0; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), v);
    for (r, &l) in lanes.iter().enumerate().take(m.min(i + 4) - i) {
        *po.add((i + r) * N + j) = l;
    }
}

// ----------------------------------------------------------------------
// Tiled path
// ----------------------------------------------------------------------

thread_local! {
    /// This thread's packing scratch: the B panel, then the A strip.
    static PANELS: Cell<Vec<f64>> = const { Cell::new(Vec::new()) };
}

/// `out += A · B` for an output wider than [`NARROW_N`]: GEBP blocks of
/// `KC` steps of `k` by `NC` columns, each swept by the 4×8 [`tile`]
/// one 4-row strip at a time. A is `m × k` row-major, or `k × m` with
/// `a_is_transposed`; B is `k × n` row-major, or `n × k` with
/// `b_is_transposed`.
///
/// A product that fits one block (`k ≤ KC`, `n ≤ NC`) reads in place
/// instead of packing: a row-major A, a transposed A while
/// [`at_in_place`] holds, and a row-major B of at most
/// [`B_IN_PLACE_MAX`] values. A strip's rows past `m` re-read row
/// `m − 1` and are never stored.
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
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
    assert!(
        a.len() == m * k && b.len() == k * n && out.len() == m * n,
        "gemm: operand/shape mismatch"
    );
    let one_block = k <= KC && n <= NC;
    let a_in_place = one_block && (!a_is_transposed || at_in_place(m, n));
    let b_in_place = one_block && !b_is_transposed && k * n <= B_IN_PLACE_MAX;
    let kc_cap = k.min(KC);
    let b_len = if b_in_place {
        0
    } else {
        kc_cap * n.min(NC).div_ceil(NR) * NR
    };
    let a_len = if a_in_place { 0 } else { MR * kc_cap };
    // Taken out of the thread-local rather than borrowed, so a product
    // that started inside this one would pack into a buffer of its own.
    let mut panels = PANELS.take();
    if panels.len() < b_len + a_len {
        // Grows, never shrinks, and is not cleared: the packers write
        // every slot the tile reads, so what an earlier product left
        // behind is never read.
        panels.resize(b_len + a_len, 0.0);
    }
    let (bp, ap) = panels.split_at_mut(b_len);
    let (pa, pb, po) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    for k0 in (0..k).step_by(KC) {
        let kc = KC.min(k - k0);
        for j0 in (0..n).step_by(NC) {
            let nc = NC.min(n - j0);
            // `B(k0 + kk, j0 + s·NR + jj)` is `b_blk[s·b_strip + kk·b_step
            // + jj]`: B itself, or its packed panel.
            let (b_blk, b_strip, b_step) = if b_in_place {
                (pb.wrapping_add(k0 * n + j0), NR, n)
            } else {
                if b_is_transposed {
                    pack_b_tn(b, bp, k0, kc, j0, nc, k);
                } else {
                    pack_b_nn(b, bp, k0, kc, j0, nc, n);
                }
                (bp.as_ptr(), kc * NR, NR)
            };
            for i0 in (0..m).step_by(MR) {
                let mr = MR.min(m - i0);
                // `A(i0 + r, k0 + kk)` is `rows[r][kk·a_step]`.
                let (rows, a_step): ([*const f64; MR], usize) = if a_in_place {
                    let row = |r: usize| (i0 + r).min(m - 1);
                    if a_is_transposed {
                        (
                            core::array::from_fn(|r| pa.wrapping_add(k0 * m + row(r))),
                            m,
                        )
                    } else {
                        (
                            core::array::from_fn(|r| pa.wrapping_add(row(r) * k + k0)),
                            1,
                        )
                    }
                } else {
                    if a_is_transposed {
                        pack_a_t(a, ap, i0, mr, k0, kc, m);
                    } else {
                        pack_a(a, ap, i0, mr, k0, kc, k);
                    }
                    (core::array::from_fn(|r| ap.as_ptr().wrapping_add(r)), MR)
                };
                for s in 0..nc.div_ceil(NR) {
                    let j = j0 + s * NR;
                    let nr = NR.min(j0 + nc - j);
                    let (bs, os) = (b_blk.wrapping_add(s * b_strip), po.wrapping_add(i0 * n + j));
                    // SAFETY: A, B and `out` hold `m·k`, `k·n` and `m·n`
                    // values (asserted above). An in-place row pointer
                    // starts at A's element `(i, k0)` for some `i < m`
                    // (`(k0, i)` when transposed), so `kk < kc` steps of
                    // `a_step` stay inside A; a packed strip holds
                    // `kc × MR` values. In-place B reads rows `k0 .. k0 +
                    // kc ≤ k`, columns `j .. j + nr ≤ n`; a packed panel
                    // holds `kc × NR` values per strip. The tile loads
                    // and stores rows `i0 .. i0 + mr ≤ m` of `out`,
                    // columns `j .. j + nr ≤ n`.
                    unsafe {
                        if nr == NR {
                            tile::<true>(&rows, a_step, bs, b_step, kc, os, n, mr, nr);
                        } else {
                            tile::<false>(&rows, a_step, bs, b_step, kc, os, n, mr, nr);
                        }
                    }
                }
            }
        }
    }
    PANELS.set(panels);
}

/// `true` when a one-block `gemm_at_acc` reads its transposed A in
/// place: at most four B strips (`n ≤ 32`), or an output of at most
/// 16384 values. Each B strip re-reads the A strip from rows `m` values
/// apart, so the more strips, and the longer the strided rows, the more
/// packing the strip once saves. Best-of-6 alternated timings on a
/// 2-vCPU AVX2 VM put the crossover there: reading in place won by
/// 39–59% at `(m, k, n)` = (129, 64, 9), (512, 64, 32) and
/// (1024, 64, 32), and by 5–23% at (96, 64, 48), (96, 128, 104) and
/// (128, 64, 128); packing won by 12–57% at (128, 64, 136),
/// (128, 64, 256), (256, 128, 128), (512, 256, 64) and (1024, 64, 128).
fn at_in_place(m: usize, n: usize) -> bool {
    n <= 4 * NR || m * n <= 16384
}

/// One 4×8 tile: the output block rides in 8 ymm accumulators as the
/// running total, and each `k` step adds one separately-rounded product
/// (`add(mul)` — deliberately *not* FMA, to preserve the scalar arm's
/// rounding sequence), with A broadcast from `rows[r] + kk·a_step` and
/// B loaded from `b + kk·b_step`. `FULL` means `nr == NR`; a narrower
/// tile loads and stores with lane masks.
///
/// # Safety
/// `rows[r].add(kk * a_step)` must be readable for `r < MR`, `kk < k`;
/// `b.add(kk * b_step)` for `nr` values; `out.add(r * n)` readable and
/// writable for `nr` values for `r < mr`.
#[allow(clippy::too_many_arguments)]
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn tile<const FULL: bool>(
    rows: &[*const f64; MR],
    a_step: usize,
    b: *const f64,
    b_step: usize,
    k: usize,
    out: *mut f64,
    n: usize,
    mr: usize,
    nr: usize,
) {
    let ml = lane_mask(nr.min(4));
    let mh = lane_mask(nr.saturating_sub(4).min(4));
    let load = |p: *const f64| {
        if FULL {
            (_mm256_loadu_pd(p), _mm256_loadu_pd(p.add(4)))
        } else {
            load2(p, nr, ml, mh)
        }
    };
    let mut c = [[_mm256_setzero_pd(); 2]; MR];
    for (r, cr) in c.iter_mut().enumerate().take(mr) {
        let (lo, hi) = load(out.add(r * n));
        *cr = [lo, hi];
    }
    for kk in 0..k {
        let (b0, b1) = load(b.add(kk * b_step));
        let off = kk * a_step;
        for (cr, ar) in c.iter_mut().zip(*rows) {
            let av = _mm256_broadcast_sd(&*ar.add(off));
            cr[0] = _mm256_add_pd(cr[0], _mm256_mul_pd(av, b0));
            cr[1] = _mm256_add_pd(cr[1], _mm256_mul_pd(av, b1));
        }
    }
    for (r, cr) in c.iter().enumerate().take(mr) {
        store2(out.add(r * n), nr, ml, mh, cr[0], cr[1]);
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

// ----------------------------------------------------------------------
// Vector kernels
// ----------------------------------------------------------------------

/// `y ← y + alpha·x`; elementwise `add(mul)` matches the scalar arm
/// bit-for-bit.
#[target_feature(enable = "avx2")]
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
