//! Runtime-dispatched compute microkernels.
//!
//! Every dense hot loop in the workspace — the matmul family behind the
//! ESA solve and `pinv`, the served model's `predict_proba`, the
//! `fia-tensor` tape that dominates GRNA wall-clock, and the `vecops`
//! helpers — bottoms out here. The module holds two backend arms:
//!
//! * [`Backend::Scalar`] — portable Rust loops, byte-for-byte the
//!   pre-kernel-layer semantics. Always available.
//! * [`Backend::Avx2`] — explicit `std::arch` x86-64 AVX2 microkernels,
//!   on one of three paths chosen by shape alone:
//!   - **narrow**: an output at most 4 columns wide (`n ≤ 4`, half the
//!     tile width) packs nothing: four output rows of one column per
//!     register, A read in place, one element of B broadcast per `k`
//!     step. Logistic regression's one-column weights make every fit
//!     step, one-row prediction and ESA solve such a product.
//!   - **single panel**: a wider product that fits one GEBP block
//!     (`k ≤ 256`, `n ≤ 512`) runs the 4×8 tile on operands it reads in
//!     place where that pays: a row-major A always, the transposed A of
//!     [`gemm_at_acc`] while `n ≤ 32` or `m·n ≤ 16384`, and a row-major
//!     B of at most 8192 values. It packs any other operand once. Every
//!     GRNA training product is such a product.
//!   - **GEBP**: anything else packs A strips and B panels for the same
//!     tile, block by block, with masked edges.
//!
//!   The last two share one driver and differ only in what they pack.
//!   Packing panels live in one per-thread buffer that grows to the
//!   largest panel the thread has packed (at most about 1 MiB) and is
//!   reused without clearing.
//!
//! The arm is chosen **once** per process via
//! `is_x86_feature_detected!` (see [`detected_backend`]); setting
//! `FIA_FORCE_SCALAR=1` in the environment pins the scalar arm, which is
//! how CI keeps the fallback green on hosts whose feature set differs
//! from the dev machine. Tests and benches can additionally pin a
//! backend for the current thread with [`with_backend`] — the override
//! nests and is restored on unwind.
//!
//! # Numerical contract
//!
//! Every kernel (`gemm*`, [`axpy`], the elementwise `v*` family)
//! preserves the scalar arm's accumulation order *exactly*: every output
//! element accumulates its `k` contributions in ascending order with a
//! separately rounded multiply and add (no FMA contraction), and no
//! kernel reduces across lanes. Both arms therefore produce
//! **bit-identical** results — attack outputs do not depend on which
//! backend ran, and `FIA_FORCE_SCALAR=1` is a pure performance switch.
//! The AVX2 arm's narrow path keeps the contract the same way its tile
//! does, on every path: each lane is one output element, seeded from
//! `out` and advanced by one `add(mul)` per `k` in ascending order.

mod scalar;
mod telemetry;

#[cfg(target_arch = "x86_64")]
mod avx2;

use std::cell::Cell;
use std::sync::OnceLock;

/// A compute backend arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar loops — the reference semantics.
    Scalar,
    /// x86-64 AVX2 microkernels (runtime-detected).
    Avx2,
}

impl Backend {
    /// Stable lowercase identifier (`"scalar"` / `"avx2"`), used in
    /// bench JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
        }
    }
}

/// `true` when the running CPU has AVX2, which the AVX2 arm requires
/// (independent of any `FIA_FORCE_SCALAR` override).
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The process-wide backend: `FIA_FORCE_SCALAR=1` pins the scalar arm,
/// otherwise the best arm the CPU supports. Detected once and cached —
/// changing the environment variable after the first kernel call has no
/// effect.
pub fn detected_backend() -> Backend {
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let forced = std::env::var("FIA_FORCE_SCALAR")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        if !forced && avx2_available() {
            Backend::Avx2
        } else {
            Backend::Scalar
        }
    })
}

thread_local! {
    static OVERRIDE: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// The backend the *current thread* dispatches to: a [`with_backend`]
/// override if one is active, else [`detected_backend`].
pub fn active_backend() -> Backend {
    OVERRIDE.with(|o| o.get()).unwrap_or_else(detected_backend)
}

/// Runs `f` with every dispatched kernel on the current thread pinned to
/// `backend` — the hook parity tests and benches use to compare arms in
/// one process. The override nests, is restored on unwind, and does not
/// propagate to spawned threads.
///
/// # Panics
/// Panics if `backend` is [`Backend::Avx2`] on a host without AVX2.
pub fn with_backend<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    assert!(
        backend != Backend::Avx2 || avx2_available(),
        "with_backend: AVX2 arm requested but host lacks avx2"
    );
    struct Restore(Option<Backend>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(backend))));
    f()
}

// ----------------------------------------------------------------------
// f64 matmul family
// ----------------------------------------------------------------------

/// `out += a · b` for row-major `a` (`m × k`), `b` (`k × n`), `out`
/// (`m × n`) — the kernel behind [`crate::Matrix::matmul`].
/// Accumulation is `k`-ascending per output element on both arms (see
/// the module docs), so the arms agree bitwise.
pub fn gemm_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    check_gemm_shapes(a.len(), b.len(), out.len(), m, k, n);
    let backend = resolve(active_backend());
    telemetry::record_gemm(backend, m, k, n, || match backend {
        Backend::Scalar => scalar::gemm_acc(a, b, out, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::gemm_acc(a, b, out, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("resolve() never yields Avx2 off x86-64"),
    });
}

/// `out += a · btᵀ` for row-major `a` (`m × k`), `bt` (`n × k`, the
/// already-transposed right factor), `out` (`m × n`) — the kernel behind
/// [`crate::Matrix::matmul_transposed`] (the batched ESA solve and the
/// tape's `g · Bᵀ` gradient). The AVX2 arm packs `bt` into column panels
/// (the packing performs the transpose), or for an output at most 4
/// columns wide broadcasts from `bt` in place; the scalar arm transposes
/// `bt` once so its vectorizable row kernel runs. Both keep the
/// `k`-ascending per-element order, so the arms agree bitwise.
pub fn gemm_tn_acc(a: &[f64], bt: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    check_gemm_shapes(a.len(), bt.len(), out.len(), m, k, n);
    let backend = resolve(active_backend());
    telemetry::record_gemm(backend, m, k, n, || match backend {
        Backend::Scalar => scalar::gemm_tn_acc(a, bt, out, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::gemm_tn_acc(a, bt, out, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("resolve() never yields Avx2 off x86-64"),
    });
}

/// `out += atᵀ · b` for row-major `at` (`k × m`, the already-transposed
/// left factor), `b` (`k × n`), `out` (`m × n`) — the kernel behind
/// [`crate::Matrix::transpose_matmul`] (the tape's `Aᵀ · g` weight
/// gradient). Neither arm copies `at` first: the AVX2 arm reads it in
/// place on its narrow path and on a single-panel product within its
/// in-place rule, and performs the transpose in its A packing
/// otherwise; the scalar arm's row kernel reads `at` strided.
/// Both keep the `k`-ascending per-element order of [`gemm_acc`] on the
/// transposed factor, so the arms agree bitwise.
pub fn gemm_at_acc(at: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    check_gemm_shapes(at.len(), b.len(), out.len(), m, k, n);
    let backend = resolve(active_backend());
    telemetry::record_gemm(backend, m, k, n, || match backend {
        Backend::Scalar => scalar::gemm_at_acc(at, b, out, m, k, n),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::gemm_at_acc(at, b, out, m, k, n) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("resolve() never yields Avx2 off x86-64"),
    });
}

// ----------------------------------------------------------------------
// Vector kernels
// ----------------------------------------------------------------------

/// `y ← y + alpha·x` in place. Elementwise (no reduction), so both arms
/// are bit-identical.
///
/// # Panics
/// Panics on a length mismatch.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    match resolve(active_backend()) {
        Backend::Scalar => scalar::axpy(alpha, x, y),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::axpy(alpha, x, y) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("resolve() never yields Avx2 off x86-64"),
    }
}

/// Elementwise binary kernels `out[i] = a[i] ∘ b[i]`; bit-identical
/// across arms.
///
/// # Panics
/// Panics on a length mismatch.
pub fn vadd(a: &[f64], b: &[f64], out: &mut [f64]) {
    vbinary(a, b, out, scalar::vadd, VOp::Add)
}

/// Elementwise difference; see [`vadd`].
///
/// # Panics
/// Panics on a length mismatch.
pub fn vsub(a: &[f64], b: &[f64], out: &mut [f64]) {
    vbinary(a, b, out, scalar::vsub, VOp::Sub)
}

/// Elementwise (Hadamard) product; see [`vadd`].
///
/// # Panics
/// Panics on a length mismatch.
pub fn vmul(a: &[f64], b: &[f64], out: &mut [f64]) {
    vbinary(a, b, out, scalar::vmul, VOp::Mul)
}

/// `out[i] = a[i] · s`; bit-identical across arms.
///
/// # Panics
/// Panics on a length mismatch.
pub fn vscale(a: &[f64], s: f64, out: &mut [f64]) {
    assert_eq!(a.len(), out.len(), "vscale: length mismatch");
    match resolve(active_backend()) {
        Backend::Scalar => scalar::vscale(a, s, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe { avx2::vscale(a, s, out) },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => unreachable!("resolve() never yields Avx2 off x86-64"),
    }
}

#[derive(Clone, Copy)]
enum VOp {
    Add,
    Sub,
    Mul,
}

fn vbinary(
    a: &[f64],
    b: &[f64],
    out: &mut [f64],
    scalar_f: fn(&[f64], &[f64], &mut [f64]),
    op: VOp,
) {
    assert_eq!(a.len(), b.len(), "elementwise kernel: length mismatch");
    assert_eq!(a.len(), out.len(), "elementwise kernel: length mismatch");
    match resolve(active_backend()) {
        Backend::Scalar => scalar_f(a, b, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `resolve` only yields Avx2 when the CPU supports it.
        Backend::Avx2 => unsafe {
            match op {
                VOp::Add => avx2::vadd(a, b, out),
                VOp::Sub => avx2::vsub(a, b, out),
                VOp::Mul => avx2::vmul(a, b, out),
            }
        },
        #[cfg(not(target_arch = "x86_64"))]
        Backend::Avx2 => {
            let _ = op;
            unreachable!("resolve() never yields Avx2 off x86-64")
        }
    }
}

/// Demotes an `Avx2` request to `Scalar` when the arm is unavailable
/// (non-x86 builds, or a stale override). `with_backend` rejects such
/// requests up front, so in practice this is the safety net that makes
/// every `match` arm above sound.
fn resolve(backend: Backend) -> Backend {
    match backend {
        Backend::Avx2 if avx2_available() => Backend::Avx2,
        _ => Backend::Scalar,
    }
}

#[track_caller]
fn check_gemm_shapes(a_len: usize, b_len: usize, out_len: usize, m: usize, k: usize, n: usize) {
    assert_eq!(a_len, m * k, "gemm: A buffer/shape mismatch");
    assert_eq!(b_len, k * n, "gemm: B buffer/shape mismatch");
    assert_eq!(out_len, m * n, "gemm: output buffer/shape mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detected_backend_is_stable() {
        assert_eq!(detected_backend(), detected_backend());
    }

    #[test]
    fn with_backend_overrides_and_restores() {
        let outer = active_backend();
        with_backend(Backend::Scalar, || {
            assert_eq!(active_backend(), Backend::Scalar);
            with_backend(Backend::Scalar, || {
                assert_eq!(active_backend(), Backend::Scalar);
            });
        });
        assert_eq!(active_backend(), outer);
    }

    #[test]
    fn override_restored_on_unwind() {
        let outer = active_backend();
        let caught = std::panic::catch_unwind(|| {
            with_backend(Backend::Scalar, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(active_backend(), outer);
    }

    #[test]
    fn backend_names_stable() {
        assert_eq!(Backend::Scalar.name(), "scalar");
        assert_eq!(Backend::Avx2.name(), "avx2");
    }

    #[test]
    fn gemm_zero_dims_are_noops() {
        let mut out = [0.0; 0];
        gemm_acc(&[], &[], &mut out, 0, 0, 0);
        gemm_acc(&[], &[], &mut out, 0, 3, 0);
        let a = [1.0, 2.0];
        let mut out1 = [5.0];
        // k = 0: nothing accumulates.
        gemm_acc(&[], &[], &mut out1, 1, 0, 1);
        assert_eq!(out1, [5.0]);
        let _ = a;
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_mismatch_panics() {
        let mut y = [0.0];
        axpy(1.0, &[1.0, 2.0], &mut y);
    }
}
