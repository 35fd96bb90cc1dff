#![warn(missing_docs)]

//! # fia-linalg — dense linear algebra substrate
//!
//! Small, dependency-free dense linear algebra library sized for the needs
//! of the feature-inference attack suite:
//!
//! * [`Matrix`] — row-major dense `f64` matrix with the usual arithmetic.
//! * [`svd`] — one-sided Jacobi singular value decomposition.
//! * [`qr`] — Householder QR decomposition.
//! * [`lu_decompose`]/[`solve`] — LU with partial pivoting, linear solving.
//! * [`pinv`] — Moore–Penrose pseudo-inverse (the workhorse of the
//!   equality solving attack, Section IV-A of the paper).
//! * [`lstsq`] — minimum-norm least-squares solve `argmin ‖Ax − b‖₂`.
//!
//! All routines are written for clarity and numerical robustness on the
//! small/medium systems the attacks produce (`(c−1) × d_target` matrices).
//! The dense hot loops are nonetheless fast: every multiply and
//! elementwise op dispatches through the [`kernel`] module, which selects
//! between a portable scalar arm and explicit AVX2 microkernels once at
//! runtime (`FIA_FORCE_SCALAR=1` pins the scalar arm). The kernels are
//! bit-identical across backends, and [`par_matmul`] stripes output rows
//! across scoped threads with each worker running the same dispatched
//! microkernel on its tile.

mod cholesky;
mod error;
pub mod kernel;
mod lstsq;
mod lu;
mod matrix;
mod parallel;
mod pinv;
mod qr;
mod svd;
pub mod vecops;

pub use cholesky::{cholesky, cholesky_solve, Cholesky};
pub use error::LinAlgError;
pub use kernel::{avx2_available, detected_backend, with_backend, Backend};
pub use lstsq::lstsq;
pub use lu::{inverse, lu_decompose, lu_solve, solve, LuDecomposition};
pub use matrix::Matrix;
pub use parallel::{default_workers, par_matmul, par_matmul_with};
pub use pinv::{pinv, pinv_with_tolerance};
pub use qr::{qr, QrDecomposition};
pub use svd::{svd, Svd};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinAlgError>;
