#![warn(missing_docs)]

//! # fia-linalg — dense linear algebra substrate
//!
//! Small, dependency-free dense linear algebra library sized for the needs
//! of the feature-inference attack suite:
//!
//! * [`Matrix`] — row-major dense `f64` matrix with the usual arithmetic.
//! * [`svd`] — one-sided Jacobi singular value decomposition.
//! * [`cholesky`] — Cholesky factorization, used by the ridge ablation.
//! * [`pinv`] — Moore–Penrose pseudo-inverse (the workhorse of the
//!   equality solving attack, Section IV-A of the paper).
//! * [`bytes`] — the little-endian byte codec every binary format
//!   (wire, checkpoints, job blobs, model persistence) reads and writes
//!   its numbers through, so `f64`s travel as raw IEEE-754 bits.
//!
//! All routines are written for clarity and numerical robustness on the
//! small/medium systems the attacks produce (`(c−1) × d_target` matrices).
//! The dense hot loops are nonetheless fast: every multiply and
//! elementwise op dispatches through the [`kernel`] module, which selects
//! between a portable scalar arm and explicit AVX2 microkernels once at
//! runtime (`FIA_FORCE_SCALAR=1` pins the scalar arm). Every kernel is
//! bit-identical across backends.

pub mod bytes;
mod cholesky;
mod error;
pub mod kernel;
mod matrix;
mod pinv;
mod svd;
pub mod vecops;

pub use cholesky::{cholesky, cholesky_solve, Cholesky};
pub use error::LinAlgError;
pub use kernel::{avx2_available, detected_backend, with_backend, Backend};
pub use matrix::Matrix;
pub use pinv::{pinv, pinv_with_tolerance};
pub use svd::{svd, Svd};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, LinAlgError>;
