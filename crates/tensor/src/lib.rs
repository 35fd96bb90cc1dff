#![warn(missing_docs)]

//! # fia-tensor — tape-based reverse-mode automatic differentiation
//!
//! A deliberately small autograd engine sized for the paper's needs:
//! multilayer perceptrons with ReLU/sigmoid/tanh activations, softmax and
//! fused losses, LayerNorm (the GRN generator applies it after every
//! hidden layer), dropout (the Section VII countermeasure), and the
//! concat/gather plumbing that stitches the adversary's features, the
//! random vector and the generated target features together.
//!
//! Design: a [`Tape`] is a flat vector of nodes appended in topological
//! order. Graph construction *is* the forward pass — every op computes its
//! value eagerly. [`Tape::backward`] walks the tape in reverse and
//! accumulates gradients. Values and gradients are dense
//! [`fia_linalg::Matrix`] buffers shaped `[batch, features]`.
//!
//! Trainable parameters live *outside* the tape in a [`Params`] store and
//! are bound into a fresh tape each step via [`Tape::param`]. Frozen
//! sub-networks (the trained vertical FL model inside the GRN attack loop)
//! enter the tape as plain [`Tape::input`] leaves: gradients still flow
//! *through* them to upstream operands, but no parameter gradient is
//! collected — exactly the semantics Algorithm 2 of the paper requires.
//!
//! ```
//! use fia_tensor::{Tape, Params};
//! use fia_linalg::Matrix;
//!
//! let mut params = Params::new();
//! let w = params.insert(Matrix::from_rows(&[vec![0.5], vec![-0.25]]).unwrap());
//!
//! let mut tape = Tape::new();
//! let x = tape.input(Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap());
//! let wv = tape.param(&params, w);
//! let y = tape.matmul(x, wv);          // 1×1
//! let loss = tape.sum_all(y);
//! tape.backward(loss);
//! let grad = tape.grad(wv).unwrap();   // dL/dW = xᵀ
//! assert_eq!(grad.as_slice(), &[1.0, 2.0]);
//! ```

mod gradcheck;
mod init;
mod optim;
mod params;
mod schedule;
mod tape;

pub use gradcheck::{assert_gradients_ok, check_gradients, GradCheckReport};
pub use init::{he_normal, normal_matrix, standard_normal, uniform_matrix, xavier_uniform};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamId, Params};
pub use schedule::{clip_grad_norm, Constant, CosineAnnealing, LrSchedule, StepDecay};
pub use tape::{Tape, VarId};
