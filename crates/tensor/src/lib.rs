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
//! are bound onto the tape each step via [`Tape::param`]. Frozen
//! sub-networks (the trained vertical FL model inside the GRN attack loop)
//! enter the tape as constant input leaves: gradients still flow
//! *through* them to upstream operands, but no parameter gradient is
//! collected — exactly the semantics Algorithm 2 of the paper requires.
//!
//! # One tape per training loop
//!
//! A tape keeps its buffers. A training loop builds one tape and calls
//! [`Tape::reset`] at the top of every step; recording the same op
//! sequence again writes each node's value, gradient and saved state
//! (softmax, x̂, 1/σ, dropout mask) into the buffers the previous step
//! left at that node position, so after the first step the tape
//! allocates nothing. A node whose shape changes, such as the short last
//! batch of an epoch, resizes only itself. A reset tape computes the same
//! bits as a fresh one.
//!
//! Constants enter without an intermediate matrix: [`Tape::input_rows`]
//! copies a mini-batch's rows straight from the full data set,
//! [`Tape::input_copy`] copies a borrowed matrix (frozen weights), and
//! [`Tape::input_with`] lets the caller write the values (noise draws)
//! in place. [`Tape::linear`] records `x · w + b` as one node, with the
//! bits of [`Tape::matmul`] followed by [`Tape::add_row_broadcast`].
//!
//! Parameter gradients accumulate in place into one buffer per
//! [`ParamId`] ([`ParamGrads`], read through [`Tape::param_grads`]), and
//! [`Optimizer::step`] reads them there. A parameter bound twice on one
//! tape therefore gets one summed gradient and one update. Because the
//! buffers are keyed by [`ParamId`] alone, the parameters one tape binds
//! must all come from one [`Params`] store.
//!
//! ```
//! use fia_tensor::{Adam, Optimizer, Params, Tape};
//! use fia_linalg::Matrix;
//!
//! let mut params = Params::new();
//! let w = params.insert(Matrix::from_rows(&[vec![0.5], vec![-0.25]]).unwrap());
//! let b = params.insert(Matrix::zeros(1, 1));
//! let data = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
//! let mut opt = Adam::new(1e-3);
//!
//! let mut tape = Tape::new();
//! for step in 0..2 {
//!     tape.reset();
//!     let x = tape.input_rows(&data, &[step]);
//!     let (wv, bv) = (tape.param(&params, w), tape.param(&params, b));
//!     let y = tape.linear(x, wv, bv);       // 1×1
//!     let loss = tape.sum_all(y);
//!     tape.backward(loss);
//!     if step == 0 {
//!         let grad = tape.grad(wv).unwrap(); // dL/dW = xᵀ
//!         assert_eq!(grad.as_slice(), &[1.0, 2.0]);
//!     }
//!     opt.step(&mut params, tape.param_grads());
//! }
//! ```

mod gradcheck;
mod init;
mod optim;
mod params;
mod tape;

pub use gradcheck::{assert_gradients_ok, check_gradients, GradCheckReport};
pub use init::{
    fill_normal, he_normal, normal_matrix, standard_normal, uniform_matrix, xavier_uniform,
};
pub use optim::{Adam, Optimizer, Sgd};
pub use params::{ParamGrads, ParamId, Params};
pub use tape::{Tape, VarId};
