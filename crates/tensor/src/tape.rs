//! The autograd tape: forward construction and reverse-mode backward.
//!
//! A tape keeps every buffer it writes. [`Tape::reset`] forgets the
//! recorded ops but keeps each node's value, gradient and saved state
//! (softmax, x̂, 1/σ, dropout mask, gathered columns) by node position,
//! so a training loop that records the same op sequence every step
//! writes each step into the buffers the last one left. A node whose
//! shape changes (the short last batch of an epoch) resizes only its own
//! buffers, and within their capacity that allocates nothing.
//!
//! Every op writes each output element once: no clone-then-modify, and
//! no zero-fill before a loop that sets every element. A node's first
//! gradient contribution is written straight into its kept gradient;
//! later ones go through one scratch buffer and are added with an exact
//! `axpy(1.0, ·)`, in the order the backward pass reaches them.

use crate::params::{GradSlot, ParamGrads, ParamId, Params};
use fia_linalg::{kernel, Matrix};
use rand::Rng;

/// Handle to a value on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VarId(usize);

impl VarId {
    /// Raw node index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Differentiable operations recorded on the tape.
///
/// State an op's backward needs (softmax output, x̂ and 1/σ, dropout
/// mask, gathered columns) lives in its node's kept buffers, so backward
/// never recomputes stochastic or expensive quantities and the op itself
/// is plain data.
#[derive(Clone, Copy)]
enum Op {
    /// Constant leaf (no gradient collected, but gradients still flow
    /// through ops that consume it).
    Input,
    /// Trainable leaf bound from a [`Params`] store.
    Param(ParamId),
    MatMul(VarId, VarId),
    /// `x · w + b`, the `1 × n` bias broadcast over rows.
    Linear {
        x: VarId,
        w: VarId,
        b: VarId,
    },
    Add(VarId, VarId),
    Sub(VarId, VarId),
    Hadamard(VarId, VarId),
    /// `a[m×n] + bias[1×n]` broadcast over rows.
    AddRowBroadcast(VarId, VarId),
    Scale(VarId, f64),
    /// `x + c`; the constant is baked into the forward value and its
    /// gradient is the identity, so only the input id is stored.
    AddScalar(VarId),
    Relu(VarId),
    LeakyRelu(VarId, f64),
    Sigmoid(VarId),
    Tanh(VarId),
    /// Row-wise softmax; backward uses the node's own value.
    SoftmaxRows(VarId),
    /// Natural log (inputs must be positive).
    Log(VarId),
    /// Column means: `[m×n] → [1×n]`.
    ColMean(VarId),
    SumAll(VarId),
    MeanAll(VarId),
    /// Fused mean-squared-error `mean((pred − target)²)`; scalar output.
    MseLoss(VarId, VarId),
    /// Fused softmax + cross-entropy against a one-hot (or soft) target
    /// distribution, averaged over rows; saves the softmax output.
    CrossEntropyLogits(VarId, VarId),
    /// Saves x̂ and the per-row 1/σ.
    LayerNorm {
        x: VarId,
        gamma: VarId,
        beta: VarId,
    },
    /// Inverted dropout; saves the mask, whose entries are 0 or 1/(1−p).
    Dropout(VarId),
    ConcatCols(VarId, VarId),
    /// `out[:, j] = x[:, cols[j]]`; repeated source columns are allowed.
    /// Saves `cols`.
    GatherCols(VarId),
}

/// One recorded position and the buffers it keeps across resets.
struct Node {
    op: Op,
    /// `true` when this node is a parameter or (transitively) consumes one;
    /// backward skips gradient propagation into subgraphs that cannot
    /// reach a parameter *unless* the caller asked for input gradients.
    needs_grad: bool,
    value: Matrix,
    /// The softmax output, x̂, or the dropout mask.
    saved: Matrix,
    /// LayerNorm's per-row 1/σ.
    per_row: Vec<f64>,
    /// The gathered source columns.
    cols: Vec<usize>,
}

impl Node {
    fn new() -> Self {
        Node {
            op: Op::Input,
            needs_grad: false,
            value: Matrix::default(),
            saved: Matrix::default(),
            per_row: Vec::new(),
            cols: Vec::new(),
        }
    }
}

/// Backward's working buffers, kept with the tape.
#[derive(Default)]
struct Scratch {
    /// A later gradient contribution, before it is added in.
    delta: Matrix,
    /// LayerNorm backward: dγ, dβ, and per row `Σ dx̂` and `Σ dx̂·x̂`.
    dgamma: Matrix,
    dbeta: Matrix,
    row_sums: Vec<f64>,
}

/// A dynamic computation graph. See the crate docs for the usage pattern.
pub struct Tape {
    /// Kept nodes; the first `len` are the ones recorded since the last
    /// reset.
    nodes: Vec<Node>,
    /// Kept gradients, by node position. A parameter leaf's gradient
    /// lives in `params` instead, under its [`ParamId`].
    grads: Vec<GradSlot>,
    len: usize,
    params: ParamGrads,
    scratch: Scratch,
    /// When `true`, input leaves also receive gradients. The GRN
    /// attack needs this switched on for nothing — inputs it cares about
    /// are generator outputs — but diagnostic tooling (saliency, the
    /// gradient-checker) wants input grads, so it is configurable.
    grad_for_inputs: bool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape {
            nodes: Vec::new(),
            grads: Vec::new(),
            len: 0,
            params: ParamGrads::new(),
            scratch: Scratch::default(),
            grad_for_inputs: false,
        }
    }

    /// Creates a tape that also accumulates gradients for input leaves
    /// (used by the gradient checker and saliency tooling).
    pub fn with_input_grads() -> Self {
        Tape {
            grad_for_inputs: true,
            ..Tape::new()
        }
    }

    /// Forgets every recorded op and gradient but keeps all buffers.
    /// Recording the next step's ops writes into the buffers this step's
    /// ops left, node by node position; [`VarId`]s from before the reset
    /// must not be used again.
    pub fn reset(&mut self) {
        self.len = 0;
        self.params.clear();
    }

    /// The kept slot for the next node, beside the recorded nodes it may
    /// read.
    fn next_slot(&mut self) -> (&[Node], &mut Node) {
        if self.len == self.nodes.len() {
            self.nodes.push(Node::new());
            self.grads.push(GradSlot::default());
        }
        let (done, rest) = self.nodes.split_at_mut(self.len);
        (done, &mut rest[0])
    }

    /// Records the node whose value [`Tape::next_slot`] just filled.
    fn commit(&mut self, op: Op, needs_grad: bool) -> VarId {
        let i = self.len;
        self.nodes[i].op = op;
        self.nodes[i].needs_grad = needs_grad;
        self.grads[i].live = false;
        self.len += 1;
        VarId(i)
    }

    fn node(&self, v: VarId) -> &Node {
        assert!(v.0 < self.len, "VarId {} not recorded since reset", v.0);
        &self.nodes[v.0]
    }

    /// Number of nodes recorded since the last reset.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no node was recorded since the last reset.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of a node.
    pub fn value(&self, v: VarId) -> &Matrix {
        &self.node(v).value
    }

    /// Gradient of a node after [`Tape::backward`]; `None` when no
    /// gradient reached it. A parameter leaf reports its [`ParamId`]'s
    /// gradient, summed over every binding of that parameter.
    pub fn grad(&self, v: VarId) -> Option<&Matrix> {
        match self.node(v).op {
            Op::Param(id) => self.params.get(id),
            _ => Some(&self.grads[v.0]).filter(|s| s.live).map(|s| &s.buf),
        }
    }

    /// The [`ParamId`] a node was bound from, if it is a parameter leaf.
    pub fn param_id(&self, v: VarId) -> Option<ParamId> {
        match self.node(v).op {
            Op::Param(id) => Some(id),
            _ => None,
        }
    }

    /// The parameter gradients of the last backward pass, one per
    /// [`ParamId`] — what [`crate::Optimizer::step`] reads in place.
    pub fn param_grads(&self) -> &ParamGrads {
        &self.params
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Records a constant input leaf that takes ownership of `value`.
    /// Gradients flow *through* consumers of this value but are not
    /// accumulated at the leaf itself (unless the tape was built with
    /// [`Tape::with_input_grads`]).
    pub fn input(&mut self, value: Matrix) -> VarId {
        let (_, node) = self.next_slot();
        node.value = value;
        let ng = self.grad_for_inputs;
        self.commit(Op::Input, ng)
    }

    /// Like [`Tape::input`], copying `value` into the node's kept buffer.
    pub fn input_copy(&mut self, value: &Matrix) -> VarId {
        let (_, node) = self.next_slot();
        node.value.clone_from(value);
        let ng = self.grad_for_inputs;
        self.commit(Op::Input, ng)
    }

    /// Like [`Tape::input`], copying rows `rows` of `src`, in that order,
    /// into the node's kept buffer (a mini-batch without a
    /// `select_rows` matrix).
    ///
    /// # Panics
    /// Panics if a row index is out of range.
    pub fn input_rows(&mut self, src: &Matrix, rows: &[usize]) -> VarId {
        let (_, node) = self.next_slot();
        node.value.resize(rows.len(), src.cols());
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < src.rows(), "input_rows: row {r} of {}", src.rows());
            node.value.row_mut(i).copy_from_slice(src.row(r));
        }
        let ng = self.grad_for_inputs;
        self.commit(Op::Input, ng)
    }

    /// Like [`Tape::input`] for a `rows × cols` value that `fill` writes
    /// into the node's kept buffer, row-major. `fill` must set every
    /// element.
    pub fn input_with(&mut self, rows: usize, cols: usize, fill: impl FnOnce(&mut [f64])) -> VarId {
        let (_, node) = self.next_slot();
        node.value.resize(rows, cols);
        fill(node.value.as_mut_slice());
        let ng = self.grad_for_inputs;
        self.commit(Op::Input, ng)
    }

    /// Binds a trainable parameter from `params` onto the tape, copying
    /// its current value into the node's kept buffer. After backward, its
    /// gradient is in [`Tape::param_grads`] (and [`Tape::grad`]), summed
    /// over every binding of `id`.
    ///
    /// The tape keeps parameter gradients by [`ParamId`] alone, so every
    /// parameter bound on one tape must come from the same [`Params`]
    /// store; a model frozen during training enters through
    /// [`Tape::input_copy`] instead.
    pub fn param(&mut self, params: &Params, id: ParamId) -> VarId {
        let (_, node) = self.next_slot();
        node.value.clone_from(params.get(id));
        self.commit(Op::Param(id), true)
    }

    // ------------------------------------------------------------------
    // Arithmetic
    // ------------------------------------------------------------------

    /// Matrix product `a · b`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch — tapes are built by library
    /// code with statically known layer shapes, so a mismatch is a bug.
    pub fn matmul(&mut self, a: VarId, b: VarId) -> VarId {
        let (done, node) = self.next_slot();
        let (x, y) = (&done[a.0], &done[b.0]);
        gemm_into(&mut node.value, &x.value, &y.value);
        let ng = x.needs_grad || y.needs_grad;
        self.commit(Op::MatMul(a, b), ng)
    }

    /// Affine layer `x · w + b`, the `1 × n` bias `b` broadcast over the
    /// rows: the same value and gradients, bit for bit, as
    /// [`Tape::matmul`] followed by [`Tape::add_row_broadcast`], from one
    /// node.
    ///
    /// # Panics
    /// Panics on a shape mismatch.
    pub fn linear(&mut self, x: VarId, w: VarId, b: VarId) -> VarId {
        let (done, node) = self.next_slot();
        let (xn, wn, bn) = (&done[x.0], &done[w.0], &done[b.0]);
        gemm_into(&mut node.value, &xn.value, &wn.value);
        check_bias(&node.value, &bn.value);
        add_bias_rows(node.value.as_mut_slice(), bn.value.as_slice());
        let ng = xn.needs_grad || wn.needs_grad || bn.needs_grad;
        self.commit(Op::Linear { x, w, b }, ng)
    }

    /// Element-wise sum of two same-shape values.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        self.binary(a, b, Op::Add(a, b), "add", kernel::vadd)
    }

    /// Element-wise difference `a − b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        self.binary(a, b, Op::Sub(a, b), "sub", kernel::vsub)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        self.binary(a, b, Op::Hadamard(a, b), "hadamard", kernel::vmul)
    }

    fn binary(
        &mut self,
        a: VarId,
        b: VarId,
        op: Op,
        what: &str,
        kernel: fn(&[f64], &[f64], &mut [f64]),
    ) -> VarId {
        let (done, node) = self.next_slot();
        let (x, y) = (&done[a.0], &done[b.0]);
        let shape = x.value.shape();
        assert_eq!(shape, y.value.shape(), "tape {what}: shape mismatch");
        node.value.resize(shape.0, shape.1);
        kernel(
            x.value.as_slice(),
            y.value.as_slice(),
            node.value.as_mut_slice(),
        );
        let ng = x.needs_grad || y.needs_grad;
        self.commit(op, ng)
    }

    /// Adds a `1 × n` bias row to every row of an `m × n` value.
    pub fn add_row_broadcast(&mut self, a: VarId, bias: VarId) -> VarId {
        let (done, node) = self.next_slot();
        let (x, b) = (&done[a.0], &done[bias.0]);
        check_bias(&x.value, &b.value);
        node.value.resize(x.value.rows(), x.value.cols());
        let brow = b.value.as_slice();
        let rows = node.value.as_mut_slice().chunks_mut(brow.len().max(1));
        for (o_row, x_row) in rows.zip(x.value.as_slice().chunks(brow.len().max(1))) {
            for ((o, &xv), &bv) in o_row.iter_mut().zip(x_row).zip(brow) {
                *o = xv + bv;
            }
        }
        let ng = x.needs_grad || b.needs_grad;
        self.commit(Op::AddRowBroadcast(a, bias), ng)
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: VarId, c: f64) -> VarId {
        self.unary(a, Op::Scale(a, c), |x| x * c)
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: VarId, c: f64) -> VarId {
        self.unary(a, Op::AddScalar(a), |x| x + c)
    }

    /// Records `op`, whose value is `f` applied to each element of `a`.
    fn unary(&mut self, a: VarId, op: Op, f: impl Fn(f64) -> f64) -> VarId {
        let (done, node) = self.next_slot();
        let x = &done[a.0];
        node.value.resize(x.value.rows(), x.value.cols());
        map_into(node.value.as_mut_slice(), x.value.as_slice(), f);
        let ng = x.needs_grad;
        self.commit(op, ng)
    }

    /// Records a `1 × 1` value `s`.
    fn scalar(&mut self, op: Op, needs_grad: bool, s: f64) -> VarId {
        let (_, node) = self.next_slot();
        node.value.resize(1, 1);
        node.value.as_mut_slice()[0] = s;
        self.commit(op, needs_grad)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit `max(0, x)`.
    pub fn relu(&mut self, a: VarId) -> VarId {
        self.unary(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: VarId, alpha: f64) -> VarId {
        let op = Op::LeakyRelu(a, alpha);
        self.unary(a, op, |x| if x > 0.0 { x } else { alpha * x })
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        self.unary(a, Op::Sigmoid(a), fia_linalg::vecops::sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        self.unary(a, Op::Tanh(a), f64::tanh)
    }

    /// Row-wise softmax (numerically stable).
    pub fn softmax_rows(&mut self, a: VarId) -> VarId {
        let (done, node) = self.next_slot();
        let x = &done[a.0];
        let (m, n) = x.value.shape();
        node.value.resize(m, n);
        for i in 0..m {
            fia_linalg::vecops::softmax_into(x.value.row(i), node.value.row_mut(i));
        }
        let ng = x.needs_grad;
        self.commit(Op::SoftmaxRows(a), ng)
    }

    /// Natural logarithm. Values are clamped to `≥ 1e-300` before the log
    /// so a zero confidence score produced by an aggressive rounding
    /// defense degrades gracefully instead of emitting `-inf`.
    pub fn log(&mut self, a: VarId) -> VarId {
        self.unary(a, Op::Log(a), |x| x.max(1e-300).ln())
    }

    // ------------------------------------------------------------------
    // Reductions & losses
    // ------------------------------------------------------------------

    /// Column means: `[m×n] → [1×n]`.
    pub fn col_mean(&mut self, a: VarId) -> VarId {
        let (done, node) = self.next_slot();
        let x = &done[a.0];
        col_sums_into(&mut node.value, &x.value);
        let m = x.value.rows() as f64;
        for o in node.value.as_mut_slice() {
            *o /= m;
        }
        let ng = x.needs_grad;
        self.commit(Op::ColMean(a), ng)
    }

    /// Sum of all elements; `1 × 1` output.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let x = self.node(a);
        let (ng, s) = (x.needs_grad, x.value.as_slice().iter().sum());
        self.scalar(Op::SumAll(a), ng, s)
    }

    /// Mean of all elements; `1 × 1` output.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let x = self.node(a);
        let slice = x.value.as_slice();
        let (ng, s) = (x.needs_grad, slice.iter().sum::<f64>() / slice.len() as f64);
        self.scalar(Op::MeanAll(a), ng, s)
    }

    /// Mean-squared-error loss `mean((pred − target)²)`; `1 × 1` output.
    pub fn mse_loss(&mut self, pred: VarId, target: VarId) -> VarId {
        let (p, t) = (self.node(pred), self.node(target));
        assert_eq!(p.value.shape(), t.value.shape(), "mse_loss: shape mismatch");
        let n = p.value.as_slice().len() as f64;
        let s: f64 = p
            .value
            .as_slice()
            .iter()
            .zip(t.value.as_slice())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            / n;
        let ng = p.needs_grad || t.needs_grad;
        self.scalar(Op::MseLoss(pred, target), ng, s)
    }

    /// Fused softmax + cross-entropy against a target distribution
    /// (one-hot or soft labels), averaged over rows; `1 × 1` output.
    pub fn cross_entropy_logits(&mut self, logits: VarId, target: VarId) -> VarId {
        let (done, node) = self.next_slot();
        let (z, t) = (&done[logits.0], &done[target.0]);
        let (m, n) = z.value.shape();
        assert_eq!(
            (m, n),
            t.value.shape(),
            "cross_entropy_logits: shape mismatch"
        );
        node.saved.resize(m, n);
        let mut loss = 0.0;
        for i in 0..m {
            let s = node.saved.row_mut(i);
            fia_linalg::vecops::softmax_into(z.value.row(i), s);
            for (&p, &tv) in s.iter().zip(t.value.row(i)) {
                loss -= tv * p.max(1e-300).ln();
            }
        }
        node.value.resize(1, 1);
        node.value.as_mut_slice()[0] = loss / m as f64;
        let ng = z.needs_grad || t.needs_grad;
        self.commit(Op::CrossEntropyLogits(logits, target), ng)
    }

    // ------------------------------------------------------------------
    // Normalization & regularization
    // ------------------------------------------------------------------

    /// Layer normalization over each row, with learnable `gamma`/`beta`
    /// (`1 × n` each): `y = gamma ⊙ (x − μ_row)/√(σ²_row + eps) + beta`.
    pub fn layer_norm(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f64) -> VarId {
        let (done, node) = self.next_slot();
        let (xn, gn, bn) = (&done[x.0], &done[gamma.0], &done[beta.0]);
        let (m, n) = xn.value.shape();
        assert_eq!(gn.value.shape(), (1, n), "layer_norm: gamma must be 1×n");
        assert_eq!(bn.value.shape(), (1, n), "layer_norm: beta must be 1×n");
        node.value.resize(m, n);
        node.saved.resize(m, n);
        node.per_row.resize(m, 0.0);
        layer_norm_rows(
            &xn.value,
            gn.value.as_slice(),
            bn.value.as_slice(),
            eps,
            &mut node.value,
            &mut node.saved,
            &mut node.per_row,
        );
        let ng = xn.needs_grad || gn.needs_grad || bn.needs_grad;
        self.commit(Op::LayerNorm { x, gamma, beta }, ng)
    }

    /// Inverted dropout: zeroes each element with probability `p` and
    /// scales survivors by `1/(1−p)`. Call only during training; at
    /// inference simply skip the op.
    pub fn dropout<R: Rng + ?Sized>(&mut self, x: VarId, p: f64, rng: &mut R) -> VarId {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let (done, node) = self.next_slot();
        let xn = &done[x.0];
        let (m, n) = xn.value.shape();
        let keep = 1.0 - p;
        node.saved.resize(m, n);
        for v in node.saved.as_mut_slice() {
            *v = if rng.gen::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        node.value.resize(m, n);
        kernel::vmul(
            xn.value.as_slice(),
            node.saved.as_slice(),
            node.value.as_mut_slice(),
        );
        let ng = xn.needs_grad;
        self.commit(Op::Dropout(x), ng)
    }

    // ------------------------------------------------------------------
    // Shape plumbing
    // ------------------------------------------------------------------

    /// Horizontal concatenation `[a | b]` of two values with equal row
    /// counts. This is how the GRN generator input `x_adv ∪ r` and the
    /// generated sample `x_adv ∪ x̂_target` are assembled.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let (done, node) = self.next_slot();
        let (x, y) = (&done[a.0].value, &done[b.0].value);
        assert_eq!(x.rows(), y.rows(), "concat_cols: row mismatch");
        let ca = x.cols();
        node.value.resize(x.rows(), ca + y.cols());
        for i in 0..x.rows() {
            let dst = node.value.row_mut(i);
            dst[..ca].copy_from_slice(x.row(i));
            dst[ca..].copy_from_slice(y.row(i));
        }
        let ng = done[a.0].needs_grad || done[b.0].needs_grad;
        self.commit(Op::ConcatCols(a, b), ng)
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        assert!(
            start < end && end <= self.value(a).cols(),
            "slice_cols: bad range"
        );
        self.gather(a, start..end)
    }

    /// Column gather `out[:, j] = a[:, cols[j]]`: a pure copy forward,
    /// whose backward adds each output column's gradient back into its
    /// source column (so a repeated source accumulates). GRNA assembles
    /// the model's input `x = [x_adv | x̂_target]` in global feature order
    /// with it.
    ///
    /// # Panics
    /// Panics if a column index is out of range.
    pub fn gather_cols(&mut self, a: VarId, cols: &[usize]) -> VarId {
        self.gather(a, cols.iter().copied())
    }

    fn gather(&mut self, a: VarId, cols: impl Iterator<Item = usize>) -> VarId {
        let (done, node) = self.next_slot();
        let x = &done[a.0];
        node.cols.clear();
        node.cols.extend(cols);
        let width = x.value.cols();
        assert!(
            node.cols.iter().all(|&c| c < width),
            "gather_cols: column out of range"
        );
        node.value.resize(x.value.rows(), node.cols.len());
        for i in 0..x.value.rows() {
            let src = x.value.row(i);
            for (d, &c) in node.value.row_mut(i).iter_mut().zip(&node.cols) {
                *d = src[c];
            }
        }
        let ng = x.needs_grad;
        self.commit(Op::GatherCols(a), ng)
    }

    // ------------------------------------------------------------------
    // Composite helpers
    // ------------------------------------------------------------------

    /// Column-variance hinge penalty
    /// `Σ_j max(0, Var_rows(x)_j − threshold)`, the GRN regularizer that
    /// keeps generated features from diverging (Section V-A). Built from
    /// primitive ops so it needs no bespoke backward rule.
    pub fn variance_penalty(&mut self, x: VarId, threshold: f64) -> VarId {
        let mu = self.col_mean(x); // 1×n
        let neg_mu = self.scale(mu, -1.0);
        let centered = self.add_row_broadcast(x, neg_mu); // x − μ
        let sq = self.hadamard(centered, centered);
        let var = self.col_mean(sq); // 1×n column variances
        let shifted = self.add_scalar(var, -threshold);
        let hinged = self.relu(shifted);
        self.sum_all(hinged)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Runs reverse-mode differentiation seeding `d loss / d loss = 1`.
    ///
    /// # Panics
    /// Panics if `loss` is not a `1 × 1` scalar node.
    pub fn backward(&mut self, loss: VarId) {
        assert_eq!(
            self.node(loss).value.shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        let Tape {
            nodes,
            grads,
            params,
            scratch,
            ..
        } = self;
        let nodes: &[Node] = nodes;
        let seed = grad_slot(nodes, grads, params, loss);
        seed.buf.resize(1, 1);
        seed.buf.as_mut_slice()[0] = 1.0;
        seed.live = true;

        let Scratch {
            delta,
            dgamma,
            dbeta,
            row_sums,
        } = scratch;
        for idx in (0..=loss.0).rev() {
            // A parameter leaf's gradient lives in `params`, so its slot
            // here is never live; leaves have nothing to propagate anyway.
            if !nodes[idx].needs_grad || !grads[idx].live {
                continue;
            }
            let (below, at) = grads.split_at_mut(idx);
            let mut sink = Sink {
                nodes,
                grads: below,
                params: &mut *params,
                delta: &mut *delta,
            };
            let g = &at[0].buf;
            let node = &nodes[idx];
            let val = |v: VarId| &nodes[v.0].value;
            let shape = |v: VarId| nodes[v.0].value.shape();
            match node.op {
                Op::Input | Op::Param(_) => {}
                Op::MatMul(a, b) => {
                    // dA = g·Bᵀ and dB = Aᵀ·g; the kernel forms each
                    // transposed operand itself.
                    sink.add(a, shape(a), |da| gemm_tn_into(da, g, val(b)));
                    sink.add(b, shape(b), |db| gemm_at_into(db, val(a), g));
                }
                Op::Linear { x, w, b } => {
                    // The order of `matmul` + `add_row_broadcast`: the
                    // bias first, then the product's operands.
                    sink.add(b, shape(b), |db| col_sums_into(db, g));
                    sink.add(x, shape(x), |dx| gemm_tn_into(dx, g, val(w)));
                    sink.add(w, shape(w), |dw| gemm_at_into(dw, val(x), g));
                }
                Op::Add(a, b) => {
                    sink.add_copy(a, g);
                    sink.add_copy(b, g);
                }
                Op::Sub(a, b) => {
                    sink.add_copy(a, g);
                    sink.add(b, g.shape(), |db| {
                        map_into(db.as_mut_slice(), g.as_slice(), |g| -g)
                    });
                }
                Op::Hadamard(a, b) => {
                    sink.add(a, g.shape(), |da| {
                        kernel::vmul(g.as_slice(), val(b).as_slice(), da.as_mut_slice())
                    });
                    sink.add(b, g.shape(), |db| {
                        kernel::vmul(g.as_slice(), val(a).as_slice(), db.as_mut_slice())
                    });
                }
                Op::AddRowBroadcast(a, bias) => {
                    sink.add_copy(a, g);
                    sink.add(bias, shape(bias), |db| col_sums_into(db, g));
                }
                Op::Scale(a, c) => {
                    sink.add(a, g.shape(), |da| {
                        map_into(da.as_mut_slice(), g.as_slice(), |g| g * c)
                    });
                }
                Op::AddScalar(a) => sink.add_copy(a, g),
                Op::Relu(a) => sink.add(a, g.shape(), |da| {
                    zip_into(da, g, val(a), |g, x| if x > 0.0 { g } else { 0.0 })
                }),
                Op::LeakyRelu(a, alpha) => sink.add(a, g.shape(), |da| {
                    zip_into(da, g, val(a), |g, x| if x > 0.0 { g } else { alpha * g })
                }),
                Op::Sigmoid(a) => sink.add(a, g.shape(), |da| {
                    zip_into(da, g, &node.value, |g, s| g * s * (1.0 - s))
                }),
                Op::Tanh(a) => sink.add(a, g.shape(), |da| {
                    zip_into(da, g, &node.value, |g, t| g * (1.0 - t * t))
                }),
                Op::SoftmaxRows(a) => sink.add(a, g.shape(), |da| {
                    let s = &node.value;
                    for i in 0..g.rows() {
                        let (grow, srow) = (g.row(i), s.row(i));
                        let dot: f64 = grow.iter().zip(srow).map(|(&gv, &sv)| gv * sv).sum();
                        for ((d, &gv), &sv) in da.row_mut(i).iter_mut().zip(grow).zip(srow) {
                            *d = sv * (gv - dot);
                        }
                    }
                }),
                Op::Log(a) => sink.add(a, g.shape(), |da| {
                    zip_into(da, g, val(a), |g, x| g / x.max(1e-300))
                }),
                Op::ColMean(a) => {
                    let (m, n) = shape(a);
                    let scale = 1.0 / m as f64;
                    sink.add(a, (m, n), |da| {
                        for row in da.as_mut_slice().chunks_mut(n.max(1)) {
                            for (d, &gv) in row.iter_mut().zip(g.as_slice()) {
                                *d = gv * scale;
                            }
                        }
                    });
                }
                Op::SumAll(a) => {
                    let g0 = g.as_slice()[0];
                    sink.add(a, shape(a), |da| da.as_mut_slice().fill(g0));
                }
                Op::MeanAll(a) => {
                    let (m, n) = shape(a);
                    let d = g.as_slice()[0] / (m * n) as f64;
                    sink.add(a, (m, n), |da| da.as_mut_slice().fill(d));
                }
                Op::MseLoss(p, t) => {
                    let (pv, tv) = (val(p), val(t));
                    let coeff = 2.0 * g.as_slice()[0] / pv.as_slice().len() as f64;
                    sink.add(p, pv.shape(), |dp| {
                        zip_into(dp, pv, tv, |p, t| (p - t) * coeff)
                    });
                    sink.add(t, tv.shape(), |dt| {
                        zip_into(dt, pv, tv, |p, t| -((p - t) * coeff))
                    });
                }
                Op::CrossEntropyLogits(logits, target) => {
                    let (soft, tv) = (&node.saved, val(target));
                    let coeff = g.as_slice()[0] / soft.rows() as f64;
                    // For soft targets with Σ_j t_ij = s_i,
                    // dL/dz_ij = (s_i · softmax_ij − t_ij) / m.
                    sink.add(logits, soft.shape(), |dz| {
                        for i in 0..soft.rows() {
                            let trow = tv.row(i);
                            let tsum: f64 = trow.iter().sum();
                            let pairs = soft.row(i).iter().zip(trow);
                            for (d, (&s, &t)) in dz.row_mut(i).iter_mut().zip(pairs) {
                                *d = coeff * (tsum * s - t);
                            }
                        }
                    });
                    sink.add(target, tv.shape(), |dt| {
                        map_into(dt.as_mut_slice(), soft.as_slice(), |s| {
                            -coeff * s.max(1e-300).ln()
                        })
                    });
                }
                Op::LayerNorm { x, gamma, beta } => {
                    let (xhat, gv) = (&node.saved, val(gamma).as_slice());
                    layer_norm_grad_sums(g, xhat, gv, dgamma, dbeta, row_sums);
                    sink.add_copy(gamma, dgamma);
                    sink.add_copy(beta, dbeta);
                    sink.add(x, xhat.shape(), |dx| {
                        layer_norm_grad_x(dx, g, xhat, gv, &node.per_row, row_sums)
                    });
                }
                Op::Dropout(x) => sink.add(x, g.shape(), |dx| {
                    kernel::vmul(g.as_slice(), node.saved.as_slice(), dx.as_mut_slice())
                }),
                Op::ConcatCols(a, b) => {
                    let ac = val(a).cols();
                    sink.add(a, shape(a), |da| {
                        for i in 0..g.rows() {
                            da.row_mut(i).copy_from_slice(&g.row(i)[..ac]);
                        }
                    });
                    sink.add(b, shape(b), |db| {
                        for i in 0..g.rows() {
                            db.row_mut(i).copy_from_slice(&g.row(i)[ac..]);
                        }
                    });
                }
                Op::GatherCols(x) => sink.add(x, shape(x), |dx| {
                    dx.as_mut_slice().fill(0.0);
                    for i in 0..g.rows() {
                        let dst = dx.row_mut(i);
                        for (&c, &v) in node.cols.iter().zip(g.row(i)) {
                            dst[c] += v;
                        }
                    }
                }),
            }
        }
    }
}

/// The kept gradient of `v`: its parameter's slot for a parameter leaf,
/// else its own.
fn grad_slot<'a>(
    nodes: &[Node],
    grads: &'a mut [GradSlot],
    params: &'a mut ParamGrads,
    v: VarId,
) -> &'a mut GradSlot {
    match nodes[v.0].op {
        Op::Param(id) => params.slot(id),
        _ => &mut grads[v.0],
    }
}

/// Where backward adds gradient contributions: the nodes below the one
/// being propagated, and the parameter store.
struct Sink<'a> {
    nodes: &'a [Node],
    grads: &'a mut [GradSlot],
    params: &'a mut ParamGrads,
    delta: &'a mut Matrix,
}

impl Sink<'_> {
    /// Adds the contribution `write` computes to `v`'s gradient, unless
    /// `v` takes none. `write` gets a buffer already shaped `shape` and
    /// must set every element. The first contribution is written straight
    /// into `v`'s kept gradient; a later one is written to scratch and
    /// added with an exact `axpy(1.0, ·)`, so the gradient is the sum of
    /// the contributions in the order backward reaches them.
    fn add(&mut self, v: VarId, shape: (usize, usize), write: impl FnOnce(&mut Matrix)) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        let slot = grad_slot(self.nodes, self.grads, self.params, v);
        if slot.live {
            debug_assert_eq!(slot.buf.shape(), shape, "gradient shape stable");
            self.delta.resize(shape.0, shape.1);
            write(self.delta);
            kernel::axpy(1.0, self.delta.as_slice(), slot.buf.as_mut_slice());
        } else {
            slot.buf.resize(shape.0, shape.1);
            write(&mut slot.buf);
            slot.live = true;
        }
    }

    /// Adds `g` itself to `v`'s gradient: the rule of every op whose
    /// local Jacobian is the identity.
    fn add_copy(&mut self, v: VarId, g: &Matrix) {
        if !self.nodes[v.0].needs_grad {
            return;
        }
        let slot = grad_slot(self.nodes, self.grads, self.params, v);
        if slot.live {
            debug_assert_eq!(slot.buf.shape(), g.shape(), "gradient shape stable");
            kernel::axpy(1.0, g.as_slice(), slot.buf.as_mut_slice());
        } else {
            slot.buf.clone_from(g);
            slot.live = true;
        }
    }
}

// ----------------------------------------------------------------------
// Loops behind the ops
// ----------------------------------------------------------------------

/// `out = a · b` into a kept buffer: the bits of `Matrix::matmul`.
fn gemm_into(out: &mut Matrix, a: &Matrix, b: &Matrix) {
    let ((m, k), n) = (a.shape(), b.cols());
    assert_eq!(k, b.rows(), "tape matmul: shape mismatch");
    out.resize(m, n);
    out.as_mut_slice().fill(0.0);
    kernel::gemm_acc(a.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
}

/// `out = a · btᵀ` into `out`, already shaped `a.rows() × bt.rows()`:
/// the bits of `Matrix::matmul_transposed`.
fn gemm_tn_into(out: &mut Matrix, a: &Matrix, bt: &Matrix) {
    let ((m, k), n) = (a.shape(), bt.rows());
    debug_assert_eq!(out.shape(), (m, n));
    out.as_mut_slice().fill(0.0);
    kernel::gemm_tn_acc(a.as_slice(), bt.as_slice(), out.as_mut_slice(), m, k, n);
}

/// `out = atᵀ · b` into `out`, already shaped `at.cols() × b.cols()`:
/// the bits of `Matrix::transpose_matmul`.
fn gemm_at_into(out: &mut Matrix, at: &Matrix, b: &Matrix) {
    let ((k, m), n) = (at.shape(), b.cols());
    debug_assert_eq!(out.shape(), (m, n));
    out.as_mut_slice().fill(0.0);
    kernel::gemm_at_acc(at.as_slice(), b.as_slice(), out.as_mut_slice(), m, k, n);
}

fn check_bias(x: &Matrix, bias: &Matrix) {
    assert_eq!(bias.rows(), 1, "bias must be a row vector");
    assert_eq!(x.cols(), bias.cols(), "bias width mismatch");
}

/// `out[i] = f(a[i])`.
fn map_into(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

/// `out[i] = f(g[i], x[i])` over two same-shape matrices: one pass over
/// contiguous slices, which vectorizes when `f` is a branch-free select
/// or arithmetic (the activation backward rules).
fn zip_into(out: &mut Matrix, g: &Matrix, x: &Matrix, f: impl Fn(f64, f64) -> f64) {
    debug_assert_eq!(g.shape(), x.shape(), "zip_into: shape mismatch");
    for ((o, &g), &x) in out
        .as_mut_slice()
        .iter_mut()
        .zip(g.as_slice())
        .zip(x.as_slice())
    {
        *o = f(g, x);
    }
}

/// Adds the bias row `b` to every row of the row-major `out`.
fn add_bias_rows(out: &mut [f64], b: &[f64]) {
    for row in out.chunks_mut(b.len().max(1)) {
        for (o, &bv) in row.iter_mut().zip(b) {
            *o += bv;
        }
    }
}

/// Column sums `[m×n] → [1×n]` into `out`, accumulated row by row from
/// zero.
fn col_sums_into(out: &mut Matrix, a: &Matrix) {
    out.resize(1, a.cols());
    let acc = out.as_mut_slice();
    acc.fill(0.0);
    for row in a.as_slice().chunks(acc.len().max(1)) {
        for (o, &v) in acc.iter_mut().zip(row) {
            *o += v;
        }
    }
}

/// LayerNorm forward into the kept value, x̂ and 1/σ buffers (already
/// shaped). Rows go four at a time so four independent sums are in
/// flight (per-row loops made a GRNA training 2.5–3.7% slower); each
/// row still sums its own elements in ascending column order from
/// `-0.0`, the start of `Iterator::sum`, so the statistics are the bits
/// of `vecops::mean` and a per-row variance fold.
fn layer_norm_rows(
    x: &Matrix,
    gamma: &[f64],
    beta: &[f64],
    eps: f64,
    out: &mut Matrix,
    xhat: &mut Matrix,
    inv_std: &mut [f64],
) {
    let m = x.rows();
    let mut i = 0;
    while i + 4 <= m {
        layer_norm_block::<4>(x, gamma, beta, eps, out, xhat, inv_std, i);
        i += 4;
    }
    while i < m {
        layer_norm_block::<1>(x, gamma, beta, eps, out, xhat, inv_std, i);
        i += 1;
    }
}

// Index loops on purpose: each `j` step advances all `R` rows' sums.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
#[inline(always)]
fn layer_norm_block<const R: usize>(
    x: &Matrix,
    gamma: &[f64],
    beta: &[f64],
    eps: f64,
    out: &mut Matrix,
    xhat: &mut Matrix,
    inv_std: &mut [f64],
    i0: usize,
) {
    let n = x.cols();
    let rows: [&[f64]; R] = std::array::from_fn(|t| x.row(i0 + t));
    let mut sum = [-0.0; R];
    for j in 0..n {
        for t in 0..R {
            sum[t] += rows[t][j];
        }
    }
    let mu = sum.map(|s| s / n as f64);
    let mut sq = [-0.0; R];
    for j in 0..n {
        for t in 0..R {
            let d = rows[t][j] - mu[t];
            sq[t] += d * d;
        }
    }
    for t in 0..R {
        let istd = 1.0 / (sq[t] / n as f64 + eps).sqrt();
        inv_std[i0 + t] = istd;
        let hrow = xhat.row_mut(i0 + t);
        for (h, &v) in hrow.iter_mut().zip(rows[t]) {
            *h = (v - mu[t]) * istd;
        }
        let affine = gamma.iter().zip(beta);
        for ((o, &h), (&gj, &bj)) in out.row_mut(i0 + t).iter_mut().zip(&*hrow).zip(affine) {
            *o = gj * h + bj;
        }
    }
}

/// LayerNorm backward, first pass: dγ = Σ_i g ⊙ x̂ and dβ = Σ_i g (each
/// column from zero, rows ascending) together with each row's `Σ dx̂` and
/// `Σ dx̂·x̂` (`dx̂ = g ⊙ γ`, columns ascending from zero), four rows at a
/// time.
fn layer_norm_grad_sums(
    g: &Matrix,
    xhat: &Matrix,
    gamma: &[f64],
    dgamma: &mut Matrix,
    dbeta: &mut Matrix,
    row_sums: &mut Vec<f64>,
) {
    let (m, n) = xhat.shape();
    dgamma.resize(1, n);
    dbeta.resize(1, n);
    dgamma.as_mut_slice().fill(0.0);
    dbeta.as_mut_slice().fill(0.0);
    row_sums.resize(2 * m, 0.0);
    let (dg, db) = (dgamma.as_mut_slice(), dbeta.as_mut_slice());
    let mut i = 0;
    while i + 4 <= m {
        layer_norm_grad_block::<4>(g, xhat, gamma, dg, db, row_sums, i);
        i += 4;
    }
    while i < m {
        layer_norm_grad_block::<1>(g, xhat, gamma, dg, db, row_sums, i);
        i += 1;
    }
}

#[inline(always)]
fn layer_norm_grad_block<const R: usize>(
    g: &Matrix,
    xhat: &Matrix,
    gamma: &[f64],
    dg: &mut [f64],
    db: &mut [f64],
    row_sums: &mut [f64],
    i0: usize,
) {
    let n = gamma.len();
    let grows: [&[f64]; R] = std::array::from_fn(|t| &g.row(i0 + t)[..n]);
    let hrows: [&[f64]; R] = std::array::from_fn(|t| &xhat.row(i0 + t)[..n]);
    let (dg, db) = (&mut dg[..n], &mut db[..n]);
    let (mut s1, mut s2) = ([0.0; R], [0.0; R]);
    for j in 0..n {
        for t in 0..R {
            let (gij, h) = (grows[t][j], hrows[t][j]);
            dg[j] += gij * h;
            db[j] += gij;
            let dxh = gij * gamma[j];
            s1[t] += dxh;
            s2[t] += dxh * h;
        }
    }
    for t in 0..R {
        row_sums[2 * (i0 + t)] = s1[t];
        row_sums[2 * (i0 + t) + 1] = s2[t];
    }
}

/// LayerNorm backward, second pass:
/// `dx = (dx̂ − mean(dx̂) − x̂ ⊙ mean(dx̂ ⊙ x̂)) · 1/σ` per row.
fn layer_norm_grad_x(
    dx: &mut Matrix,
    g: &Matrix,
    xhat: &Matrix,
    gamma: &[f64],
    inv_std: &[f64],
    row_sums: &[f64],
) {
    let n = xhat.cols() as f64;
    for (i, &istd) in inv_std.iter().enumerate() {
        let (mean_dxhat, mean_dxhat_xhat) = (row_sums[2 * i] / n, row_sums[2 * i + 1] / n);
        let terms = g.row(i).iter().zip(gamma).zip(xhat.row(i));
        for (d, ((&gij, &gj), &h)) in dx.row_mut(i).iter_mut().zip(terms) {
            let dxh = gij * gj;
            *d = (dxh - mean_dxhat - h * mean_dxhat_xhat) * istd;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn scalar(tape: &Tape, v: VarId) -> f64 {
        tape.value(v)[(0, 0)]
    }

    #[test]
    fn matmul_gradients() {
        let mut params = Params::new();
        let w = params.insert(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap());
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[vec![1.0, -1.0]]).unwrap());
        let wv = tape.param(&params, w);
        let y = tape.matmul(x, wv); // [1×2]
        let loss = tape.sum_all(y);
        tape.backward(loss);
        // y = [1·1 + (−1)·3, 1·2 + (−1)·4] = [−2, −2]; dL/dW = xᵀ·1 = [[1,1],[−1,−1]]
        assert_eq!(scalar(&tape, loss), -4.0);
        let gw = tape.grad(wv).unwrap();
        assert_eq!(gw.as_slice(), &[1.0, 1.0, -1.0, -1.0]);
    }

    #[test]
    fn input_gets_no_grad_by_default() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::filled(1, 2, 2.0));
        let s = tape.sum_all(x);
        tape.backward(s);
        assert!(tape.grad(x).is_none());
    }

    #[test]
    fn input_grads_when_enabled() {
        let mut tape = Tape::with_input_grads();
        let x = tape.input(Matrix::filled(2, 2, 3.0));
        let s = tape.mean_all(x);
        tape.backward(s);
        let g = tape.grad(x).unwrap();
        assert!(g.as_slice().iter().all(|&v| (v - 0.25).abs() < 1e-15));
    }

    #[test]
    fn sigmoid_grad_matches_closed_form() {
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 0.3));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.sigmoid(wv);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let s = fia_linalg::vecops::sigmoid(0.3);
        let expect = s * (1.0 - s);
        assert!((tape.grad(wv).unwrap()[(0, 0)] - expect).abs() < 1e-12);
    }

    #[test]
    fn mse_loss_value_and_grad() {
        let mut params = Params::new();
        let p = params.insert(Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap());
        let mut tape = Tape::new();
        let pv = tape.param(&params, p);
        let t = tape.input(Matrix::from_rows(&[vec![0.0, 0.0]]).unwrap());
        let loss = tape.mse_loss(pv, t);
        tape.backward(loss);
        assert!((scalar(&tape, loss) - 2.5).abs() < 1e-12); // (1 + 4)/2
        let g = tape.grad(pv).unwrap();
        assert_eq!(g.as_slice(), &[1.0, 2.0]); // 2(p−t)/2
    }

    #[test]
    fn cross_entropy_grad_is_softmax_minus_onehot() {
        let mut params = Params::new();
        let z = params.insert(Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap());
        let mut tape = Tape::new();
        let zv = tape.param(&params, z);
        let t = tape.input(Matrix::from_rows(&[vec![0.0, 1.0, 0.0]]).unwrap());
        let loss = tape.cross_entropy_logits(zv, t);
        tape.backward(loss);
        let s = fia_linalg::vecops::softmax(&[1.0, 2.0, 3.0]);
        let g = tape.grad(zv).unwrap();
        assert!((g[(0, 0)] - s[0]).abs() < 1e-12);
        assert!((g[(0, 1)] - (s[1] - 1.0)).abs() < 1e-12);
        assert!((g[(0, 2)] - s[2]).abs() < 1e-12);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[vec![5.0, 1.0], vec![-2.0, 4.0]]).unwrap());
        let s = tape.softmax_rows(x);
        for i in 0..2 {
            let sum: f64 = tape.value(s).row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn concat_and_slice_roundtrip_grads() {
        let mut params = Params::new();
        let a = params.insert(Matrix::from_rows(&[vec![1.0, 2.0]]).unwrap());
        let b = params.insert(Matrix::from_rows(&[vec![3.0]]).unwrap());
        let mut tape = Tape::new();
        let av = tape.param(&params, a);
        let bv = tape.param(&params, b);
        let cat = tape.concat_cols(av, bv); // [1×3]
        assert_eq!(tape.value(cat).as_slice(), &[1.0, 2.0, 3.0]);
        // Take only the b-slice so a receives zero gradient via slice.
        let sl = tape.slice_cols(cat, 2, 3);
        let loss = tape.sum_all(sl);
        tape.backward(loss);
        assert_eq!(tape.grad(bv).unwrap()[(0, 0)], 1.0);
        let ga = tape.grad(av).unwrap();
        assert_eq!(ga.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn add_row_broadcast_bias_grad_is_column_sum() {
        let mut params = Params::new();
        let b = params.insert(Matrix::from_rows(&[vec![0.5, -0.5]]).unwrap());
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_fn(3, 2, |i, j| (i + j) as f64));
        let bv = tape.param(&params, b);
        let y = tape.add_row_broadcast(x, bv);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        let g = tape.grad(bv).unwrap();
        assert_eq!(g.as_slice(), &[3.0, 3.0]);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut params = Params::new();
        let w = params.insert(Matrix::from_rows(&[vec![-1.0, 2.0]]).unwrap());
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.relu(wv);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(wv).unwrap().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn dropout_scales_survivors() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut tape = Tape::new();
        let x = tape.input(Matrix::filled(50, 50, 1.0));
        let y = tape.dropout(x, 0.5, &mut rng);
        let vals = tape.value(y).as_slice();
        // Survivors are exactly 2.0; dropped are 0.0.
        assert!(vals.iter().all(|&v| v == 0.0 || (v - 2.0).abs() < 1e-12));
        let survivors = vals.iter().filter(|&&v| v > 0.0).count();
        let frac = survivors as f64 / vals.len() as f64;
        assert!((frac - 0.5).abs() < 0.05, "keep fraction {frac}");
    }

    #[test]
    fn layer_norm_rows_are_standardized() {
        let mut params = Params::new();
        let gamma = params.insert(Matrix::filled(1, 4, 1.0));
        let beta = params.insert(Matrix::zeros(1, 4));
        let mut tape = Tape::new();
        let x = tape.input(Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0]]).unwrap());
        let gv = tape.param(&params, gamma);
        let bv = tape.param(&params, beta);
        let y = tape.layer_norm(x, gv, bv, 1e-5);
        let row = tape.value(y).row(0);
        let mean: f64 = row.iter().sum::<f64>() / 4.0;
        let var: f64 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f64>() / 4.0;
        assert!(mean.abs() < 1e-10);
        assert!((var - 1.0).abs() < 1e-4);
    }

    #[test]
    fn variance_penalty_zero_below_threshold() {
        let mut tape = Tape::with_input_grads();
        // Constant columns → zero variance → zero penalty.
        let x = tape.input(Matrix::filled(5, 3, 0.7));
        let pen = tape.variance_penalty(x, 0.1);
        assert_eq!(scalar(&tape, pen), 0.0);
    }

    #[test]
    fn variance_penalty_positive_above_threshold() {
        let mut tape = Tape::with_input_grads();
        let x = tape.input(Matrix::from_rows(&[vec![0.0], vec![10.0]]).unwrap());
        // var = 25; threshold 1 → penalty 24.
        let pen = tape.variance_penalty(x, 1.0);
        assert!((scalar(&tape, pen) - 24.0).abs() < 1e-10);
        tape.backward(pen);
        let g = tape.grad(x).unwrap();
        // Gradient pushes the two entries toward each other.
        assert!(g[(0, 0)] < 0.0 && g[(1, 0)] > 0.0);
    }

    #[test]
    fn scale_add_scalar_chain() {
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 4.0));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.scale(wv, 3.0);
        let z = tape.add_scalar(y, 1.0);
        let loss = tape.sum_all(z);
        tape.backward(loss);
        assert_eq!(scalar(&tape, loss), 13.0);
        assert_eq!(tape.grad(wv).unwrap()[(0, 0)], 3.0);
    }

    #[test]
    fn grad_accumulates_over_shared_subexpression() {
        let mut params = Params::new();
        let w = params.insert(Matrix::filled(1, 1, 2.0));
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let y = tape.add(wv, wv); // y = 2w
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(wv).unwrap()[(0, 0)], 2.0);
    }

    // ------------------------------------------------------------------
    // Bit-for-bit sweep: every rewritten forward and backward rule against
    // the plain per-element formula it replaced. Shapes cover a single
    // row, a single column and a ragged 54-row batch (the last mini-batch
    // of an epoch over 1 462 rows at batch size 64).
    // ------------------------------------------------------------------

    const SWEEP_SHAPES: [(usize, usize); 3] = [(1, 9), (6, 1), (54, 17)];

    /// Seeded operand in [-1, 1) with about 5% exact zeros (the ReLU kink
    /// and the scalar GEMM's zero skip both see them).
    fn operand(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::from_fn(rows, cols, |_, _| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            if rng.gen_bool(0.05) {
                0.0
            } else {
                v
            }
        })
    }

    /// Equal bit patterns, except that `-0.0` matches `+0.0` — the one
    /// difference the kernel contract licenses.
    fn assert_bits_eq(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (&x, &y)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                x.to_bits() == y.to_bits() || (x == 0.0 && y == 0.0),
                "{what}: element {i} is {x:e}, formula gives {y:e}"
            );
        }
    }

    /// Every kernel arm this host can run.
    fn backends() -> Vec<fia_linalg::Backend> {
        let mut b = vec![fia_linalg::Backend::Scalar];
        if fia_linalg::avx2_available() {
            b.push(fia_linalg::Backend::Avx2);
        }
        b
    }

    /// Runs `op` on a trainable `x` and backpropagates the upstream
    /// gradient `up` into it (`loss = Σ op(x) ⊙ up`). Returns the forward
    /// value and `x`'s gradient.
    fn unary_pass(
        x: &Matrix,
        up: &Matrix,
        op: impl Fn(&mut Tape, VarId) -> VarId,
    ) -> (Matrix, Matrix) {
        let mut params = Params::new();
        let xid = params.insert(x.clone());
        let mut tape = Tape::new();
        let xv = tape.param(&params, xid);
        let y = op(&mut tape, xv);
        let u = tape.input(up.clone());
        let weighted = tape.hadamard(y, u);
        let loss = tape.sum_all(weighted);
        tape.backward(loss);
        (tape.value(y).clone(), tape.grad(xv).unwrap().clone())
    }

    #[test]
    fn activation_rules_match_plain_formulas_bitwise() {
        let alpha = 0.01;
        for (s, &(m, n)) in SWEEP_SHAPES.iter().enumerate() {
            let x = operand(m, n, 10 + s as u64);
            let up = operand(m, n, 20 + s as u64);
            let pick = |f: &dyn Fn(f64, f64) -> f64, a: &Matrix| {
                Matrix::from_fn(m, n, |i, j| f(a[(i, j)], up[(i, j)]))
            };

            let (y, dx) = unary_pass(&x, &up, |t, v| t.relu(v));
            assert_bits_eq(&y, &x.map(|v| v.max(0.0)), "relu forward");
            let want = pick(&|x, g| if x > 0.0 { g } else { 0.0 }, &x);
            assert_bits_eq(&dx, &want, "relu backward");

            let (y, dx) = unary_pass(&x, &up, |t, v| t.leaky_relu(v, alpha));
            assert_bits_eq(
                &y,
                &x.map(|v| if v > 0.0 { v } else { alpha * v }),
                "leaky forward",
            );
            let want = pick(&|x, g| if x > 0.0 { g } else { alpha * g }, &x);
            assert_bits_eq(&dx, &want, "leaky backward");

            let (y, dx) = unary_pass(&x, &up, |t, v| t.sigmoid(v));
            assert_bits_eq(&y, &x.map(fia_linalg::vecops::sigmoid), "sigmoid forward");
            assert_bits_eq(
                &dx,
                &pick(&|s, g| g * s * (1.0 - s), &y),
                "sigmoid backward",
            );

            let (y, dx) = unary_pass(&x, &up, |t, v| t.tanh(v));
            assert_bits_eq(&y, &x.map(f64::tanh), "tanh forward");
            assert_bits_eq(&dx, &pick(&|t, g| g * (1.0 - t * t), &y), "tanh backward");
        }
    }

    #[test]
    fn layer_norm_matches_plain_formulas_bitwise() {
        let eps = 1e-5;
        for (s, &(m, n)) in SWEEP_SHAPES.iter().enumerate() {
            let x = operand(m, n, 30 + s as u64);
            let gamma = operand(1, n, 40 + s as u64);
            let beta = operand(1, n, 50 + s as u64);
            let up = operand(m, n, 60 + s as u64);

            let mut params = Params::new();
            let ids = [x.clone(), gamma.clone(), beta.clone()].map(|p| params.insert(p));
            let mut tape = Tape::new();
            let [xv, gv, bv] = ids.map(|id| tape.param(&params, id));
            let y = tape.layer_norm(xv, gv, bv, eps);
            let u = tape.input(up.clone());
            let weighted = tape.hadamard(y, u);
            let loss = tape.sum_all(weighted);
            tape.backward(loss);

            let mut xhat = Matrix::zeros(m, n);
            let mut inv_std = vec![0.0; m];
            let mut out = Matrix::zeros(m, n);
            for i in 0..m {
                let row = x.row(i);
                let mu = fia_linalg::vecops::mean(row);
                let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / n as f64;
                inv_std[i] = 1.0 / (var + eps).sqrt();
                for j in 0..n {
                    xhat[(i, j)] = (row[j] - mu) * inv_std[i];
                    out[(i, j)] = gamma[(0, j)] * xhat[(i, j)] + beta[(0, j)];
                }
            }
            let (mut dg, mut db, mut dx) = (
                Matrix::zeros(1, n),
                Matrix::zeros(1, n),
                Matrix::zeros(m, n),
            );
            for i in 0..m {
                for j in 0..n {
                    dg[(0, j)] += up[(i, j)] * xhat[(i, j)];
                    db[(0, j)] += up[(i, j)];
                }
                let (mut sum_dxhat, mut sum_dxhat_xhat) = (0.0, 0.0);
                for j in 0..n {
                    let dxh = up[(i, j)] * gamma[(0, j)];
                    sum_dxhat += dxh;
                    sum_dxhat_xhat += dxh * xhat[(i, j)];
                }
                let (mean_dxhat, mean_dxhat_xhat) =
                    (sum_dxhat / n as f64, sum_dxhat_xhat / n as f64);
                for j in 0..n {
                    let dxh = up[(i, j)] * gamma[(0, j)];
                    dx[(i, j)] = (dxh - mean_dxhat - xhat[(i, j)] * mean_dxhat_xhat) * inv_std[i];
                }
            }
            assert_bits_eq(tape.value(y), &out, "layer_norm forward");
            assert_bits_eq(tape.grad(xv).unwrap(), &dx, "layer_norm dx");
            assert_bits_eq(tape.grad(gv).unwrap(), &dg, "layer_norm dgamma");
            assert_bits_eq(tape.grad(bv).unwrap(), &db, "layer_norm dbeta");
        }
    }

    #[test]
    fn linear_layer_rules_match_plain_formulas_bitwise() {
        // y = x·W + b: the bias broadcast and both MatMul gradient
        // products (g·Wᵀ and xᵀ·g, formed inside the kernel), on every
        // kernel arm.
        for backend in backends() {
            for (s, &(m, n)) in SWEEP_SHAPES.iter().enumerate() {
                let k = 5 + s;
                let x = operand(m, k, 70 + s as u64);
                let w = operand(k, n, 80 + s as u64);
                let b = operand(1, n, 90 + s as u64);
                let up = operand(m, n, 100 + s as u64);
                fia_linalg::with_backend(backend, || {
                    let mut params = Params::new();
                    let ids = [x.clone(), w.clone(), b.clone()].map(|p| params.insert(p));
                    let mut tape = Tape::new();
                    let [xv, wv, bv] = ids.map(|id| tape.param(&params, id));
                    let xw = tape.matmul(xv, wv);
                    let y = tape.add_row_broadcast(xw, bv);
                    let u = tape.input(up.clone());
                    let weighted = tape.hadamard(y, u);
                    let loss = tape.sum_all(weighted);
                    tape.backward(loss);

                    let xw_want = tape.value(xw).clone();
                    let y_want = Matrix::from_fn(m, n, |i, j| xw_want[(i, j)] + b[(0, j)]);
                    assert_bits_eq(tape.value(y), &y_want, "bias broadcast forward");
                    let db =
                        Matrix::from_fn(1, n, |_, j| (0..m).fold(0.0, |acc, i| acc + up[(i, j)]));
                    assert_bits_eq(tape.grad(bv).unwrap(), &db, "bias gradient");
                    let dx = Matrix::from_fn(m, k, |i, p| {
                        (0..n).fold(0.0, |acc, l| acc + up[(i, l)] * w[(p, l)])
                    });
                    assert_bits_eq(tape.grad(xv).unwrap(), &dx, "matmul g·Wᵀ");
                    let dw = Matrix::from_fn(k, n, |p, q| {
                        (0..m).fold(0.0, |acc, i| acc + x[(i, p)] * up[(i, q)])
                    });
                    assert_bits_eq(tape.grad(wv).unwrap(), &dw, "matmul xᵀ·g");
                });
            }
        }
    }

    #[test]
    fn gather_cols_copies_forward_and_accumulates_backward() {
        let mut params = Params::new();
        let x =
            params.insert(Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap());
        let mut tape = Tape::new();
        let xv = tape.param(&params, x);
        let y = tape.gather_cols(xv, &[2, 0, 2]);
        assert_eq!(tape.value(y).as_slice(), &[3.0, 1.0, 3.0, 6.0, 4.0, 6.0]);
        let up = tape
            .input(Matrix::from_rows(&[vec![1.0, 10.0, 100.0], vec![2.0, 20.0, 200.0]]).unwrap());
        let weighted = tape.hadamard(y, up);
        let loss = tape.sum_all(weighted);
        tape.backward(loss);
        // Column 1 is never gathered; column 2 collects both of its uses.
        assert_eq!(
            tape.grad(xv).unwrap().as_slice(),
            &[10.0, 0.0, 101.0, 20.0, 0.0, 202.0]
        );
    }

    #[test]
    fn tanh_and_leaky_relu_grads() {
        let mut params = Params::new();
        let w = params.insert(Matrix::from_rows(&[vec![0.5, -0.5]]).unwrap());
        let mut tape = Tape::new();
        let wv = tape.param(&params, w);
        let t = tape.tanh(wv);
        let l = tape.leaky_relu(t, 0.1);
        let loss = tape.sum_all(l);
        tape.backward(loss);
        let g = tape.grad(wv).unwrap();
        let th = 0.5f64.tanh();
        // Positive branch: d/dw tanh(w) = 1 − tanh².
        assert!((g[(0, 0)] - (1.0 - th * th)).abs() < 1e-12);
        // Negative branch picks up the 0.1 slope.
        assert!((g[(0, 1)] - 0.1 * (1.0 - th * th)).abs() < 1e-12);
    }

    // ------------------------------------------------------------------
    // Kept buffers: a reset tape must give the bits of a fresh one.
    // ------------------------------------------------------------------

    /// Every recorded value and gradient, in node order, as bit patterns.
    fn snapshot(tape: &Tape) -> Vec<(Vec<u64>, Option<Vec<u64>>)> {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect();
        (0..tape.len())
            .map(|i| {
                let v = VarId(i);
                (bits(tape.value(v)), tape.grad(v).map(bits))
            })
            .collect()
    }

    /// A GRNA-shaped step over mini-batch `rows`, touching every op:
    /// generator layers with LayerNorm and dropout, the gathered model
    /// input, both losses and the penalties.
    fn record_step(
        tape: &mut Tape,
        params: &Params,
        ids: [ParamId; 7],
        frozen: &Matrix,
        data: &Matrix,
        rows: &[usize],
        rng: &mut StdRng,
    ) -> VarId {
        let m = rows.len();
        let x = tape.input_rows(data, rows);
        let r = tape.input_with(m, 3, |v| {
            v.iter_mut().for_each(|e| *e = rng.gen_range(-1.0..1.0))
        });
        let gen_in = tape.concat_cols(x, r);
        let [w1, b1, g1, be1, w2, b2, wm] = ids.map(|id| tape.param(params, id));
        let h = tape.linear(gen_in, w1, b1);
        let h = tape.layer_norm(h, g1, be1, 1e-5);
        let h = tape.relu(h);
        let h = tape.dropout(h, 0.25, rng);
        let xhat = tape.linear(h, w2, b2);
        let cat = tape.concat_cols(x, xhat);
        let full = tape.gather_cols(cat, &[7, 0, 5, 1, 2, 6, 3, 4]);
        let frozen = tape.input_copy(frozen);
        let z = tape.matmul(full, frozen);
        let z = tape.matmul(z, wm);
        let probs = tape.softmax_rows(z);
        let target = tape.input_rows(data, rows);
        let target = tape.slice_cols(target, 0, 4);
        let target = tape.sigmoid(target);
        let fit = tape.mse_loss(probs, target);
        let ce = tape.cross_entropy_logits(z, target);
        let pen = tape.variance_penalty(xhat, 0.05);
        let over = tape.add_scalar(xhat, -1.0);
        let over = tape.leaky_relu(over, 0.1);
        let under = tape.scale(xhat, -1.0);
        let under = tape.tanh(under);
        let range = tape.sub(over, under);
        let range = tape.hadamard(range, range);
        let range = tape.mean_all(range);
        let pos = tape.add_scalar(probs, 1.0);
        let logs = tape.log(pos);
        let logs = tape.sum_all(logs);
        let loss = tape.add(fit, ce);
        let loss = tape.add(loss, pen);
        let loss = tape.add(loss, range);
        tape.add(loss, logs)
    }

    #[test]
    fn reset_tape_matches_a_fresh_tape_bitwise() {
        // A full batch, the 54-row last batch of an epoch, then a full
        // batch again: the kept buffers shrink and grow, and every value
        // and gradient must still be the bits a fresh tape computes.
        let data = operand(200, 5, 1);
        let mut params = Params::new();
        let ids = [
            operand(8, 16, 2),
            operand(1, 16, 3),
            operand(1, 16, 4),
            operand(1, 16, 5),
            operand(16, 3, 6),
            operand(1, 3, 7),
            operand(4, 4, 8),
        ]
        .map(|p| params.insert(p));
        // The frozen model weights enter as a copied constant.
        let frozen = params.insert(operand(8, 4, 9));
        let batches: [Vec<usize>; 3] = [
            (0..64).map(|i| (i * 7) % 200).collect(),
            (0..54).map(|i| (i * 3 + 1) % 200).collect(),
            (100..164).collect(),
        ];
        for backend in backends() {
            fia_linalg::with_backend(backend, || {
                let mut kept = Tape::new();
                for (s, rows) in batches.iter().enumerate() {
                    kept.reset();
                    let mut rng = StdRng::seed_from_u64(s as u64);
                    let loss = record_step(
                        &mut kept,
                        &params,
                        ids,
                        params.get(frozen),
                        &data,
                        rows,
                        &mut rng,
                    );
                    kept.backward(loss);

                    let mut fresh = Tape::new();
                    let mut rng = StdRng::seed_from_u64(s as u64);
                    let loss = record_step(
                        &mut fresh,
                        &params,
                        ids,
                        params.get(frozen),
                        &data,
                        rows,
                        &mut rng,
                    );
                    fresh.backward(loss);

                    assert_eq!(kept.len(), fresh.len());
                    assert!(
                        snapshot(&kept) == snapshot(&fresh),
                        "{backend:?} step {s}: a kept buffer changed a value or gradient"
                    );
                    let grads = |t: &Tape| {
                        t.param_grads()
                            .iter()
                            .map(|(id, g)| {
                                (
                                    id,
                                    g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                                )
                            })
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(grads(&kept), grads(&fresh), "{backend:?} step {s}");
                    assert_eq!(kept.param_grads().len(), 7);
                }
            });
        }
    }

    #[test]
    fn linear_matches_matmul_then_bias_broadcast_bitwise() {
        // GRNA's generator shapes (a full and a short batch, the
        // pack-free and the narrow GEMM paths) and two tiny ones.
        let shapes = [
            (64, 12, 96),
            (54, 96, 48),
            (64, 24, 4),
            (6, 5, 1),
            (1, 9, 3),
        ];
        for backend in backends() {
            for (s, &(m, k, n)) in shapes.iter().enumerate() {
                let seed = 200 + 10 * s as u64;
                let (x, w, b) = (
                    operand(m, k, seed),
                    operand(k, n, seed + 1),
                    operand(1, n, seed + 2),
                );
                let up = operand(m, n, seed + 3);
                let run = |fused: bool| {
                    let mut params = Params::new();
                    let ids = [x.clone(), w.clone(), b.clone()].map(|p| params.insert(p));
                    let mut tape = Tape::new();
                    let [xv, wv, bv] = ids.map(|id| tape.param(&params, id));
                    let y = if fused {
                        tape.linear(xv, wv, bv)
                    } else {
                        let xw = tape.matmul(xv, wv);
                        tape.add_row_broadcast(xw, bv)
                    };
                    let u = tape.input(up.clone());
                    let weighted = tape.hadamard(y, u);
                    let loss = tape.sum_all(weighted);
                    tape.backward(loss);
                    [y, xv, wv, bv].map(|v| {
                        let m = if v == y {
                            tape.value(v)
                        } else {
                            tape.grad(v).unwrap()
                        };
                        m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                    })
                };
                let (fused, pair) = fia_linalg::with_backend(backend, || (run(true), run(false)));
                for (what, (f, p)) in ["forward", "dx", "dw", "db"]
                    .iter()
                    .zip(fused.iter().zip(&pair))
                {
                    assert!(f == p, "{backend:?} {:?}: linear {what} differs", (m, k, n));
                }
            }
        }
    }
}
