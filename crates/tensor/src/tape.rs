//! The autograd tape: forward construction and reverse-mode backward.

use crate::params::{ParamId, Params};
use fia_linalg::{Matrix, Precision};
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
/// Variants that need saved state for their backward pass (dropout masks,
/// LayerNorm statistics) carry it inline so backward never recomputes
/// stochastic or expensive quantities.
enum Op {
    /// Constant leaf (no gradient collected, but gradients still flow
    /// through ops that consume it).
    Input,
    /// Trainable leaf bound from a [`Params`] store.
    Param(ParamId),
    MatMul(VarId, VarId),
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
    /// Row-wise softmax; backward uses the saved output value.
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
    CrossEntropyLogits {
        logits: VarId,
        target: VarId,
        softmax: Matrix,
    },
    LayerNorm {
        x: VarId,
        gamma: VarId,
        beta: VarId,
        /// Saved normalized activations x̂.
        xhat: Matrix,
        /// Saved per-row 1/σ.
        inv_std: Vec<f64>,
    },
    /// Inverted dropout; `mask` already contains 0 or 1/(1−p).
    Dropout {
        x: VarId,
        mask: Matrix,
    },
    ConcatCols(VarId, VarId),
    /// `out[:, j] = x[:, cols[j]]`; repeated source columns are allowed.
    GatherCols {
        x: VarId,
        cols: Vec<usize>,
    },
}

struct Node {
    value: Matrix,
    grad: Option<Matrix>,
    op: Op,
    /// `true` when this node is a parameter or (transitively) consumes one;
    /// backward skips gradient propagation into subgraphs that cannot
    /// reach a parameter *unless* the caller asked for input gradients.
    needs_grad: bool,
}

/// A dynamic computation graph. See the crate docs for the usage pattern.
pub struct Tape {
    nodes: Vec<Node>,
    /// When `true`, [`Tape::input`] leaves also receive gradients. The GRN
    /// attack needs this switched on for nothing — inputs it cares about
    /// are generator outputs — but diagnostic tooling (saliency, the
    /// gradient-checker) wants input grads, so it is configurable.
    grad_for_inputs: bool,
    /// Compute precision for the matmul-heavy ops (forward *and* backward
    /// products). Everything else — activations, reductions, LayerNorm,
    /// optimizer state upstream — stays f64 regardless, which is where
    /// the mixed path's "f64 accumulation at reduction boundaries"
    /// contract lives.
    precision: Precision,
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
            grad_for_inputs: false,
            precision: Precision::F64,
        }
    }

    /// Creates a tape that also accumulates gradients for [`Tape::input`]
    /// leaves (used by the gradient checker and saliency tooling).
    pub fn with_input_grads() -> Self {
        Tape {
            nodes: Vec::new(),
            grad_for_inputs: true,
            precision: Precision::F64,
        }
    }

    /// Creates a tape whose matmul ops (forward and backward) run at the
    /// given [`Precision`]. `Precision::F64` is identical to
    /// [`Tape::new`]; `Precision::F32` is the opt-in mixed-precision path
    /// GRNA generator training uses.
    pub fn with_precision(precision: Precision) -> Self {
        Tape {
            nodes: Vec::new(),
            grad_for_inputs: false,
            precision,
        }
    }

    /// The precision this tape's matmuls run at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> VarId {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        VarId(self.nodes.len() - 1)
    }

    fn needs(&self, v: VarId) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the tape holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Value of a node.
    pub fn value(&self, v: VarId) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// Gradient of a node after [`Tape::backward`]; `None` when no
    /// gradient reached it.
    pub fn grad(&self, v: VarId) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// The [`ParamId`] a node was bound from, if it is a parameter leaf.
    pub fn param_id(&self, v: VarId) -> Option<ParamId> {
        match self.nodes[v.0].op {
            Op::Param(id) => Some(id),
            _ => None,
        }
    }

    /// Collects `(ParamId, gradient)` pairs for every parameter leaf that
    /// received a gradient — the exact shape optimizers consume.
    pub fn param_grads(&self) -> Vec<(ParamId, Matrix)> {
        self.nodes
            .iter()
            .filter_map(|n| match (&n.op, &n.grad) {
                (Op::Param(id), Some(g)) => Some((*id, g.clone())),
                _ => None,
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// Records a constant input leaf. Gradients flow *through* consumers
    /// of this value but are not accumulated at the leaf itself (unless
    /// the tape was built with [`Tape::with_input_grads`]).
    pub fn input(&mut self, value: Matrix) -> VarId {
        let ng = self.grad_for_inputs;
        self.push(value, Op::Input, ng)
    }

    /// Binds a trainable parameter from `params` onto the tape (copies the
    /// current value). After backward, collect its gradient with
    /// [`Tape::grad`] and feed it to an optimizer.
    pub fn param(&mut self, params: &Params, id: ParamId) -> VarId {
        self.push(params.get(id).clone(), Op::Param(id), true)
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
        let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
        let v = match self.precision {
            Precision::F64 => av.matmul(bv),
            // Mixed f32 kernel, f64 accumulation at reduction boundaries.
            Precision::F32 => av.matmul_mixed(bv),
        }
        .expect("tape matmul: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::MatMul(a, b), ng)
    }

    /// Element-wise sum of two same-shape values.
    pub fn add(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .add(&self.nodes[b.0].value)
            .expect("tape add: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Add(a, b), ng)
    }

    /// Element-wise difference `a − b`.
    pub fn sub(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .sub(&self.nodes[b.0].value)
            .expect("tape sub: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Sub(a, b), ng)
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .hadamard(&self.nodes[b.0].value)
            .expect("tape hadamard: shape mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::Hadamard(a, b), ng)
    }

    /// Adds a `1 × n` bias row to every row of an `m × n` value.
    pub fn add_row_broadcast(&mut self, a: VarId, bias: VarId) -> VarId {
        let av = &self.nodes[a.0].value;
        let bv = &self.nodes[bias.0].value;
        assert_eq!(bv.rows(), 1, "bias must be a row vector");
        assert_eq!(av.cols(), bv.cols(), "bias width mismatch");
        let mut out = av.clone();
        let brow = bv.row(0);
        for i in 0..out.rows() {
            for (o, b) in out.row_mut(i).iter_mut().zip(brow) {
                *o += b;
            }
        }
        let ng = self.needs(a) || self.needs(bias);
        self.push(out, Op::AddRowBroadcast(a, bias), ng)
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: VarId, c: f64) -> VarId {
        let v = self.nodes[a.0].value.scale(c);
        let ng = self.needs(a);
        self.push(v, Op::Scale(a, c), ng)
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: VarId, c: f64) -> VarId {
        let v = self.nodes[a.0].value.map(|x| x + c);
        let ng = self.needs(a);
        self.push(v, Op::AddScalar(a), ng)
    }

    // ------------------------------------------------------------------
    // Activations
    // ------------------------------------------------------------------

    /// Rectified linear unit `max(0, x)`.
    pub fn relu(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(|x| x.max(0.0));
        let ng = self.needs(a);
        self.push(v, Op::Relu(a), ng)
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: VarId, alpha: f64) -> VarId {
        let v = self.nodes[a.0]
            .value
            .map(|x| if x > 0.0 { x } else { alpha * x });
        let ng = self.needs(a);
        self.push(v, Op::LeakyRelu(a, alpha), ng)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(fia_linalg::vecops::sigmoid);
        let ng = self.needs(a);
        self.push(v, Op::Sigmoid(a), ng)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(f64::tanh);
        let ng = self.needs(a);
        self.push(v, Op::Tanh(a), ng)
    }

    /// Row-wise softmax (numerically stable).
    pub fn softmax_rows(&mut self, a: VarId) -> VarId {
        let av = &self.nodes[a.0].value;
        let mut out = Matrix::zeros(av.rows(), av.cols());
        for i in 0..av.rows() {
            fia_linalg::vecops::softmax_into(av.row(i), out.row_mut(i));
        }
        let ng = self.needs(a);
        self.push(out, Op::SoftmaxRows(a), ng)
    }

    /// Natural logarithm. Values are clamped to `≥ 1e-300` before the log
    /// so a zero confidence score produced by an aggressive rounding
    /// defense degrades gracefully instead of emitting `-inf`.
    pub fn log(&mut self, a: VarId) -> VarId {
        let v = self.nodes[a.0].value.map(|x| x.max(1e-300).ln());
        let ng = self.needs(a);
        self.push(v, Op::Log(a), ng)
    }

    // ------------------------------------------------------------------
    // Reductions & losses
    // ------------------------------------------------------------------

    /// Column means: `[m×n] → [1×n]`.
    pub fn col_mean(&mut self, a: VarId) -> VarId {
        let av = &self.nodes[a.0].value;
        let mut out = col_sums(av);
        for o in out.as_mut_slice() {
            *o /= av.rows() as f64;
        }
        let ng = self.needs(a);
        self.push(out, Op::ColMean(a), ng)
    }

    /// Sum of all elements; `1 × 1` output.
    pub fn sum_all(&mut self, a: VarId) -> VarId {
        let s: f64 = self.nodes[a.0].value.as_slice().iter().sum();
        let ng = self.needs(a);
        self.push(Matrix::filled(1, 1, s), Op::SumAll(a), ng)
    }

    /// Mean of all elements; `1 × 1` output.
    pub fn mean_all(&mut self, a: VarId) -> VarId {
        let slice = self.nodes[a.0].value.as_slice();
        let s: f64 = slice.iter().sum::<f64>() / slice.len() as f64;
        let ng = self.needs(a);
        self.push(Matrix::filled(1, 1, s), Op::MeanAll(a), ng)
    }

    /// Mean-squared-error loss `mean((pred − target)²)`; `1 × 1` output.
    pub fn mse_loss(&mut self, pred: VarId, target: VarId) -> VarId {
        let p = &self.nodes[pred.0].value;
        let t = &self.nodes[target.0].value;
        assert_eq!(p.shape(), t.shape(), "mse_loss: shape mismatch");
        let n = p.as_slice().len() as f64;
        let s: f64 = p
            .as_slice()
            .iter()
            .zip(t.as_slice().iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            / n;
        let ng = self.needs(pred) || self.needs(target);
        self.push(Matrix::filled(1, 1, s), Op::MseLoss(pred, target), ng)
    }

    /// Fused softmax + cross-entropy against a target distribution
    /// (one-hot or soft labels), averaged over rows; `1 × 1` output.
    pub fn cross_entropy_logits(&mut self, logits: VarId, target: VarId) -> VarId {
        let z = &self.nodes[logits.0].value;
        let t = &self.nodes[target.0].value;
        assert_eq!(z.shape(), t.shape(), "cross_entropy_logits: shape mismatch");
        let (m, n) = z.shape();
        let mut soft = Matrix::zeros(m, n);
        let mut loss = 0.0;
        for i in 0..m {
            let s = soft.row_mut(i);
            fia_linalg::vecops::softmax_into(z.row(i), s);
            for (&p, &tv) in s.iter().zip(t.row(i)) {
                loss -= tv * p.max(1e-300).ln();
            }
        }
        loss /= m as f64;
        let ng = self.needs(logits) || self.needs(target);
        self.push(
            Matrix::filled(1, 1, loss),
            Op::CrossEntropyLogits {
                logits,
                target,
                softmax: soft,
            },
            ng,
        )
    }

    // ------------------------------------------------------------------
    // Normalization & regularization
    // ------------------------------------------------------------------

    /// Layer normalization over each row, with learnable `gamma`/`beta`
    /// (`1 × n` each): `y = gamma ⊙ (x − μ_row)/√(σ²_row + eps) + beta`.
    pub fn layer_norm(&mut self, x: VarId, gamma: VarId, beta: VarId, eps: f64) -> VarId {
        let xv = &self.nodes[x.0].value;
        let (m, n) = xv.shape();
        let gv = &self.nodes[gamma.0].value;
        let bv = &self.nodes[beta.0].value;
        assert_eq!(gv.shape(), (1, n), "layer_norm: gamma must be 1×n");
        assert_eq!(bv.shape(), (1, n), "layer_norm: beta must be 1×n");
        let mut xhat = Matrix::zeros(m, n);
        let mut inv_std = vec![0.0; m];
        let mut out = Matrix::zeros(m, n);
        for (i, istd_i) in inv_std.iter_mut().enumerate() {
            let row = xv.row(i);
            let mu = fia_linalg::vecops::mean(row);
            let var = row.iter().map(|&v| (v - mu) * (v - mu)).sum::<f64>() / n as f64;
            let istd = 1.0 / (var + eps).sqrt();
            *istd_i = istd;
            let hrow = xhat.row_mut(i);
            for (h, &x) in hrow.iter_mut().zip(row) {
                *h = (x - mu) * istd;
            }
            let affine = gv.row(0).iter().zip(bv.row(0));
            for ((o, &h), (&gj, &bj)) in out.row_mut(i).iter_mut().zip(&*hrow).zip(affine) {
                *o = gj * h + bj;
            }
        }
        let ng = self.needs(x) || self.needs(gamma) || self.needs(beta);
        self.push(
            out,
            Op::LayerNorm {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
            },
            ng,
        )
    }

    /// Inverted dropout: zeroes each element with probability `p` and
    /// scales survivors by `1/(1−p)`. Call only during training; at
    /// inference simply skip the op.
    pub fn dropout<R: Rng + ?Sized>(&mut self, x: VarId, p: f64, rng: &mut R) -> VarId {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0, 1)");
        let xv = &self.nodes[x.0].value;
        let keep = 1.0 - p;
        let mask = Matrix::from_fn(xv.rows(), xv.cols(), |_, _| {
            if rng.gen::<f64>() < keep {
                1.0 / keep
            } else {
                0.0
            }
        });
        let out = xv.hadamard(&mask).expect("same shape by construction");
        let ng = self.needs(x);
        self.push(out, Op::Dropout { x, mask }, ng)
    }

    // ------------------------------------------------------------------
    // Shape plumbing
    // ------------------------------------------------------------------

    /// Horizontal concatenation `[a | b]` of two values with equal row
    /// counts. This is how the GRN generator input `x_adv ∪ r` and the
    /// generated sample `x_adv ∪ x̂_target` are assembled.
    pub fn concat_cols(&mut self, a: VarId, b: VarId) -> VarId {
        let v = self.nodes[a.0]
            .value
            .hstack(&self.nodes[b.0].value)
            .expect("concat_cols: row mismatch");
        let ng = self.needs(a) || self.needs(b);
        self.push(v, Op::ConcatCols(a, b), ng)
    }

    /// Column slice `a[:, start..end]`.
    pub fn slice_cols(&mut self, a: VarId, start: usize, end: usize) -> VarId {
        assert!(
            start < end && end <= self.nodes[a.0].value.cols(),
            "slice_cols: bad range"
        );
        self.gather_cols(a, &(start..end).collect::<Vec<_>>())
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
        let v = self.nodes[a.0]
            .value
            .select_columns(cols)
            .expect("gather_cols: column out of range");
        let ng = self.needs(a);
        let cols = cols.to_vec();
        self.push(v, Op::GatherCols { x: a, cols }, ng)
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
            self.nodes[loss.0].value.shape(),
            (1, 1),
            "backward: loss must be scalar"
        );
        self.nodes[loss.0].grad = Some(Matrix::filled(1, 1, 1.0));

        for idx in (0..=loss.0).rev() {
            if !self.nodes[idx].needs_grad {
                continue;
            }
            let Some(g) = self.nodes[idx].grad.take() else {
                continue;
            };
            self.propagate(idx, &g);
            // Restore the gradient so callers can read it afterwards.
            self.nodes[idx].grad = Some(g);
        }
    }

    /// Adds `delta` into the gradient buffer of `target` if that node
    /// participates in differentiation. The first contribution moves the
    /// buffer in; later ones accumulate in place — no per-contribution
    /// allocation.
    fn accumulate(&mut self, target: VarId, delta: Matrix) {
        let node = &mut self.nodes[target.0];
        if !node.needs_grad {
            return;
        }
        match &mut node.grad {
            Some(g) => {
                debug_assert_eq!(g.shape(), delta.shape(), "gradient shape stable");
                // Dispatched axpy with α = 1 — exact (1.0·x rounds to x),
                // so gradient accumulation stays backend-independent.
                fia_linalg::vecops::axpy(1.0, delta.as_slice(), g.as_mut_slice());
            }
            None => node.grad = Some(delta),
        }
    }

    /// Like [`Tape::accumulate`] but borrows the upstream gradient,
    /// cloning only when `target` has no buffer yet. This is the fast path
    /// for pass-through ops (`Add`, `Sub`, `AddScalar`,
    /// `AddRowBroadcast`) whose local Jacobian is the identity: fan-out
    /// nodes accumulate in place instead of cloning the gradient per
    /// branch.
    fn accumulate_ref(&mut self, target: VarId, delta: &Matrix) {
        let node = &mut self.nodes[target.0];
        if !node.needs_grad {
            return;
        }
        match &mut node.grad {
            Some(g) => {
                debug_assert_eq!(g.shape(), delta.shape(), "gradient shape stable");
                fia_linalg::vecops::axpy(1.0, delta.as_slice(), g.as_mut_slice());
            }
            None => node.grad = Some(delta.clone()),
        }
    }

    fn propagate(&mut self, idx: usize, g: &Matrix) {
        // Clone the cheap metadata out of the op to avoid aliasing;
        // heavyweight saved matrices are borrowed immutably first.
        match &self.nodes[idx].op {
            Op::Input | Op::Param(_) => {}
            Op::MatMul(a, b) => {
                let (a, b) = (*a, *b);
                let (av, bv) = (&self.nodes[a.0].value, &self.nodes[b.0].value);
                // dA = g·Bᵀ and dB = Aᵀ·g. At f64 the kernel forms each
                // transposed operand inside its packing; the mixed-precision
                // path transposes first and runs its own kernel.
                let da = self.needs(a).then(|| match self.precision {
                    Precision::F64 => g.matmul_transposed(bv),
                    Precision::F32 => g.matmul_mixed(&bv.transpose()),
                });
                let db = self.needs(b).then(|| match self.precision {
                    Precision::F64 => av.transpose_matmul(g),
                    Precision::F32 => av.transpose().matmul_mixed(g),
                });
                if let Some(da) = da {
                    self.accumulate(a, da.expect("shapes consistent"));
                }
                if let Some(db) = db {
                    self.accumulate(b, db.expect("shapes consistent"));
                }
            }
            Op::Add(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate_ref(a, g);
                self.accumulate_ref(b, g);
            }
            Op::Sub(a, b) => {
                let (a, b) = (*a, *b);
                self.accumulate_ref(a, g);
                if self.needs(b) {
                    self.accumulate(b, g.scale(-1.0));
                }
            }
            Op::Hadamard(a, b) => {
                let (a, b) = (*a, *b);
                if self.needs(a) {
                    let da = g.hadamard(&self.nodes[b.0].value).expect("shape");
                    self.accumulate(a, da);
                }
                if self.needs(b) {
                    let db = g.hadamard(&self.nodes[a.0].value).expect("shape");
                    self.accumulate(b, db);
                }
            }
            Op::AddRowBroadcast(a, bias) => {
                let (a, bias) = (*a, *bias);
                self.accumulate_ref(a, g);
                if self.needs(bias) {
                    self.accumulate(bias, col_sums(g));
                }
            }
            Op::Scale(a, c) => {
                let (a, c) = (*a, *c);
                self.accumulate(a, g.scale(c));
            }
            Op::AddScalar(a) => {
                let a = *a;
                self.accumulate_ref(a, g);
            }
            Op::Relu(a) => {
                let a = *a;
                let x = &self.nodes[a.0].value;
                let da = zip_map(g, x, |g, x| if x > 0.0 { g } else { 0.0 });
                self.accumulate(a, da);
            }
            Op::LeakyRelu(a, alpha) => {
                let (a, alpha) = (*a, *alpha);
                let x = &self.nodes[a.0].value;
                let da = zip_map(g, x, |g, x| if x > 0.0 { g } else { alpha * g });
                self.accumulate(a, da);
            }
            Op::Sigmoid(a) => {
                let a = *a;
                let y = &self.nodes[idx].value;
                let da = zip_map(g, y, |g, s| g * s * (1.0 - s));
                self.accumulate(a, da);
            }
            Op::Tanh(a) => {
                let a = *a;
                let y = &self.nodes[idx].value;
                let da = zip_map(g, y, |g, t| g * (1.0 - t * t));
                self.accumulate(a, da);
            }
            Op::SoftmaxRows(a) => {
                let a = *a;
                let s = &self.nodes[idx].value;
                let mut da = Matrix::zeros(g.rows(), g.cols());
                for i in 0..g.rows() {
                    let dot: f64 = g
                        .row(i)
                        .iter()
                        .zip(s.row(i).iter())
                        .map(|(&gv, &sv)| gv * sv)
                        .sum();
                    for j in 0..g.cols() {
                        da[(i, j)] = s[(i, j)] * (g[(i, j)] - dot);
                    }
                }
                self.accumulate(a, da);
            }
            Op::Log(a) => {
                let a = *a;
                let x = &self.nodes[a.0].value;
                let da = zip_map(g, x, |g, x| g / x.max(1e-300));
                self.accumulate(a, da);
            }
            Op::ColMean(a) => {
                let a = *a;
                let m = self.nodes[a.0].value.rows();
                let scale = 1.0 / m as f64;
                let da = Matrix::from_fn(m, g.cols(), |_, j| g[(0, j)] * scale);
                self.accumulate(a, da);
            }
            Op::SumAll(a) => {
                let a = *a;
                let (m, n) = self.nodes[a.0].value.shape();
                let da = Matrix::filled(m, n, g[(0, 0)]);
                self.accumulate(a, da);
            }
            Op::MeanAll(a) => {
                let a = *a;
                let (m, n) = self.nodes[a.0].value.shape();
                let da = Matrix::filled(m, n, g[(0, 0)] / (m * n) as f64);
                self.accumulate(a, da);
            }
            Op::MseLoss(p, t) => {
                let (p, t) = (*p, *t);
                let n = self.nodes[p.0].value.as_slice().len() as f64;
                let coeff = 2.0 * g[(0, 0)] / n;
                let diff = {
                    let pv = &self.nodes[p.0].value;
                    let tv = &self.nodes[t.0].value;
                    pv.sub(tv).expect("mse shapes equal").scale(coeff)
                };
                let neg = self.needs(t).then(|| diff.scale(-1.0));
                if self.needs(p) {
                    self.accumulate(p, diff);
                }
                if let Some(neg) = neg {
                    self.accumulate(t, neg);
                }
            }
            Op::CrossEntropyLogits {
                logits,
                target,
                softmax,
            } => {
                let (logits, target) = (*logits, *target);
                let tv = &self.nodes[target.0].value;
                let coeff = g[(0, 0)] / softmax.rows() as f64;
                // For soft targets with Σ_j t_ij = s_i,
                // dL/dz_ij = (s_i · softmax_ij − t_ij) / m.
                let dz = self.needs(logits).then(|| {
                    let mut dz = Matrix::zeros(softmax.rows(), softmax.cols());
                    for i in 0..softmax.rows() {
                        let trow = tv.row(i);
                        let tsum: f64 = trow.iter().sum();
                        let pairs = softmax.row(i).iter().zip(trow);
                        for (d, (&s, &t)) in dz.row_mut(i).iter_mut().zip(pairs) {
                            *d = coeff * (tsum * s - t);
                        }
                    }
                    dz
                });
                let dt = self
                    .needs(target)
                    .then(|| softmax.map(|s| -coeff * s.max(1e-300).ln()));
                if let Some(dz) = dz {
                    self.accumulate(logits, dz);
                }
                if let Some(dt) = dt {
                    self.accumulate(target, dt);
                }
            }
            Op::LayerNorm {
                x,
                gamma,
                beta,
                xhat,
                inv_std,
            } => {
                let (x, gamma, beta) = (*x, *gamma, *beta);
                let gv = self.nodes[gamma.0].value.row(0);
                let n = xhat.cols();
                let dg = self.needs(gamma).then(|| {
                    let mut dg = Matrix::zeros(1, n);
                    for i in 0..xhat.rows() {
                        let terms = g.row(i).iter().zip(xhat.row(i));
                        for (d, (&gij, &h)) in dg.as_mut_slice().iter_mut().zip(terms) {
                            *d += gij * h;
                        }
                    }
                    dg
                });
                let db = self.needs(beta).then(|| col_sums(g));
                // Standard LayerNorm backward:
                // dx̂ = g ⊙ γ;
                // dx = (dx̂ − mean(dx̂) − x̂ ⊙ mean(dx̂ ⊙ x̂)) · invσ
                let dx = self.needs(x).then(|| {
                    let mut dx = Matrix::zeros(xhat.rows(), n);
                    for (i, &istd) in inv_std.iter().enumerate() {
                        let (grow, hrow) = (g.row(i), xhat.row(i));
                        let mut sum_dxhat = 0.0;
                        let mut sum_dxhat_xhat = 0.0;
                        for ((&gij, &gj), &h) in grow.iter().zip(gv).zip(hrow) {
                            let dxh = gij * gj;
                            sum_dxhat += dxh;
                            sum_dxhat_xhat += dxh * h;
                        }
                        let mean_dxhat = sum_dxhat / n as f64;
                        let mean_dxhat_xhat = sum_dxhat_xhat / n as f64;
                        let terms = grow.iter().zip(gv).zip(hrow);
                        for (d, ((&gij, &gj), &h)) in dx.row_mut(i).iter_mut().zip(terms) {
                            let dxh = gij * gj;
                            *d = (dxh - mean_dxhat - h * mean_dxhat_xhat) * istd;
                        }
                    }
                    dx
                });
                if let Some(dg) = dg {
                    self.accumulate(gamma, dg);
                }
                if let Some(db) = db {
                    self.accumulate(beta, db);
                }
                if let Some(dx) = dx {
                    self.accumulate(x, dx);
                }
            }
            Op::Dropout { x, mask } => {
                let x = *x;
                let da = g.hadamard(mask).expect("mask shape matches");
                self.accumulate(x, da);
            }
            Op::ConcatCols(a, b) => {
                let (a, b) = (*a, *b);
                let ac = self.nodes[a.0].value.cols();
                if self.needs(a) {
                    let cols: Vec<usize> = (0..ac).collect();
                    let da = g.select_columns(&cols).expect("in range");
                    self.accumulate(a, da);
                }
                if self.needs(b) {
                    let cols: Vec<usize> = (ac..g.cols()).collect();
                    let db = g.select_columns(&cols).expect("in range");
                    self.accumulate(b, db);
                }
            }
            Op::GatherCols { x, cols } => {
                let x = *x;
                let mut dx = Matrix::zeros(g.rows(), self.nodes[x.0].value.cols());
                for i in 0..g.rows() {
                    let dst = dx.row_mut(i);
                    for (&c, &v) in cols.iter().zip(g.row(i)) {
                        dst[c] += v;
                    }
                }
                self.accumulate(x, dx);
            }
        }
    }
}

/// `out[i] = f(g[i], x[i])` over two same-shape matrices: one pass over
/// contiguous slices, which vectorizes when `f` is a branch-free select
/// or arithmetic (the activation backward rules).
fn zip_map(g: &Matrix, x: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
    debug_assert_eq!(g.shape(), x.shape(), "zip_map: shape mismatch");
    let data = g
        .as_slice()
        .iter()
        .zip(x.as_slice())
        .map(|(&g, &x)| f(g, x))
        .collect();
    Matrix::from_vec(g.rows(), g.cols(), data).expect("shape preserved")
}

/// Column sums `[m×n] → [1×n]`, accumulated row by row from zero.
fn col_sums(a: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(1, a.cols());
    for i in 0..a.rows() {
        for (o, &v) in out.as_mut_slice().iter_mut().zip(a.row(i)) {
            *o += v;
        }
    }
    out
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

    #[test]
    fn f32_tape_matches_f64_to_single_precision() {
        use fia_linalg::Precision;
        let mut params = Params::new();
        let w = params.insert(Matrix::from_fn(6, 4, |i, j| {
            ((i * 4 + j) as f64 * 0.137).sin() * 0.5
        }));
        let x_val = Matrix::from_fn(3, 6, |i, j| ((i * 6 + j) as f64 * 0.311).cos());
        let t_val = Matrix::from_fn(3, 4, |i, j| ((i + j) as f64 * 0.21).sin());

        let run = |precision: Precision| {
            let mut tape = Tape::with_precision(precision);
            let x = tape.input(x_val.clone());
            let wv = tape.param(&params, w);
            let y = tape.matmul(x, wv);
            let t = tape.input(t_val.clone());
            let loss = tape.mse_loss(y, t);
            tape.backward(loss);
            (tape.value(loss)[(0, 0)], tape.grad(wv).unwrap().clone())
        };

        let (l64, g64) = run(Precision::F64);
        let (l32, g32) = run(Precision::F32);
        assert!((l64 - l32).abs() < 1e-5, "loss drifted: {l64} vs {l32}");
        assert!(g64.max_abs_diff(&g32).unwrap() < 1e-5);
        assert_eq!(
            Tape::with_precision(Precision::F32).precision(),
            Precision::F32
        );
        assert_eq!(Tape::new().precision(), Precision::F64);
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
}
