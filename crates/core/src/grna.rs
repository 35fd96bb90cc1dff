//! Generative Regression Network Attack (GRNA) — Section V, Algorithm 2.
//!
//! The adversary accumulates `n` prediction records `(x_adv, v)` and
//! trains a generator `fG(x_adv ∪ r; θG) → x̂_target` so that the frozen
//! vertical FL model's output on the assembled sample `x` — the columns
//! of `[x_adv | x̂_target]` gathered into the model's feature order —
//! matches the observed confidence vector. The loss (Eqn 9) is
//!
//! ```text
//! ℓ(f(x_adv, fG(x_adv, r)), v)  +  Ω(fG)
//! ```
//!
//! with `Ω` a hinge penalty on the batch variance of the generated
//! values ("we penalize the generator model when the variance of
//! {x̂_target} is too large"). The random vector `r` (one entry per
//! unknown feature) regularizes the generator and diversifies gradient
//! directions across epochs (Section V-A).
//!
//! Models enter through [`fia_models::DifferentiableModel`]; random
//! forests are attacked through a distilled MLP surrogate
//! ([`fia_models::distill_forest`], Section V-B).
//!
//! The [`GrnaConfig`] ablation switches reproduce Table III:
//! disable the `x_adv` input (case 1), the noise input (case 2), the
//! variance constraint (case 3), or the generator itself (case 4 — a
//! per-sample free-variable "naive regression" solved through the model).

use crate::engine::{row_seed, Attack, AttackResult, QueryBatch};
use fia_linalg::Matrix;
use fia_models::DifferentiableModel;
use fia_tensor::{
    fill_normal, normal_matrix, standard_normal, xavier_uniform, Adam, Optimizer, ParamId, Params,
    Tape, VarId,
};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

/// Configuration for the GRN attack.
#[derive(Debug, Clone)]
pub struct GrnaConfig {
    /// Generator hidden-layer widths. Paper: `[600, 200, 100]`.
    pub hidden: Vec<usize>,
    /// Apply LayerNorm after each hidden layer (paper: yes).
    pub layer_norm: bool,
    /// Training epochs over the accumulated predictions.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Variance-penalty threshold τ (penalize `Var > τ` per generated
    /// feature). Features live in `(0, 1)`; a generated column more
    /// dispersed than `U(0, 1)` (variance 1/12) is "meaningless" in the
    /// paper's sense, so τ defaults to 1/12. The bound needs only the
    /// value range the threat model already grants the adversary.
    pub variance_threshold: f64,
    /// Weight λ of the variance penalty in the loss.
    pub variance_lambda: f64,
    /// Weight of the range hinge penalty on values outside `(0, 1)` —
    /// the second half of the "prevent meaningless samples" constraint.
    pub range_lambda: f64,
    /// Clamp inferred values into `[0, 1]` (the adversary knows feature
    /// ranges — Section III-B).
    pub clamp_output: bool,
    /// RNG seed.
    pub seed: u64,
    /// Ablation case 1: feed `x_adv` into the generator.
    pub use_adv_input: bool,
    /// Ablation case 2: feed the random vector into the generator.
    pub use_noise_input: bool,
    /// Ablation case 3: apply the variance constraint.
    pub use_variance_constraint: bool,
    /// Ablation case 4: use a generator at all. When `false`, each
    /// sample's unknowns become free variables optimized directly through
    /// the frozen model (the paper's "naive regression model").
    pub use_generator: bool,
}

impl GrnaConfig {
    /// The paper's generator: hidden layers 600/200/100 with LayerNorm.
    pub fn paper() -> Self {
        GrnaConfig {
            hidden: vec![600, 200, 100],
            layer_norm: true,
            epochs: 60,
            batch_size: 64,
            lr: 1e-3,
            variance_threshold: 1.0 / 12.0,
            variance_lambda: 2.0,
            range_lambda: 2.0,
            clamp_output: true,
            seed: 0,
            use_adv_input: true,
            use_noise_input: true,
            use_variance_constraint: true,
            use_generator: true,
        }
    }

    /// Scaled-down profile for fast experiment runs (same architecture
    /// shape, an order of magnitude smaller).
    pub fn fast() -> Self {
        GrnaConfig {
            hidden: vec![96, 48, 24],
            epochs: 40,
            ..GrnaConfig::paper()
        }
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Width of the generator input under the ablation switches.
    fn input_width(&self, d_adv: usize, d_target: usize) -> usize {
        let mut w = 0;
        if self.use_adv_input {
            w += d_adv;
        }
        if self.use_noise_input {
            w += d_target;
        }
        w.max(1)
    }
}

/// The GRN attack bound to a frozen vertical FL model and a feature
/// split.
pub struct Grna<'a, M: DifferentiableModel> {
    model: &'a M,
    adv_indices: Vec<usize>,
    target_indices: Vec<usize>,
    config: GrnaConfig,
    /// For each global feature, its column in the concatenation
    /// `[x_adv | x̂_target]`: gathering these columns assembles the
    /// model's input in its own feature order.
    gather: Vec<usize>,
}

impl<'a, M: DifferentiableModel> Grna<'a, M> {
    /// Prepares the attack.
    ///
    /// # Panics
    /// Panics unless `adv_indices ∪ target_indices` partitions the
    /// model's feature space.
    pub fn new(
        model: &'a M,
        adv_indices: &[usize],
        target_indices: &[usize],
        config: GrnaConfig,
    ) -> Self {
        let d = model.n_features();
        let mut seen = vec![false; d];
        for &f in adv_indices.iter().chain(target_indices.iter()) {
            assert!(f < d && !seen[f], "indices must partition 0..{d}");
            seen[f] = true;
        }
        assert!(seen.iter().all(|&s| s), "indices must cover 0..{d}");
        assert!(!target_indices.is_empty(), "target side must own features");

        // Column k of the concatenated layout holds global feature f:
        // x_global[:, f] = [x_adv | x_target][:, gather[f]].
        let mut gather = vec![0; d];
        for (k, &f) in adv_indices.iter().chain(target_indices).enumerate() {
            gather[f] = k;
        }

        Grna {
            model,
            adv_indices: adv_indices.to_vec(),
            target_indices: target_indices.to_vec(),
            config,
            gather,
        }
    }

    /// Algorithm 2: trains the generator on the accumulated predictions.
    ///
    /// `x_adv` is `n × d_adv` (columns ordered per `adv_indices`);
    /// `confidences` is `n × c`. Returns the trained generator, ready to
    /// infer the same samples it was trained on — "the samples to be
    /// attacked are exactly the samples for training the generator".
    pub fn train(&self, x_adv: &Matrix, confidences: &Matrix) -> TrainedGenerator {
        assert_eq!(x_adv.rows(), confidences.rows(), "row count mismatch");
        assert_eq!(x_adv.cols(), self.adv_indices.len(), "x_adv width mismatch");
        assert_eq!(
            confidences.cols(),
            self.model.n_classes(),
            "confidence width mismatch"
        );
        crate::telemetry::phase("grna", "train", x_adv.rows(), || {
            if self.config.use_generator {
                self.train_generator(x_adv, confidences)
            } else {
                self.solve_free_variables(x_adv, confidences)
            }
        })
    }

    fn train_generator(&self, x_adv: &Matrix, confidences: &Matrix) -> TrainedGenerator {
        let cfg = &self.config;
        let d_adv = self.adv_indices.len();
        let d_target = self.target_indices.len();
        let d_in = cfg.input_width(d_adv, d_target);

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Warm start: initialize the output bias at the mean of the
        // adversary's *own* feature values. All features share the same
        // (0, 1) normalization, so the adversary's marginal is the best
        // prior-free guess for where generated values should start —
        // important when the data concentrates far from 0.5 (e.g. the
        // credit-card stand-in) and the frozen model is flat elsewhere.
        let adv_slice = x_adv.as_slice();
        let warm_bias = if adv_slice.is_empty() {
            0.5
        } else {
            adv_slice.iter().sum::<f64>() / adv_slice.len() as f64
        };
        let mut gen = GeneratorNet::new(
            d_in,
            &cfg.hidden,
            d_target,
            cfg.layer_norm,
            warm_bias,
            &mut rng,
        );
        let mut opt = Adam::new(cfg.lr);

        let n = x_adv.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut tape = Tape::new();

        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                tape.reset();
                let xadv_var = tape.input_rows(x_adv, chunk);
                let gen_in = self.generator_input(&mut tape, xadv_var, chunk.len(), &mut rng);
                let xhat = gen.forward(&mut tape, gen_in, true);
                let cat = tape.concat_cols(xadv_var, xhat);
                let full = tape.gather_cols(cat, &self.gather);
                let vhat = self.model.forward_frozen(&mut tape, full);
                let target_v = tape.input_rows(confidences, chunk);
                let mut loss = tape.mse_loss(vhat, target_v);
                if cfg.use_variance_constraint {
                    let pen = tape.variance_penalty(xhat, cfg.variance_threshold);
                    let pen = tape.scale(pen, cfg.variance_lambda);
                    loss = tape.add(loss, pen);
                    // Range hinge: generated values outside the known
                    // (0, 1) feature range are penalized per element.
                    let over = tape.add_scalar(xhat, -1.0);
                    let over = tape.relu(over);
                    let over = tape.mean_all(over);
                    let neg = tape.scale(xhat, -1.0);
                    let under = tape.relu(neg);
                    let under = tape.mean_all(under);
                    let range = tape.add(over, under);
                    let range = tape.scale(range, cfg.range_lambda);
                    loss = tape.add(loss, range);
                }
                tape.backward(loss);
                opt.step(&mut gen.params, tape.param_grads());
            }
        }

        TrainedGenerator {
            kind: GeneratorKind::Network(gen),
            adv_indices: self.adv_indices.clone(),
            target_indices: self.target_indices.clone(),
            use_adv_input: cfg.use_adv_input,
            use_noise_input: cfg.use_noise_input,
            clamp_output: cfg.clamp_output,
            infer_seed: cfg.seed,
        }
    }

    /// Ablation case 4 (no generator): optimizes one free variable vector
    /// per sample directly against the frozen model — "a naive regression
    /// model which infers x_target based solely on the federated model f
    /// and the model output v". Without the generator's cross-sample
    /// coupling through `x_adv`, the estimates tend to diverge, which is
    /// exactly the pathology Table III case 4 documents.
    fn solve_free_variables(&self, x_adv: &Matrix, confidences: &Matrix) -> TrainedGenerator {
        let cfg = &self.config;
        let n = x_adv.rows();
        let d_target = self.target_indices.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = Params::new();
        // The "naive" model is deliberately prior-free: standard-normal
        // initialization, no range knowledge — matching the paper's
        // observation that "without constraints of x_adv, the inferred
        // values … tend to diverge" (Table III case 4 scores *worse* than
        // random guess).
        let free = params.insert(normal_matrix(n, d_target, 0.0, 1.0, &mut rng));
        let mut opt = Adam::new(cfg.lr * 10.0); // free variables need a hotter rate
        let mut tape = Tape::new();

        for _ in 0..cfg.epochs {
            tape.reset();
            let xhat = tape.param(&params, free);
            let xadv_var = tape.input_copy(x_adv);
            let cat = tape.concat_cols(xadv_var, xhat);
            let full = tape.gather_cols(cat, &self.gather);
            let vhat = self.model.forward_frozen(&mut tape, full);
            let target_v = tape.input_copy(confidences);
            let loss = tape.mse_loss(vhat, target_v);
            tape.backward(loss);
            opt.step(&mut params, tape.param_grads());
        }

        TrainedGenerator {
            kind: GeneratorKind::FreeVariables(params.get(free).clone()),
            adv_indices: self.adv_indices.clone(),
            target_indices: self.target_indices.clone(),
            use_adv_input: cfg.use_adv_input,
            use_noise_input: cfg.use_noise_input,
            clamp_output: cfg.clamp_output,
            infer_seed: cfg.seed,
        }
    }

    /// The generator's input for one mini-batch: the batch's `x_adv`
    /// rows (already on the tape), fresh noise, both, or a constant
    /// column, per the ablation switches.
    fn generator_input(&self, tape: &mut Tape, xb: VarId, batch: usize, rng: &mut StdRng) -> VarId {
        let cfg = &self.config;
        let d_target = self.target_indices.len();
        let mut noise =
            |tape: &mut Tape| tape.input_with(batch, d_target, |r| fill_normal(r, 0.0, 1.0, rng));
        match (cfg.use_adv_input, cfg.use_noise_input) {
            (true, true) => {
                let r = noise(tape);
                tape.concat_cols(xb, r)
            }
            (true, false) => xb,
            (false, true) => noise(tape),
            (false, false) => tape.input_with(batch, 1, |c| c.fill(1.0)),
        }
    }
}

/// Internal generator network: an MLP with linear output and optional
/// LayerNorm after each hidden activation.
/// One generator layer: `(weight, bias, optional (gamma, beta))`.
type GenLayer = (ParamId, ParamId, Option<(ParamId, ParamId)>);

struct GeneratorNet {
    params: Params,
    layers: Vec<GenLayer>,
    d_in: usize,
}

impl GeneratorNet {
    fn new(
        d_in: usize,
        hidden: &[usize],
        d_out: usize,
        layer_norm: bool,
        output_bias: f64,
        rng: &mut StdRng,
    ) -> Self {
        let mut params = Params::new();
        let mut layers = Vec::new();
        let mut width = d_in;
        for &h in hidden {
            let w = params.insert(xavier_uniform(width, h, rng));
            let b = params.insert(Matrix::zeros(1, h));
            let ln = layer_norm.then(|| {
                let gamma = params.insert(Matrix::filled(1, h, 1.0));
                let beta = params.insert(Matrix::zeros(1, h));
                (gamma, beta)
            });
            layers.push((w, b, ln));
            width = h;
        }
        let w = params.insert(xavier_uniform(width, d_out, rng));
        let b = params.insert(Matrix::filled(1, d_out, output_bias));
        layers.push((w, b, None));
        GeneratorNet {
            params,
            layers,
            d_in,
        }
    }

    /// Builds the generator forward pass; `trainable` binds parameters for
    /// gradient collection, otherwise they enter as constants.
    fn forward(&self, tape: &mut Tape, x: VarId, trainable: bool) -> VarId {
        let bind = |tape: &mut Tape, id| {
            if trainable {
                tape.param(&self.params, id)
            } else {
                tape.input_copy(self.params.get(id))
            }
        };
        let mut h = x;
        let last = self.layers.len() - 1;
        for (li, &(w, b, ln)) in self.layers.iter().enumerate() {
            let wv = bind(tape, w);
            let bv = bind(tape, b);
            h = tape.linear(h, wv, bv);
            if li < last {
                // Pre-activation LayerNorm (linear → LN → ReLU): the
                // stabilisation the paper cites, in the placement that
                // keeps the ReLU's active half well-scaled.
                if let Some((gamma, beta)) = ln {
                    let g = bind(tape, gamma);
                    let be = bind(tape, beta);
                    h = tape.layer_norm(h, g, be, 1e-5);
                }
                h = tape.relu(h);
            }
        }
        h
    }
}

enum GeneratorKind {
    Network(GeneratorNet),
    /// Ablation case 4: the optimized per-sample estimates themselves.
    FreeVariables(Matrix),
}

/// The trained attack artifact: maps adversary features (plus fresh
/// noise) to inferred target features.
pub struct TrainedGenerator {
    kind: GeneratorKind,
    adv_indices: Vec<usize>,
    target_indices: Vec<usize>,
    use_adv_input: bool,
    use_noise_input: bool,
    clamp_output: bool,
    /// Base seed of the batched [`Attack::infer_batch`] path's noise
    /// draws (keyed per row content for chunk-invariance).
    infer_seed: u64,
}

impl TrainedGenerator {
    /// Infers target feature values for each row of `x_adv` (ordered per
    /// the attack's `adv_indices`). `seed` drives the fresh random
    /// vectors `r`.
    ///
    /// For the free-variable ablation the stored estimates are returned
    /// (they are per-sample by construction); `x_adv` must then have the
    /// same row count as the training data.
    pub fn infer(&self, x_adv: &Matrix, seed: u64) -> Matrix {
        let noise = self.needs_noise().then(|| {
            let mut rng = StdRng::seed_from_u64(seed);
            normal_matrix(x_adv.rows(), self.target_indices.len(), 0.0, 1.0, &mut rng)
        });
        self.infer_with_noise(x_adv, noise.as_ref())
    }

    /// Runs the generator's batched forward pass with caller-supplied
    /// noise (`n × d_target`, ignored when the noise pathway is disabled
    /// or for the free-variable ablation). This is the deterministic core
    /// both [`TrainedGenerator::infer`] (sequentially drawn noise) and the
    /// engine's chunk-invariant [`Attack::infer_batch`] (content-keyed
    /// noise) share.
    pub fn infer_with_noise(&self, x_adv: &Matrix, noise: Option<&Matrix>) -> Matrix {
        assert_eq!(x_adv.cols(), self.adv_indices.len(), "x_adv width mismatch");
        let n = x_adv.rows();
        let out = match &self.kind {
            GeneratorKind::FreeVariables(est) => {
                assert_eq!(
                    est.rows(),
                    n,
                    "free-variable ablation infers only its training samples"
                );
                est.clone()
            }
            GeneratorKind::Network(gen) => {
                let mut tape = Tape::new();
                let noise = |tape: &mut Tape| {
                    let r = noise.expect("noise pathway enabled");
                    assert_eq!(r.rows(), n, "noise row mismatch");
                    tape.input_copy(r)
                };
                let input = match (self.use_adv_input, self.use_noise_input) {
                    (true, true) => {
                        let x = tape.input_copy(x_adv);
                        let r = noise(&mut tape);
                        tape.concat_cols(x, r)
                    }
                    (true, false) => tape.input_copy(x_adv),
                    (false, true) => noise(&mut tape),
                    (false, false) => tape.input_with(n, 1, |c| c.fill(1.0)),
                };
                debug_assert_eq!(tape.value(input).cols(), gen.d_in);
                let xhat = gen.forward(&mut tape, input, false);
                tape.value(xhat).clone()
            }
        };
        if self.clamp_output {
            out.map(|v| v.clamp(0.0, 1.0))
        } else {
            out
        }
    }

    fn needs_noise(&self) -> bool {
        self.use_noise_input && matches!(self.kind, GeneratorKind::Network(_))
    }

    /// Overrides the base seed used by the batched [`Attack`] path.
    pub fn with_infer_seed(mut self, seed: u64) -> Self {
        self.infer_seed = seed;
        self
    }

    /// Ensemble inference: averages `k` independent draws of the random
    /// vector `r`. The generator's output is a stochastic function of
    /// `r`; averaging estimates its conditional mean given `x_adv`, which
    /// lowers the MSE of the point estimate (a variance-reduction
    /// extension beyond the paper's single-draw inference).
    ///
    /// For the free-variable ablation (no noise pathway) this equals
    /// [`TrainedGenerator::infer`].
    pub fn infer_ensemble(&self, x_adv: &Matrix, k: usize, seed: u64) -> Matrix {
        assert!(k >= 1, "ensemble size must be at least 1");
        let mut acc = self.infer(x_adv, seed);
        for draw in 1..k {
            let next = self.infer(x_adv, seed.wrapping_add(draw as u64 * 0x9E3779B9));
            acc = acc.add(&next).expect("same shape");
        }
        acc.scale(1.0 / k as f64)
    }

    /// The target feature indices reconstructed by [`TrainedGenerator::infer`].
    pub fn target_indices(&self) -> &[usize] {
        &self.target_indices
    }

    /// Snapshot of every trained parameter matrix in insertion order (the
    /// per-sample estimate matrix for the free-variable ablation).
    /// Primarily for reproducibility checks: two trainings from the same
    /// `GrnaConfig` seed must produce identical snapshots.
    pub fn parameter_snapshot(&self) -> Vec<Matrix> {
        match &self.kind {
            GeneratorKind::Network(gen) => gen.params.iter().map(|(_, m)| m.clone()).collect(),
            GeneratorKind::FreeVariables(est) => vec![est.clone()],
        }
    }
}

impl Attack for TrainedGenerator {
    fn name(&self) -> &'static str {
        "grna"
    }

    fn target_indices(&self) -> &[usize] {
        &self.target_indices
    }

    /// `false` for the free-variable ablation: its "estimates" are bound
    /// 1:1 to the training batch, so the engine must not re-stripe it.
    fn chunkable(&self) -> bool {
        !matches!(self.kind, GeneratorKind::FreeVariables(_))
    }

    /// Batched generator inference over the accumulated stream: one tape
    /// forward pass for the whole batch. The random vector `r` of each
    /// row is keyed on the row's content ([`row_seed`]), so estimates are
    /// independent of batch order and engine striping.
    fn infer_batch(&self, batch: &QueryBatch) -> AttackResult {
        let n = batch.len();
        let d_target = self.target_indices.len();
        crate::telemetry::phase("grna", "solve", n, || {
            let noise = self.needs_noise().then(|| {
                let mut m = Matrix::zeros(n, d_target);
                for i in 0..n {
                    let mut rng = StdRng::seed_from_u64(row_seed(
                        self.infer_seed,
                        batch.x_adv.row(i),
                        batch.confidences.row(i),
                    ));
                    for v in m.row_mut(i).iter_mut() {
                        *v = standard_normal(&mut rng);
                    }
                }
                m
            });
            let estimates = self.infer_with_noise(&batch.x_adv, noise.as_ref());
            AttackResult {
                estimates,
                target_indices: self.target_indices.clone(),
                attack: Attack::name(self),
                degraded_rows: Vec::new(),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::random_guess_uniform;
    use crate::metrics::mse_per_feature;
    use fia_data::{make_classification, normalize_dataset, SynthConfig};
    use fia_models::{LogisticRegression, LrConfig, PredictProba};

    /// Strongly correlated dataset: target features are nearly linear
    /// functions of adversary features.
    fn correlated_dataset(seed: u64) -> fia_data::Dataset {
        let cfg = SynthConfig {
            n_samples: 500,
            n_features: 8,
            n_informative: 5,
            n_redundant: 3,
            n_classes: 3,
            class_sep: 2.0,
            redundant_noise: 0.05,
            flip_y: 0.0,
            shuffle_features: false,
            seed,
        };
        normalize_dataset(&make_classification(&cfg)).0
    }

    fn small_grna() -> GrnaConfig {
        GrnaConfig {
            hidden: vec![48, 24],
            layer_norm: true,
            epochs: 40,
            batch_size: 32,
            lr: 2e-3,
            variance_threshold: 1.0 / 12.0,
            range_lambda: 2.0,
            variance_lambda: 1.0,
            clamp_output: true,
            seed: 7,
            use_adv_input: true,
            use_noise_input: true,
            use_variance_constraint: true,
            use_generator: true,
        }
    }

    /// Shared fixture: trains LR on the correlated data and GRNA against
    /// the redundant (target) block. Returns the generator, `x_adv` and
    /// the target block's ground truth.
    fn train_on_fixture(config: GrnaConfig) -> (TrainedGenerator, Matrix, Matrix) {
        let ds = correlated_dataset(3);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 20,
                ..Default::default()
            },
        );
        // Informative features 0..5 to the adversary, redundant 5..8 to
        // the target — the correlation GRNA needs is by construction.
        let adv: Vec<usize> = (0..5).collect();
        let target: Vec<usize> = (5..8).collect();
        let x_adv = ds.features.select_columns(&adv).unwrap();
        let truth = ds.features.select_columns(&target).unwrap();
        let conf = model.predict_proba(&ds.features);
        let generator = Grna::new(&model, &adv, &target, config).train(&x_adv, &conf);
        (generator, x_adv, truth)
    }

    /// Runs [`train_on_fixture`] and scores one inference draw against
    /// the truth and against uniform random guessing.
    fn run_grna(config: GrnaConfig) -> (f64, f64) {
        let (generator, x_adv, truth) = train_on_fixture(config);
        let est = generator.infer(&x_adv, 99);
        let mse = mse_per_feature(&est, &truth);
        let rg = random_guess_uniform(truth.rows(), truth.cols(), 1);
        let rg_mse = mse_per_feature(&rg, &truth);
        (mse, rg_mse)
    }

    #[test]
    fn grna_beats_random_guess_on_lr() {
        let (mse, rg_mse) = run_grna(small_grna());
        assert!(
            mse < 0.75 * rg_mse,
            "GRNA mse {mse} not clearly better than random {rg_mse}"
        );
    }

    #[test]
    fn ablation_without_adv_input_degrades() {
        let full = run_grna(small_grna()).0;
        let no_adv = run_grna(GrnaConfig {
            use_adv_input: false,
            ..small_grna()
        })
        .0;
        assert!(
            no_adv > full,
            "removing x_adv should hurt: full {full} vs no-adv {no_adv}"
        );
    }

    #[test]
    fn ablation_free_variables_runs() {
        // Case 4 — just verify the path executes and produces finite,
        // clamped estimates (its accuracy is expected to be poor).
        let (mse, _) = run_grna(GrnaConfig {
            use_generator: false,
            epochs: 30,
            ..small_grna()
        });
        assert!(mse.is_finite());
    }

    #[test]
    fn generator_output_is_clamped() {
        let ds = correlated_dataset(5);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let adv: Vec<usize> = (0..5).collect();
        let target: Vec<usize> = (5..8).collect();
        let x_adv = ds.features.select_columns(&adv).unwrap();
        let conf = model.predict_proba(&ds.features);
        let attack = Grna::new(
            &model,
            &adv,
            &target,
            GrnaConfig {
                epochs: 2,
                ..small_grna()
            },
        );
        let generator = attack.train(&x_adv, &conf);
        let est = generator.infer(&x_adv, 1);
        assert!(est.as_slice().iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert_eq!(est.cols(), 3);
        assert_eq!(generator.target_indices(), &[5, 6, 7]);
    }

    #[test]
    fn scatter_matrix_reassembles_interleaved_indices() {
        // Use a split with interleaved indices and verify the column
        // gather feeds the model consistently: train briefly and check
        // inferred width + determinism.
        let ds = correlated_dataset(8);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 3,
                ..Default::default()
            },
        );
        let adv = vec![0, 2, 4, 6];
        let target = vec![1, 3, 5, 7];
        let x_adv = ds.features.select_columns(&adv).unwrap();
        let conf = model.predict_proba(&ds.features);
        let attack = Grna::new(
            &model,
            &adv,
            &target,
            GrnaConfig {
                epochs: 2,
                ..small_grna()
            },
        );
        let g = attack.train(&x_adv, &conf);
        let a = g.infer(&x_adv, 5);
        let b = g.infer(&x_adv, 5);
        assert_eq!(a, b, "same seed → same inference");
        assert_eq!(a.cols(), 4);
    }

    #[test]
    fn ensemble_inference_not_worse_than_single_draw() {
        let ds = correlated_dataset(12);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 15,
                ..Default::default()
            },
        );
        let adv: Vec<usize> = (0..5).collect();
        let target: Vec<usize> = (5..8).collect();
        let x_adv = ds.features.select_columns(&adv).unwrap();
        let truth = ds.features.select_columns(&target).unwrap();
        let conf = model.predict_proba(&ds.features);
        let attack = Grna::new(&model, &adv, &target, small_grna());
        let g = attack.train(&x_adv, &conf);
        let single = mse_per_feature(&g.infer(&x_adv, 5), &truth);
        let ensemble = mse_per_feature(&g.infer_ensemble(&x_adv, 8, 5), &truth);
        // Averaging over r-draws estimates the conditional mean — it must
        // not be meaningfully worse, and is usually better.
        assert!(
            ensemble <= single * 1.05,
            "ensemble {ensemble} vs single {single}"
        );
    }

    #[test]
    fn same_config_seed_gives_identical_generator_weights() {
        // Determinism satellite: two full trainings from the same
        // GrnaConfig seed must agree on every generator weight matrix
        // after k = epochs steps, and on the resulting inferences.
        let ds = correlated_dataset(4);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let adv: Vec<usize> = (0..5).collect();
        let target: Vec<usize> = (5..8).collect();
        let x_adv = ds.features.select_columns(&adv).unwrap();
        let conf = model.predict_proba(&ds.features);

        let cfg = GrnaConfig {
            epochs: 5,
            ..small_grna()
        };
        let g1 = Grna::new(&model, &adv, &target, cfg.clone()).train(&x_adv, &conf);
        let g2 = Grna::new(&model, &adv, &target, cfg.clone()).train(&x_adv, &conf);
        let (s1, s2) = (g1.parameter_snapshot(), g2.parameter_snapshot());
        assert_eq!(s1.len(), s2.len());
        for (a, b) in s1.iter().zip(s2.iter()) {
            assert_eq!(a, b, "weights diverged under identical seed");
        }
        assert_eq!(g1.infer(&x_adv, 3), g2.infer(&x_adv, 3));

        // A different seed must *not* reproduce the weights (guards
        // against the seed being ignored).
        let g3 = Grna::new(&model, &adv, &target, cfg.with_seed(1234)).train(&x_adv, &conf);
        assert_ne!(s1[0], g3.parameter_snapshot()[0]);
    }

    #[test]
    fn forced_scalar_training_matches_dispatched_backend_bitwise() {
        // The f64 kernels preserve the scalar arm's accumulation order,
        // so an entire GRNA training run — every tape matmul, gradient
        // product and axpy accumulation — must not depend on which
        // backend executed it. Train once on the dispatched backend and
        // once pinned to scalar, and require *bit-identical* weights.
        let ds = correlated_dataset(4);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let adv: Vec<usize> = (0..5).collect();
        let target: Vec<usize> = (5..8).collect();
        let x_adv = ds.features.select_columns(&adv).unwrap();
        let conf = model.predict_proba(&ds.features);
        let cfg = GrnaConfig {
            epochs: 3,
            ..small_grna()
        };
        let train = || Grna::new(&model, &adv, &target, cfg.clone()).train(&x_adv, &conf);

        let dispatched = train();
        let scalar = fia_linalg::with_backend(fia_linalg::Backend::Scalar, train);
        let (sd, ss) = (dispatched.parameter_snapshot(), scalar.parameter_snapshot());
        assert_eq!(sd.len(), ss.len());
        for (a, b) in sd.iter().zip(ss.iter()) {
            assert_eq!(a, b, "weights diverged across kernel backends");
        }
        assert_eq!(dispatched.infer(&x_adv, 3), scalar.infer(&x_adv, 3));
    }

    /// FNV-1a over every element's bit pattern, shapes included. `-0.0`
    /// hashes as `+0.0`: the kernel contract licenses the sign of an
    /// exact zero to differ, and nothing else.
    fn fnv64_bits(mats: &[Matrix]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for m in mats {
            eat(m.rows() as u64);
            eat(m.cols() as u64);
            for &v in m.as_slice() {
                eat(if v == 0.0 { 0 } else { v.to_bits() });
            }
        }
        h
    }

    // The two golden fingerprints below pin f64 training bit for bit
    // against a reference run of the tape, optimizer and kernels. Unlike
    // the determinism tests above, which compare two runs of the same
    // build, they catch a rewrite that shifts every run the same way.
    // They must hold on every kernel backend.

    #[test]
    fn generator_weights_match_golden_fingerprint() {
        let (generator, _, _) = train_on_fixture(small_grna());
        assert_eq!(
            fnv64_bits(&generator.parameter_snapshot()),
            0x1b0f_a006_8348_e48f,
            "GRNA generator weights moved"
        );
    }

    #[test]
    fn free_variable_estimates_match_golden_fingerprint() {
        let (generator, _, _) = train_on_fixture(GrnaConfig {
            use_generator: false,
            epochs: 30,
            ..small_grna()
        });
        assert_eq!(
            fnv64_bits(&generator.parameter_snapshot()),
            0xcf5f_3f38_f07e_9392,
            "free-variable ablation estimates moved"
        );
    }

    #[test]
    fn batched_attack_path_is_chunk_invariant() {
        use crate::engine::AttackEngine;
        let ds = correlated_dataset(6);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let adv: Vec<usize> = (0..5).collect();
        let target: Vec<usize> = (5..8).collect();
        let x_adv = ds.features.select_columns(&adv).unwrap();
        let conf = model.predict_proba(&ds.features);
        let cfg = GrnaConfig {
            epochs: 3,
            ..small_grna()
        };
        let generator = Grna::new(&model, &adv, &target, cfg).train(&x_adv, &conf);

        let batch = QueryBatch::new(x_adv, conf);
        let direct = generator.infer_batch(&batch);
        for workers in [2, 4] {
            let striped = AttackEngine::with_workers(workers)
                .with_min_stripe(32)
                .run(&generator, &batch);
            assert_eq!(striped.estimates, direct.estimates, "workers = {workers}");
        }
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn overlapping_indices_rejected() {
        let ds = correlated_dataset(9);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 1,
                ..Default::default()
            },
        );
        let _ = Grna::new(&model, &[0, 1, 2], &[2, 3, 4, 5, 6, 7], small_grna());
    }
}
