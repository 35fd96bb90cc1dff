//! Feed-forward neural network (MLP) with the paper's topology.
//!
//! The vertical FL NN model in Section VI-A: an input layer of width `d`,
//! three hidden layers (600, 300, 100) and a softmax output of width `c`.
//! Dropout between hidden layers implements the Section VII
//! countermeasure; LayerNorm after each hidden layer is used by the GRN
//! generator (Section VI-C).

use crate::traits::{DifferentiableModel, PredictProba};
use fia_data::{one_hot, Dataset};
use fia_linalg::Matrix;
use fia_tensor::{he_normal, Adam, Optimizer, Params, Tape, VarId};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};

/// Hidden-layer activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)` — default for classifier stacks.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
}

/// Architecture + training configuration for [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Hidden layer widths, e.g. the paper's `[600, 300, 100]`.
    pub hidden: Vec<usize>,
    /// Hidden activation.
    pub activation: Activation,
    /// Apply LayerNorm after each hidden activation.
    pub layer_norm: bool,
    /// Dropout probability between hidden layers (`None` disables; this is
    /// the Fig. 11e-f defense knob).
    pub dropout: Option<f64>,
    /// Number of training epochs.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// RNG seed (init, shuffling, dropout masks).
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's vertical-FL NN: hidden layers 600/300/100, ReLU.
    pub fn paper_vfl() -> Self {
        MlpConfig {
            hidden: vec![600, 300, 100],
            activation: Activation::Relu,
            layer_norm: false,
            dropout: None,
            epochs: 30,
            batch_size: 64,
            lr: 1e-3,
            seed: 0,
        }
    }

    /// A scaled-down profile for fast experiment runs; same shape of
    /// architecture (three hidden layers), an order of magnitude smaller.
    pub fn fast() -> Self {
        MlpConfig {
            hidden: vec![64, 32, 16],
            activation: Activation::Relu,
            layer_norm: false,
            dropout: None,
            epochs: 20,
            batch_size: 64,
            lr: 2e-3,
            seed: 0,
        }
    }

    /// Enables the dropout defense with probability `p`.
    pub fn with_dropout(mut self, p: f64) -> Self {
        self.dropout = Some(p);
        self
    }

    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Per-layer parameter handles.
#[derive(Debug, Clone)]
struct LayerIds {
    w: fia_tensor::ParamId,
    b: fia_tensor::ParamId,
    /// LayerNorm gain/bias when enabled (hidden layers only).
    ln: Option<(fia_tensor::ParamId, fia_tensor::ParamId)>,
}

/// A trained multilayer perceptron classifier.
#[derive(Debug, Clone)]
pub struct Mlp {
    params: Params,
    layers: Vec<LayerIds>,
    activation: Activation,
    n_features: usize,
    n_classes: usize,
    dropout: Option<f64>,
}

impl Mlp {
    /// Initializes an untrained network with He-normal weights.
    pub fn new(n_features: usize, n_classes: usize, config: &MlpConfig) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut params = Params::new();
        let mut layers = Vec::new();
        let mut width = n_features;
        for &h in &config.hidden {
            let w = params.insert(he_normal(width, h, &mut rng));
            let b = params.insert(Matrix::zeros(1, h));
            let ln = config.layer_norm.then(|| {
                let gamma = params.insert(Matrix::filled(1, h, 1.0));
                let beta = params.insert(Matrix::zeros(1, h));
                (gamma, beta)
            });
            layers.push(LayerIds { w, b, ln });
            width = h;
        }
        let w = params.insert(he_normal(width, n_classes, &mut rng));
        let b = params.insert(Matrix::zeros(1, n_classes));
        layers.push(LayerIds { w, b, ln: None });
        Mlp {
            params,
            layers,
            activation: config.activation,
            n_features,
            n_classes,
            dropout: config.dropout,
        }
    }

    /// Trains a fresh network on `train` and returns it.
    pub fn fit(train: &Dataset, config: &MlpConfig) -> Self {
        let mut model = Mlp::new(train.n_features(), train.n_classes, config);
        model.train_epochs(train, config);
        model
    }

    /// Runs `config.epochs` of mini-batch Adam on an existing network.
    pub fn train_epochs(&mut self, train: &Dataset, config: &MlpConfig) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5eed));
        let mut opt = Adam::new(config.lr);
        let n = train.n_samples();
        let mut order: Vec<usize> = (0..n).collect();
        let targets = one_hot(&train.labels, self.n_classes);
        let mut tape = Tape::new();

        for _ in 0..config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(config.batch_size.max(1)) {
                tape.reset();
                let x = tape.input_rows(&train.features, chunk);
                let logits = self.logits_on_tape(&mut tape, x, true, &mut rng);
                let tv = tape.input_rows(&targets, chunk);
                let loss = tape.cross_entropy_logits(logits, tv);
                tape.backward(loss);
                opt.step(&mut self.params, tape.param_grads());
            }
        }
    }

    /// Trains against *soft targets* (probability rows) with MSE — used by
    /// random-forest distillation where labels are confidence vectors.
    pub fn train_soft_targets(
        &mut self,
        inputs: &Matrix,
        soft_targets: &Matrix,
        epochs: usize,
        batch_size: usize,
        lr: f64,
        seed: u64,
    ) {
        assert_eq!(inputs.rows(), soft_targets.rows(), "row count mismatch");
        assert_eq!(soft_targets.cols(), self.n_classes, "target width mismatch");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut opt = Adam::new(lr);
        let mut order: Vec<usize> = (0..inputs.rows()).collect();
        let mut tape = Tape::new();
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(batch_size.max(1)) {
                tape.reset();
                let x = tape.input_rows(inputs, chunk);
                let logits = self.logits_on_tape(&mut tape, x, true, &mut rng);
                let probs = tape.softmax_rows(logits);
                let tv = tape.input_rows(soft_targets, chunk);
                let loss = tape.mse_loss(probs, tv);
                tape.backward(loss);
                opt.step(&mut self.params, tape.param_grads());
            }
        }
    }

    /// Builds the logits sub-graph. `training = true` binds trainable
    /// parameters and applies dropout; `training = false` (or
    /// [`Mlp::frozen_logits`]) copies the weights in as constants.
    fn logits_on_tape(&self, tape: &mut Tape, x: VarId, training: bool, rng: &mut StdRng) -> VarId {
        let bind = |tape: &mut Tape, id| {
            if training {
                tape.param(&self.params, id)
            } else {
                tape.input_copy(self.params.get(id))
            }
        };
        let mut h = x;
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let w = bind(tape, layer.w);
            let b = bind(tape, layer.b);
            h = tape.linear(h, w, b);
            if li < last {
                h = match self.activation {
                    Activation::Relu => tape.relu(h),
                    Activation::Tanh => tape.tanh(h),
                    Activation::Sigmoid => tape.sigmoid(h),
                };
                if let Some((gamma, beta)) = layer.ln {
                    let g = bind(tape, gamma);
                    let be = bind(tape, beta);
                    h = tape.layer_norm(h, g, be, 1e-5);
                }
                if training {
                    if let Some(p) = self.dropout {
                        h = tape.dropout(h, p, rng);
                    }
                }
            }
        }
        h
    }

    /// Frozen logits for attack graphs (no dropout, constant weights).
    pub fn frozen_logits(&self, tape: &mut Tape, x: VarId) -> VarId {
        // RNG is unused on the frozen path (no dropout); any seed works.
        let mut rng = StdRng::seed_from_u64(0);
        self.logits_on_tape(tape, x, false, &mut rng)
    }

    /// Borrow of the underlying parameter store.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.params.scalar_count()
    }

    /// Serializes architecture + weights (see [`crate::bytesio`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        use crate::bytesio::{put_header, put_matrix, put_usize};
        use fia_linalg::bytes::ByteWriter;
        let mut out = Vec::new();
        put_header(&mut out, *b"FINN", 1);
        put_usize(&mut out, self.n_features);
        put_usize(&mut out, self.n_classes);
        out.push(match self.activation {
            Activation::Relu => 0,
            Activation::Tanh => 1,
            Activation::Sigmoid => 2,
        });
        match self.dropout {
            Some(p) => {
                out.push(1);
                out.put_f64(p);
            }
            None => out.push(0),
        }
        put_usize(&mut out, self.layers.len());
        for layer in &self.layers {
            put_matrix(&mut out, self.params.get(layer.w));
            put_matrix(&mut out, self.params.get(layer.b));
            match layer.ln {
                Some((gamma, beta)) => {
                    out.push(1);
                    put_matrix(&mut out, self.params.get(gamma));
                    put_matrix(&mut out, self.params.get(beta));
                }
                None => out.push(0),
            }
        }
        out
    }

    /// Deserializes a network written by [`Mlp::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, crate::bytesio::DecodeError> {
        use crate::bytesio::{
            close, get_bool, get_count, get_matrix, get_usize, open, DecodeError,
        };
        let mut r = open(bytes, *b"FINN", 1)?;
        let n_features = get_usize(&mut r)?;
        let n_classes = get_usize(&mut r)?;
        let activation = match r.u8()? {
            0 => Activation::Relu,
            1 => Activation::Tanh,
            2 => Activation::Sigmoid,
            other => return Err(DecodeError::Corrupt(format!("bad activation {other}"))),
        };
        let dropout = if get_bool(&mut r)? {
            Some(r.f64()?)
        } else {
            None
        };
        // Each layer takes at least two matrix headers and its LayerNorm
        // flag.
        let n_layers = get_count(&mut r, 2 * 16 + 1)?;
        if n_layers == 0 {
            return Err(DecodeError::Corrupt("network with no layers".into()));
        }
        let mut params = Params::new();
        let mut layers = Vec::with_capacity(n_layers);
        let mut expect_in = n_features;
        for li in 0..n_layers {
            let wm = get_matrix(&mut r)?;
            let bm = get_matrix(&mut r)?;
            if wm.rows() != expect_in || bm.shape() != (1, wm.cols()) {
                return Err(DecodeError::Corrupt(format!(
                    "layer {li} shape mismatch: {}x{} after width {expect_in}",
                    wm.rows(),
                    wm.cols()
                )));
            }
            expect_in = wm.cols();
            let w = params.insert(wm);
            let b = params.insert(bm);
            let ln = if get_bool(&mut r)? {
                let gm = get_matrix(&mut r)?;
                let bm2 = get_matrix(&mut r)?;
                if gm.shape() != (1, expect_in) || bm2.shape() != (1, expect_in) {
                    return Err(DecodeError::Corrupt(format!(
                        "layer {li} LayerNorm shape mismatch"
                    )));
                }
                Some((params.insert(gm), params.insert(bm2)))
            } else {
                None
            };
            layers.push(LayerIds { w, b, ln });
        }
        if expect_in != n_classes {
            return Err(DecodeError::Corrupt(format!(
                "output width {expect_in} but {n_classes} classes"
            )));
        }
        close(&r)?;
        Ok(Mlp {
            params,
            layers,
            activation,
            n_features,
            n_classes,
            dropout,
        })
    }
}

impl PredictProba for Mlp {
    fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut tape = Tape::new();
        let xv = tape.input_copy(x);
        let logits = self.frozen_logits(&mut tape, xv);
        let probs = tape.softmax_rows(logits);
        tape.value(probs).clone()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }
}

impl DifferentiableModel for Mlp {
    fn forward_frozen(&self, tape: &mut Tape, x: VarId) -> VarId {
        let logits = self.frozen_logits(tape, x);
        tape.softmax_rows(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::accuracy;
    use fia_data::{make_classification, normalize_dataset, SynthConfig};

    fn toy_dataset(c: usize, seed: u64) -> Dataset {
        let cfg = SynthConfig {
            n_samples: 500,
            n_features: 10,
            n_informative: 7,
            n_redundant: 2,
            n_classes: c,
            class_sep: 2.0,
            redundant_noise: 0.2,
            flip_y: 0.0,
            shuffle_features: false,
            seed,
        };
        normalize_dataset(&make_classification(&cfg)).0
    }

    fn small_config() -> MlpConfig {
        MlpConfig {
            hidden: vec![32, 16],
            activation: Activation::Relu,
            layer_norm: false,
            dropout: None,
            epochs: 30,
            batch_size: 32,
            lr: 3e-3,
            seed: 5,
        }
    }

    #[test]
    fn training_beats_chance_binary() {
        let ds = toy_dataset(2, 1);
        let model = Mlp::fit(&ds, &small_config());
        let acc = accuracy(&model, &ds.features, &ds.labels);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn training_beats_chance_multiclass() {
        let ds = toy_dataset(5, 2);
        let model = Mlp::fit(&ds, &small_config());
        let acc = accuracy(&model, &ds.features, &ds.labels);
        assert!(acc > 0.75, "accuracy {acc}");
    }

    #[test]
    fn proba_rows_sum_to_one() {
        let ds = toy_dataset(3, 3);
        let model = Mlp::fit(
            &ds,
            &MlpConfig {
                epochs: 2,
                ..small_config()
            },
        );
        let p = model.predict_proba(&ds.features);
        for i in 0..p.rows() {
            let s: f64 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn dropout_training_still_learns() {
        let ds = toy_dataset(2, 4);
        let cfg = small_config().with_dropout(0.3);
        let model = Mlp::fit(&ds, &cfg);
        let acc = accuracy(&model, &ds.features, &ds.labels);
        assert!(acc > 0.8, "accuracy with dropout {acc}");
    }

    #[test]
    fn layer_norm_training_works() {
        let ds = toy_dataset(3, 6);
        let mut cfg = small_config();
        cfg.layer_norm = true;
        let model = Mlp::fit(&ds, &cfg);
        let acc = accuracy(&model, &ds.features, &ds.labels);
        assert!(acc > 0.7, "accuracy with layer norm {acc}");
    }

    #[test]
    fn frozen_forward_matches_predict_proba() {
        let ds = toy_dataset(4, 7);
        let model = Mlp::fit(
            &ds,
            &MlpConfig {
                epochs: 3,
                ..small_config()
            },
        );
        let x = ds.features.select_rows(&[0, 5, 9]).unwrap();
        let direct = model.predict_proba(&x);
        let mut tape = Tape::new();
        let xv = tape.input(x);
        let out = model.forward_frozen(&mut tape, xv);
        assert!(tape.value(out).max_abs_diff(&direct).unwrap() < 1e-12);
    }

    #[test]
    fn frozen_forward_collects_no_param_grads() {
        let ds = toy_dataset(2, 8);
        let model = Mlp::fit(
            &ds,
            &MlpConfig {
                epochs: 1,
                ..small_config()
            },
        );
        let mut tape = Tape::new();
        let x = tape.input(ds.features.select_rows(&[0, 1]).unwrap());
        let out = model.forward_frozen(&mut tape, x);
        let loss = tape.mean_all(out);
        tape.backward(loss);
        assert!(tape.param_grads().is_empty());
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let model = Mlp::new(10, 3, &small_config());
        // (10·32 + 32) + (32·16 + 16) + (16·3 + 3) = 352 + 544 + 51… compute:
        let expected = 10 * 32 + 32 + 32 * 16 + 16 + 16 * 3 + 3;
        assert_eq!(model.parameter_count(), expected);
    }

    #[test]
    fn persistence_roundtrip_preserves_predictions() {
        let ds = toy_dataset(3, 9);
        let mut cfg = small_config();
        cfg.layer_norm = true;
        let model = Mlp::fit(&ds, &MlpConfig { epochs: 3, ..cfg });
        let restored = Mlp::from_bytes(&model.to_bytes()).unwrap();
        let a = model.predict_proba(&ds.features);
        let b = restored.predict_proba(&ds.features);
        assert!(a.max_abs_diff(&b).unwrap() < 1e-15);
        assert_eq!(restored.parameter_count(), model.parameter_count());
    }

    #[test]
    fn persistence_rejects_truncation() {
        let ds = toy_dataset(2, 10);
        let model = Mlp::fit(
            &ds,
            &MlpConfig {
                epochs: 1,
                ..small_config()
            },
        );
        let mut bytes = model.to_bytes();
        bytes.truncate(bytes.len() / 3);
        assert!(Mlp::from_bytes(&bytes).is_err());
    }

    #[test]
    fn soft_target_training_converges() {
        // Teach the net to reproduce a fixed soft distribution keyed on
        // the first input feature.
        let inputs = Matrix::from_fn(64, 4, |i, j| {
            if j == 0 {
                (i % 2) as f64
            } else {
                ((i * 7 + j * 3) % 10) as f64 / 10.0
            }
        });
        let targets = Matrix::from_fn(64, 2, |i, j| {
            let p = if i % 2 == 0 { 0.8 } else { 0.2 };
            if j == 0 {
                p
            } else {
                1.0 - p
            }
        });
        let mut model = Mlp::new(4, 2, &small_config());
        model.train_soft_targets(&inputs, &targets, 60, 16, 3e-3, 1);
        let out = model.predict_proba(&inputs);
        let mse: f64 = out
            .as_slice()
            .iter()
            .zip(targets.as_slice().iter())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f64>()
            / out.as_slice().len() as f64;
        assert!(mse < 0.02, "soft-target mse {mse}");
    }
}
