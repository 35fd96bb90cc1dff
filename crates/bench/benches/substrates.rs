//! Substrate benches: linear algebra kernels, autograd throughput, model
//! training/prediction, and the design-choice ablations from DESIGN.md §6.

use fia_bench::experiments::ablation;
use fia_bench::harness::Harness;
use fia_bench::profiles::ExperimentConfig;
use fia_linalg::{pinv, svd, Matrix};
use fia_models::{DecisionTree, LogisticRegression, LrConfig, PredictProba, TreeConfig};
use fia_tensor::{Params, Tape};
use rand::{rngs::StdRng, SeedableRng};

fn linalg_kernels(h: &mut Harness) {
    let a = Matrix::from_fn(40, 12, |i, j| ((i * 13 + j * 7) % 17) as f64 - 8.0);
    h.bench("svd_40x12", || svd(std::hint::black_box(&a)));
    h.bench("pinv_40x12", || pinv(std::hint::black_box(&a)));
    let m = Matrix::from_fn(128, 128, |i, j| ((i + j) % 9) as f64 * 0.1);
    h.bench("matmul_128", || m.matmul(std::hint::black_box(&m)));
    let big = Matrix::from_fn(384, 384, |i, j| ((i * 7 + j) % 11) as f64 * 0.1);
    let bt = big.transpose();
    h.bench("matmul_transposed_384", || {
        big.matmul_transposed(std::hint::black_box(&bt))
    });
}

fn autograd_throughput(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut params = Params::new();
    let w1 = params.insert(fia_tensor::he_normal(32, 64, &mut rng));
    let b1 = params.insert(Matrix::zeros(1, 64));
    let w2 = params.insert(fia_tensor::he_normal(64, 8, &mut rng));
    let b2 = params.insert(Matrix::zeros(1, 8));
    let x = fia_tensor::uniform_matrix(64, 32, 0.0, 1.0, &mut rng);
    let t = fia_tensor::uniform_matrix(64, 8, 0.0, 1.0, &mut rng);
    // One tape reset per step, as the training loops run it.
    let mut tape = Tape::new();
    h.bench("mlp_fwd_bwd_64x32", || {
        tape.reset();
        let xv = tape.input_copy(&x);
        let w1v = tape.param(&params, w1);
        let b1v = tape.param(&params, b1);
        let hid = tape.linear(xv, w1v, b1v);
        let hid = tape.relu(hid);
        let w2v = tape.param(&params, w2);
        let b2v = tape.param(&params, b2);
        let z = tape.linear(hid, w2v, b2v);
        let tv = tape.input_copy(&t);
        let loss = tape.mse_loss(z, tv);
        tape.backward(loss);
        std::hint::black_box(tape.param_grads().len())
    });
}

fn model_training(h: &mut Harness) {
    let cfg = fia_data::SynthConfig {
        n_samples: 300,
        n_features: 12,
        n_informative: 8,
        n_redundant: 2,
        n_classes: 3,
        class_sep: 1.5,
        redundant_noise: 0.3,
        flip_y: 0.01,
        shuffle_features: true,
        seed: 3,
    };
    let ds = fia_data::normalize_dataset(&fia_data::make_classification(&cfg)).0;
    h.bench("lr_fit_300x12", || {
        LogisticRegression::fit(
            std::hint::black_box(&ds),
            &LrConfig {
                epochs: 5,
                ..LrConfig::default()
            },
        )
    });
    h.bench("tree_fit_300x12_depth5", || {
        let mut rng = StdRng::seed_from_u64(9);
        DecisionTree::fit(std::hint::black_box(&ds), &TreeConfig::paper_dt(), &mut rng)
    });
    let model = LogisticRegression::fit(&ds, &LrConfig::default());
    h.bench("lr_predict_300", || {
        model.predict_proba(std::hint::black_box(&ds.features))
    });
}

fn design_ablations(h: &mut Harness) {
    let mut cfg = ExperimentConfig::smoke();
    cfg.dtarget_grid = vec![0.3];
    h.bench("ablation_pinv_vs_ridge", || {
        ablation::run_pinv_vs_ridge(&cfg, 1e-6)
    });
    h.bench("ablation_distill_sweep", || {
        ablation::run_distill_sweep(&cfg)
    });
}

fn main() {
    let mut h = Harness::new("substrates", 10, 2);
    linalg_kernels(&mut h);
    autograd_throughput(&mut h);
    model_training(&mut h);
    design_ablations(&mut h);
}
