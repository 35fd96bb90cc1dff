//! Golden fingerprints of tape-trained models.
//!
//! `LogisticRegression::fit` and `Mlp::fit` decide every deployed model,
//! and so every attack result downstream of one. Each test below trains
//! on a fixed synthetic set and pins an FNV-64 over the trained
//! parameters' bit patterns, captured from a reference run. A rewrite of
//! any tape op, the Adam update or the GEMM kernels must keep f64
//! training bit-identical, so these constants never change, on any
//! kernel backend (`FIA_FORCE_SCALAR=1` included).
//!
//! `persisted_models_match_golden_bytes` pins the persistence format the
//! same way: the `to_bytes` output of one small model of each family.

use fia_data::{make_classification, normalize_dataset, Dataset, SynthConfig};
use fia_linalg::Matrix;
use fia_models::{
    Activation, DecisionTree, LogisticRegression, LrConfig, Mlp, MlpConfig, PredictProba,
    RandomForest, TreeNode,
};

fn dataset(n_classes: usize, seed: u64) -> Dataset {
    let cfg = SynthConfig {
        n_samples: 256,
        n_features: 8,
        n_informative: 5,
        n_redundant: 2,
        n_classes,
        class_sep: 1.5,
        redundant_noise: 0.2,
        flip_y: 0.02,
        shuffle_features: true,
        seed,
    };
    normalize_dataset(&make_classification(&cfg)).0
}

/// FNV-1a over every element's bit pattern, shapes included. `-0.0`
/// hashes as `+0.0`: the kernel contract licenses the sign of an exact
/// zero to differ, and nothing else.
fn fnv64_bits<'a>(mats: impl IntoIterator<Item = &'a Matrix>) -> u64 {
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

fn lr_fingerprint(model: &LogisticRegression) -> u64 {
    let bias = Matrix::row_vector(model.bias());
    fnv64_bits([model.weights(), &bias])
}

fn mlp_fingerprint(model: &Mlp) -> u64 {
    fnv64_bits(model.params().iter().map(|(_, m)| m))
}

fn lr_config() -> LrConfig {
    LrConfig {
        epochs: 15,
        seed: 3,
        ..LrConfig::default()
    }
}

fn mlp_config() -> MlpConfig {
    MlpConfig {
        epochs: 8,
        seed: 5,
        ..MlpConfig::fast()
    }
}

#[test]
fn multinomial_lr_fit_matches_golden_fingerprint() {
    let model = LogisticRegression::fit(&dataset(3, 11), &lr_config());
    assert_eq!(lr_fingerprint(&model), 0x7b57_6f83_b354_fc72);
}

#[test]
fn binary_lr_fit_matches_golden_fingerprint() {
    let model = LogisticRegression::fit(&dataset(2, 12), &lr_config());
    assert_eq!(lr_fingerprint(&model), 0x0027_5d61_98fc_4eb5);
}

#[test]
fn relu_mlp_fit_matches_golden_fingerprint() {
    let model = Mlp::fit(&dataset(3, 13), &mlp_config());
    assert_eq!(mlp_fingerprint(&model), 0xbd26_6313_6508_eeca);
}

#[test]
fn tanh_layer_norm_dropout_mlp_fit_matches_golden_fingerprint() {
    let cfg = MlpConfig {
        activation: Activation::Tanh,
        layer_norm: true,
        ..mlp_config().with_dropout(0.2)
    };
    let model = Mlp::fit(&dataset(4, 14), &cfg);
    assert_eq!(mlp_fingerprint(&model), 0xd96f_8aa6_8626_0f43);
}

#[test]
fn sigmoid_mlp_fit_matches_golden_fingerprint() {
    let cfg = MlpConfig {
        activation: Activation::Sigmoid,
        ..mlp_config()
    };
    let model = Mlp::fit(&dataset(2, 15), &cfg);
    assert_eq!(mlp_fingerprint(&model), 0x56ec_5c3e_59b6_1e18);
}

#[test]
fn soft_target_training_matches_golden_fingerprint() {
    // The forest-distillation path: softmax rows under an MSE loss
    // against confidence vectors.
    let ds = dataset(3, 16);
    let teacher = LogisticRegression::fit(&ds, &lr_config());
    let soft = teacher.predict_proba(&ds.features);
    let mut student = Mlp::new(ds.n_features(), ds.n_classes, &mlp_config());
    student.train_soft_targets(&ds.features, &soft, 6, 64, 2e-3, 17);
    assert_eq!(mlp_fingerprint(&student), 0xfa18_6c8e_3abf_ed0e);
}

/// FNV-1a over raw bytes.
fn fnv64_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn stump(threshold: f64) -> DecisionTree {
    DecisionTree::from_nodes(
        vec![
            TreeNode::Internal {
                feature: 0,
                threshold,
            },
            TreeNode::Leaf { label: 0 },
            TreeNode::Leaf { label: 1 },
        ],
        1,
        2,
    )
}

/// Pins `to_bytes` of one small model of every family: hex for the LR
/// and the tree, FNV-64 plus length for the forest and the network
/// (spaces in the hex only separate fields). A persistence layout change
/// must show up here as a deliberate edit.
#[test]
fn persisted_models_match_golden_bytes() {
    let weights = Matrix::from_vec(2, 1, vec![0.5, -1.0]).unwrap();
    let lr = LogisticRegression::from_parameters(weights, vec![0.25], 2);
    let lr_hex = concat!(
        "46494c52 01 ",                       // "FILR", version
        "0200000000000000 ",                  // classes
        "0200000000000000 0100000000000000 ", // weights 2 × 1
        "000000000000e03f 000000000000f0bf ",
        "0100000000000000 000000000000d03f", // bias
    );
    assert_eq!(hex(&lr.to_bytes()), lr_hex.replace(' ', ""));

    let dt_hex = concat!(
        "46494454 01 ",                                        // "FIDT", version
        "0100000000000000 0200000000000000 0300000000000000 ", // d, c, nodes
        "02 0000000000000000 000000000000e03f ",               // split x0 ≤ 0.5
        "01 0000000000000000 01 0100000000000000",             // leaves 0, 1
    );
    assert_eq!(hex(&stump(0.5).to_bytes()), dt_hex.replace(' ', ""));

    let rf = RandomForest::from_trees(vec![stump(0.5), stump(-1.0)], 1, 2).to_bytes();
    assert_eq!((rf.len(), fnv64_bytes(&rf)), (173, 0xbf7f_fa9f_dc94_340a));

    let cfg = MlpConfig {
        hidden: vec![3],
        activation: Activation::Tanh,
        layer_norm: true,
        ..mlp_config().with_dropout(0.2)
    };
    let mlp = Mlp::new(4, 2, &cfg).to_bytes();
    assert_eq!((mlp.len(), fnv64_bytes(&mlp)), (369, 0xbcb8_308a_bf6a_bece));
}
