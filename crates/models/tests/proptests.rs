//! Property tests on model invariants.
//!
//! Cases are driven by a seeded [`rand::rngs::StdRng`] sweep (the offline
//! build has no `proptest`); each case is reproducible from its index.

use fia_data::{make_classification, normalize_dataset, Dataset, SynthConfig};
use fia_linalg::Matrix;
use fia_models::{
    Activation, DecisionTree, DecodeError, ForestConfig, LogisticRegression, LrConfig, Mlp,
    MlpConfig, PredictProba, RandomForest, TreeConfig, TreeNode,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: u64 = 16;

fn case_rng(test: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(test.wrapping_mul(0x9E3779B97F4A7C15) ^ case)
}

fn dataset(seed: u64, n_classes: usize, n_features: usize) -> Dataset {
    let n_informative = (n_features * 2 / 3).max(1);
    let n_redundant = (n_features - n_informative) / 2;
    let cfg = SynthConfig {
        n_samples: 150,
        n_features,
        n_informative,
        n_redundant,
        n_classes,
        class_sep: 1.5,
        redundant_noise: 0.3,
        flip_y: 0.02,
        shuffle_features: true,
        seed,
    };
    normalize_dataset(&make_classification(&cfg)).0
}

/// Trees always store a structurally valid full binary array: the root
/// exists, every internal node has two present children, every absent
/// node has absent children, and labels are in range.
#[test]
fn tree_structure_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let seed: u64 = rng.gen_range(1..50_000u64);
        let c = rng.gen_range(2..5usize);
        let d = rng.gen_range(2..10usize);
        let depth = rng.gen_range(1..6usize);

        let ds = dataset(seed, c, d);
        let mut tree_rng = StdRng::seed_from_u64(seed);
        let cfg = TreeConfig {
            max_depth: depth,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &cfg, &mut tree_rng);
        let nodes = tree.nodes();
        assert_eq!(nodes.len(), (1usize << (depth + 1)) - 1);
        assert!(!matches!(nodes[0], TreeNode::Absent));
        for (i, node) in nodes.iter().enumerate() {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            match node {
                TreeNode::Internal { feature, .. } => {
                    assert!(*feature < d);
                    assert!(
                        l < nodes.len() && r < nodes.len(),
                        "internal node {i} at max depth"
                    );
                    assert!(!matches!(nodes[l], TreeNode::Absent));
                    assert!(!matches!(nodes[r], TreeNode::Absent));
                }
                TreeNode::Leaf { label } => assert!(*label < c),
                TreeNode::Absent => {
                    if l < nodes.len() {
                        assert!(matches!(nodes[l], TreeNode::Absent));
                        assert!(matches!(nodes[r], TreeNode::Absent));
                    }
                }
            }
        }
    }
}

/// Tree predictions equal the label of the leaf the decision path
/// reaches, and training-set accuracy is at least majority-class.
#[test]
fn tree_prediction_consistency() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let seed: u64 = rng.gen_range(1..50_000u64);
        let ds = dataset(seed, 3, 6);
        let mut tree_rng = StdRng::seed_from_u64(seed ^ 5);
        let tree = DecisionTree::fit(&ds, &TreeConfig::paper_dt(), &mut tree_rng);
        let counts = ds.class_counts();
        let majority = *counts.iter().max().unwrap() as f64 / ds.n_samples() as f64;
        let acc = fia_models::accuracy(&tree, &ds.features, &ds.labels);
        assert!(acc + 1e-9 >= majority, "acc {acc} < majority {majority}");
        for i in 0..10 {
            let path = tree.decision_path(ds.sample(i));
            let leaf = *path.last().unwrap();
            match tree.nodes()[leaf] {
                TreeNode::Leaf { label } => {
                    assert_eq!(label, tree.predict_one(ds.sample(i)));
                }
                _ => panic!("path ended on non-leaf"),
            }
        }
    }
}

/// Forest confidences are valid vote distributions with denominators
/// equal to the tree count.
#[test]
fn forest_confidence_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let seed: u64 = rng.gen_range(1..50_000u64);
        let w = rng.gen_range(1..12usize);

        let ds = dataset(seed, 2, 5);
        let forest = RandomForest::fit(
            &ds,
            &ForestConfig {
                n_trees: w,
                seed,
                n_threads: 2,
                ..ForestConfig::default()
            },
        );
        let p = forest.predict_proba(&ds.features.select_rows(&[0, 1, 2]).unwrap());
        for i in 0..3 {
            let row = p.row(i);
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for &v in row {
                let k = v * w as f64;
                assert!((k - k.round()).abs() < 1e-9, "vote {v} not a /{w} fraction");
            }
        }
    }
}

/// LR persistence round-trips bit-exactly for arbitrary parameters.
#[test]
fn lr_persist_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let seed: u64 = rng.gen_range(1..100_000u64);
        let d = rng.gen_range(1..8usize);
        let c = rng.gen_range(2..6usize);

        let mut state = seed | 1;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let w = Matrix::from_fn(d, c, |_, _| next());
        let bias: Vec<f64> = (0..c).map(|_| next()).collect();
        let model = LogisticRegression::from_parameters(w, bias, c);
        let restored = LogisticRegression::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(restored.weights(), model.weights());
        assert_eq!(restored.bias(), model.bias());
        assert_eq!(restored.n_classes(), model.n_classes());
    }
}

/// Tree persistence round-trips the full node array for arbitrary
/// trained trees.
#[test]
fn tree_persist_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let seed: u64 = rng.gen_range(1..50_000u64);
        let depth = rng.gen_range(1..6usize);

        let ds = dataset(seed, 3, 6);
        let mut tree_rng = StdRng::seed_from_u64(seed);
        let cfg = TreeConfig {
            max_depth: depth,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &cfg, &mut tree_rng);
        let restored = DecisionTree::from_bytes(&tree.to_bytes()).unwrap();
        assert_eq!(restored.nodes(), tree.nodes());
    }
}

/// Corrupting any single byte of a serialized tree either fails to
/// decode or still decodes into a *structurally valid* tree — never a
/// panic or an out-of-range label.
#[test]
fn tree_decode_never_panics_on_corruption() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let seed: u64 = rng.gen_range(1..20_000u64);
        let victim = rng.gen_range(5..60usize);

        let ds = dataset(seed, 2, 4);
        let mut tree_rng = StdRng::seed_from_u64(seed);
        let cfg = TreeConfig {
            max_depth: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&ds, &cfg, &mut tree_rng);
        let mut bytes = tree.to_bytes();
        let idx = victim % bytes.len();
        bytes[idx] ^= 0xFF;
        // Must not panic; success or a DecodeError are both acceptable,
        // and a success must still be in-range everywhere.
        if let Ok(t) = DecisionTree::from_bytes(&bytes) {
            for node in t.nodes() {
                if let TreeNode::Leaf { label } = node {
                    assert!(*label < t.n_classes());
                }
            }
        }
    }
}

/// Every model decoder rejects each proper prefix of a trained model's
/// bytes, and survives every single-bit flip and every crafted oversized
/// count with `Ok` or `Err`: a corrupt count must never size an
/// allocation or overflow the decoder's arithmetic.
#[test]
fn model_decoders_survive_truncation_and_bit_flips() {
    let binary = dataset(21, 2, 4);
    let multi = dataset(22, 3, 4);
    let lr_cfg = LrConfig {
        epochs: 2,
        ..LrConfig::default()
    };
    let tree_cfg = TreeConfig {
        max_depth: 3,
        ..TreeConfig::default()
    };
    let forest_cfg = ForestConfig {
        n_trees: 3,
        tree: tree_cfg.clone(),
        seed: 23,
        n_threads: 1,
        ..ForestConfig::default()
    };
    let mlp_cfg = MlpConfig {
        hidden: vec![4],
        activation: Activation::Tanh,
        layer_norm: true,
        dropout: Some(0.1),
        epochs: 1,
        batch_size: 32,
        lr: 1e-2,
        seed: 24,
    };
    let mut tree_rng = StdRng::seed_from_u64(25);
    type Decode = fn(&[u8]) -> Result<(), DecodeError>;
    let models: [(&str, Vec<u8>, Decode); 4] = [
        (
            "lr",
            LogisticRegression::fit(&binary, &lr_cfg).to_bytes(),
            |b| LogisticRegression::from_bytes(b).map(drop),
        ),
        (
            "dt",
            DecisionTree::fit(&multi, &tree_cfg, &mut tree_rng).to_bytes(),
            |b| DecisionTree::from_bytes(b).map(drop),
        ),
        (
            "rf",
            RandomForest::fit(&multi, &forest_cfg).to_bytes(),
            |b| RandomForest::from_bytes(b).map(drop),
        ),
        ("mlp", Mlp::fit(&multi, &mlp_cfg).to_bytes(), |b| {
            Mlp::from_bytes(b).map(drop)
        }),
    ];
    for (name, bytes, decode) in &models {
        assert_eq!(decode(bytes), Ok(()), "{name}: intact bytes must decode");
        for len in 0..bytes.len() {
            assert!(
                decode(&bytes[..len]).is_err(),
                "{name}: {len}-byte prefix decoded"
            );
        }
        for extra in [1, 16] {
            let mut longer = bytes.clone();
            longer.resize(bytes.len() + extra, 0xFF);
            assert_eq!(
                decode(&longer),
                Err(DecodeError::TrailingBytes(extra)),
                "{name}: decoded with {extra} bytes appended"
            );
        }
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decode(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    // Headers whose counts claim far more items than the buffer holds.
    let header = |magic: &[u8; 4], counts: &[u64]| {
        let mut out = magic.to_vec();
        out.push(1);
        for &c in counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    };
    for nodes in [(1 << 40) - 1, u64::MAX] {
        assert!(DecisionTree::from_bytes(&header(b"FIDT", &[4, 2, nodes])).is_err());
    }
    assert!(RandomForest::from_bytes(&header(b"FIRF", &[4, 2, u64::MAX])).is_err());
    assert!(RandomForest::from_bytes(&header(b"FIRF", &[4, 2, 1, 1 << 40])).is_err());
    let mut mlp = header(b"FINN", &[4, 3]);
    mlp.extend_from_slice(&[0, 0]); // ReLU, no dropout
    mlp.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(Mlp::from_bytes(&mlp).is_err());
}
