//! Save/load for every model family, built on the persistence format's
//! pieces in [`crate::bytesio`] over the workspace's byte codec.
//!
//! A trained vertical FL model is, per the threat model, *released to the
//! parties* — so shipping it around as bytes is a first-class operation.
//! Formats are versioned; decoding validates structural invariants so a
//! corrupt or truncated buffer never produces a silently broken model.

use crate::bytesio::{
    close, get_count, get_matrix, get_usize, get_vector, open, put_header, put_matrix, put_usize,
    put_vector, DecodeError,
};
use crate::forest::RandomForest;
use crate::logistic::LogisticRegression;
use crate::traits::PredictProba;
use crate::tree::{DecisionTree, TreeNode};
use fia_linalg::bytes::ByteWriter;

const LR_MAGIC: [u8; 4] = *b"FILR";
const DT_MAGIC: [u8; 4] = *b"FIDT";
const RF_MAGIC: [u8; 4] = *b"FIRF";
const VERSION: u8 = 1;

impl LogisticRegression {
    /// Serializes the model (weights, bias, class count).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, LR_MAGIC, VERSION);
        put_usize(&mut out, self.n_classes());
        put_matrix(&mut out, self.weights());
        put_vector(&mut out, self.bias());
        out
    }

    /// Deserializes a model written by [`LogisticRegression::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = open(bytes, LR_MAGIC, VERSION)?;
        let n_classes = get_usize(&mut r)?;
        let weights = get_matrix(&mut r)?;
        let bias = get_vector(&mut r)?;
        if bias.len() != weights.cols() {
            return Err(DecodeError::Corrupt(format!(
                "bias length {} vs {} weight columns",
                bias.len(),
                weights.cols()
            )));
        }
        let binary = n_classes == 2 && weights.cols() == 1;
        if n_classes < 2 || !(binary || weights.cols() == n_classes) {
            return Err(DecodeError::Corrupt(format!(
                "inconsistent class count {n_classes} for {} weight columns",
                weights.cols()
            )));
        }
        close(&r)?;
        Ok(LogisticRegression::from_parameters(
            weights, bias, n_classes,
        ))
    }
}

impl DecisionTree {
    /// Serializes the full binary node array.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, DT_MAGIC, VERSION);
        put_usize(&mut out, self.n_features());
        put_usize(&mut out, self.n_classes());
        put_usize(&mut out, self.nodes().len());
        for node in self.nodes() {
            match node {
                TreeNode::Absent => out.push(0),
                TreeNode::Leaf { label } => {
                    out.push(1);
                    put_usize(&mut out, *label);
                }
                TreeNode::Internal { feature, threshold } => {
                    out.push(2);
                    put_usize(&mut out, *feature);
                    out.put_f64(*threshold);
                }
            }
        }
        out
    }

    /// Deserializes a tree written by [`DecisionTree::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = open(bytes, DT_MAGIC, VERSION)?;
        let n_features = get_usize(&mut r)?;
        let n_classes = get_usize(&mut r)?;
        // Each node takes at least its tag byte.
        let len = get_count(&mut r, 1)?;
        if len == 0 || !len.checked_add(1).is_some_and(usize::is_power_of_two) {
            return Err(DecodeError::Corrupt(format!(
                "node array length {len} is not 2^k − 1"
            )));
        }
        let mut nodes = Vec::with_capacity(len);
        for _ in 0..len {
            nodes.push(match r.u8()? {
                0 => TreeNode::Absent,
                1 => {
                    let label = get_usize(&mut r)?;
                    if label >= n_classes {
                        return Err(DecodeError::Corrupt(format!(
                            "leaf label {label} out of range (c = {n_classes})"
                        )));
                    }
                    TreeNode::Leaf { label }
                }
                2 => {
                    let feature = get_usize(&mut r)?;
                    if feature >= n_features {
                        return Err(DecodeError::Corrupt(format!(
                            "feature {feature} out of range (d = {n_features})"
                        )));
                    }
                    let threshold = r.f64()?;
                    TreeNode::Internal { feature, threshold }
                }
                other => {
                    return Err(DecodeError::Corrupt(format!("bad node tag {other}")));
                }
            });
        }
        if matches!(nodes[0], TreeNode::Absent) {
            return Err(DecodeError::Corrupt("root node absent".into()));
        }
        close(&r)?;
        Ok(DecisionTree::from_nodes(nodes, n_features, n_classes))
    }
}

impl RandomForest {
    /// Serializes the forest as a sequence of length-prefixed tree
    /// payloads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_header(&mut out, RF_MAGIC, VERSION);
        put_usize(&mut out, self.n_features());
        put_usize(&mut out, self.n_classes());
        put_usize(&mut out, self.n_trees());
        for tree in self.trees() {
            let payload = tree.to_bytes();
            put_usize(&mut out, payload.len());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Deserializes a forest written by [`RandomForest::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = open(bytes, RF_MAGIC, VERSION)?;
        let n_features = get_usize(&mut r)?;
        let n_classes = get_usize(&mut r)?;
        // Each tree takes at least its payload length prefix.
        let n_trees = get_count(&mut r, 8)?;
        if n_trees == 0 {
            return Err(DecodeError::Corrupt("forest with zero trees".into()));
        }
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            let len = get_count(&mut r, 1)?;
            let tree = DecisionTree::from_bytes(r.take(len)?)?;
            if tree.n_features() != n_features || tree.n_classes() != n_classes {
                return Err(DecodeError::Corrupt(
                    "tree shape disagrees with forest header".into(),
                ));
            }
            trees.push(tree);
        }
        close(&r)?;
        Ok(RandomForest::from_trees(trees, n_features, n_classes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use crate::logistic::LrConfig;
    use crate::tree::TreeConfig;
    use fia_data::{make_classification, normalize_dataset, SynthConfig};
    use fia_linalg::Matrix;
    use rand::{rngs::StdRng, SeedableRng};

    fn toy_dataset(seed: u64) -> fia_data::Dataset {
        let cfg = SynthConfig {
            n_samples: 200,
            n_features: 6,
            n_informative: 4,
            n_redundant: 1,
            n_classes: 3,
            class_sep: 1.5,
            redundant_noise: 0.3,
            flip_y: 0.0,
            shuffle_features: false,
            seed,
        };
        normalize_dataset(&make_classification(&cfg)).0
    }

    #[test]
    fn lr_roundtrip_preserves_predictions() {
        let ds = toy_dataset(1);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 5,
                ..Default::default()
            },
        );
        let restored = LogisticRegression::from_bytes(&model.to_bytes()).unwrap();
        let a = model.predict_proba(&ds.features);
        let b = restored.predict_proba(&ds.features);
        assert!(a.max_abs_diff(&b).unwrap() < 1e-15);
    }

    #[test]
    fn tree_roundtrip_preserves_paths() {
        let ds = toy_dataset(2);
        let mut rng = StdRng::seed_from_u64(2);
        let tree = DecisionTree::fit(&ds, &TreeConfig::paper_dt(), &mut rng);
        let restored = DecisionTree::from_bytes(&tree.to_bytes()).unwrap();
        for i in 0..20 {
            assert_eq!(
                tree.decision_path(ds.sample(i)),
                restored.decision_path(ds.sample(i))
            );
        }
    }

    #[test]
    fn forest_roundtrip_preserves_votes() {
        let ds = toy_dataset(3);
        let forest = RandomForest::fit(
            &ds,
            &ForestConfig {
                n_trees: 7,
                seed: 3,
                ..ForestConfig::default()
            },
        );
        let restored = RandomForest::from_bytes(&forest.to_bytes()).unwrap();
        let a = forest.predict_proba(&ds.features);
        let b = restored.predict_proba(&ds.features);
        assert_eq!(a, b);
    }

    #[test]
    fn wrong_magic_rejected() {
        let ds = toy_dataset(4);
        let model = LogisticRegression::fit(
            &ds,
            &LrConfig {
                epochs: 2,
                ..Default::default()
            },
        );
        let bytes = model.to_bytes();
        assert!(matches!(
            DecisionTree::from_bytes(&bytes),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn truncated_forest_rejected() {
        let ds = toy_dataset(5);
        let forest = RandomForest::fit(
            &ds,
            &ForestConfig {
                n_trees: 3,
                seed: 5,
                ..ForestConfig::default()
            },
        );
        let mut bytes = forest.to_bytes();
        bytes.truncate(bytes.len() / 2);
        assert!(RandomForest::from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_label_rejected() {
        // Hand-craft a tree with an out-of-range label.
        let tree = DecisionTree::from_nodes(
            vec![
                TreeNode::Internal {
                    feature: 0,
                    threshold: 0.5,
                },
                TreeNode::Leaf { label: 0 },
                TreeNode::Leaf { label: 1 },
            ],
            1,
            2,
        );
        let mut bytes = tree.to_bytes();
        // The last usize in the stream is the final leaf's label; bump it.
        let n = bytes.len();
        bytes[n - 8] = 9;
        assert!(matches!(
            DecisionTree::from_bytes(&bytes),
            Err(DecodeError::Corrupt(_))
        ));
    }

    #[test]
    fn lr_binary_roundtrip() {
        let w = Matrix::from_rows(&[vec![0.5], vec![-1.0]]).unwrap();
        let model = LogisticRegression::from_parameters(w, vec![0.25], 2);
        let restored = LogisticRegression::from_bytes(&model.to_bytes()).unwrap();
        assert!(restored.is_binary());
        assert_eq!(restored.bias(), &[0.25]);
    }
}
