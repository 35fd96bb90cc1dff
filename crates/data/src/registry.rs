//! Shape-matched stand-ins for the paper's evaluation datasets (Table II).
//!
//! The four UCI datasets are proprietary-by-download in this environment,
//! so each is replaced by a synthetic dataset with the *same* sample
//! count, feature count and class count, generated by
//! [`crate::make_classification`] (the same generator family the paper
//! itself uses for its two synthetic datasets). Correlation strength is
//! tuned per dataset so that the relative attack difficulty ordering
//! observed in the paper is reproduced qualitatively; absolute errors
//! differ from the paper's:
//!
//! * Bank-marketing stand-in: few classes, *high-variance* features
//!   (large `class_sep`, more noise columns) → the largest ESA error
//!   growth, matching the Eqn (15) upper-bound discussion.
//! * Credit-card stand-in: few classes, tight feature ranges.
//! * Drive-diagnosis stand-in: 11 classes → ESA exact up to d_target =
//!   10; strongly redundant features.
//! * News-popularity stand-in: 5 classes, many features, moderate
//!   correlation.

use crate::dataset::Dataset;
use crate::normalize::normalize_dataset;
use crate::synth::{make_classification, SynthConfig};

/// The six datasets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperDataset {
    /// Bank marketing: 45 211 × 20, 2 classes.
    BankMarketing,
    /// Credit card default: 30 000 × 23, 2 classes.
    CreditCard,
    /// Sensorless drive diagnosis: 58 509 × 48, 11 classes.
    DriveDiagnosis,
    /// Online news popularity: 39 797 × 59, 5 classes.
    NewsPopularity,
    /// Synthetic dataset 1: 100 000 × 25, 10 classes.
    Synthetic1,
    /// Synthetic dataset 2: 100 000 × 50, 5 classes.
    Synthetic2,
}

impl PaperDataset {
    /// All six datasets in Table II order.
    pub fn all() -> [PaperDataset; 6] {
        [
            PaperDataset::BankMarketing,
            PaperDataset::CreditCard,
            PaperDataset::DriveDiagnosis,
            PaperDataset::NewsPopularity,
            PaperDataset::Synthetic1,
            PaperDataset::Synthetic2,
        ]
    }

    /// The four "real-world" datasets used in Figs. 5–8.
    pub fn real_world() -> [PaperDataset; 4] {
        [
            PaperDataset::BankMarketing,
            PaperDataset::CreditCard,
            PaperDataset::DriveDiagnosis,
            PaperDataset::NewsPopularity,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::BankMarketing => "Bank marketing",
            PaperDataset::CreditCard => "Credit card",
            PaperDataset::DriveDiagnosis => "Drive diagnosis",
            PaperDataset::NewsPopularity => "News popularity",
            PaperDataset::Synthetic1 => "Synthetic dataset 1",
            PaperDataset::Synthetic2 => "Synthetic dataset 2",
        }
    }

    /// Paper sample count (Table II).
    pub fn paper_samples(&self) -> usize {
        match self {
            PaperDataset::BankMarketing => 45_211,
            PaperDataset::CreditCard => 30_000,
            PaperDataset::DriveDiagnosis => 58_509,
            PaperDataset::NewsPopularity => 39_797,
            PaperDataset::Synthetic1 | PaperDataset::Synthetic2 => 100_000,
        }
    }

    /// Feature count `d` (Table II).
    pub fn n_features(&self) -> usize {
        match self {
            PaperDataset::BankMarketing => 20,
            PaperDataset::CreditCard => 23,
            PaperDataset::DriveDiagnosis => 48,
            PaperDataset::NewsPopularity => 59,
            PaperDataset::Synthetic1 => 25,
            PaperDataset::Synthetic2 => 50,
        }
    }

    /// Class count `c` (Table II).
    pub fn n_classes(&self) -> usize {
        match self {
            PaperDataset::BankMarketing | PaperDataset::CreditCard => 2,
            PaperDataset::DriveDiagnosis => 11,
            PaperDataset::NewsPopularity => 5,
            PaperDataset::Synthetic1 => 10,
            PaperDataset::Synthetic2 => 5,
        }
    }

    /// Generator configuration tuned per dataset (see module docs).
    fn synth_config(&self, n_samples: usize, seed: u64) -> SynthConfig {
        let d = self.n_features();
        let base = SynthConfig::new(n_samples, d, self.n_classes(), seed);
        match self {
            // High-dispersion features and a large noise block → the
            // pseudo-inverse estimate degrades fastest here, mirroring the
            // Bank dataset's 0.60 MSE upper bound in the paper.
            PaperDataset::BankMarketing => base
                .with_composition(8, 6)
                .with_class_sep(2.5)
                .with_redundant_noise(0.6),
            // Tightly clustered features (paper upper bound 0.14) with
            // strong cross-feature redundancy: monthly bill/payment
            // columns in the real credit dataset are highly mutually
            // predictive, which is what gives GRNA its footing there.
            PaperDataset::CreditCard => base
                .with_composition(6, 16)
                .with_class_sep(0.8)
                .with_redundant_noise(0.08),
            // Many classes, strong redundancy (sensor channels).
            // Moderate separation: 11 sensor classes overlap enough that
            // the LR softmax stays well-tempered (confidences above the
            // 0.001 rounding granularity — the regime Fig. 11b's "Round
            // 0.001 barely matters" claim lives in).
            PaperDataset::DriveDiagnosis => base
                .with_composition(24, 18)
                .with_class_sep(0.8)
                .with_redundant_noise(0.2),
            // Wide table with moderate correlation.
            PaperDataset::NewsPopularity => base
                .with_composition(30, 20)
                .with_class_sep(1.0)
                .with_redundant_noise(0.35),
            PaperDataset::Synthetic1 => base
                .with_composition(15, 8)
                .with_class_sep(1.2)
                .with_redundant_noise(0.3),
            PaperDataset::Synthetic2 => base
                .with_composition(30, 15)
                .with_class_sep(1.2)
                .with_redundant_noise(0.3),
        }
    }

    /// Post-normalization skew exponent `γ`: features are mapped
    /// `v ← v^γ`, keeping the full `(0, 1)` marginal span (as real
    /// min-max-normalized data has) while concentrating mass toward 0.
    /// This matches each stand-in to its paper counterpart's Eqn (15)
    /// upper bound (Bank 0.60, Credit 0.14, Drive 0.45, News 0.34):
    /// credit-card features pile up near zero (skewed monetary amounts),
    /// bank features are wide. The concentration is what makes ESA's
    /// minimum-norm estimate strong on Credit/Drive and weak on Bank —
    /// the shape Fig. 5 demonstrates. (A linear compression would keep
    /// correlations perfectly but shrink the marginal span, starving the
    /// RF distillation's uniform dummy sampling of data-region coverage.)
    fn skew(&self) -> f64 {
        match self {
            PaperDataset::BankMarketing => 1.0,
            PaperDataset::CreditCard => 2.6,
            PaperDataset::DriveDiagnosis => 1.4,
            PaperDataset::NewsPopularity => 1.8,
            PaperDataset::Synthetic1 | PaperDataset::Synthetic2 => 1.0,
        }
    }

    /// Generates the stand-in dataset, already normalized into `(0, 1)`.
    ///
    /// `scale` shrinks the paper's sample count (e.g. `0.05` → 5%);
    /// `1.0` reproduces the full Table II size. Clamped to ≥ 200 samples
    /// so splits stay meaningful.
    pub fn generate(&self, scale: f64, seed: u64) -> Dataset {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.paper_samples() as f64 * scale) as usize).max(200);
        let cfg = self.synth_config(n, seed ^ self.tag());
        let raw = make_classification(&cfg);
        let (mut norm, _) = normalize_dataset(&raw);
        let gamma = self.skew();
        if gamma != 1.0 {
            norm.features = norm.features.map(|v| v.powf(gamma));
        }
        norm.name = self.name().to_string();
        norm
    }

    /// Stable per-dataset seed tag so different datasets never share RNG
    /// streams even under the same user seed.
    fn tag(&self) -> u64 {
        match self {
            PaperDataset::BankMarketing => 0x01,
            PaperDataset::CreditCard => 0x02,
            PaperDataset::DriveDiagnosis => 0x03,
            PaperDataset::NewsPopularity => 0x04,
            PaperDataset::Synthetic1 => 0x05,
            PaperDataset::Synthetic2 => 0x06,
        }
    }

    /// One row of Table II.
    pub fn table_two_row(&self) -> TableTwoRow {
        TableTwoRow {
            dataset: self.name(),
            samples: self.paper_samples(),
            classes: self.n_classes(),
            features: self.n_features(),
        }
    }
}

/// A row of Table II ("Statistics of Datasets").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableTwoRow {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Sample count.
    pub samples: usize,
    /// Class count.
    pub classes: usize,
    /// Feature count.
    pub features: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_two_matches_paper() {
        let rows: Vec<TableTwoRow> = PaperDataset::all()
            .iter()
            .map(|d| d.table_two_row())
            .collect();
        assert_eq!(rows[0].samples, 45_211);
        assert_eq!(rows[0].features, 20);
        assert_eq!(rows[2].classes, 11);
        assert_eq!(rows[3].features, 59);
        assert_eq!(rows[4].samples, 100_000);
        assert_eq!(rows[5].features, 50);
    }

    #[test]
    fn generate_respects_shape() {
        let ds = PaperDataset::CreditCard.generate(0.02, 9);
        assert_eq!(ds.n_features(), 23);
        assert_eq!(ds.n_classes, 2);
        assert_eq!(ds.n_samples(), 600);
        // Normalized into [0, 1].
        assert!(ds
            .features
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn generate_min_samples_floor() {
        let ds = PaperDataset::BankMarketing.generate(0.0001, 1);
        assert_eq!(ds.n_samples(), 200);
    }

    #[test]
    fn different_datasets_differ_under_same_seed() {
        let a = PaperDataset::Synthetic1.generate(0.002, 5);
        let b = PaperDataset::Synthetic2.generate(0.002, 5);
        assert_ne!(a.n_features(), b.n_features());
    }

    #[test]
    fn deterministic_generation() {
        let a = PaperDataset::DriveDiagnosis.generate(0.005, 11);
        let b = PaperDataset::DriveDiagnosis.generate(0.005, 11);
        assert_eq!(a.features, b.features);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn all_classes_represented_at_small_scale() {
        let ds = PaperDataset::DriveDiagnosis.generate(0.01, 2);
        let counts = ds.class_counts();
        assert!(counts.iter().all(|&c| c > 0), "counts = {counts:?}");
    }
}
