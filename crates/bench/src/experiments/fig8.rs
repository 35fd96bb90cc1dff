//! Fig. 8 — GRNA on the random forest: correct branching rate.
//!
//! The surrogate only approximates the forest's thresholds, so the paper
//! additionally scores GRNA-on-RF with the CBR metric: walk each *real*
//! tree along the ground-truth decision path and check whether the
//! inferred feature values take the same branch at every node testing a
//! target feature.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::{ModelSpec, ScenarioData, TrainedModel};
use fia_core::baseline::{self, branch_tally_along_path};
use fia_core::metrics::CbrTally;
use fia_data::PaperDataset;
use fia_linalg::Matrix;
use fia_models::RandomForest;

/// One measured point of Fig. 8.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// GRNA branch-consistency rate over all trees and samples.
    pub grna_cbr: Option<f64>,
    /// Random-guess branch consistency.
    pub rg_cbr: Option<f64>,
}

/// Runs the Fig. 8 sweep.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig8Row> {
    let jobs: Vec<(PaperDataset, f64)> = PaperDataset::real_world()
        .iter()
        .flat_map(|&d| cfg.dtarget_grid.iter().map(move |&f| (d, f)))
        .collect();
    sweep::parallel_map(jobs, |(dataset, fraction)| {
        measure_point(cfg, dataset, fraction)
    })
}

/// Measures one (dataset, fraction) point.
pub fn measure_point(cfg: &ExperimentConfig, dataset: PaperDataset, fraction: f64) -> Fig8Row {
    let mut grna = CbrTally::default();
    let mut rg = CbrTally::default();
    let tag = format!("fig8/{}/{fraction}", dataset.name());
    for seed in sweep::seeds(cfg, &tag) {
        let model = ModelSpec::RandomForest(cfg.forest.clone());
        let spec = sweep::scenario(cfg, dataset, fraction, model, seed);
        let trial = Trial::run(spec, [sweep::grna(cfg, seed)]);
        let TrainedModel::RandomForest(forest) = trial.scenario().model() else {
            unreachable!("the spec trains a random forest")
        };
        let inferred = trial.estimates(0);
        grna.merge(forest_branch_consistency(forest, trial.data(), inferred));
        let guesses = baseline::random_guess_uniform(inferred.rows(), inferred.cols(), seed ^ 0x52);
        rg.merge(forest_branch_consistency(forest, trial.data(), &guesses));
    }
    Fig8Row {
        dataset: dataset.name(),
        dtarget_fraction: fraction,
        grna_cbr: grna.rate(),
        rg_cbr: rg.rate(),
    }
}

/// Tallies branch consistency of `inferred` target values across every
/// tree of the forest, along the ground-truth decision paths.
pub fn forest_branch_consistency(
    forest: &RandomForest,
    data: &ScenarioData,
    inferred: &Matrix,
) -> CbrTally {
    let full_inferred = assemble_with_inferred(data, inferred);
    let mut tally = CbrTally::default();
    for i in 0..data.n_predictions() {
        let x_true = data.prediction.sample(i);
        let x_est = full_inferred.row(i);
        for tree in forest.trees() {
            let true_path = tree.decision_path(x_true);
            tally.merge(branch_tally_along_path(
                tree,
                &true_path,
                x_est,
                &data.target_indices,
            ));
        }
    }
    tally
}

/// Reassembles full global samples from the adversary's (true) columns
/// and inferred target columns.
fn assemble_with_inferred(data: &ScenarioData, inferred: &Matrix) -> Matrix {
    assert_eq!(
        inferred.shape(),
        data.truth.shape(),
        "estimate shape mismatch"
    );
    let d = data.adv_indices.len() + data.target_indices.len();
    let mut full = Matrix::zeros(inferred.rows(), d);
    for i in 0..full.rows() {
        for (k, &f) in data.adv_indices.iter().enumerate() {
            full[(i, f)] = data.x_adv[(i, k)];
        }
        for (k, &f) in data.target_indices.iter().enumerate() {
            full[(i, f)] = inferred[(i, k)];
        }
    }
    full
}

/// Renders the sweep.
pub fn render(rows: &[Fig8Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_opt(r.grna_cbr),
                crate::report::fmt_opt(r.rg_cbr),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 8: GRNA on RF — correct branching rate vs d_target",
        &["Dataset", "d_target%", "GRNA", "Random Guess"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grna_branches_beat_random() {
        let cfg = ExperimentConfig::smoke();
        let row = measure_point(&cfg, PaperDataset::BankMarketing, 0.2);
        let (Some(g), Some(r)) = (row.grna_cbr, row.rg_cbr) else {
            panic!("no branch decisions tallied");
        };
        assert!(g > r - 0.05, "grna cbr {g} vs random {r}");
    }

    #[test]
    fn perfect_inference_gives_perfect_cbr() {
        let cfg = ExperimentConfig::smoke();
        let model = ModelSpec::RandomForest(cfg.forest.clone());
        let scenario = sweep::scenario(&cfg, PaperDataset::CreditCard, 0.3, model, 9).build();
        let TrainedModel::RandomForest(forest) = scenario.model() else {
            unreachable!("the spec trains a random forest")
        };
        // Assembling the ground truth reproduces the prediction set, and
        // feeding it as the "inferred" values branches like the truth.
        let data = scenario.data();
        let full = assemble_with_inferred(data, &data.truth);
        assert!(full.max_abs_diff(&data.prediction.features).unwrap() < 1e-12);
        let tally = forest_branch_consistency(forest, data, &data.truth);
        assert_eq!(tally.rate(), Some(1.0));
    }
}
