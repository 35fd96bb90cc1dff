//! Fig. 7 — GRNA: MSE per feature vs `d_target` for LR, RF and NN
//! target models.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::ModelSpec;
use fia_data::PaperDataset;

/// Which vertical FL model family GRNA attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetModel {
    /// Logistic regression (directly differentiable).
    Lr,
    /// Random forest (through a distilled surrogate).
    Rf,
    /// Neural network (directly differentiable).
    Nn,
}

impl TargetModel {
    /// All three families of Fig. 7.
    pub fn all() -> [TargetModel; 3] {
        [TargetModel::Lr, TargetModel::Rf, TargetModel::Nn]
    }

    /// Legend label used in the figure.
    pub fn label(&self) -> &'static str {
        match self {
            TargetModel::Lr => "GRNA-LR",
            TargetModel::Rf => "GRNA-RF",
            TargetModel::Nn => "GRNA-NN",
        }
    }

    /// The family as a scenario's model, configured by the profile.
    pub fn spec(&self, cfg: &ExperimentConfig) -> ModelSpec {
        match self {
            TargetModel::Lr => ModelSpec::Logistic(cfg.lr.clone()),
            TargetModel::Rf => ModelSpec::RandomForest(cfg.forest.clone()),
            TargetModel::Nn => ModelSpec::Mlp(cfg.mlp.clone()),
        }
    }
}

/// One measured point of Fig. 7.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Target model family.
    pub model: TargetModel,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// GRNA MSE per feature.
    pub grna_mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
    /// Gaussian random-guess baseline.
    pub rg_gaussian: f64,
}

/// Runs the full Fig. 7 sweep (datasets × model families × fractions).
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig7Row> {
    let jobs: Vec<(PaperDataset, TargetModel, f64)> = PaperDataset::real_world()
        .iter()
        .flat_map(|&d| {
            TargetModel::all()
                .into_iter()
                .flat_map(move |m| cfg.dtarget_grid.iter().map(move |&f| (d, m, f)))
        })
        .collect();
    sweep::parallel_map(jobs, |(dataset, model, fraction)| {
        measure_point(cfg, dataset, model, fraction)
    })
}

/// Measures one (dataset, model, fraction) point, averaged over trials.
pub fn measure_point(
    cfg: &ExperimentConfig,
    dataset: PaperDataset,
    model: TargetModel,
    fraction: f64,
) -> Fig7Row {
    let tag = format!("fig7/{}/{}/{fraction}", dataset.name(), model.label());
    let [grna_mse, rg_uniform, rg_gaussian] = sweep::mean(cfg, &tag, |seed| {
        let spec = sweep::scenario(cfg, dataset, fraction, model.spec(cfg), seed);
        let trial = Trial::run(spec, [sweep::grna(cfg, seed)]);
        let (u, g) = trial.random_guess_mse(seed ^ 0x33);
        [trial.mse(0), u, g]
    });
    Fig7Row {
        dataset: dataset.name(),
        model,
        dtarget_fraction: fraction,
        grna_mse,
        rg_uniform,
        rg_gaussian,
    }
}

/// Renders the sweep.
pub fn render(rows: &[Fig7Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                r.model.label().to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_metric(r.grna_mse),
                crate::report::fmt_metric(r.rg_uniform),
                crate::report::fmt_metric(r.rg_gaussian),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 7: GRNA — MSE per feature vs d_target (LR/RF/NN)",
        &[
            "Dataset",
            "Attack",
            "d_target%",
            "GRNA",
            "RG(Uniform)",
            "RG(Gaussian)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grna_lr_beats_random_on_credit() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.3];
        let row = measure_point(&cfg, PaperDataset::CreditCard, TargetModel::Lr, 0.3);
        assert!(row.grna_mse.is_finite());
        assert!(
            row.grna_mse < row.rg_uniform,
            "grna {} vs rg {}",
            row.grna_mse,
            row.rg_uniform
        );
    }

    #[test]
    fn rf_pathway_produces_estimates() {
        let cfg = ExperimentConfig::smoke();
        let seed = 3;
        let spec = sweep::scenario(
            &cfg,
            PaperDataset::CreditCard,
            0.3,
            TargetModel::Rf.spec(&cfg),
            seed,
        );
        let trial = Trial::run(spec, [sweep::grna(&cfg, seed)]);
        let inferred = trial.estimates(0);
        assert_eq!(inferred.rows(), trial.data().n_predictions());
        assert_eq!(inferred.cols(), trial.data().d_target());
        assert!(inferred.is_finite());
    }
}
