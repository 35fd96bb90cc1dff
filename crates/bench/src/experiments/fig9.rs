//! Fig. 9 — effect of the number of accumulated predictions `n`.
//!
//! GRNA against the NN model with `n ∈ {10%, 30%, 50%} · |D|` on the two
//! synthetic datasets plus drive diagnosis and news popularity. More
//! accumulated predictions → lower MSE.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::ModelSpec;
use fia_data::PaperDataset;

/// The four datasets of Fig. 9, in sub-figure order.
pub fn datasets() -> [PaperDataset; 4] {
    [
        PaperDataset::Synthetic1,
        PaperDataset::Synthetic2,
        PaperDataset::DriveDiagnosis,
        PaperDataset::NewsPopularity,
    ]
}

/// One measured point of Fig. 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Prediction-set size as a fraction of `|D|` (10/30/50%).
    pub n_fraction: f64,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// Number of accumulated predictions actually used.
    pub n_predictions: usize,
    /// GRNA-NN MSE per feature.
    pub grna_mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
}

/// Runs the Fig. 9 sweep.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig9Row> {
    let n_fractions = [0.1, 0.3, 0.5];
    let jobs: Vec<(PaperDataset, f64, f64)> = datasets()
        .iter()
        .flat_map(|&d| {
            n_fractions
                .iter()
                .flat_map(move |&nf| cfg.dtarget_grid.iter().map(move |&f| (d, nf, f)))
        })
        .collect();
    sweep::parallel_map(jobs, |(dataset, nf, fraction)| {
        measure_point(cfg, dataset, nf, fraction)
    })
}

/// Measures one (dataset, n-fraction, d_target-fraction) point.
pub fn measure_point(
    cfg: &ExperimentConfig,
    dataset: PaperDataset,
    n_fraction: f64,
    fraction: f64,
) -> Fig9Row {
    let mut n_predictions = 0;
    let tag = format!("fig9/{}/{n_fraction}/{fraction}", dataset.name());
    let [grna_mse, rg_uniform] = sweep::mean(cfg, &tag, |seed| {
        let model = ModelSpec::Mlp(cfg.mlp.clone());
        let spec = sweep::scenario(cfg, dataset, fraction, model, seed)
            .with_prediction_fraction(n_fraction);
        let trial = Trial::run(spec, [sweep::grna(cfg, seed)]);
        n_predictions = trial.data().n_predictions();
        [trial.mse(0), trial.random_guess_mse(seed ^ 0x62).0]
    });
    Fig9Row {
        dataset: dataset.name(),
        n_fraction,
        dtarget_fraction: fraction,
        n_predictions,
        grna_mse,
        rg_uniform,
    }
}

/// Renders the sweep.
pub fn render(rows: &[Fig9Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!("NN-{:.0}%", r.n_fraction * 100.0),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                r.n_predictions.to_string(),
                crate::report::fmt_metric(r.grna_mse),
                crate::report::fmt_metric(r.rg_uniform),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 9: effect of the number of predictions (GRNA-NN)",
        &["Dataset", "Curve", "d_target%", "n", "GRNA", "RG(Uniform)"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_predictions_do_not_hurt_much() {
        // Here both runs complete with finite results and n scales with
        // the fraction. The lower MSE of more predictions is asserted at
        // d_target = 50% on all four datasets by the root package's
        // tests/paper_claims.rs; at this grid point it does not hold on
        // every seed.
        let cfg = ExperimentConfig::smoke();
        let small = measure_point(&cfg, PaperDataset::Synthetic1, 0.1, 0.3);
        let large = measure_point(&cfg, PaperDataset::Synthetic1, 0.5, 0.3);
        assert!(large.n_predictions > 3 * small.n_predictions);
        assert!(small.grna_mse.is_finite() && large.grna_mse.is_finite());
    }
}
