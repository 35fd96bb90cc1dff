//! Fig. 5 — Equality solving attack: MSE per feature vs `d_target`.
//!
//! For each real-world dataset and each `d_target` fraction, trains an LR
//! model and runs ESA plus the two random-guess baselines. The `exact`
//! flag marks the paper's threshold condition `d_target ≤ c − 1`
//! (rendered as 'T' in the sub-figures), where the MSE must be ~0.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::{AttackSpec, ModelSpec};
use fia_core::metrics;
use fia_data::PaperDataset;

/// One measured point of Fig. 5.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// Absolute `d_target`.
    pub d_target: usize,
    /// ESA MSE per feature.
    pub esa_mse: f64,
    /// Uniform random-guess baseline MSE.
    pub rg_uniform: f64,
    /// Gaussian random-guess baseline MSE.
    pub rg_gaussian: f64,
    /// Eqn (15) upper bound on the ESA MSE.
    pub upper_bound: f64,
    /// Whether `d_target ≤ c − 1` (exact recovery expected).
    pub exact: bool,
}

/// Runs the Fig. 5 sweep over the four real-world datasets.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig5Row> {
    let jobs: Vec<(PaperDataset, f64)> = PaperDataset::real_world()
        .iter()
        .flat_map(|&d| cfg.dtarget_grid.iter().map(move |&f| (d, f)))
        .collect();
    sweep::parallel_map(jobs, |(dataset, fraction)| {
        measure_point(cfg, dataset, fraction)
    })
}

/// Measures one (dataset, fraction) point, averaged over trials.
pub fn measure_point(cfg: &ExperimentConfig, dataset: PaperDataset, fraction: f64) -> Fig5Row {
    let (mut d_target, mut n_classes) = (0, 0);
    let tag = format!("fig5/{}/{fraction}", dataset.name());
    let [esa_mse, rg_uniform, rg_gaussian, upper_bound] = sweep::mean(cfg, &tag, |seed| {
        let model = ModelSpec::Logistic(cfg.lr.clone());
        let spec = sweep::scenario(cfg, dataset, fraction, model, seed);
        let trial = Trial::run(spec, [AttackSpec::esa()]);
        let data = trial.data();
        (d_target, n_classes) = (data.d_target(), data.n_classes);
        let (u, g) = trial.random_guess_mse(seed ^ 0x22);
        [trial.mse(0), u, g, metrics::esa_upper_bound(&data.truth)]
    });
    Fig5Row {
        dataset: dataset.name(),
        dtarget_fraction: fraction,
        d_target,
        esa_mse,
        rg_uniform,
        rg_gaussian,
        upper_bound,
        exact: d_target < n_classes,
    }
}

/// Renders the sweep as one table (the paper splits it into four
/// sub-figures).
pub fn render(rows: &[Fig5Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!(
                    "{:.0}%{}",
                    r.dtarget_fraction * 100.0,
                    if r.exact { " (T)" } else { "" }
                ),
                r.d_target.to_string(),
                crate::report::fmt_metric(r.esa_mse),
                crate::report::fmt_metric(r.rg_uniform),
                crate::report::fmt_metric(r.rg_gaussian),
                crate::report::fmt_metric(r.upper_bound),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 5: ESA — MSE per feature vs d_target",
        &[
            "Dataset",
            "d_target%",
            "d_target",
            "ESA",
            "RG(Uniform)",
            "RG(Gaussian)",
            "Bound(Eq.15)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_has_expected_shape() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.2];
        let rows = run(&cfg);
        assert_eq!(rows.len(), 4); // four datasets × one fraction
        for r in &rows {
            assert!(r.esa_mse.is_finite());
            assert!(r.rg_uniform > 0.0);
        }
        // The paper's Fig. 5 claim: where the estimate stays
        // well-determined — Credit card and Drive diagnosis ("e.g., in
        // Fig. 5b and 5c") — ESA is greatly superior to random guess. On
        // the 2-class Bank dataset at high d_target the paper's own plot
        // shows ESA *above* the baselines, so no assertion there.
        for name in ["Credit card", "Drive diagnosis"] {
            let r = rows.iter().find(|r| r.dataset == name).unwrap();
            assert!(
                r.esa_mse < r.rg_uniform,
                "{}: esa {} vs rg {}",
                r.dataset,
                r.esa_mse,
                r.rg_uniform
            );
        }
    }

    #[test]
    fn exact_threshold_on_drive() {
        // Drive diagnosis has 11 classes; at 20% of 48 features
        // d_target = 10 = c − 1 → exact, MSE ≈ 0.
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.2];
        let row = measure_point(&cfg, PaperDataset::DriveDiagnosis, 0.2);
        assert_eq!(row.d_target, 10);
        assert!(row.exact);
        assert!(row.esa_mse < 1e-6, "exact recovery mse {}", row.esa_mse);
    }
}
