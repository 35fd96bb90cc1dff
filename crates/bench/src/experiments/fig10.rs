//! Fig. 10 — per-feature reconstruction error vs data correlations.
//!
//! Two panels: Bank marketing + LR at `d_target = 40%`, Credit card + RF
//! at `d_target = 30%`. Each target feature is annotated with its
//! Eqn (16) correlation to the adversary's features and its Eqn (17)
//! correlation to the prediction outputs; weakly-correlated features
//! should reconstruct worse.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::{ModelSpec, ScenarioSpec};
use fia_core::correlation_report;
use fia_data::PaperDataset;
use fia_linalg::vecops::pearson;

/// One target feature's row in a Fig. 10 panel.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Panel name (dataset + model).
    pub panel: &'static str,
    /// Position of the feature within the target block.
    pub feature_pos: usize,
    /// Global feature index.
    pub global_index: usize,
    /// Per-feature reconstruction MSE.
    pub mse: f64,
    /// Ground-truth variance of the feature (for normalization).
    pub variance: f64,
    /// Eqn (16): mean |corr| with the adversary's features.
    pub corr_adv: f64,
    /// Eqn (17): mean |corr| with the confidence scores.
    pub corr_pred: f64,
}

impl Fig10Row {
    /// Variance-normalized error `MSE / Var(x)` — ≈ `1 − R²` of the
    /// reconstruction. On features with heterogeneous spreads the raw MSE
    /// conflates "hard to infer" with "low variance"; this ratio isolates
    /// reconstruction quality (1.0 = no better than predicting the mean).
    pub fn relative_mse(&self) -> f64 {
        if self.variance > 1e-12 {
            self.mse / self.variance
        } else {
            f64::NAN
        }
    }
}

/// Runs both Fig. 10 panels.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    let mut rows = panel_lr(cfg);
    rows.extend(panel_rf(cfg));
    rows
}

/// GRNA repetitions averaged inside each panel. The per-feature MSEs of
/// a single GRNA run are noisy; the correlation-vs-error relationship
/// the figure demonstrates needs a few repetitions even at small scale.
const PANEL_REPS: usize = 3;

/// Panel (a): Bank marketing, LR model, d_target = 40%.
pub fn panel_lr(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    let model = ModelSpec::Logistic(cfg.lr.clone());
    panel(cfg, "Bank marketing (LR)", "fig10/lr", |seed| {
        sweep::scenario(cfg, PaperDataset::BankMarketing, 0.4, model, seed)
    })
}

/// Panel (b): Credit card, RF model, d_target = 30%.
pub fn panel_rf(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    let model = ModelSpec::RandomForest(cfg.forest.clone());
    panel(cfg, "Credit card (RF)", "fig10/rf", |seed| {
        sweep::scenario(cfg, PaperDataset::CreditCard, 0.3, model, seed)
    })
}

/// One trial per panel: the split and the model stay fixed (the panel
/// is *about* specific features), and [`PANEL_REPS`] GRNA attacks with
/// their own seeds average out the attack's noise.
fn panel(
    cfg: &ExperimentConfig,
    name: &'static str,
    tag: &str,
    spec: impl FnOnce(u64) -> ScenarioSpec,
) -> Vec<Fig10Row> {
    let attacks = (0..PANEL_REPS).map(|rep| sweep::grna(cfg, cfg.seed_for(tag, rep)));
    let trial = Trial::run(spec(cfg.seed_for(tag, 0)), attacks);
    let data = trial.data();
    let mut mse = vec![0.0; data.d_target()];
    for attack in &trial.report.attacks {
        for (m, v) in mse.iter_mut().zip(&attack.per_feature_mse) {
            *m += v;
        }
    }
    let report = correlation_report(&data.x_adv, &data.truth, &trial.released());
    (0..data.d_target())
        .map(|k| Fig10Row {
            panel: name,
            feature_pos: k,
            global_index: data.target_indices[k],
            mse: mse[k] / PANEL_REPS as f64,
            variance: fia_linalg::vecops::variance(&data.truth.col(k)),
            corr_adv: report.with_adversary[k],
            corr_pred: report.with_predictions[k],
        })
        .collect()
}

/// Correlation between per-feature *raw* MSE and the Eqn (16) diagnostic.
pub fn mse_correlation_tradeoff(rows: &[Fig10Row]) -> f64 {
    let mses: Vec<f64> = rows.iter().map(|r| r.mse).collect();
    let corrs: Vec<f64> = rows.iter().map(|r| r.corr_adv).collect();
    pearson(&mses, &corrs)
}

/// Correlation between *variance-normalized* MSE and the Eqn (16)
/// diagnostic — the paper's qualitative claim ("a weaker correlation …
/// results in a lower inference accuracy") in a form that isn't
/// confounded by heterogeneous feature variances: expected *negative*.
pub fn relative_mse_correlation_tradeoff(rows: &[Fig10Row]) -> f64 {
    let pairs: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.relative_mse().is_finite())
        .map(|r| (r.relative_mse(), r.corr_adv))
        .collect();
    let rel: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let corrs: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    pearson(&rel, &corrs)
}

/// Renders both panels.
pub fn render(rows: &[Fig10Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.panel.to_string(),
                format!("{}: f{}", r.feature_pos, r.global_index),
                crate::report::fmt_metric(r.mse),
                crate::report::fmt_metric(r.relative_mse()),
                crate::report::fmt_metric(r.corr_adv),
                crate::report::fmt_metric(r.corr_pred),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 10: per-feature MSE vs correlations (Eqns 16-17)",
        &[
            "Panel",
            "Feature",
            "MSE",
            "MSE/Var",
            "corr(x_adv)",
            "corr(pred)",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_panel_has_one_row_per_target_feature() {
        let cfg = ExperimentConfig::smoke();
        let rows = panel_lr(&cfg);
        // Bank marketing: 20 features, 40% → 8 target features.
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.mse.is_finite());
            assert!((0.0..=1.0).contains(&r.corr_adv));
            assert!((0.0..=1.0).contains(&r.corr_pred));
        }
    }
}
