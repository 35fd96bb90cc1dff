//! Fig. 11 — countermeasure evaluation.
//!
//! * (a)–(b): confidence rounding vs ESA on Bank marketing and Drive
//!   diagnosis — rounding to 0.1 pushes ESA beyond random guess, rounding
//!   to 0.001 barely matters.
//! * (c)–(d): the same rounding grid vs GRNA-LR — GRNA is insensitive.
//! * (e)–(f): dropout-trained NN vs GRNA-NN on Credit card and News
//!   popularity — dropout degrades the attack only slightly.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::{AttackSpec, ModelSpec};
use fia_data::PaperDataset;
use fia_defense::{DefensePipeline, RoundingDefense};

/// Rounding policy labels used in the figure legends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounding {
    /// Round down to one digit (0.1).
    Coarse,
    /// Round down to three digits (0.001).
    Fine,
    /// No rounding.
    None,
}

impl Rounding {
    /// All three legend entries.
    pub fn all() -> [Rounding; 3] {
        [Rounding::Coarse, Rounding::Fine, Rounding::None]
    }

    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Rounding::Coarse => "Round 0.1",
            Rounding::Fine => "Round 0.001",
            Rounding::None => "No Round",
        }
    }

    /// The policy as the deployment's release pipeline. Rounding is
    /// element-wise, so the released bits do not depend on how rows are
    /// batched into rounds.
    pub fn pipeline(&self) -> DefensePipeline {
        match self {
            Rounding::Coarse => DefensePipeline::new().then(RoundingDefense::coarse()),
            Rounding::Fine => DefensePipeline::new().then(RoundingDefense::fine()),
            Rounding::None => DefensePipeline::new(),
        }
    }
}

/// One measured point of panels (a)–(d).
#[derive(Debug, Clone)]
pub struct RoundingRow {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Attack ("ESA" or "GRNA-LR").
    pub attack: &'static str,
    /// Rounding policy.
    pub rounding: Rounding,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// Attack MSE per feature under the defense.
    pub mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
}

/// Panels (a)–(b): rounding vs ESA on Bank and Drive. Estimates are
/// clamped into the known value range before scoring.
pub fn run_rounding_esa(cfg: &ExperimentConfig) -> Vec<RoundingRow> {
    let mount = |_| AttackSpec::esa();
    run_rounding(cfg, "fig11ab", "ESA", mount, |trial, seed| {
        [trial.clamped_mse(0), trial.random_guess_mse(seed ^ 0x82).0]
    })
}

/// Panels (c)–(d): rounding vs GRNA-LR on Bank and Drive.
pub fn run_rounding_grna(cfg: &ExperimentConfig) -> Vec<RoundingRow> {
    let mount = |seed| sweep::grna(cfg, seed);
    run_rounding(cfg, "fig11cd", "GRNA-LR", mount, |trial, seed| {
        [trial.mse(0), trial.random_guess_mse(seed ^ 0x84).0]
    })
}

/// The rounding grid (Bank and Drive × policy × `d_target`) against an
/// LR deployment: each trial mounts `mount(seed)`, and `project` reads
/// its attack MSE and uniform random-guess MSE.
fn run_rounding(
    cfg: &ExperimentConfig,
    panels: &str,
    attack: &'static str,
    mount: impl Fn(u64) -> AttackSpec + Sync,
    project: impl Fn(&Trial, u64) -> [f64; 2] + Sync,
) -> Vec<RoundingRow> {
    let datasets = [PaperDataset::BankMarketing, PaperDataset::DriveDiagnosis];
    let jobs: Vec<(PaperDataset, Rounding, f64)> = datasets
        .iter()
        .flat_map(|&d| {
            Rounding::all()
                .into_iter()
                .flat_map(move |r| cfg.dtarget_grid.iter().map(move |&f| (d, r, f)))
        })
        .collect();
    sweep::parallel_map(jobs, |(dataset, rounding, fraction)| {
        let tag = format!(
            "{panels}/{}/{}/{fraction}",
            dataset.name(),
            rounding.label()
        );
        let [mse, rg_uniform] = sweep::mean(cfg, &tag, |seed| {
            let model = ModelSpec::Logistic(cfg.lr.clone());
            let spec = sweep::scenario(cfg, dataset, fraction, model, seed)
                .with_defense(rounding.pipeline());
            project(&Trial::run(spec, [mount(seed)]), seed)
        });
        RoundingRow {
            dataset: dataset.name(),
            attack,
            rounding,
            dtarget_fraction: fraction,
            mse,
            rg_uniform,
        }
    })
}

/// One measured point of panels (e)–(f).
#[derive(Debug, Clone)]
pub struct DropoutRow {
    /// Dataset display name.
    pub dataset: &'static str,
    /// `true` when the NN was trained with dropout.
    pub dropout: bool,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// GRNA-NN MSE per feature.
    pub mse: f64,
    /// Uniform random-guess baseline.
    pub rg_uniform: f64,
}

/// Panels (e)–(f): dropout vs GRNA-NN on Credit and News.
pub fn run_dropout(cfg: &ExperimentConfig) -> Vec<DropoutRow> {
    let datasets = [PaperDataset::CreditCard, PaperDataset::NewsPopularity];
    let jobs: Vec<(PaperDataset, bool, f64)> = datasets
        .iter()
        .flat_map(|&d| {
            [true, false]
                .into_iter()
                .flat_map(move |dr| cfg.dtarget_grid.iter().map(move |&f| (d, dr, f)))
        })
        .collect();
    sweep::parallel_map(jobs, |(dataset, dropout, fraction)| {
        let tag = format!("fig11ef/{}/{dropout}/{fraction}", dataset.name());
        let [mse, rg_uniform] = sweep::mean(cfg, &tag, |seed| {
            let mlp = if dropout {
                cfg.mlp.clone().with_dropout(0.5)
            } else {
                cfg.mlp.clone()
            };
            let spec = sweep::scenario(cfg, dataset, fraction, ModelSpec::Mlp(mlp), seed);
            let trial = Trial::run(spec, [sweep::grna(cfg, seed)]);
            [trial.mse(0), trial.random_guess_mse(seed ^ 0x86).0]
        });
        DropoutRow {
            dataset: dataset.name(),
            dropout,
            dtarget_fraction: fraction,
            mse,
            rg_uniform,
        }
    })
}

/// Renders panels (a)–(d).
pub fn render_rounding(rows: &[RoundingRow], title: &str) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                r.attack.to_string(),
                r.rounding.label().to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_metric(r.mse),
                crate::report::fmt_metric(r.rg_uniform),
            ]
        })
        .collect();
    crate::report::render_table(
        title,
        &[
            "Dataset",
            "Attack",
            "Rounding",
            "d_target%",
            "MSE",
            "RG(Uniform)",
        ],
        &body,
    )
}

/// Renders panels (e)–(f).
pub fn render_dropout(rows: &[DropoutRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                if r.dropout { "NN (Dropout)" } else { "NN" }.to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_metric(r.mse),
                crate::report::fmt_metric(r.rg_uniform),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 11e-f: dropout defense vs GRNA-NN",
        &["Dataset", "Model", "d_target%", "MSE", "RG(Uniform)"],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarse_rounding_breaks_esa_fine_does_not() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.3];
        let rows = run_rounding_esa(&cfg);
        let find = |ds: &str, r: Rounding| {
            rows.iter()
                .find(|row| row.dataset == ds && row.rounding == r)
                .expect("row present")
        };
        // Drive diagnosis is where ESA is strong undefended, so the
        // defense's effect is cleanly visible there (Fig. 11b). On Bank
        // the undefended attack is already weak at this d_target and the
        // paper calls the rounded result "relatively stochastic", so we
        // only require the defended attack to sit at random-guess level.
        {
            let coarse = find("Drive diagnosis", Rounding::Coarse);
            let fine = find("Drive diagnosis", Rounding::Fine);
            let none = find("Drive diagnosis", Rounding::None);
            assert!(
                coarse.mse > 2.0 * none.mse,
                "coarse {} vs none {}",
                coarse.mse,
                none.mse
            );
            assert!(
                fine.mse < coarse.mse,
                "fine {} vs coarse {}",
                fine.mse,
                coarse.mse
            );
        }
        for ds in ["Bank marketing", "Drive diagnosis"] {
            let coarse = find(ds, Rounding::Coarse);
            assert!(
                coarse.mse > 0.75 * coarse.rg_uniform,
                "{ds}: defended attack {} still beats random {}",
                coarse.mse,
                coarse.rg_uniform
            );
        }
    }
}
