//! Table III — ablation study of the GRN components.
//!
//! Bank marketing, LR target model, `d_target = 40%`. The six cases:
//!
//! 1. input is exclusively noise (no `x_adv`);
//! 2. input is exclusively `x_adv` (no noise);
//! 3. no convergence constraint on `x̂_target`;
//! 4. no generator (per-sample free-variable regression);
//! 5. the full GRN;
//! 6. random guess.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::{AttackSpec, ModelSpec};
use fia_core::GrnaConfig;
use fia_data::PaperDataset;

/// One Table III row.
#[derive(Debug, Clone)]
pub struct Table3Row {
    /// Case index (1–6, matching the paper).
    pub case: usize,
    /// `x_adv` fed to the generator?
    pub input_adv: bool,
    /// Noise fed to the generator?
    pub input_noise: bool,
    /// Variance constraint applied?
    pub constraint: bool,
    /// Generator network used?
    pub generator: bool,
    /// Measured MSE per feature.
    pub mse: f64,
}

impl Table3Row {
    /// Human-readable case description.
    pub fn description(&self) -> &'static str {
        match self.case {
            1 => "noise-only input",
            2 => "x_adv-only input",
            3 => "no output constraint",
            4 => "no generator (free variables)",
            5 => "full GRN",
            6 => "random guess",
            _ => "?",
        }
    }
}

/// Runs the six ablation cases: one campaign mounting cases 1–5 as
/// five GRNA configurations, plus the random-guess row.
pub fn run(cfg: &ExperimentConfig) -> Vec<Table3Row> {
    let seed = cfg.seed_for("table3", 0);
    let case_config = |case: usize| -> GrnaConfig {
        let mut c = cfg.grna.clone().with_seed(seed ^ (case as u64) << 8);
        match case {
            1 => c.use_adv_input = false,
            2 => c.use_noise_input = false,
            3 => c.use_variance_constraint = false,
            4 => c.use_generator = false,
            5 => {}
            _ => unreachable!(),
        }
        c
    };
    let configs: Vec<GrnaConfig> = (1..=5).map(case_config).collect();
    let model = ModelSpec::Logistic(cfg.lr.clone());
    let spec = sweep::scenario(cfg, PaperDataset::BankMarketing, 0.4, model, seed);
    let trial = Trial::run(spec, configs.iter().cloned().map(AttackSpec::grna));

    let mut rows: Vec<Table3Row> = configs
        .iter()
        .enumerate()
        .map(|(i, gc)| Table3Row {
            case: i + 1,
            input_adv: gc.use_adv_input,
            input_noise: gc.use_noise_input,
            constraint: gc.use_variance_constraint,
            generator: gc.use_generator,
            mse: trial.mse(i),
        })
        .collect();
    rows.push(Table3Row {
        case: 6,
        input_adv: false,
        input_noise: false,
        constraint: false,
        generator: false,
        mse: trial.random_guess_mse(seed ^ 0x92).0,
    });
    rows
}

/// Renders Table III.
pub fn render(rows: &[Table3Row]) -> String {
    let mark = |b: bool| if b { "yes" } else { "no" }.to_string();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.case.to_string(),
                r.description().to_string(),
                mark(r.input_adv),
                mark(r.input_noise),
                mark(r.constraint),
                mark(r.generator),
                crate::report::fmt_metric(r.mse),
            ]
        })
        .collect();
    crate::report::render_table(
        "Table III: GRN ablation (Bank marketing, LR, d_target = 40%)",
        &[
            "Case",
            "Description",
            "x_adv",
            "Noise",
            "Constraint",
            "Generator",
            "MSE",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grn_is_best_of_generator_cases() {
        let cfg = ExperimentConfig::smoke();
        let rows = run(&cfg);
        assert_eq!(rows.len(), 6);
        let mse = |case: usize| rows.iter().find(|r| r.case == case).unwrap().mse;
        // The paper's key ordering: the full GRN (case 5) beats the
        // noise-only ablation (case 1) and random guess (case 6).
        assert!(mse(5) < mse(1), "full {} vs noise-only {}", mse(5), mse(1));
        assert!(mse(5) < mse(6), "full {} vs random {}", mse(5), mse(6));
    }
}
