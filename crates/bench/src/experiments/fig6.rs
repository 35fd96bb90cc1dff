//! Fig. 6 — Path restriction attack: CBR vs `d_target`.

use crate::profiles::ExperimentConfig;
use crate::sweep::{self, Trial};
use fia_campaign::{AttackSpec, ModelSpec, TrainedModel};
use fia_core::{baseline, metrics::CbrTally, row_seed, PathRestrictionAttack};
use fia_data::PaperDataset;
use rand::{rngs::StdRng, SeedableRng};

/// One measured point of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Dataset display name.
    pub dataset: &'static str,
    /// Swept fraction `d_target / d`.
    pub dtarget_fraction: f64,
    /// PRA correct branching rate.
    pub pra_cbr: Option<f64>,
    /// Random-path baseline CBR.
    pub rg_cbr: Option<f64>,
    /// Mean number of candidate paths after restriction (`n_r`).
    pub mean_restricted: f64,
    /// Extension beyond the paper: MSE of PRA's feasible-interval point
    /// estimates, comparable with ESA/GRNA (Fig. 5/7 metric).
    pub pra_mse: f64,
    /// Uniform random-guess MSE baseline for the extension column.
    pub rg_mse: f64,
}

/// Runs the Fig. 6 sweep.
pub fn run(cfg: &ExperimentConfig) -> Vec<Fig6Row> {
    let jobs: Vec<(PaperDataset, f64)> = PaperDataset::real_world()
        .iter()
        .flat_map(|&d| cfg.dtarget_grid.iter().map(move |&f| (d, f)))
        .collect();
    sweep::parallel_map(jobs, |(dataset, fraction)| {
        measure_point(cfg, dataset, fraction)
    })
}

fn measure_point(cfg: &ExperimentConfig, dataset: PaperDataset, fraction: f64) -> Fig6Row {
    let mut pra = CbrTally::default();
    let mut rg = CbrTally::default();
    let (mut restricted_sum, mut restricted_count) = (0.0, 0usize);
    let tag = format!("fig6/{}/{fraction}", dataset.name());
    let [pra_mse, rg_mse] = sweep::mean(cfg, &tag, |seed| {
        let model = ModelSpec::DecisionTree(cfg.tree.clone());
        let spec = sweep::scenario(cfg, dataset, fraction, model, seed);
        let pra_spec = AttackSpec::Pra {
            seed,
            value_range: (0.0, 1.0),
        };
        let trial = Trial::run(spec, [pra_spec]);
        let (data, released) = (trial.data(), trial.released());
        let TrainedModel::DecisionTree(tree) = trial.scenario().model() else {
            unreachable!("the spec trains a decision tree")
        };
        // The CBR scores the path PRA picked for each row: its tie-break
        // is keyed on the row's content under the spec seed.
        let attack = PathRestrictionAttack::new(tree, &data.adv_indices, &data.target_indices);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x88);
        for i in 0..data.n_predictions() {
            let x_full = data.prediction.sample(i);
            let (x_adv, conf) = (data.x_adv.row(i), released.row(i));
            // The protocol reveals the predicted class (one-hot scores).
            let class = tree.predict_one(x_full);
            let mut row_rng = StdRng::seed_from_u64(row_seed(seed, x_adv, conf));
            if let Some(inferred) = attack.infer(x_adv, class, &mut row_rng) {
                pra.merge(attack.evaluate_cbr(&inferred, x_full));
                restricted_sum += inferred.n_restricted as f64;
                restricted_count += 1;
            }
            rg.merge(baseline::random_path_cbr(
                tree,
                x_full,
                &data.target_indices,
                &mut rng,
            ));
        }
        [trial.mse(0), trial.random_guess_mse(seed ^ 0x99).0]
    });
    Fig6Row {
        dataset: dataset.name(),
        dtarget_fraction: fraction,
        pra_cbr: pra.rate(),
        rg_cbr: rg.rate(),
        mean_restricted: if restricted_count > 0 {
            restricted_sum / restricted_count as f64
        } else {
            0.0
        },
        pra_mse,
        rg_mse,
    }
}

/// Renders the sweep.
pub fn render(rows: &[Fig6Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.dataset.to_string(),
                format!("{:.0}%", r.dtarget_fraction * 100.0),
                crate::report::fmt_opt(r.pra_cbr),
                crate::report::fmt_opt(r.rg_cbr),
                format!("{:.2}", r.mean_restricted),
                crate::report::fmt_metric(r.pra_mse),
                crate::report::fmt_metric(r.rg_mse),
            ]
        })
        .collect();
    crate::report::render_table(
        "Fig. 6: PRA — correct branching rate vs d_target (+MSE extension)",
        &[
            "Dataset",
            "d_target%",
            "PRA",
            "Random Guess",
            "mean n_r",
            "PRA-MSE*",
            "RG-MSE",
        ],
        &body,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pra_beats_random_guess() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.dtarget_grid = vec![0.4];
        let rows = run(&cfg);
        assert_eq!(rows.len(), 4);
        // At smoke scale a depth-5 tree may not split on any target
        // feature for some dataset/seed (the paper notes the DT "only
        // selects informative features during training"), leaving an
        // empty tally. Require usable tallies on most datasets and PRA ≥
        // random on each of them.
        let mut usable = 0;
        for r in &rows {
            if let (Some(pra), Some(rg)) = (r.pra_cbr, r.rg_cbr) {
                usable += 1;
                assert!(pra >= rg - 0.05, "{}: pra {pra} vs random {rg}", r.dataset);
                assert!(r.mean_restricted >= 1.0);
            }
        }
        assert!(usable >= 2, "only {usable} datasets produced tallies");
    }
}
