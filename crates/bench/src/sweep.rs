//! The one trial recipe every table and figure runs.
//!
//! A trial is one [`ScenarioSpec`] — a paper dataset at the profile's
//! scale, a random target block, a model family configured by the
//! profile, a defense pipeline and a seed from
//! [`ExperimentConfig::seed_for`] — plus the [`AttackSpec`]s mounted on
//! it, run as one in-process [`Campaign`]. A figure is a grid of trials
//! and a projection of each trial's resolved scenario and
//! [`CampaignReport`] into its rows; [`mean`] averages a projection
//! over a grid point's trials.

use crate::profiles::ExperimentConfig;
use fia_campaign::{
    AttackSpec, Campaign, CampaignReport, ModelSpec, NullObserver, PartitionSpec, ResolvedScenario,
    ScenarioData, ScenarioSpec,
};
use fia_core::{baseline, metrics, OracleError, PredictionOracle};
use fia_data::PaperDataset;
use fia_linalg::Matrix;
use fia_models::DistillConfig;

/// The scenario of one trial: `dataset` at the profile's scale, a random
/// `target_fraction` of its features on the target side, `model` trained
/// on the paper's split, no defense, seeded `seed`.
pub fn scenario(
    cfg: &ExperimentConfig,
    dataset: PaperDataset,
    target_fraction: f64,
    model: ModelSpec,
    seed: u64,
) -> ScenarioSpec {
    ScenarioSpec::paper(dataset)
        .with_scale(cfg.scale)
        .with_partition(PartitionSpec::two_block_random(target_fraction))
        .with_model(model)
        .with_seed(seed)
}

/// GRNA with the profile's generator, seeded `seed`. A forest is
/// attacked through a surrogate distilled with the profile's
/// distillation config, under the distillation seed
/// [`AttackSpec::grna`] derives from `seed`.
pub fn grna(cfg: &ExperimentConfig, seed: u64) -> AttackSpec {
    let mut spec = AttackSpec::grna(cfg.grna.clone().with_seed(seed));
    if let AttackSpec::Grna { distill, .. } = &mut spec {
        *distill = DistillConfig {
            seed: distill.seed,
            ..cfg.distill.clone()
        };
    }
    spec
}

/// One run trial: the campaign (which holds the resolved scenario and
/// the released corpus) and its report.
pub struct Trial {
    campaign: Campaign,
    /// One [`fia_campaign::AttackReport`] per mounted attack, in order.
    pub report: CampaignReport,
}

impl Trial {
    /// Builds `spec` and mounts `attacks` on it in one in-process
    /// campaign over the whole prediction set.
    ///
    /// # Panics
    /// Panics when an attack does not fit the spec's model family.
    pub fn run(spec: ScenarioSpec, attacks: impl IntoIterator<Item = AttackSpec>) -> Trial {
        Self::finish(Campaign::new(spec.build()).with_attacks(attacks))
    }

    /// [`Trial::run`] against a scenario already built, with the
    /// campaign querying `released` — scores the caller released itself
    /// (row `i` for prediction sample `i`) — instead of the deployment.
    pub fn run_released(
        scenario: ResolvedScenario,
        released: Matrix,
        attacks: impl IntoIterator<Item = AttackSpec>,
    ) -> Trial {
        let mut campaign = Campaign::new(scenario).with_attacks(attacks);
        campaign.attach_oracle(Box::new(Released(released)));
        Self::finish(campaign)
    }

    fn finish(mut campaign: Campaign) -> Trial {
        let report = campaign
            .run(&mut NullObserver)
            .expect("an in-process trial campaign runs to completion");
        Trial { campaign, report }
    }

    /// The resolved scenario: data and the deployed model.
    pub fn scenario(&self) -> &ResolvedScenario {
        self.campaign.scenario()
    }

    /// The resolved data side.
    pub fn data(&self) -> &ScenarioData {
        self.scenario().data()
    }

    /// The scores the deployment released for the prediction set, as the
    /// attacks saw them (after the scenario's defenses).
    pub fn released(&self) -> Matrix {
        self.campaign.checkpoint().confidences
    }

    /// The `i`-th attack's estimates.
    pub fn estimates(&self, i: usize) -> &Matrix {
        &self.report.attacks[i].estimates
    }

    /// The `i`-th attack's MSE per feature (Eqn 10).
    pub fn mse(&self, i: usize) -> f64 {
        self.report.attacks[i].mse
    }

    /// The `i`-th attack's MSE once its estimates are clamped into the
    /// known value range `[0, 1]`, as any real adversary would clamp
    /// wild estimates.
    pub fn clamped_mse(&self, i: usize) -> f64 {
        let clamped = self.estimates(i).map(|v| v.clamp(0.0, 1.0));
        metrics::mse_per_feature(&clamped, &self.data().truth)
    }

    /// Both random-guess baselines' MSE (uniform, Gaussian) against the
    /// truth.
    pub fn random_guess_mse(&self, seed: u64) -> (f64, f64) {
        let truth = &self.data().truth;
        let (n, d) = truth.shape();
        let uniform = baseline::random_guess_uniform(n, d, seed);
        let gaussian = baseline::random_guess_gaussian(n, d, seed ^ 0x6A55);
        (
            metrics::mse_per_feature(&uniform, truth),
            metrics::mse_per_feature(&gaussian, truth),
        )
    }
}

/// A deployment whose scores were released ahead of the queries: row
/// `i` answers prediction sample `i`.
struct Released(Matrix);

impl PredictionOracle for Released {
    fn n_classes(&self) -> usize {
        self.0.cols()
    }

    fn n_samples(&self) -> usize {
        self.0.rows()
    }

    fn confidences(&mut self, indices: &[usize]) -> Result<Matrix, OracleError> {
        self.0
            .select_rows(indices)
            .map_err(|e| OracleError(e.to_string()))
    }
}

/// The seeds of a grid point's trials: `cfg.seed_for(tag, t)` for each
/// of the profile's trials.
pub fn seeds<'a>(cfg: &'a ExperimentConfig, tag: &'a str) -> impl Iterator<Item = u64> + 'a {
    (0..cfg.trials.max(1)).map(move |t| cfg.seed_for(tag, t))
}

/// Averages a projection over a grid point's trials, trial `t` seeded
/// `cfg.seed_for(tag, t)`.
pub fn mean<const N: usize>(
    cfg: &ExperimentConfig,
    tag: &str,
    mut project: impl FnMut(u64) -> [f64; N],
) -> [f64; N] {
    let mut sum = [0.0; N];
    for seed in seeds(cfg, tag) {
        for (s, v) in sum.iter_mut().zip(project(seed)) {
            *s += v;
        }
    }
    sum.map(|s| s / cfg.trials.max(1) as f64)
}

/// Maps `f` over the inputs on scoped worker threads, preserving order.
/// Keeps the repro binary's wall-clock reasonable when sweeping grids.
pub fn parallel_map<T: Send, R: Send>(inputs: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let mut slots: Vec<Option<R>> = inputs.iter().map(|_| None).collect();
    std::thread::scope(|scope| {
        for (slot, input) in slots.iter_mut().zip(inputs) {
            let f = &f;
            scope.spawn(move || {
                *slot = Some(f(input));
            });
        }
    });
    slots.into_iter().map(|s| s.expect("filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(vec![3u64, 1, 2], |x| x * 10);
        assert_eq!(out, vec![30, 10, 20]);
    }

    #[test]
    fn mean_averages_over_distinct_trial_seeds() {
        let mut cfg = ExperimentConfig::smoke();
        cfg.trials = 3;
        let mut seen = Vec::new();
        let [m] = mean(&cfg, "t", |s| {
            seen.push(s);
            [seen.len() as f64]
        });
        assert_eq!(m, 2.0);
        seen.dedup();
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn trial_reports_every_attack_over_the_prediction_set() {
        let cfg = ExperimentConfig::smoke();
        let spec = scenario(
            &cfg,
            PaperDataset::CreditCard,
            0.3,
            ModelSpec::Logistic(cfg.lr.clone()),
            1,
        );
        let trial = Trial::run(spec, [AttackSpec::esa(), grna(&cfg, 2)]);
        let data = trial.data();
        assert_eq!(trial.report.attacks.len(), 2);
        assert_eq!(trial.estimates(1).shape(), data.truth.shape());
        assert_eq!(trial.released().shape(), (data.n_predictions(), 2));
        assert!(trial.clamped_mse(0) <= trial.mse(0) + 1e-12);
    }

    #[test]
    fn released_scores_replace_the_deployment() {
        let cfg = ExperimentConfig::smoke();
        let built = scenario(
            &cfg,
            PaperDataset::CreditCard,
            0.3,
            ModelSpec::Logistic(cfg.lr.clone()),
            3,
        )
        .build();
        let n = built.data().n_predictions();
        let flat = Matrix::from_fn(n, 2, |_, _| 0.5);
        let trial = Trial::run_released(built, flat.clone(), [AttackSpec::esa()]);
        assert_eq!(trial.released(), flat);
    }
}
