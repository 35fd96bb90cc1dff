//! Experiment sizing profiles.

use fia_core::GrnaConfig;
use fia_models::{DistillConfig, ForestConfig, LrConfig, MlpConfig, TreeConfig};

/// Everything an experiment needs to know about sizing and seeding.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Dataset scale relative to Table II sample counts (1.0 = paper).
    pub scale: f64,
    /// Master seed; every sub-experiment derives its own stream.
    pub seed: u64,
    /// Number of independent trials averaged per point (paper: 10).
    pub trials: usize,
    /// `d_target` fractions swept by the figures (paper: 10%–60%).
    pub dtarget_grid: Vec<f64>,
    /// GRN attack configuration.
    pub grna: GrnaConfig,
    /// Vertical-FL NN model configuration.
    pub mlp: MlpConfig,
    /// Logistic-regression training configuration.
    pub lr: LrConfig,
    /// Random-forest configuration.
    pub forest: ForestConfig,
    /// Decision-tree configuration (PRA target).
    pub tree: TreeConfig,
    /// RF→NN distillation configuration.
    pub distill: DistillConfig,
}

impl ExperimentConfig {
    /// Seconds-scale profile: ~1–2% of the paper's sample counts, an
    /// order-of-magnitude smaller networks, one trial. Preserves every
    /// qualitative effect the figures demonstrate.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: 0.012,
            seed: 42,
            trials: 1,
            dtarget_grid: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            grna: GrnaConfig::fast(),
            mlp: MlpConfig::fast(),
            lr: LrConfig {
                epochs: 25,
                ..LrConfig::default()
            },
            forest: ForestConfig::fast(),
            tree: TreeConfig::paper_dt(),
            distill: DistillConfig::fast(),
        }
    }

    /// An even smaller profile for Criterion benches and CI smoke tests.
    pub fn smoke() -> Self {
        let mut cfg = Self::quick();
        cfg.scale = 0.004;
        cfg.dtarget_grid = vec![0.2, 0.5];
        cfg.grna.epochs = 40;
        cfg.grna.hidden = vec![32, 16];
        cfg.grna.lr = 3e-3;
        cfg.mlp.epochs = 6;
        cfg.lr.epochs = 8;
        cfg.forest.n_trees = 10;
        cfg.distill.epochs = 6;
        cfg.distill.n_dummy = 400;
        cfg
    }

    /// Minutes-scale profile: 10% of the paper's sample counts with the
    /// paper's network architectures and 3 trials. The sweet spot for
    /// checking that quick-profile shapes persist as the data grows,
    /// without committing to the full multi-hour run.
    pub fn medium() -> Self {
        let mut cfg = Self::paper();
        cfg.scale = 0.1;
        cfg.trials = 3;
        cfg.grna.hidden = vec![192, 96, 48];
        cfg.grna.epochs = 50;
        cfg.mlp.hidden = vec![128, 64, 32];
        cfg.mlp.epochs = 20;
        cfg.distill.hidden = vec![256, 96];
        cfg.distill.n_dummy = 4_000;
        cfg
    }

    /// The paper's full sizes. Hours of compute on one machine.
    pub fn paper() -> Self {
        ExperimentConfig {
            scale: 1.0,
            seed: 42,
            trials: 10,
            dtarget_grid: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            grna: GrnaConfig::paper(),
            mlp: MlpConfig::paper_vfl(),
            lr: LrConfig::default(),
            forest: ForestConfig::paper_rf(),
            tree: TreeConfig::paper_dt(),
            distill: DistillConfig::paper(),
        }
    }

    /// Derives a deterministic per-(experiment, trial) seed.
    pub fn seed_for(&self, experiment: &str, trial: usize) -> u64 {
        // FNV-1a over the experiment tag, mixed with the trial index.
        fia_core::fnv(0, experiment.as_bytes()) ^ self.seed.rotate_left(17) ^ ((trial as u64) << 48)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_differ_across_experiments_and_trials() {
        let cfg = ExperimentConfig::quick();
        let a = cfg.seed_for("fig5", 0);
        let b = cfg.seed_for("fig6", 0);
        let c = cfg.seed_for("fig5", 1);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic, and pinned: every figure's trials derive from it.
        assert_eq!(a, cfg.seed_for("fig5", 0));
        assert_eq!(
            cfg.seed_for("fig5/Credit card/0.2", 0),
            0x7984_d027_0890_6f31
        );
    }

    #[test]
    fn quick_profile_is_small() {
        let cfg = ExperimentConfig::quick();
        assert!(cfg.scale < 0.05);
        assert_eq!(cfg.dtarget_grid.len(), 6);
    }

    #[test]
    fn paper_profile_full_scale() {
        let cfg = ExperimentConfig::paper();
        assert_eq!(cfg.scale, 1.0);
        assert_eq!(cfg.trials, 10);
        assert_eq!(cfg.grna.hidden, vec![600, 200, 100]);
        assert_eq!(cfg.mlp.hidden, vec![600, 300, 100]);
    }
}
