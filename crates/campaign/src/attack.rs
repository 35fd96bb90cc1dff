//! Attack selection and dispatch over the scenario's model family.
//!
//! The three paper attacks bind to *concrete* model types (ESA to a
//! logistic regression, PRA to a decision tree, GRNA to anything
//! differentiable — with random forests entering through a distilled
//! surrogate, Section V-B). [`AttackSpec`] names an attack plus its
//! configuration as plain data; at run time the campaign matches it
//! against the scenario's [`TrainedModel`] and either constructs and
//! runs the attack or fails with a typed
//! [`CampaignError::Incompatible`].

use crate::error::CampaignError;
use crate::model::TrainedModel;
use fia_core::{
    AttackEngine, AttackResult, EqualitySolvingAttack, Grna, GrnaConfig, PathRestrictionAttack,
    QueryBatch,
};
use fia_models::{distill_forest_with_pool, DifferentiableModel, DistillConfig};

/// Which attack a campaign mounts, with its configuration.
#[derive(Debug, Clone)]
pub enum AttackSpec {
    /// Equality solving attack (Section IV-A) — logistic regression
    /// scenarios only.
    Esa,
    /// Path restriction attack (Section IV-B) — decision-tree scenarios
    /// only.
    Pra {
        /// Base seed of the surviving-path tie-break sampling.
        seed: u64,
        /// Known feature value range `(lo, hi)` for point estimates.
        value_range: (f64, f64),
    },
    /// Generative regression network attack (Section V) — any
    /// differentiable model; random forests are attacked through a
    /// distilled surrogate trained with `distill`.
    Grna {
        /// Generator training configuration.
        config: GrnaConfig,
        /// Base seed of the inference-time noise draws.
        infer_seed: u64,
        /// Surrogate distillation configuration (random forests only).
        distill: DistillConfig,
    },
}

impl AttackSpec {
    /// The equality solving attack.
    pub fn esa() -> Self {
        AttackSpec::Esa
    }

    /// The path restriction attack with the paper's normalized `(0, 1)`
    /// value range and seed 0.
    pub fn pra() -> Self {
        AttackSpec::Pra {
            seed: 0,
            value_range: (0.0, 1.0),
        }
    }

    /// The GRN attack; inference noise is seeded from the config seed,
    /// and forest distillation uses [`DistillConfig::fast`].
    pub fn grna(config: GrnaConfig) -> Self {
        let infer_seed = config.seed ^ 0x1AFE;
        let distill = DistillConfig {
            seed: config.seed ^ 0xD157,
            ..DistillConfig::fast()
        };
        AttackSpec::Grna {
            config,
            infer_seed,
            distill,
        }
    }

    /// Short stable identifier (`"esa"`, `"pra"`, `"grna"`).
    pub fn name(&self) -> &'static str {
        match self {
            AttackSpec::Esa => "esa",
            AttackSpec::Pra { .. } => "pra",
            AttackSpec::Grna { .. } => "grna",
        }
    }

    /// Whether this attack can mount against the given model family —
    /// the check the campaign session runs *before* spending a single
    /// query, so a misconfigured session fails fast instead of after
    /// the corpus (and the budget) is gone.
    pub fn compatible_with(&self, model: &TrainedModel) -> bool {
        match self {
            AttackSpec::Esa => matches!(model, TrainedModel::Logistic(_)),
            AttackSpec::Pra { .. } => matches!(model, TrainedModel::DecisionTree(_)),
            // GRNA needs a differentiable path: direct for LR/NN, via
            // the distilled surrogate for forests; a lone tree has
            // neither.
            AttackSpec::Grna { .. } => !matches!(model, TrainedModel::DecisionTree(_)),
        }
    }

    /// [`AttackSpec::compatible_with`] as a typed error.
    pub(crate) fn check_model(&self, model: &TrainedModel) -> Result<(), CampaignError> {
        if self.compatible_with(model) {
            Ok(())
        } else {
            Err(CampaignError::Incompatible {
                attack: self.name(),
                model: model.family(),
            })
        }
    }

    /// Resolves this spec against the scenario's model and runs it over
    /// the accumulated corpus.
    pub(crate) fn run(
        &self,
        model: &TrainedModel,
        adv_indices: &[usize],
        target_indices: &[usize],
        engine: &AttackEngine,
        batch: &QueryBatch,
    ) -> Result<AttackResult, CampaignError> {
        match self {
            AttackSpec::Esa => match model {
                TrainedModel::Logistic(lr) => {
                    let attack = EqualitySolvingAttack::new(lr, adv_indices, target_indices);
                    Ok(engine.run(&attack, batch))
                }
                other => Err(CampaignError::Incompatible {
                    attack: "esa",
                    model: other.family(),
                }),
            },
            AttackSpec::Pra { seed, value_range } => match model {
                TrainedModel::DecisionTree(tree) => {
                    let attack = PathRestrictionAttack::new(tree, adv_indices, target_indices)
                        .with_seed(*seed)
                        .with_value_range(value_range.0, value_range.1);
                    Ok(engine.run(&attack, batch))
                }
                other => Err(CampaignError::Incompatible {
                    attack: "pra",
                    model: other.family(),
                }),
            },
            AttackSpec::Grna {
                config,
                infer_seed,
                distill,
            } => match model {
                TrainedModel::Logistic(lr) => Ok(run_grna(
                    lr,
                    adv_indices,
                    target_indices,
                    config,
                    *infer_seed,
                    engine,
                    batch,
                )),
                TrainedModel::Mlp(mlp) => Ok(run_grna(
                    mlp,
                    adv_indices,
                    target_indices,
                    config,
                    *infer_seed,
                    engine,
                    batch,
                )),
                TrainedModel::RandomForest(forest) => {
                    // The surrogate's dummy pool bootstraps from the
                    // adversary's own observed values — data the threat
                    // model already grants it.
                    let surrogate =
                        distill_forest_with_pool(forest, distill, batch.x_adv.as_slice());
                    Ok(run_grna(
                        &surrogate,
                        adv_indices,
                        target_indices,
                        config,
                        *infer_seed,
                        engine,
                        batch,
                    ))
                }
                other => Err(CampaignError::Incompatible {
                    attack: "grna",
                    model: other.family(),
                }),
            },
        }
    }
}

/// Trains the generator on the corpus and infers it back — the paper's
/// "the samples to be attacked are exactly the samples for training the
/// generator" shape, here over whatever (possibly partial) corpus the
/// budget allowed.
fn run_grna<M: DifferentiableModel>(
    model: &M,
    adv_indices: &[usize],
    target_indices: &[usize],
    config: &GrnaConfig,
    infer_seed: u64,
    engine: &AttackEngine,
    batch: &QueryBatch,
) -> AttackResult {
    let grna = Grna::new(model, adv_indices, target_indices, config.clone());
    let generator = grna
        .train(&batch.x_adv, &batch.confidences)
        .with_infer_seed(infer_seed);
    engine.run(&generator, batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PartitionSpec, ScenarioSpec};
    use crate::ModelSpec;
    use fia_data::PaperDataset;
    use fia_models::PredictProba;

    #[test]
    fn esa_requires_logistic() {
        let scenario = ScenarioSpec::paper(PaperDataset::CreditCard)
            .with_model(ModelSpec::decision_tree())
            .with_seed(3)
            .build();
        let data = scenario.data();
        let batch = QueryBatch::new(
            data.x_adv.clone(),
            scenario.model().predict_proba(&data.prediction.features),
        );
        let err = AttackSpec::esa()
            .run(
                scenario.model(),
                &data.adv_indices,
                &data.target_indices,
                &AttackEngine::new(),
                &batch,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            CampaignError::Incompatible {
                attack: "esa",
                model: "dt"
            }
        ));
    }

    #[test]
    fn pra_runs_on_tree_scenarios() {
        let scenario = ScenarioSpec::paper(PaperDataset::CreditCard)
            .with_model(ModelSpec::decision_tree())
            .with_partition(PartitionSpec::two_block_random(0.3))
            .with_seed(5)
            .build();
        let data = scenario.data();
        let batch = QueryBatch::new(
            data.x_adv.clone(),
            scenario.model().predict_proba(&data.prediction.features),
        );
        let result = AttackSpec::pra()
            .run(
                scenario.model(),
                &data.adv_indices,
                &data.target_indices,
                &AttackEngine::new(),
                &batch,
            )
            .unwrap();
        assert_eq!(result.attack, "pra");
        assert_eq!(result.estimates.shape(), (batch.len(), data.d_target()));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(AttackSpec::esa().name(), "esa");
        assert_eq!(AttackSpec::pra().name(), "pra");
        assert_eq!(AttackSpec::grna(GrnaConfig::fast()).name(), "grna");
    }
}
