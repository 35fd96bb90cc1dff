//! The typed scenario builder.
//!
//! A scenario is everything the paper fixes before the adversary spends
//! a single query (Section VI-A): the dataset and its split, the
//! vertical feature partition, the collusion structure, the model
//! family, the deployed defenses and the shape of the prediction
//! interface. [`ScenarioSpec`] captures all of it as data, so a run is
//! reproducible from `(spec, seed)` and two runs are comparable by
//! [`ScenarioSpec::fingerprint`].
//!
//! Building happens in two stages:
//!
//! * [`ScenarioSpec::materialize`] resolves the *data* side — generate,
//!   split, partition, apply the threat model — into a [`ScenarioData`];
//! * [`ScenarioSpec::build`] additionally trains the model and deploys
//!   it as a `VflSystem`, yielding a [`ResolvedScenario`] ready to drive
//!   a [`Campaign`](crate::Campaign).

use crate::model::{ModelSpec, TrainedModel};
use fia_core::{fnv, fnv_words};
use fia_data::{Dataset, PaperDataset, SplitSpec};
use fia_defense::DefensePipeline;
use fia_linalg::Matrix;
use fia_serve::ServeConfig;
use fia_vfl::{ThreatModel, VerticalPartition, VflSystem};
use std::sync::Arc;
use std::time::Duration;

/// Where the scenario's samples come from.
#[derive(Debug, Clone)]
pub enum DataSpec {
    /// One of the paper's six Table II datasets at a sample-count scale.
    Paper {
        /// The Table II dataset.
        dataset: PaperDataset,
        /// Sample-count scale vs. Table II (`1.0` = full size).
        scale: f64,
    },
    /// A caller-supplied dataset (e.g. loaded from CSV).
    Custom(Dataset),
}

/// How the global feature space is split across parties.
#[derive(Debug, Clone)]
pub enum PartitionSpec {
    /// A random `target_fraction` of features forms the passive target
    /// party's block; the active party holds the rest (the paper's
    /// swept `d_target / d` knob).
    TwoBlockRandom {
        /// Fraction of features owned by the target party.
        target_fraction: f64,
    },
    /// Explicit contiguous blocks, one width per party in id order
    /// (party 0 is active).
    Contiguous(Vec<usize>),
}

impl PartitionSpec {
    /// A random two-party split with the given target share.
    pub fn two_block_random(target_fraction: f64) -> Self {
        PartitionSpec::TwoBlockRandom { target_fraction }
    }

    /// Contiguous blocks with the given widths.
    pub fn contiguous(widths: &[usize]) -> Self {
        PartitionSpec::Contiguous(widths.to_vec())
    }
}

/// Tuning knobs for a [`OracleSpec::Served`] deployment — the subset of
/// `fia_serve::ServeConfig` a campaign exposes (the bind address is
/// always an ephemeral port, and coalescing stays on).
#[derive(Debug, Clone)]
pub struct ServedConfig {
    /// Backend replicas behind the prediction service.
    pub replicas: usize,
    /// Released-score cache capacity in rows; `0` disables caching.
    pub cache_capacity: usize,
    /// Row budget per coalesced prediction round.
    pub batch_cap: usize,
    /// Coalescer deadline past a round's first request.
    pub batch_deadline: Duration,
    /// Simulated fixed cost of one secure joint-prediction round.
    pub round_cost: Duration,
}

impl Default for ServedConfig {
    fn default() -> Self {
        ServedConfig {
            replicas: 1,
            cache_capacity: 0,
            batch_cap: 64,
            batch_deadline: Duration::from_micros(500),
            round_cost: Duration::ZERO,
        }
    }
}

impl ServedConfig {
    /// The server configuration this tuning deploys for a scenario
    /// seeded with `scenario_seed`: an ephemeral port, coalescing and the
    /// audit ledger on, and a cache seed derived from the scenario's.
    /// The campaign session and campaignd's shared deployments both
    /// spawn through it, so they observe the same deployment.
    pub fn serve_config(&self, scenario_seed: u64) -> ServeConfig {
        ServeConfig {
            bind: "127.0.0.1:0".to_string(),
            replicas: self.replicas,
            batch_cap: self.batch_cap,
            batch_deadline: self.batch_deadline,
            cache_capacity: self.cache_capacity,
            cache_seed: scenario_seed ^ 0x5C0_7E5,
            round_cost: self.round_cost,
            audit: true,
        }
    }
}

/// The prediction interface the adversary queries.
#[derive(Debug, Clone)]
pub enum OracleSpec {
    /// Query the deployment in-process (no network): a protocol round
    /// per oracle call, with the scenario's defense pipeline applied at
    /// the score-release boundary.
    InProcess,
    /// Spawn a real `fia_serve::PredictionServer` on an ephemeral port
    /// and query it over TCP; the campaign tears the server down when it
    /// is shut down or dropped.
    Served(ServedConfig),
}

impl OracleSpec {
    /// A served oracle with default tuning.
    pub fn served() -> Self {
        OracleSpec::Served(ServedConfig::default())
    }

    /// Compact human-readable form for reports.
    pub fn describe(&self) -> String {
        match self {
            OracleSpec::InProcess => "in-process".to_string(),
            OracleSpec::Served(cfg) => format!(
                "served(replicas={},cache={},batch_cap={})",
                cfg.replicas, cfg.cache_capacity, cfg.batch_cap
            ),
        }
    }
}

/// The complete, typed description of an attack scenario: data source,
/// split, partition, threat model, model family, defenses and the
/// oracle the adversary will query. See the module docs for the
/// two-stage build.
#[derive(Clone)]
pub struct ScenarioSpec {
    data: DataSpec,
    split: SplitSpec,
    partition: PartitionSpec,
    threat: ThreatModel,
    model: ModelSpec,
    defense: Arc<DefensePipeline>,
    oracle: OracleSpec,
    seed: u64,
}

impl ScenarioSpec {
    /// A scenario over one of the paper's Table II datasets. Defaults:
    /// 1% scale, the paper's split, a random 30% target block, the
    /// active party attacking alone, logistic regression, no defenses,
    /// an in-process oracle, seed 0.
    pub fn paper(dataset: PaperDataset) -> Self {
        Self::with_data(DataSpec::Paper {
            dataset,
            scale: 0.01,
        })
    }

    /// A scenario over a caller-supplied dataset (same defaults).
    pub fn custom(dataset: Dataset) -> Self {
        Self::with_data(DataSpec::Custom(dataset))
    }

    fn with_data(data: DataSpec) -> Self {
        ScenarioSpec {
            data,
            split: SplitSpec::paper_default(),
            partition: PartitionSpec::two_block_random(0.3),
            threat: ThreatModel::active_only(),
            model: ModelSpec::logistic(),
            defense: Arc::new(DefensePipeline::new()),
            oracle: OracleSpec::InProcess,
            seed: 0,
        }
    }

    /// Overrides the sample-count scale (paper datasets only).
    ///
    /// # Panics
    /// Panics when the data source is [`DataSpec::Custom`].
    pub fn with_scale(mut self, scale: f64) -> Self {
        match &mut self.data {
            DataSpec::Paper { scale: s, .. } => *s = scale,
            DataSpec::Custom(_) => panic!("scale applies to paper datasets only"),
        }
        self
    }

    /// Overrides the three-way split.
    pub fn with_split(mut self, split: SplitSpec) -> Self {
        self.split = split;
        self
    }

    /// Overrides the prediction-set fraction (Fig. 9's `n / |D|` knob).
    pub fn with_prediction_fraction(mut self, f: f64) -> Self {
        self.split = self.split.with_prediction_fraction(f);
        self
    }

    /// Overrides the vertical feature partition.
    pub fn with_partition(mut self, partition: PartitionSpec) -> Self {
        self.partition = partition;
        self
    }

    /// Overrides the collusion structure.
    pub fn with_threat(mut self, threat: ThreatModel) -> Self {
        self.threat = threat;
        self
    }

    /// Overrides the model family / training configuration.
    pub fn with_model(mut self, model: ModelSpec) -> Self {
        self.model = model;
        self
    }

    /// Installs a defense pipeline at the score-release boundary (both
    /// oracle kinds apply it; the served oracle applies it inside the
    /// prediction server, once per coalesced round).
    ///
    /// Release-composition caveat: element-wise defenses (rounding)
    /// release identical bytes whatever the round composition, so
    /// served and in-process campaigns — and resumed vs fresh runs —
    /// stay bit-identical. Defenses that seed from the *released
    /// batch's* content (`NoiseDefense`) deliberately draw different
    /// noise per round composition; the served oracle's coalescing and
    /// shard-splitting compose rounds differently than in-process
    /// chunks, so such scenarios are statistically equivalent across
    /// oracle kinds but not bit-comparable (nor is a resumed run whose
    /// remainder chunk differs). That mirrors the modelled deployment:
    /// the adversary cannot re-derive the server's noise stream.
    pub fn with_defense(mut self, defense: DefensePipeline) -> Self {
        self.defense = Arc::new(defense);
        self
    }

    /// Overrides the oracle kind the adversary queries.
    pub fn with_oracle(mut self, oracle: OracleSpec) -> Self {
        self.oracle = oracle;
        self
    }

    /// Overrides the scenario seed (drives generation, splitting, the
    /// feature split and model training).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Canonical human-readable description of the scenario — the
    /// material the [`ScenarioSpec::fingerprint`] hashes. Defense
    /// stages enter through their parameterized descriptors
    /// (`"rounding(b=3)"`), so configurations differing only in a
    /// stage parameter do not collide.
    pub fn describe(&self) -> String {
        let data = match &self.data {
            DataSpec::Paper { dataset, scale } => {
                format!("paper:{}@{scale}", dataset.name())
            }
            DataSpec::Custom(ds) => {
                // Hash the whole dataset — features, labels and class
                // count — so two custom datasets share a fingerprint
                // only when every training-relevant byte agrees.
                let words = ds
                    .features
                    .as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .chain(ds.labels.iter().map(|&y| y as u64))
                    .chain([ds.n_classes as u64]);
                format!("custom:{}#{:016x}", ds.name, fnv_words(0x5EED, words))
            }
        };
        let partition = match &self.partition {
            PartitionSpec::TwoBlockRandom { target_fraction } => {
                format!("two-block-random({target_fraction})")
            }
            PartitionSpec::Contiguous(widths) => format!("contiguous({widths:?})"),
        };
        let colluders: Vec<usize> = self.threat.adversary_parties.iter().map(|p| p.0).collect();
        format!(
            "data={data};split={}/{}/{};partition={partition};adversary={colluders:?};model={};defense={:?};oracle={};seed={}",
            self.split.train_fraction,
            self.split.test_fraction,
            self.split.prediction_fraction,
            self.model.family(),
            self.defense.stage_descriptors(),
            self.oracle.describe(),
            self.seed,
        )
    }

    /// Stable 64-bit fingerprint of the scenario (hex string): two runs
    /// with the same fingerprint saw the same data, split, partition,
    /// threat model, model family, defense stack, oracle kind and seed.
    pub fn fingerprint(&self) -> String {
        format!("{:016x}", fnv(0xF1A, self.describe().as_bytes()))
    }

    /// Resolves the data side of the scenario: generates/clones the
    /// dataset, splits it, draws the feature partition and applies the
    /// threat model, with the seed derivations `generate(seed)`,
    /// `split(seed ^ 0xA11CE)` and `partition(seed ^ 0xBEEF)`.
    ///
    /// # Panics
    /// Panics when the resolved target side owns no features (nothing to
    /// infer — e.g. every party colludes).
    pub fn materialize(&self) -> ScenarioData {
        let ds = match &self.data {
            DataSpec::Paper { dataset, scale } => dataset.generate(*scale, self.seed),
            DataSpec::Custom(ds) => ds.clone(),
        };
        let split = ds.split(&self.split, self.seed ^ 0xA11CE);
        let partition = match &self.partition {
            PartitionSpec::TwoBlockRandom { target_fraction } => {
                VerticalPartition::two_block_random(
                    ds.n_features(),
                    *target_fraction,
                    self.seed ^ 0xBEEF,
                )
            }
            PartitionSpec::Contiguous(widths) => VerticalPartition::contiguous(widths),
        };
        let (adv_indices, target_indices) = self.threat.feature_split(&partition);
        assert!(
            !target_indices.is_empty(),
            "scenario leaves the target party no features to infer"
        );
        let x_adv = split
            .prediction
            .features
            .select_columns(&adv_indices)
            .expect("adversary indices in range");
        let truth = split
            .prediction
            .features
            .select_columns(&target_indices)
            .expect("target indices in range");
        ScenarioData {
            name: ds.name.clone(),
            n_classes: ds.n_classes,
            train: split.train,
            test: split.test,
            prediction: split.prediction,
            partition,
            adv_indices,
            target_indices,
            x_adv,
            truth,
        }
    }

    /// Resolves the full scenario: [`ScenarioSpec::materialize`], then
    /// train the model (seeded from the scenario seed) and deploy it as
    /// a `VflSystem`. The result is ready for
    /// [`Campaign::new`](crate::Campaign::new).
    pub fn build(self) -> ResolvedScenario {
        let data = self.materialize();
        let model = self.model.train(&data.train, self.seed ^ 0x10DE1);
        let system = Arc::new(VflSystem::from_global(
            model,
            data.partition.clone(),
            &data.prediction.features,
        ));
        // One describe() pass (it hashes every byte of a custom
        // dataset); the fingerprint is derived from it.
        let description = self.describe();
        ResolvedScenario {
            fingerprint: format!("{:016x}", fnv(0xF1A, description.as_bytes())),
            description,
            seed: self.seed,
            oracle: self.oracle,
            defense: self.defense,
            data,
            system,
        }
    }
}

/// The resolved data side of a scenario (stage one of the build): the
/// splits, the feature partition, and the adversary's/target's views of
/// the prediction set.
#[derive(Debug, Clone)]
pub struct ScenarioData {
    /// Dataset display name.
    pub name: String,
    /// Number of classes `c`.
    pub n_classes: usize,
    /// Model-training partition.
    pub train: Dataset,
    /// Model-testing partition.
    pub test: Dataset,
    /// Prediction partition — the samples the adversary attacks.
    pub prediction: Dataset,
    /// The vertical feature partition.
    pub partition: VerticalPartition,
    /// Sorted global indices of the adversary coalition's features.
    pub adv_indices: Vec<usize>,
    /// Sorted global indices of the target party's features.
    pub target_indices: Vec<usize>,
    /// The coalition's columns of the prediction set (`n × d_adv`).
    pub x_adv: Matrix,
    /// Ground-truth target columns of the prediction set
    /// (`n × d_target`) — used only for evaluation.
    pub truth: Matrix,
}

impl ScenarioData {
    /// `d_target` — the unknowns an attack must reconstruct per sample.
    pub fn d_target(&self) -> usize {
        self.target_indices.len()
    }

    /// Number of samples in the prediction set.
    pub fn n_predictions(&self) -> usize {
        self.prediction.n_samples()
    }
}

/// A fully resolved scenario: data, a trained deployed model, the
/// defense stack and the oracle choice — everything a
/// [`Campaign`](crate::Campaign) session needs. Cloning is cheap-ish
/// (the system and defense are shared behind `Arc`s; the data splits
/// are copied), which lets a daemon keep one resolved template per
/// fingerprint and stamp out sessions from it.
#[derive(Clone)]
pub struct ResolvedScenario {
    pub(crate) data: ScenarioData,
    pub(crate) system: Arc<VflSystem<TrainedModel>>,
    pub(crate) defense: Arc<DefensePipeline>,
    pub(crate) oracle: OracleSpec,
    pub(crate) fingerprint: String,
    pub(crate) description: String,
    pub(crate) seed: u64,
}

impl ResolvedScenario {
    /// The resolved data side (splits, partition, adversary view).
    pub fn data(&self) -> &ScenarioData {
        &self.data
    }

    /// The trained model, as deployed (the threat model hands `θ` to the
    /// adversary).
    pub fn model(&self) -> &TrainedModel {
        self.system.model()
    }

    /// The deployed vertical FL system.
    pub fn system(&self) -> &Arc<VflSystem<TrainedModel>> {
        &self.system
    }

    /// The defense pipeline applied at the score-release boundary.
    pub fn defense(&self) -> &Arc<DefensePipeline> {
        &self.defense
    }

    /// The oracle kind this scenario's campaigns query.
    pub fn oracle_spec(&self) -> &OracleSpec {
        &self.oracle
    }

    /// The spec fingerprint (see [`ScenarioSpec::fingerprint`]).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// The canonical scenario description.
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The scenario seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialize_shapes_consistent() {
        let data = ScenarioSpec::paper(PaperDataset::CreditCard)
            .with_seed(7)
            .materialize();
        assert_eq!(data.adv_indices.len() + data.target_indices.len(), 23);
        assert_eq!(data.d_target(), 7); // 30% of 23 ≈ 7
        assert_eq!(data.x_adv.cols(), 16);
        assert_eq!(data.truth.cols(), 7);
        assert_eq!(data.x_adv.rows(), data.n_predictions());
        assert_eq!(data.n_classes, 2);
    }

    #[test]
    fn materialize_deterministic_per_seed() {
        let spec = ScenarioSpec::paper(PaperDataset::BankMarketing)
            .with_partition(PartitionSpec::two_block_random(0.4))
            .with_seed(3);
        let a = spec.clone().materialize();
        let b = spec.materialize();
        assert_eq!(a.adv_indices, b.adv_indices);
        assert_eq!(a.x_adv, b.x_adv);
    }

    /// Pins the fingerprint's value, not just its equalities: shared
    /// deployments and checkpoints are keyed on it.
    #[test]
    fn prediction_fraction_controls_n() {
        let spec = ScenarioSpec::paper(PaperDataset::Synthetic1)
            .with_scale(0.005)
            .with_seed(5);
        let small = spec.clone().with_prediction_fraction(0.1).materialize();
        let large = spec.with_prediction_fraction(0.5).materialize();
        assert!(large.n_predictions() > 3 * small.n_predictions());
    }

    #[test]
    fn fingerprint_is_golden() {
        let spec = ScenarioSpec::paper(PaperDataset::CreditCard).with_seed(7);
        assert_eq!(spec.fingerprint(), "8f24b89fa50ed567");
    }

    #[test]
    fn fingerprint_stable_and_sensitive() {
        let base = ScenarioSpec::paper(PaperDataset::CreditCard).with_seed(7);
        assert_eq!(base.fingerprint(), base.clone().fingerprint());
        let other_seed = base.clone().with_seed(8);
        assert_ne!(base.fingerprint(), other_seed.fingerprint());
        let other_model = base.clone().with_model(ModelSpec::decision_tree());
        assert_ne!(base.fingerprint(), other_model.fingerprint());
        let served = base.clone().with_oracle(OracleSpec::served());
        assert_ne!(base.fingerprint(), served.fingerprint());
        // Defense *parameters* distinguish fingerprints, not just stage
        // names.
        use fia_defense::RoundingDefense;
        let fine = base
            .clone()
            .with_defense(DefensePipeline::new().then(RoundingDefense::fine()));
        let coarse = base
            .clone()
            .with_defense(DefensePipeline::new().then(RoundingDefense::coarse()));
        assert_ne!(fine.fingerprint(), coarse.fingerprint());
    }

    #[test]
    fn build_deploys_trained_model() {
        let scenario = ScenarioSpec::paper(PaperDataset::CreditCard)
            .with_seed(11)
            .build();
        assert_eq!(scenario.model().family(), "lr");
        assert_eq!(
            scenario.system().n_samples(),
            scenario.data().n_predictions()
        );
        assert_eq!(scenario.seed(), 11);
        assert!(scenario.description().contains("model=lr"));
    }

    #[test]
    fn custom_dataset_flows_through() {
        let features = Matrix::from_fn(40, 6, |i, j| ((i * 6 + j) % 9) as f64 / 9.0);
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let ds = Dataset::new("toy", features, labels, 2);
        let data = ScenarioSpec::custom(ds)
            .with_partition(PartitionSpec::contiguous(&[4, 2]))
            .with_seed(5)
            .materialize();
        assert_eq!(data.adv_indices, vec![0, 1, 2, 3]);
        assert_eq!(data.target_indices, vec![4, 5]);
    }

    #[test]
    fn contiguous_partition_with_colluders_shrinks_target() {
        use fia_vfl::PartyId;
        let data = ScenarioSpec::paper(PaperDataset::CreditCard)
            .with_partition(PartitionSpec::contiguous(&[9, 7, 7]))
            .with_threat(ThreatModel::with_colluders(&[PartyId(2)]))
            .with_seed(3)
            .materialize();
        assert_eq!(data.d_target(), 7);
        assert_eq!(data.x_adv.cols(), 16);
    }

    #[test]
    fn custom_fingerprint_sees_labels_and_classes() {
        let features = Matrix::from_fn(10, 4, |i, j| (i * 4 + j) as f64 / 40.0);
        let spec_of = |labels: Vec<usize>, c: usize| {
            ScenarioSpec::custom(Dataset::new("toy", features.clone(), labels, c)).fingerprint()
        };
        let a = spec_of((0..10).map(|i| i % 2).collect(), 2);
        let b = spec_of((0..10).map(|i| (i + 1) % 2).collect(), 2);
        let c = spec_of((0..10).map(|i| i % 2).collect(), 3);
        assert_ne!(a, b, "different labels must change the fingerprint");
        assert_ne!(a, c, "different class count must change the fingerprint");
        assert_eq!(a, spec_of((0..10).map(|i| i % 2).collect(), 2));
        assert_eq!(a, "3346e4b557212024");
    }

    #[test]
    #[should_panic(expected = "no features to infer")]
    fn all_colluding_scenario_rejected() {
        use fia_vfl::PartyId;
        let _ = ScenarioSpec::paper(PaperDataset::CreditCard)
            .with_partition(PartitionSpec::contiguous(&[16, 7]))
            .with_threat(ThreatModel::with_colluders(&[PartyId(1)]))
            .materialize();
    }

    #[test]
    #[should_panic(expected = "paper datasets only")]
    fn scale_on_custom_rejected() {
        let ds = Dataset::new("toy", Matrix::zeros(4, 2), vec![0, 1, 0, 1], 2);
        let _ = ScenarioSpec::custom(ds).with_scale(0.5);
    }
}
