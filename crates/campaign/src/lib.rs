#![warn(missing_docs)]

//! # fia-campaign — one typed API for the whole adversary loop
//!
//! The paper's adversary (Luo et al., ICDE 2021) is a *query-limited*
//! attacker who composes a scenario — party split, model family,
//! defense, prediction interface — and then spends a bounded query
//! budget against it. This crate is that loop as one typed surface,
//! the front door every experiment, example and test drives:
//!
//! 1. **Describe** the scenario with a [`ScenarioSpec`] builder:
//!    dataset source ([`DataSpec`]), split, vertical partition
//!    ([`PartitionSpec`]), collusion structure
//!    ([`fia_vfl::ThreatModel`]), model family ([`ModelSpec`] over LR /
//!    NN / DT / RF), defense stack ([`fia_defense::DefensePipeline`])
//!    and the oracle kind ([`OracleSpec`]: query the deployment
//!    in-process, or spawn a real `fia-serve` `PredictionServer` and
//!    query it over TCP).
//! 2. **Build** it (`spec.build()`): the dataset is generated and
//!    split, the model trained, the deployment stood up — all seeded,
//!    with a stable [`ScenarioSpec::fingerprint`] so runs are
//!    reproducible and comparable.
//! 3. **Run** a [`Campaign`]: the session accumulates the `(x_adv, v)`
//!    corpus in resumable chunks under a hard [`QueryBudget`] (enforced
//!    below the attack by a [`BudgetedOracle`] adapter, so no attack
//!    can overspend), mounts the configured [`AttackSpec`]s over
//!    whatever corpus the budget allowed, streams
//!    [`CampaignEvent`]s to a [`CampaignObserver`], and ends in one
//!    serializable [`CampaignReport`] — attack metrics, the session's
//!    [`fia_core::QueryCost`] as the deployment metered it, scenario
//!    fingerprint and seed. Exhausting the budget is not an error: the
//!    report carries partial results under a typed
//!    [`CampaignOutcome::BudgetExhausted`].
//!
//! ```no_run
//! use fia_campaign::{AttackSpec, Campaign, NullObserver, QueryBudget, ScenarioSpec};
//! use fia_data::PaperDataset;
//!
//! let scenario = ScenarioSpec::paper(PaperDataset::CreditCard)
//!     .with_scale(0.02)
//!     .with_seed(7)
//!     .build();
//! let mut campaign = Campaign::new(scenario)
//!     .with_attack(AttackSpec::esa())
//!     .with_budget(QueryBudget::rows(500));
//! let report = campaign.run(&mut NullObserver).unwrap();
//! println!("{}", report.to_json());
//! ```

mod attack;
mod budget;
mod checkpoint;
mod error;
mod event;
mod model;
mod report;
mod session;
mod spec;

pub use attack::AttackSpec;
pub use budget::{BudgetMeter, BudgetedOracle, QueryBudget};
pub use checkpoint::{CampaignCheckpoint, CheckpointError, Folded};
pub use error::CampaignError;
pub use event::{CampaignEvent, CampaignObserver, EventLog, EventParseError, NullObserver};
pub use model::{ModelSpec, TrainedModel};
pub use report::{AttackReport, CampaignOutcome, CampaignReport};
pub use session::{Campaign, InProcessOracle, StepOutcome};
pub use spec::{
    DataSpec, OracleSpec, PartitionSpec, ResolvedScenario, ScenarioData, ScenarioSpec, ServedConfig,
};
