//! Oracle parity: a campaign over `OracleSpec::Served` — a real
//! spawned `PredictionServer`, queried over TCP — reproduces the
//! in-process campaign's report for every attack family, within 1e-9
//! per estimate (the wire codec ships raw IEEE-754 bits, so the match
//! is in fact bit-exact).

use fia_campaign::{
    AttackSpec, Campaign, CampaignError, ModelSpec, NullObserver, OracleSpec, PartitionSpec,
    ScenarioSpec, ServedConfig,
};
use fia_core::GrnaConfig;
use fia_data::PaperDataset;
use fia_models::{ForestConfig, TreeConfig};

/// Runs the same spec twice — in-process and served — and asserts the
/// reports agree.
fn assert_parity(spec: ScenarioSpec, attack: AttackSpec, served: ServedConfig) {
    let mut local = Campaign::new(spec.clone().with_oracle(OracleSpec::InProcess).build())
        .with_attack(attack.clone())
        .with_chunk(48);
    let local_report = local.run(&mut NullObserver).unwrap();

    let mut remote = Campaign::new(spec.with_oracle(OracleSpec::Served(served)).build())
        .with_attack(attack.clone())
        .with_chunk(48);
    let remote_report = remote.run(&mut NullObserver).unwrap();
    remote.shutdown();

    assert!(local_report.outcome.is_complete());
    assert!(remote_report.outcome.is_complete());
    assert_eq!(local_report.cost.rows, remote_report.cost.rows);
    let name = attack.name();
    let a = &local_report.attack(name).unwrap().estimates;
    let b = &remote_report.attack(name).unwrap().estimates;
    let diff = a.max_abs_diff(b).unwrap();
    assert!(
        diff < 1e-9,
        "{name}: served estimates diverge from in-process by {diff}"
    );
    let mse_diff =
        (local_report.attack(name).unwrap().mse - remote_report.attack(name).unwrap().mse).abs();
    assert!(mse_diff < 1e-9, "{name}: mse diverges by {mse_diff}");
}

#[test]
fn esa_served_matches_in_process() {
    let spec = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_seed(31);
    assert_parity(
        spec,
        AttackSpec::esa(),
        ServedConfig {
            replicas: 3,
            cache_capacity: 512,
            ..ServedConfig::default()
        },
    );
}

#[test]
fn pra_served_matches_in_process() {
    let spec = ScenarioSpec::paper(PaperDataset::CreditCard)
        .with_scale(0.005)
        .with_model(ModelSpec::DecisionTree(TreeConfig::paper_dt()))
        .with_seed(37);
    assert_parity(
        spec,
        AttackSpec::pra(),
        ServedConfig {
            replicas: 2,
            ..ServedConfig::default()
        },
    );
}

#[test]
fn grna_served_matches_in_process() {
    // Tiny generator: parity needs identical corpora, not a good fit.
    let grna = GrnaConfig {
        hidden: vec![12],
        epochs: 3,
        ..GrnaConfig::fast()
    }
    .with_seed(5);
    let spec = ScenarioSpec::paper(PaperDataset::CreditCard)
        .with_scale(0.005)
        .with_seed(41);
    assert_parity(
        spec,
        AttackSpec::grna(grna),
        ServedConfig {
            replicas: 2,
            cache_capacity: 256,
            ..ServedConfig::default()
        },
    );
}

#[test]
fn incompatible_attack_is_a_typed_error() {
    let scenario = ScenarioSpec::paper(PaperDataset::CreditCard)
        .with_scale(0.005)
        .with_model(ModelSpec::RandomForest(ForestConfig {
            n_trees: 4,
            ..ForestConfig::default()
        }))
        .with_seed(43)
        .build();
    let mut campaign = Campaign::new(scenario).with_attack(AttackSpec::esa());
    match campaign.run(&mut NullObserver) {
        Err(CampaignError::Incompatible { attack, model }) => {
            assert_eq!(attack, "esa");
            assert_eq!(model, "rf");
        }
        other => panic!("expected Incompatible, got {other:?}"),
    }
    // The pairing is determined by the specs alone, so the failure must
    // cost the session nothing: no rows accumulated, no queries spent.
    assert_eq!(campaign.rows_done(), 0);
    assert_eq!(campaign.spent(), fia_core::QueryCost::default());
}

/// A repeat campaign against a cache-enabled served scenario is
/// answered from the released-score cache — visible in the report's
/// `QueryCost` — and re-releases identical bytes.
#[test]
fn served_rerun_is_cache_served_and_identical() {
    let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_oracle(OracleSpec::Served(ServedConfig {
            replicas: 2,
            cache_capacity: 4096,
            ..ServedConfig::default()
        }))
        .with_seed(47)
        .build();
    let mut campaign = Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(32);
    let first = campaign.run(&mut NullObserver).unwrap();
    assert_eq!(first.cost.cached_rows, 0);
    let second = campaign.rerun(&mut NullObserver).unwrap();
    assert_eq!(second.cost.rows, first.cost.rows);
    assert_eq!(
        second.cost.cached_rows, second.cost.rows,
        "repeat pass should be fully cache-served"
    );
    assert_eq!(
        first.attack("esa").unwrap().estimates,
        second.attack("esa").unwrap().estimates
    );
    assert!(campaign.server_metrics_text().is_some());
    campaign.shutdown();
    assert!(campaign.server_metrics_text().is_none());
}
