//! Integration tests for defended deployments: defenses applied at the
//! score-release boundary must compose with the VFL protocol and the
//! attack suite end-to-end.

use fia::attacks::{
    metrics, Attack, AttackEngine, EqualitySolvingAttack, Grna, GrnaConfig, QueryBatch,
};
use fia::data::{PaperDataset, SplitSpec};
use fia::defense::{DefensePipeline, NoiseDefense, RoundingDefense, ScoreDefense};
use fia::models::{LogisticRegression, LrConfig, Mlp, MlpConfig, PredictProba};
use fia::vfl::{AdversaryView, ThreatModel, VerticalPartition, VflSystem};

fn deployment(
    seed: u64,
) -> (
    fia::data::ThreeWaySplit,
    VerticalPartition,
    LogisticRegression,
) {
    let ds = PaperDataset::DriveDiagnosis.generate(0.008, seed);
    let split = ds.split(&SplitSpec::paper_default(), seed);
    let partition = VerticalPartition::two_block_random(ds.n_features(), 0.2, seed);
    let model = LogisticRegression::fit(&split.train, &LrConfig::default());
    (split, partition, model)
}

#[test]
fn rounded_model_through_protocol_degrades_esa() {
    let (split, partition, model) = deployment(41);
    let attack_model = model.clone();
    let system = VflSystem::from_global(model, partition, &split.prediction.features);
    let mut view = AdversaryView::collect(&system, &ThreatModel::active_only());

    // The release boundary only ever reveals rounded scores.
    let release = DefensePipeline::new().then(RoundingDefense::coarse());
    view.confidences = release.defend_batch(&view.confidences);
    // Every observed score has one decimal digit.
    for &v in view.confidences.as_slice() {
        assert!(((v * 10.0) - (v * 10.0).round()).abs() < 1e-9);
    }

    let truth = split
        .prediction
        .features
        .select_columns(&view.target_indices)
        .unwrap();
    let attack = EqualitySolvingAttack::new(&attack_model, &view.adv_indices, &view.target_indices);
    let est = attack
        .infer_batch(&QueryBatch::new(
            view.x_adv.clone(),
            view.confidences.clone(),
        ))
        .estimates
        .map(|v| v.clamp(0.0, 1.0));
    let mse = metrics::mse_per_feature(&est, &truth);
    // Undefended this deployment is exact (d_target ≤ c − 1); rounding
    // must push it far from exactness.
    assert!(mse > 0.05, "defended ESA mse {mse} suspiciously low");
}

#[test]
fn noisy_model_through_protocol_still_feeds_grna() {
    let (split, partition, model) = deployment(43);
    let attack_model = model.clone();
    let system = VflSystem::from_global(model, partition, &split.prediction.features);
    let mut view = AdversaryView::collect(&system, &ThreatModel::active_only());
    let release = DefensePipeline::new().then(NoiseDefense::new(0.02, 7));
    view.confidences = release.defend_batch(&view.confidences);

    // Scores are still distributions after noise + renormalization.
    for i in 0..view.confidences.rows() {
        let s: f64 = view.confidences.row(i).iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
    }

    let truth = split
        .prediction
        .features
        .select_columns(&view.target_indices)
        .unwrap();
    let mut cfg = GrnaConfig::fast().with_seed(43);
    cfg.hidden = vec![48, 24];
    cfg.epochs = 40;
    cfg.lr = 3e-3;
    let grna = Grna::new(&attack_model, &view.adv_indices, &view.target_indices, cfg);
    let generator = grna
        .train(&view.x_adv, &view.confidences)
        .with_infer_seed(2);
    let result = AttackEngine::new().run(
        &generator,
        &QueryBatch::new(view.x_adv.clone(), view.confidences.clone()),
    );
    let grna_mse = result.mse_against(&truth);
    let rg = fia::attacks::baseline::random_guess_uniform(truth.rows(), truth.cols(), 3);
    let rg_mse = metrics::mse_per_feature(&rg, &truth);
    assert!(
        grna_mse < rg_mse,
        "GRNA should survive light noise: {grna_mse} vs rg {rg_mse}"
    );
}

#[test]
fn batched_defense_pipeline_composes_at_the_protocol_boundary() {
    // A rounding+noise pipeline applied to a whole released round must
    // degrade batched ESA the same way each defense does alone.
    let (split, partition, model) = deployment(53);
    let attack_model = model.clone();
    let system = VflSystem::from_global(model, partition, &split.prediction.features);
    let view = AdversaryView::collect(&system, &ThreatModel::active_only());
    let truth = split
        .prediction
        .features
        .select_columns(&view.target_indices)
        .unwrap();

    let pipeline = DefensePipeline::new()
        .then(NoiseDefense::new(0.01, 77))
        .then(RoundingDefense::coarse());
    let released = pipeline.defend_batch(&view.confidences);
    assert_eq!(released.shape(), view.confidences.shape());

    let attack = EqualitySolvingAttack::new(&attack_model, &view.adv_indices, &view.target_indices);
    let clean_mse = attack
        .infer_batch(&QueryBatch::new(
            view.x_adv.clone(),
            view.confidences.clone(),
        ))
        .mse_against(&truth);
    let defended = attack
        .infer_batch(&QueryBatch::new(view.x_adv.clone(), released))
        .estimates
        .map(|v| v.clamp(0.0, 1.0));
    let defended_mse = metrics::mse_per_feature(&defended, &truth);
    assert!(clean_mse < 1e-6, "undefended ESA should be exact here");
    assert!(
        defended_mse > 100.0 * (clean_mse + 1e-6),
        "pipeline should break exactness: {defended_mse}"
    );
}

#[test]
fn persisted_mlp_attacks_identically() {
    // Save/load the vertical FL NN, then verify GRNA behaves identically
    // against the restored copy — persistence must be attack-transparent.
    let ds = PaperDataset::CreditCard.generate(0.008, 47);
    let split = ds.split(&SplitSpec::paper_default(), 47);
    let model = Mlp::fit(
        &split.train,
        &MlpConfig {
            epochs: 4,
            ..MlpConfig::fast()
        },
    );
    let restored = Mlp::from_bytes(&model.to_bytes()).unwrap();

    let partition = VerticalPartition::two_block_random(ds.n_features(), 0.3, 47);
    let adv = partition.features_of(fia::vfl::PartyId(0)).to_vec();
    let target = partition.features_of(fia::vfl::PartyId(1)).to_vec();
    let x_adv = split.prediction.features.select_columns(&adv).unwrap();
    let conf_a = model.predict_proba(&split.prediction.features);
    let conf_b = restored.predict_proba(&split.prediction.features);
    assert!(conf_a.max_abs_diff(&conf_b).unwrap() < 1e-15);

    let mut cfg = GrnaConfig::fast().with_seed(47);
    cfg.hidden = vec![32, 16];
    cfg.epochs = 10;
    let est_a = Grna::new(&model, &adv, &target, cfg.clone())
        .train(&x_adv, &conf_a)
        .infer(&x_adv, 9);
    let est_b = Grna::new(&restored, &adv, &target, cfg)
        .train(&x_adv, &conf_b)
        .infer(&x_adv, 9);
    assert!(est_a.max_abs_diff(&est_b).unwrap() < 1e-12);
}
