//! `esa-per-row` and `grna-nn`: one campaign against the prediction
//! server it spawns, one closed-loop connection.

use crate::metrics::Samples;
use crate::replay::{self, same_bits};
use crate::{
    min_passes, push_mean_mse, push_overhead, scenario_of, scenario_seed, ChunkLog, Deadline,
    Tally, SCENARIOS,
};
use fia_campaign::{
    AttackSpec, Campaign, CampaignError, CampaignReport, ModelSpec, NullObserver, OracleSpec,
    ScenarioSpec, ServedConfig, StepOutcome,
};
use fia_core::{baseline, metrics as attack_metrics, GrnaConfig};
use fia_data::PaperDataset;
use fia_defense::{DefensePipeline, RoundingDefense};
use fia_linalg::Matrix;
use fia_models::MlpConfig;
use fia_telemetry::{InstrumentSnapshot, InstrumentValue};
use std::time::Instant;

/// Which served workload.
#[derive(Clone, Copy)]
enum Kind {
    EsaPerRow,
    GrnaNn,
}

/// A served-oracle workload over its run's scenarios.
pub struct Served {
    kind: Kind,
    seed: u64,
}

/// One scenario of a run: the spec, the attack and the chunk size.
struct Scenario {
    spec: ScenarioSpec,
    attack: AttackSpec,
    chunk: usize,
}

/// One full pass, `ScenarioSpec` to `CampaignReport`.
struct Pass {
    /// Kept alive so the server's metrics and trace can be read after
    /// the report.
    campaign: Campaign,
    report: CampaignReport,
    chunks: ChunkLog,
    setup_s: f64,
    campaign_s: f64,
    /// Sum of `Campaign::step` wall times (traced passes only).
    steps_s: f64,
    finalize_s: f64,
}

/// What a pass's estimates must equal or beat.
enum Gate {
    /// Bit-identical to an in-process campaign of the same spec.
    Exact(Matrix),
    /// Lower MSE than uniform random guessing.
    BeatsRandom(f64),
}

impl Served {
    pub fn esa_per_row(seed: u64) -> Self {
        Served {
            kind: Kind::EsaPerRow,
            seed,
        }
    }

    pub fn grna_nn(seed: u64) -> Self {
        Served {
            kind: Kind::GrnaNn,
            seed,
        }
    }

    fn scenario(&self, k: usize) -> Scenario {
        let seed = scenario_seed(self.seed, k);
        match self.kind {
            // Credit-card stand-in at full scale (15 000 prediction rows,
            // `d_target` = 7 > c − 1, so ESA is not exact), LR, fine
            // rounding at release, one replica without cache, 1-row
            // chunks, ESA.
            Kind::EsaPerRow => Scenario {
                spec: ScenarioSpec::paper(PaperDataset::CreditCard)
                    .with_scale(1.0)
                    .with_defense(DefensePipeline::new().then(RoundingDefense::fine()))
                    .with_oracle(OracleSpec::Served(ServedConfig::default()))
                    .with_seed(seed),
                attack: AttackSpec::esa(),
                chunk: 1,
            },
            // Drive-diagnosis stand-in at 5% scale (1 462 prediction
            // rows), a fast MLP, one replica without cache, 512-row
            // chunks, fast GRNA.
            Kind::GrnaNn => Scenario {
                spec: ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
                    .with_scale(0.05)
                    .with_model(ModelSpec::Mlp(MlpConfig::fast()))
                    .with_oracle(OracleSpec::Served(ServedConfig::default()))
                    .with_seed(seed),
                attack: AttackSpec::grna(GrnaConfig::fast().with_seed(seed)),
                chunk: 512,
            },
        }
    }

    /// Runs passes until `seconds` elapse. Untraced runs sample the
    /// end-to-end metrics; traced runs alternate untraced and traced
    /// passes (for `telemetry.overhead_frac`) and sample the layers on
    /// the traced ones.
    pub fn run(&self, seconds: f64, trace: bool, tally: &mut Tally) -> (Samples, usize) {
        let scenarios: Vec<Scenario> = (0..SCENARIOS).map(|k| self.scenario(k)).collect();
        let mut gates: Vec<Option<Gate>> = (0..SCENARIOS).map(|_| None).collect();
        let mut first: Vec<Option<Matrix>> = vec![None; SCENARIOS];
        let mut mse: Vec<Option<f64>> = vec![None; SCENARIOS];
        let mut samples = Samples::default();
        let deadline = Deadline::new(seconds, min_passes(trace));
        let mut passes = 0;
        while deadline.more(passes) {
            let traced = trace && passes % 2 == 1;
            let k = scenario_of(passes, trace);
            passes += 1;
            let sc = &scenarios[k];
            if gates[k].is_none() {
                gates[k] = gate(sc, scenario_seed(self.seed, k), tally);
            }
            crate::reset_peak_rss();
            let mut p = match pass(sc, traced) {
                Ok(p) => p,
                Err(e) => {
                    tally.fail(&format!("campaign pass: {e}"));
                    continue;
                }
            };
            tally.ok(p.chunks.chunks.len() as u64);
            let attack = &p.report.attacks[0];
            match &gates[k] {
                Some(Gate::Exact(reference)) => tally.check(
                    same_bits(&attack.estimates, reference),
                    "served estimates equal the in-process campaign's bit for bit",
                ),
                Some(Gate::BeatsRandom(random_mse)) => tally.check(
                    attack.mse < *random_mse,
                    "attack MSE beats the random-guess baseline",
                ),
                None => {}
            }
            match &first[k] {
                None => first[k] = Some(attack.estimates.clone()),
                Some(f) => tally.check(
                    same_bits(&attack.estimates, f),
                    "estimates repeat across passes",
                ),
            }
            mse[k] = Some(attack.mse);
            if traced {
                samples.push("traced.campaign_s", p.campaign_s);
                layers(sc, &mut p, &mut samples, tally);
            } else {
                end_to_end(&p, &mut samples);
                samples.push("peak_rss_mb", crate::peak_rss_mb());
            }
        }
        if !trace {
            push_mean_mse(&mut samples, &mse, tally);
        }
        push_overhead(&mut samples);
        (samples, passes)
    }
}

/// The correctness reference for one scenario, computed outside the
/// timed passes.
fn gate(sc: &Scenario, seed: u64, tally: &mut Tally) -> Option<Gate> {
    match &sc.attack {
        AttackSpec::Esa => {
            let scenario = sc.spec.clone().with_oracle(OracleSpec::InProcess).build();
            let mut c = Campaign::new(scenario)
                .with_attack(sc.attack.clone())
                .with_chunk(sc.chunk);
            match c.run(&mut NullObserver) {
                Ok(r) => Some(Gate::Exact(r.attacks[0].estimates.clone())),
                Err(e) => {
                    tally.fail(&format!("in-process reference campaign: {e}"));
                    None
                }
            }
        }
        _ => {
            let data = sc.spec.materialize();
            let guess = baseline::random_guess_uniform(data.truth.rows(), data.d_target(), seed);
            Some(Gate::BeatsRandom(attack_metrics::mse_per_feature(
                &guess,
                &data.truth,
            )))
        }
    }
}

fn pass(sc: &Scenario, traced: bool) -> Result<Pass, CampaignError> {
    let t0 = Instant::now();
    let scenario = sc.spec.clone().build();
    let mut campaign = Campaign::new(scenario)
        .with_attack(sc.attack.clone())
        .with_chunk(sc.chunk);
    let mut chunks = ChunkLog::default();
    campaign.begin(&mut chunks)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let mut steps_s = 0.0;
    loop {
        let t = traced.then(Instant::now);
        let outcome = campaign.step(&mut chunks)?;
        if let Some(t) = t {
            steps_s += t.elapsed().as_secs_f64();
        }
        if outcome != StepOutcome::Chunk {
            break;
        }
    }
    let t_last = Instant::now();
    let report = campaign.finalize(&mut chunks)?;
    let end = Instant::now();
    Ok(Pass {
        campaign,
        report,
        chunks,
        setup_s,
        campaign_s: (end - t1).as_secs_f64(),
        steps_s,
        finalize_s: (end - t_last).as_secs_f64(),
    })
}

fn end_to_end(p: &Pass, s: &mut Samples) {
    s.push("setup_s", p.setup_s);
    s.push("campaign_s", p.campaign_s);
    s.push("chunk_p50_ms", p.chunks.percentile_ms(0.5, |_| true));
    s.push("attack_s", p.finalize_s);
}

fn layers(sc: &Scenario, p: &mut Pass, s: &mut Samples, tally: &mut Tally) {
    // Read what the served deployment exports before anything else
    // touches it: its metrics, then one more trace export.
    let metrics_text = p.campaign.server_metrics_text().unwrap_or_default();
    let t = Instant::now();
    let exported = p.campaign.server_trace_jsonl();
    let trace_export_s = t.elapsed().as_secs_f64();
    tally.check(exported.is_some(), "server trace exports");
    p.campaign.shutdown();

    let (materialize_s, train_s, scenario) = replay::setup_layers(&sc.spec);
    s.push("data.materialize_s", materialize_s);
    s.push("models.train_s", train_s);

    let serve = replay::serve_path(&scenario, &p.chunks.chunks);
    let roundtrip_s = p.chunks.roundtrip_s();
    s.push("vfl.predict_s", serve.vfl_s);
    s.push("defense.release_s", serve.defense_s);
    s.push("serve.codec_s", serve.codec_s);
    s.push("serve.roundtrip_s", roundtrip_s);
    s.push(
        "serve.unclaimed_s",
        roundtrip_s - serve.vfl_s - serve.defense_s - serve.codec_s,
    );
    let (rounds, rows) = replica_rounds(&metrics_text);
    s.push("serve.rounds", rounds);
    s.push(
        "serve.batch_fill",
        if rounds > 0.0 { rows / rounds } else { 0.0 },
    );
    let cost = p.report.cost;
    s.push(
        "serve.cache_hit_frac",
        cost.cached_rows as f64 / cost.rows as f64,
    );
    s.push("serve.chunk_p99_ms", p.chunks.percentile_ms(0.99, |_| true));
    s.push(
        "serve.hit_chunk_p50_ms",
        p.chunks.percentile_ms(0.5, |c| c.is_hit()),
    );
    s.push(
        "serve.miss_chunk_p50_ms",
        p.chunks.percentile_ms(0.5, |c| !c.is_hit()),
    );

    // The attack's own time inside `finalize` is the campaign's
    // `campaign.attack` span; GRNA's training share of it is the
    // `fia_attack_phase_duration_us{attack="grna",phase="train"}`
    // histogram the run added to the report's telemetry.
    let attack_s = p
        .campaign
        .tracer()
        .records()
        .iter()
        .filter(|r| r.name == "campaign.attack")
        .map(|r| r.dur_us as f64 / 1e6)
        .sum::<f64>();
    match &sc.attack {
        AttackSpec::Esa => s.push("core.esa_solve_s", attack_s),
        _ => {
            let train_s = match p.report.telemetry.get(
                "fia_attack_phase_duration_us",
                &[("attack", "grna"), ("phase", "train")],
            ) {
                Some(InstrumentSnapshot {
                    value: InstrumentValue::Histogram(h),
                    ..
                }) => h.sum as f64 / 1e6,
                _ => {
                    tally.fail("report telemetry carries GRNA's train phase");
                    0.0
                }
            };
            // The GEMM work of training alone: replay `Grna::train`
            // around the global gemm counters (the run's own delta also
            // holds the deployment's and inference's GEMMs).
            let corpus = p.campaign.checkpoint().confidences;
            let g = replay::grna(&scenario, &sc.attack, &corpus);
            tally.check(
                same_bits(&g.result.estimates, &p.report.attacks[0].estimates),
                "GRNA replay reproduces the campaign's estimates",
            );
            let data = scenario.data();
            let gflop = g.gemm_flops as f64 / 1e9;
            s.push("core.grna_train_s", train_s);
            s.push("core.grna_infer_s", attack_s - train_s);
            s.push("linalg.gemm_calls", g.gemm_calls as f64);
            s.push("linalg.gemm_gflop", gflop);
            s.push("tensor.train_gflops", gflop / train_s);
            s.push(
                "linalg.kernel_gflops",
                replay::kernel_gflops(&sc.attack, data.adv_indices.len(), data.d_target()),
            );
        }
    }
    let core_s = attack_s;

    let server_trace = p.report.server_trace_jsonl.as_deref().unwrap_or("");
    let client_trace = p.report.client_trace_jsonl.as_str();
    s.push(
        "campaign.spans",
        (server_trace.lines().count() + client_trace.lines().count()) as f64,
    );
    s.push(
        "telemetry.trace_bytes",
        (server_trace.len() + client_trace.len()) as f64,
    );
    s.push("telemetry.trace_export_s", trace_export_s);
    s.push("campaign.step_self_s", p.steps_s - roundtrip_s);
    s.push(
        "campaign.finalize_self_s",
        p.finalize_s - core_s - trace_export_s,
    );
    s.push("unclaimed_s", p.campaign_s - p.steps_s - p.finalize_s);
}

/// Coalesced prediction rounds and the rows they answered, summed over
/// replicas, from a `MetricsText` scrape.
fn replica_rounds(text: &str) -> (f64, f64) {
    let sum = |name: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(name))
            .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    };
    (
        sum("fia_serve_replica_rounds_total{"),
        sum("fia_serve_replica_rows_total{"),
    )
}
