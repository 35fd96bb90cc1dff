//! Layer replays: the exact work of one run, re-executed through each
//! layer's public entry point under a stopwatch.

use crate::ChunkObs;
use fia_campaign::{
    AttackSpec, Campaign, InProcessOracle, NullObserver, ResolvedScenario, StepOutcome,
    TrainedModel,
};
use fia_campaignd::wal::JobLog;
use fia_campaignd::JobSpec;
use fia_core::{AttackEngine, AttackResult, EqualitySolvingAttack, Grna, QueryBatch, TraceContext};
use fia_defense::ScoreDefense;
use fia_linalg::Matrix;
use fia_serve::wire::{self, Request, Response};
use fia_telemetry::{global, InstrumentValue, TelemetrySnapshot};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Serving-path layer times over one chunk sequence, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServePath {
    /// `VflSystem::predict_batch` — the joint prediction round.
    pub vfl_s: f64,
    /// `DefensePipeline::defend_batch` — the release boundary.
    pub defense_s: f64,
    /// Request and response frames through the `wire` codec, both ends.
    pub codec_s: f64,
}

/// Replays the serving work behind `chunks` (consecutive stored rows
/// from 0, as the campaign issued them). Chunks the cache answered in
/// full ran no joint round and no defense, so only their frames replay.
pub fn serve_path(scenario: &ResolvedScenario, chunks: &[ChunkObs]) -> ServePath {
    let system = scenario.system();
    let defense = scenario.defense();
    let ctx = TraceContext {
        trace_id: 1,
        parent_span: 1,
    };
    let mut out = ServePath::default();
    let mut row = 0usize;
    for c in chunks {
        let indices: Vec<usize> = (row..row + c.rows as usize).collect();
        row += c.rows as usize;
        let t = Instant::now();
        let scores = system.predict_batch(&indices);
        let t_vfl = t.elapsed();
        let released = defense.defend_batch(&scores);
        let t_def = t.elapsed();
        if !c.is_hit() {
            out.vfl_s += t_vfl.as_secs_f64();
            out.defense_s += (t_def - t_vfl).as_secs_f64();
        }
        let wire_indices = indices.iter().map(|&i| i as u32).collect();
        let t = Instant::now();
        let req = wire::encode_request(&Request::PredictByIndexTraced(wire_indices, ctx))
            .expect("request encodes");
        black_box(wire::decode_request(&req).expect("request decodes"));
        let resp = wire::encode_response(&Response::Scores {
            scores: released,
            cached_rows: c.cached_rows as u32,
        })
        .expect("response encodes");
        black_box(wire::decode_response(&resp).expect("response decodes"));
        out.codec_s += t.elapsed().as_secs_f64();
    }
    out
}

/// `AttackEngine::run` of ESA over a full corpus; returns the solve
/// time and the result.
pub fn esa_solve(scenario: &ResolvedScenario, confidences: &Matrix) -> (f64, AttackResult) {
    let data = scenario.data();
    let lr = scenario
        .model()
        .as_logistic()
        .expect("ESA workloads deploy LR");
    let attack = EqualitySolvingAttack::new(lr, &data.adv_indices, &data.target_indices);
    let batch = QueryBatch::new(data.x_adv.clone(), confidences.clone());
    let t = Instant::now();
    let result = AttackEngine::new().run(&attack, &batch);
    (t.elapsed().as_secs_f64(), result)
}

/// GRNA over a full corpus, with the GEMM work its training issued.
pub struct GrnaReplay {
    pub gemm_calls: u64,
    pub gemm_flops: u64,
    pub result: AttackResult,
}

fn counter_sum(snap: &TelemetrySnapshot, name: &str) -> u64 {
    snap.entries
        .iter()
        .filter(|e| e.name == name)
        .map(|e| match e.value {
            InstrumentValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// `Grna::train` then `AttackEngine::run` of the trained generator,
/// exactly as the campaign's `AttackSpec::Grna` runs them.
pub fn grna(scenario: &ResolvedScenario, spec: &AttackSpec, confidences: &Matrix) -> GrnaReplay {
    let AttackSpec::Grna {
        config, infer_seed, ..
    } = spec
    else {
        panic!("grna replay needs a GRNA attack spec");
    };
    let TrainedModel::Mlp(mlp) = scenario.model() else {
        panic!("grna-nn deploys an MLP");
    };
    let data = scenario.data();
    let before = global().snapshot();
    let grna = Grna::new(mlp, &data.adv_indices, &data.target_indices, config.clone());
    let generator = grna
        .train(&data.x_adv, confidences)
        .with_infer_seed(*infer_seed);
    let gemm = global().snapshot().delta_since(&before);
    let batch = QueryBatch::new(data.x_adv.clone(), confidences.clone());
    let result = AttackEngine::new().run(&generator, &batch);
    GrnaReplay {
        gemm_calls: counter_sum(&gemm, "fia_kernel_gemm_calls_total"),
        gemm_flops: counter_sum(&gemm, "fia_kernel_gemm_flops_total"),
        result,
    }
}

/// `Matrix::matmul` throughput at the generator's forward layer shapes
/// (mini-batch × layer width), GFLOP/s: the kernel-only ceiling that
/// GRNA training's GEMM rate is compared against.
pub fn kernel_gflops(spec: &AttackSpec, d_adv: usize, d_target: usize) -> f64 {
    let AttackSpec::Grna { config, .. } = spec else {
        panic!("kernel replay needs a GRNA attack spec");
    };
    let mut widths = vec![d_adv + d_target];
    widths.extend(&config.hidden);
    widths.push(d_target);
    let b = config.batch_size;
    let shapes: Vec<(Matrix, Matrix)> = widths
        .windows(2)
        .map(|w| {
            let a = Matrix::from_fn(b, w[0], |i, j| ((i * 7 + j * 3) % 11) as f64 / 11.0);
            let m = Matrix::from_fn(w[0], w[1], |i, j| ((i * 5 + j) % 13) as f64 / 13.0 - 0.5);
            (a, m)
        })
        .collect();
    let flops_per_round: f64 = widths
        .windows(2)
        .map(|w| 2.0 * (b * w[0] * w[1]) as f64)
        .sum();
    let mut rounds = 0u64;
    let t = Instant::now();
    while t.elapsed().as_secs_f64() < 0.2 {
        for (a, m) in &shapes {
            black_box(a.matmul(m).expect("shapes agree"));
        }
        rounds += 1;
    }
    flops_per_round * rounds as f64 / t.elapsed().as_secs_f64() / 1e9
}

/// One job's checkpoint sequence through the daemon's durable path.
pub struct CheckpointLog {
    /// `Campaign::checkpoint().to_blob()` over every chunk.
    pub encode_s: f64,
    /// `JobLog::append` (framed write + fdatasync) over every chunk.
    pub append_s: f64,
    /// The final corpus (what the job's attacks solve over).
    pub confidences: Matrix,
}

/// Steps `spec`'s campaign in-process and writes each chunk's checkpoint
/// to a fresh write-ahead log at `path`, as a daemon worker does.
pub fn checkpoint_log(scenario: &ResolvedScenario, spec: &JobSpec, path: &Path) -> CheckpointLog {
    let mut campaign = Campaign::new(scenario.clone())
        .with_attacks(spec.attack_specs())
        .with_budget(spec.budget())
        .with_chunk(spec.chunk as usize);
    campaign.attach_oracle(Box::new(InProcessOracle::new(
        scenario.system().as_ref().clone(),
        Arc::clone(scenario.defense()),
    )));
    let _ = std::fs::remove_file(path);
    let mut log = JobLog::open(path).expect("scratch log opens");
    campaign
        .begin(&mut NullObserver)
        .expect("replay campaign begins");
    let (mut encode_s, mut append_s) = (0.0, 0.0);
    loop {
        let outcome = campaign.step(&mut NullObserver).expect("in-process step");
        let t = Instant::now();
        let blob = campaign.checkpoint().to_blob();
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        log.append(&blob).expect("scratch log append");
        append_s += t.elapsed().as_secs_f64();
        if outcome != StepOutcome::Chunk {
            break;
        }
    }
    CheckpointLog {
        encode_s,
        append_s,
        confidences: campaign.checkpoint().confidences,
    }
}

/// `data.materialize_s` and `models.train_s` for a scenario spec:
/// `ScenarioSpec::materialize`, and `ScenarioSpec::build` minus it
/// (train plus deploy). Returns the built scenario too.
pub fn setup_layers(spec: &fia_campaign::ScenarioSpec) -> (f64, f64, ResolvedScenario) {
    let t = Instant::now();
    black_box(spec.materialize());
    let materialize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let scenario = spec.clone().build();
    let build_s = t.elapsed().as_secs_f64();
    (materialize_s, build_s - materialize_s, scenario)
}

/// `true` when two matrices hold the same bits.
pub fn same_bits(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
