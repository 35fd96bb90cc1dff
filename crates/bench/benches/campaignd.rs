//! Durability pricing for the campaign service (`BENCH_campaignd.json`).
//!
//! The daemon appends one fsync'd delta checkpoint frame — the rows
//! released since the previous frame — to the per-job write-ahead log
//! after every corpus chunk, *before* it publishes the chunk's events,
//! so a `SIGKILL` at any instant resumes bit-exactly. This bench prices
//! that discipline: the same served-oracle campaign is driven
//! chunk-by-chunk twice, once bare and once checkpointing exactly as a
//! daemon worker does (`Campaign::delta_blob` + framed append +
//! `fdatasync` per chunk), and records the bytes each frame costs. The
//! headline metric is
//! `checkpoint_overhead_frac` = (checkpointed − bare) / bare over the
//! steady-state chunk loop, with a ≤ 5% acceptance bar: against real
//! attack compute plus deployment round trips, the log must be almost
//! free.
//!
//! Like the serve benches, the deployment simulates the secure-
//! computation cost a real VFL serving stack pays per joint prediction
//! round (`ROUND_COST`); the in-the-clear model evaluation would
//! otherwise make the oracle unrealistically free and price the fsync
//! against nothing. Arms alternate order every measurement round so
//! machine drift lands on both sides. Wall-clock ratios are noisy on
//! shared CI runners, so the bar is report-only under
//! `FIA_BENCH_NO_ASSERT=1` and enforced locally.

use fia_bench::harness::Harness;
use fia_campaign::{Campaign, NullObserver, OracleSpec, ServedConfig, StepOutcome};
use fia_campaignd::wal::JobLog;
use fia_campaignd::{JobAttack, JobDefense, JobModel, JobOracle, JobSpec};
use fia_data::PaperDataset;
use std::path::Path;
use std::time::{Duration, Instant};

/// The simulated secure-protocol cost of one joint-prediction round.
/// A daemon chunk (2048 rows) is served as a single stored-index fetch
/// round, so this charges ~12 µs of secure compute per row — charitable
/// next to published per-row HE/MPC inference costs (milliseconds), and
/// in the same band as the serve benches' 300 µs per ≤ 64-row coalesced
/// round (~4.7 µs/row).
const ROUND_COST: Duration = Duration::from_millis(25);

/// The scenario both arms run: a served deployment (real TCP between
/// the campaign and its oracle) so the per-chunk fsync competes with
/// deployment round trips, exactly as it does inside the daemon.
fn spec() -> JobSpec {
    JobSpec {
        dataset: PaperDataset::CreditCard,
        scale: 0.5,
        target_fraction: 0.3,
        seed: 29,
        model: JobModel::Logistic,
        defense: JobDefense::RoundingFine,
        attacks: vec![JobAttack::Esa],
        max_queries: None,
        max_rows: None,
        chunk: 2048,
        oracle: JobOracle::Shared {
            replicas: 1,
            cache_capacity: 0,
        },
        throttle_ms: 0,
    }
}

/// Measurements from one full campaign run.
struct RunStats {
    /// Steady-state chunk-loop wall-clock, seconds (excludes scenario
    /// build, server spawn and finalize — the daemon pays those once
    /// per job, not per checkpoint).
    loop_s: f64,
    chunks: u64,
    bytes: u64,
}

fn build_scenario(spec: &JobSpec) -> fia_campaign::ResolvedScenario {
    spec.to_scenario()
        .with_oracle(OracleSpec::Served(ServedConfig {
            round_cost: ROUND_COST,
            ..ServedConfig::default()
        }))
        .build()
}

/// Drives one full campaign chunk-by-chunk. When `log` is given, every
/// chunk appends its delta frame — the daemon worker's exact write
/// path.
fn run_campaign(
    spec: &JobSpec,
    scenario: &fia_campaign::ResolvedScenario,
    log: Option<&mut JobLog>,
) -> RunStats {
    let mut campaign = Campaign::new(scenario.clone())
        .with_attacks(spec.attack_specs())
        .with_budget(spec.budget())
        .with_chunk(spec.chunk as usize);
    let mut log = log;
    let mut chunks = 0u64;
    let mut bytes = 0u64;
    let mut logged = 0;
    campaign.begin(&mut NullObserver).unwrap();
    let t0 = Instant::now();
    loop {
        let outcome = campaign.step(&mut NullObserver).unwrap();
        if let Some(log) = log.as_deref_mut() {
            let frame = campaign.delta_blob(logged);
            logged = campaign.rows_done();
            bytes += frame.len() as u64;
            log.append(&frame).unwrap();
        }
        chunks += 1;
        if outcome != StepOutcome::Chunk {
            break;
        }
    }
    let loop_s = t0.elapsed().as_secs_f64();
    campaign.finalize(&mut NullObserver).unwrap();
    campaign.shutdown();
    RunStats {
        loop_s,
        chunks,
        bytes,
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

fn main() {
    let mut p = Harness::new("campaignd", 1, 0);
    let spec = spec();
    let dir = std::env::temp_dir().join(format!("fia-bench-campaignd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Untimed warmup pair: page in the dataset, model training and the
    // serve stack before either arm is on the clock.
    let scenario = build_scenario(&spec);
    run_campaign(&spec, &scenario, None);
    run_campaign(&spec, &scenario, Some(&mut open_log(&dir, 0)));

    const ROUNDS: usize = 7;
    let mut bare_s = Vec::with_capacity(ROUNDS);
    let mut logged_s = Vec::with_capacity(ROUNDS);
    let mut chunks = 0u64;
    let mut bytes = 0u64;
    for round in 0..ROUNDS {
        // Alternate which arm goes first so slow drift cancels.
        let logged_first = round % 2 == 1;
        for arm in 0..2 {
            if (arm == 0) == logged_first {
                let mut log = open_log(&dir, round as u64 + 1);
                let stats = run_campaign(&spec, &scenario, Some(&mut log));
                logged_s.push(stats.loop_s);
                chunks = stats.chunks;
                bytes = stats.bytes;
            } else {
                bare_s.push(run_campaign(&spec, &scenario, None).loop_s);
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let bare = median(bare_s);
    let logged = median(logged_s);
    let checkpoint_overhead_frac = (logged - bare) / bare.max(1e-9);
    p.metric("chunk_loop_bare_ms", bare * 1e3);
    p.metric("chunk_loop_checkpointed_ms", logged * 1e3);
    p.metric("checkpoints_per_run", chunks as f64);
    p.metric("checkpoint_bytes_per_run", bytes as f64);
    p.metric(
        "checkpoint_bytes_per_frame",
        bytes as f64 / chunks.max(1) as f64,
    );
    p.metric(
        "checkpoint_append_us",
        (logged - bare).max(0.0) * 1e6 / chunks.max(1) as f64,
    );
    p.metric("checkpoint_overhead_frac", checkpoint_overhead_frac);
    p.write_json("BENCH_campaignd.json");

    // The JSON is written first either way, so a failed bar never
    // discards the measurements.
    if std::env::var_os("FIA_BENCH_NO_ASSERT").is_none() {
        assert!(
            checkpoint_overhead_frac <= 0.05,
            "per-chunk checkpointing costs {:.2}% of campaign wall-clock, above the 5% bar",
            checkpoint_overhead_frac * 100.0
        );
    }
}

fn open_log(dir: &Path, round: u64) -> JobLog {
    JobLog::open(&dir.join(format!("job-{round}.log"))).unwrap()
}
