//! `daemon-rerun`: an in-process `fia-campaignd` with one worker runs
//! two identical jobs back to back over one shared, cached deployment.
//! Job A misses the cache and fills it; job B is answered from it. Both
//! fsync a growing checkpoint per chunk to their write-ahead logs.

use crate::metrics::Samples;
use crate::replay;
use crate::{
    min_passes, push_mean_mse, push_overhead, scenario_of, scenario_seed, scratch_dir, ChunkLog,
    Deadline, Tally, SCENARIOS,
};
use fia_campaign::{CampaignEvent, CampaignObserver};
use fia_campaignd::{
    CampaignClient, DaemonConfig, JobAttack, JobDefense, JobModel, JobOracle, JobOutcome, JobSpec,
};
use fia_data::PaperDataset;
use std::path::Path;
use std::time::Instant;

/// The job both submissions carry: credit-card stand-in at full scale,
/// LR, ESA, fine rounding, a shared deployment whose cache holds every
/// row, 16-row chunks.
fn job(seed: u64) -> JobSpec {
    JobSpec {
        dataset: PaperDataset::CreditCard,
        scale: 1.0,
        target_fraction: 0.3,
        seed,
        model: JobModel::Logistic,
        defense: JobDefense::RoundingFine,
        attacks: vec![JobAttack::Esa],
        max_queries: None,
        max_rows: None,
        chunk: 16,
        oracle: JobOracle::Shared {
            replicas: 1,
            cache_capacity: 16_384,
        },
        throttle_ms: 0,
    }
}

/// One job's event stream as the attached client received it.
#[derive(Default)]
struct JobTrace {
    chunks: ChunkLog,
    started: Option<Instant>,
    last_chunk: Option<Instant>,
    parse_errors: u64,
}

impl JobTrace {
    fn on_line(&mut self, line: &str) {
        let now = Instant::now();
        match CampaignEvent::from_json(line) {
            Ok(event) => {
                match event {
                    CampaignEvent::Started { .. } => self.started = Some(now),
                    CampaignEvent::ChunkDone { .. } => self.last_chunk = Some(now),
                    _ => {}
                }
                self.chunks.on_event(&event);
            }
            Err(_) => self.parse_errors += 1,
        }
    }
}

/// One daemon pass: start, submit A and B, stream both, fetch both
/// outcomes, shut down.
struct Pass {
    a: JobTrace,
    b: JobTrace,
    outcome_a: JobOutcome,
    outcome_b: JobOutcome,
    setup_s: f64,
    campaign_s: f64,
    /// Both jobs' attack phases: from the last chunk received to the
    /// end of job A's stream, plus to job B's outcome received.
    attack_s: f64,
    submit_ms: f64,
    wal_bytes: u64,
}

fn pass(spec: &JobSpec, state_dir: &Path) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(state_dir);
    let t0 = Instant::now();
    let daemon = fia_campaignd::start(DaemonConfig {
        bind: "127.0.0.1:0".to_string(),
        state_dir: state_dir.to_path_buf(),
        workers: 1,
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let result = drive(spec, daemon.addr(), t0);
    daemon.shutdown();
    let mut pass = result?;
    pass.wal_bytes = std::fs::read_dir(state_dir.join("jobs"))
        .map_err(|e| format!("job directories: {e}"))?
        .flatten()
        .filter_map(|job| std::fs::metadata(job.path().join("job.log")).ok())
        .map(|m| m.len())
        .sum();
    let _ = std::fs::remove_dir_all(state_dir);
    Ok(pass)
}

fn drive(spec: &JobSpec, addr: std::net::SocketAddr, t0: Instant) -> Result<Pass, String> {
    let err = |e: fia_campaignd::DaemonClientError| e.to_string();
    let mut client = CampaignClient::connect(addr).map_err(err)?;
    let t = Instant::now();
    let id_a = client.submit(spec).map_err(err)?;
    let id_b = client.submit(spec).map_err(err)?;
    let submit_ms = t.elapsed().as_secs_f64() * 1e3 / 2.0;
    let mut a = JobTrace::default();
    client
        .attach(id_a, 0, |_, line| a.on_line(line))
        .map_err(err)?;
    let a_end = Instant::now();
    let mut b = JobTrace::default();
    client
        .attach(id_b, 0, |_, line| b.on_line(line))
        .map_err(err)?;
    let outcome_b = client.report(id_b).map_err(err)?;
    let end = Instant::now();
    let outcome_a = client.report(id_a).map_err(err)?;
    let (Some(started), Some(a_last), Some(b_last)) = (a.started, a.last_chunk, b.last_chunk)
    else {
        return Err("a job streamed no Started or ChunkDone event".to_string());
    };
    Ok(Pass {
        setup_s: (started - t0).as_secs_f64(),
        campaign_s: (end - started).as_secs_f64(),
        attack_s: ((a_end - a_last) + (end - b_last)).as_secs_f64(),
        submit_ms,
        wal_bytes: 0,
        a,
        b,
        outcome_a,
        outcome_b,
    })
}

/// Runs daemon passes until `seconds` elapse (see `Served::run` for the
/// traced/untraced alternation).
pub fn run(seed: u64, seconds: f64, trace: bool, tally: &mut Tally) -> (Samples, usize) {
    let specs: Vec<JobSpec> = (0..SCENARIOS)
        .map(|k| job(scenario_seed(seed, k)))
        .collect();
    let scratch = scratch_dir();
    let mut samples = Samples::default();
    let mut first: Vec<Option<Vec<u8>>> = vec![None; SCENARIOS];
    let mut mse: Vec<Option<f64>> = vec![None; SCENARIOS];
    let deadline = Deadline::new(seconds, min_passes(trace));
    let mut passes = 0;
    while deadline.more(passes) {
        let traced = trace && passes % 2 == 1;
        let k = scenario_of(passes, trace);
        passes += 1;
        crate::reset_peak_rss();
        let p = match pass(&specs[k], &scratch.join("daemon")) {
            Ok(p) => p,
            Err(e) => {
                tally.fail(&format!("daemon pass: {e}"));
                continue;
            }
        };
        check(&p, &mut first[k], tally);
        mse[k] = Some(p.outcome_a.attacks[0].mse);
        if traced {
            samples.push("traced.campaign_s", p.campaign_s);
            layers(&specs[k], &p, &scratch, &mut samples, tally);
        } else {
            samples.push("setup_s", p.setup_s);
            samples.push("campaign_s", p.campaign_s);
            samples.push("chunk_p50_ms", chunk_p50_ms(&p));
            samples.push("attack_s", p.attack_s);
            samples.push("peak_rss_mb", crate::peak_rss_mb());
        }
    }
    if !trace {
        push_mean_mse(&mut samples, &mse, tally);
    }
    push_overhead(&mut samples);
    (samples, passes)
}

/// Mean of the two jobs' median chunk round trips. Job A's chunks miss
/// the cache and job B's hit it, so the median of the pooled chunks
/// would sit on the edge between the two modes.
fn chunk_p50_ms(p: &Pass) -> f64 {
    (p.a.chunks.percentile_ms(0.5, |_| true) + p.b.chunks.percentile_ms(0.5, |_| true)) / 2.0
}

/// 99th percentile over both jobs' chunks, ms.
fn chunk_p99_ms(p: &Pass) -> f64 {
    let all = ChunkLog {
        chunks: [p.a.chunks.chunks.as_slice(), &p.b.chunks.chunks].concat(),
        ..ChunkLog::default()
    };
    all.percentile_ms(0.99, |_| true)
}

fn check(p: &Pass, first: &mut Option<Vec<u8>>, tally: &mut Tally) {
    tally.ok(2 + (p.a.chunks.chunks.len() + p.b.chunks.chunks.len()) as u64);
    tally.check(
        p.a.parse_errors + p.b.parse_errors == 0,
        "every streamed event parses",
    );
    let (a, b) = (&p.outcome_a, &p.outcome_b);
    tally.check(a.complete && b.complete, "both jobs complete");
    tally.check(
        b.cost.rows == b.rows_planned && b.cost.cached_rows == b.cost.rows,
        "job B is answered entirely from the cache",
    );
    // The outcomes may differ only in the cost meter's cached-row count.
    let blob = a.to_blob();
    let mut b_as_a = b.clone();
    b_as_a.cost.cached_rows = a.cost.cached_rows;
    tally.check(
        blob == b_as_a.to_blob(),
        "job outcome blobs are byte-identical apart from cached rows",
    );
    match first {
        None => *first = Some(blob),
        Some(f) => tally.check(*f == blob, "outcomes repeat across passes"),
    }
}

fn layers(spec: &JobSpec, p: &Pass, scratch: &Path, s: &mut Samples, tally: &mut Tally) {
    let (materialize_s, train_s, scenario) = replay::setup_layers(&spec.to_scenario());
    s.push("data.materialize_s", materialize_s);
    s.push("models.train_s", train_s);

    let mut serve = replay::serve_path(&scenario, &p.a.chunks.chunks);
    let serve_b = replay::serve_path(&scenario, &p.b.chunks.chunks);
    serve.vfl_s += serve_b.vfl_s;
    serve.defense_s += serve_b.defense_s;
    serve.codec_s += serve_b.codec_s;
    let roundtrip_s = p.a.chunks.roundtrip_s() + p.b.chunks.roundtrip_s();
    s.push("vfl.predict_s", serve.vfl_s);
    s.push("defense.release_s", serve.defense_s);
    s.push("serve.codec_s", serve.codec_s);
    s.push("serve.roundtrip_s", roundtrip_s);
    s.push(
        "serve.unclaimed_s",
        roundtrip_s - serve.vfl_s - serve.defense_s - serve.codec_s,
    );
    // No `serve.rounds`/`serve.batch_fill`: the daemon's MetricsText is
    // the process-global registry, and the shared deployment keeps its
    // per-replica round counters in its own.
    let (a, b) = (&p.outcome_a.cost, &p.outcome_b.cost);
    s.push(
        "serve.cache_hit_frac",
        (a.cached_rows + b.cached_rows) as f64 / (a.rows + b.rows) as f64,
    );
    s.push("serve.chunk_p99_ms", chunk_p99_ms(p));
    s.push(
        "serve.hit_chunk_p50_ms",
        p.b.chunks.percentile_ms(0.5, |c| c.is_hit()),
    );
    s.push(
        "serve.miss_chunk_p50_ms",
        p.a.chunks.percentile_ms(0.5, |c| !c.is_hit()),
    );

    // Both jobs write the same checkpoint sequence and solve the same
    // corpus, so each replay runs once per job.
    let (mut encode_s, mut append_s, mut esa_s) = (0.0, 0.0, 0.0);
    for job in ["a", "b"] {
        let log =
            replay::checkpoint_log(&scenario, spec, &scratch.join(format!("replay-{job}.log")));
        encode_s += log.encode_s;
        append_s += log.append_s;
        let (solve_s, result) = replay::esa_solve(&scenario, &log.confidences);
        esa_s += solve_s;
        let mse = fia_core::metrics::mse_per_feature(&result.estimates, &scenario.data().truth);
        tally.check(
            mse.to_bits() == p.outcome_a.attacks[0].mse.to_bits(),
            "ESA replay reproduces the job's MSE",
        );
    }
    let _ = std::fs::remove_file(scratch.join("replay-a.log"));
    let _ = std::fs::remove_file(scratch.join("replay-b.log"));
    s.push("core.esa_solve_s", esa_s);
    s.push("campaignd.wal_bytes", p.wal_bytes as f64);
    s.push("campaignd.checkpoint_encode_s", encode_s);
    s.push("campaignd.wal_append_s", append_s);
    s.push("campaignd.submit_ms", p.submit_ms);

    // Each job's loop runs from its `begin` to its last chunk
    // (`ChunkDone.elapsed`); what the loop spends outside round trips
    // and the durable path is the worker's own bookkeeping.
    let loops_s = (p.a.chunks.last_elapsed + p.b.chunks.last_elapsed).as_secs_f64();
    s.push(
        "campaign.step_self_s",
        loops_s - roundtrip_s - encode_s - append_s,
    );
    s.push("campaign.finalize_self_s", p.attack_s - esa_s);
    s.push("unclaimed_s", p.campaign_s - loops_s - p.attack_s);
}
