//! `perfbench` — the repository's end-to-end benchmark.
//!
//! One closed-loop adversary on one connection drives a whole campaign,
//! from `ScenarioSpec` to `CampaignReport` (or to the daemon's
//! `JobOutcome`), on one of three workloads:
//!
//! * `esa-per-row` — the paper's per-prediction adversary (ESA on LR,
//!   §IV): one served round trip per record, so the serve, vfl, defense
//!   and campaign bookkeeping layers dominate;
//! * `grna-nn` — the paper's accumulate-then-train adversary (GRNA on an
//!   NN, §V): generator training (tensor tape + linalg GEMM) dominates
//!   and serving barely runs;
//! * `daemon-rerun` — the durable service path: an in-process
//!   `fia-campaignd` runs two identical jobs back to back over a shared,
//!   cached deployment, so the WAL and the cache dominate.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! perfbench compare OLD.jsonl NEW.jsonl [--bench BENCHMARK.json]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` replays every
//! layer on the exact chunk sequence of the run and prints the per-layer
//! split. Layers are timed from outside, with stopwatches around calls
//! into public functions plus the counters and traces the program
//! already exports. Every run checks its outputs; the last stdout line
//! is one JSON object `{correct, attempted, failed, metrics}`. `--out`
//! appends the full record (stamps, dispersion) to a JSONL file that
//! `compare` reads.

mod compare;
mod daemon;
mod metrics;
mod replay;
mod served;
mod stats;

use fia_campaign::{CampaignEvent, CampaignObserver};
use fia_core::QueryCost;
use fia_telemetry::json::{self, ObjectBuilder};
use metrics::{MetricDef, Samples, Stat, BLOCKING_PATH, END_TO_END, PER_LAYER};
use stats::Summary;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: &[&str] = &["esa-per-row", "grna-nn", "daemon-rerun"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::main(&args[1..])
    } else {
        Args::parse(&args).and_then(|a| run(&a))
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut out = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    })
                }
                "--out" => out = Some(PathBuf::from(value)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload: String = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let seconds: f64 = seconds.ok_or("--seconds is required")?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
            out,
        })
    }
}

/// Operations attempted and failed in one run: chunks, jobs and
/// correctness checks all count.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: &str) {
        eprintln!("perfbench: FAILED {what}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Records one correctness check.
    pub fn check(&mut self, pass: bool, what: &str) {
        if pass {
            self.ok(1);
        } else {
            self.fail(what);
        }
    }
}

/// One accumulation chunk as the adversary saw it.
#[derive(Debug, Clone, Copy)]
pub struct ChunkObs {
    /// The oracle round trip (`ChunkDone.duration`).
    pub duration: Duration,
    pub rows: u64,
    pub cached_rows: u64,
}

impl ChunkObs {
    /// Every row of the chunk came from the released-score cache.
    pub fn is_hit(&self) -> bool {
        self.cached_rows == self.rows
    }
}

/// Collects `ChunkDone` events into [`ChunkObs`] (per-chunk cost is the
/// difference of consecutive cumulative costs).
#[derive(Debug, Default)]
pub struct ChunkLog {
    prev: QueryCost,
    pub chunks: Vec<ChunkObs>,
    /// `ChunkDone.elapsed` of the last chunk: time since the run began.
    pub last_elapsed: Duration,
}

impl CampaignObserver for ChunkLog {
    fn on_event(&mut self, event: &CampaignEvent) {
        if let CampaignEvent::ChunkDone {
            cost,
            duration,
            elapsed,
            ..
        } = event
        {
            self.chunks.push(ChunkObs {
                duration: *duration,
                rows: cost.rows - self.prev.rows,
                cached_rows: cost.cached_rows - self.prev.cached_rows,
            });
            self.prev = *cost;
            self.last_elapsed = *elapsed;
        }
    }
}

impl ChunkLog {
    /// Percentile `p` of chunk round trips in milliseconds, over the
    /// chunks `keep` selects (0 when it selects none).
    pub fn percentile_ms(&self, p: f64, keep: impl Fn(&ChunkObs) -> bool) -> f64 {
        let ms: Vec<f64> = self
            .chunks
            .iter()
            .filter(|c| keep(c))
            .map(|c| c.duration.as_secs_f64() * 1e3)
            .collect();
        if ms.is_empty() {
            0.0
        } else {
            stats::percentile_of(&ms, p)
        }
    }

    /// Sum of chunk round trips, seconds.
    pub fn roundtrip_s(&self) -> f64 {
        self.chunks.iter().map(|c| c.duration.as_secs_f64()).sum()
    }
}

/// When a run stops taking passes: after `seconds`, but never before
/// `min_passes` passes.
pub struct Deadline {
    start: Instant,
    seconds: f64,
    min_passes: usize,
}

impl Deadline {
    pub fn new(seconds: f64, min_passes: usize) -> Self {
        Deadline {
            start: Instant::now(),
            seconds,
            min_passes,
        }
    }

    pub fn more(&self, passes: usize) -> bool {
        passes < self.min_passes || self.start.elapsed().as_secs_f64() < self.seconds
    }
}

/// Resets this process's peak resident set size, so that the next
/// [`peak_rss_mb`] reads the peak of one pass.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run-private scratch directory inside the working directory (the
/// benchmark reads and writes only inside its checkout).
pub fn scratch_dir() -> PathBuf {
    Path::new(".perfbench-state").join(std::process::id().to_string())
}

/// Scenarios per run. Each is seeded from the run seed; pass `i` of an
/// untraced run runs scenario `i mod SCENARIOS`, so one run's figures
/// and its mean attack MSE cover several data draws rather than one and
/// two seeds give comparable figures.
pub const SCENARIOS: usize = 16;

/// Seed of scenario `k` of the run seeded `seed`.
pub fn scenario_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(SCENARIOS as u64).wrapping_add(k as u64)
}

/// The scenario pass `pass` runs. Traced runs alternate an untraced and
/// a traced pass over the same scenario, so their `campaign_s` values
/// compare like with like.
pub fn scenario_of(pass: usize, trace: bool) -> usize {
    if trace {
        (pass / 2) % SCENARIOS
    } else {
        pass % SCENARIOS
    }
}

/// Untraced runs cover every scenario once (the mean MSE needs each);
/// traced runs take at least two untraced/traced pairs.
pub fn min_passes(trace: bool) -> usize {
    if trace {
        4
    } else {
        SCENARIOS
    }
}

/// Pushes `attack_mse`: the mean over the run's scenarios, which is the
/// same on every run with the same seed.
pub fn push_mean_mse(samples: &mut Samples, mse: &[Option<f64>], tally: &mut Tally) {
    if mse.iter().all(Option::is_some) {
        samples.push(
            "attack_mse",
            mse.iter().flatten().sum::<f64>() / mse.len() as f64,
        );
    } else {
        tally.fail("attack MSE of every scenario");
    }
}

/// Pushes `telemetry.overhead_frac`: the traced passes' `campaign_s`
/// over the untraced passes' (fastest passes, as reported), minus one.
pub fn push_overhead(samples: &mut Samples) {
    let (plain, traced) = (samples.get("campaign_s"), samples.get("traced.campaign_s"));
    if !plain.is_empty() && !traced.is_empty() {
        let frac = Summary::of(traced).min / Summary::of(plain).min - 1.0;
        samples.push("telemetry.overhead_frac", frac);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let stamps = Stamps::collect();
    let mut tally = Tally::default();
    let started = Instant::now();
    let (samples, passes) = match args.workload.as_str() {
        "esa-per-row" => {
            served::Served::esa_per_row(args.seed).run(args.seconds, args.trace, &mut tally)
        }
        "grna-nn" => served::Served::grna_nn(args.seed).run(args.seconds, args.trace, &mut tally),
        "daemon-rerun" => daemon::run(args.seed, args.seconds, args.trace, &mut tally),
        _ => unreachable!("workload validated by Args::parse"),
    };
    let _ = std::fs::remove_dir_all(scratch_dir());
    let _ = std::fs::remove_dir(".perfbench-state");

    let defs: &[MetricDef] = if args.trace { PER_LAYER } else { END_TO_END };
    let mut rows = Vec::new();
    for d in defs {
        let s = match samples.get(d.name) {
            // A layer the workload does not run reads 0.
            [] if args.trace => &[0.0],
            [] => {
                tally.fail(&format!("metric {} was not measured", d.name));
                continue;
            }
            s => s,
        };
        let summary = Summary::of(s);
        let value = match d.stat {
            Stat::Min => summary.min,
            Stat::Median => summary.median,
            Stat::Mean => summary.mean,
        };
        rows.push((d, summary, value));
    }

    println!(
        "# perfbench {} seed={} trace={} passes={} wall_s={:.1} {}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        passes,
        started.elapsed().as_secs_f64(),
        stamps.line()
    );
    println!(
        "# {:<28} {:>8} {:>14} {:>14} {:>14} {:>14} {:>14} {:>4}  moves",
        "metric", "unit", "value", "median", "q1", "q3", "min", "n"
    );
    for (d, s, value) in &rows {
        println!(
            "# {:<28} {:>8} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}  {}",
            d.name, d.unit, value, s.median, s.q1, s.q3, s.min, s.n, d.moves
        );
    }
    if args.trace {
        let mean = |name: &str| match samples.get(name) {
            [] => 0.0,
            s => Summary::of(s).mean,
        };
        println!(
            "# accounting: traced campaign_s {:.6} s = blocking-path layers + unclaimed_s {:.6} s",
            mean("traced.campaign_s"),
            BLOCKING_PATH.iter().map(|name| mean(name)).sum::<f64>()
        );
    }
    println!(
        "# attempted={} failed={} failed_frac={:.6}",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );

    if let Some(path) = &args.out {
        let record = ObjectBuilder::new()
            .str("workload", &args.workload)
            .u64("seed", args.seed)
            .u64("trace", u64::from(args.trace))
            .u64("passes", passes as u64)
            .raw("stamps", &stamps.json())
            .bool("correct", tally.failed == 0)
            .u64("attempted", tally.attempted)
            .u64("failed", tally.failed)
            .raw(
                "metrics",
                &object(rows.iter().map(|(d, s, value)| {
                    let v = ObjectBuilder::new()
                        .str("unit", d.unit)
                        .f64("value", *value)
                        .f64("median", s.median)
                        .f64("q1", s.q1)
                        .f64("q3", s.q3)
                        .f64("min", s.min)
                        .u64("n", s.n as u64)
                        .raw(
                            "samples",
                            &json::array(
                                &samples
                                    .get(d.name)
                                    .iter()
                                    .map(|&x| json::number(x))
                                    .collect::<Vec<_>>(),
                            ),
                        )
                        .build();
                    (d.name, v)
                })),
            )
            .build();
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{record}").map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let metrics = object(rows.iter().map(|(d, _, value)| {
        let v = ObjectBuilder::new()
            .f64("value", *value)
            .str("unit", d.unit)
            .build();
        (d.name, v)
    }));
    println!(
        "{}",
        ObjectBuilder::new()
            .bool("correct", tally.failed == 0)
            .u64("attempted", tally.attempted.max(1))
            .u64("failed", tally.failed)
            .raw("metrics", &metrics)
            .build()
    );
    Ok(())
}

/// A JSON object from `(key, serialized value)` pairs.
fn object<'a>(pairs: impl Iterator<Item = (&'a str, String)>) -> String {
    pairs
        .fold(ObjectBuilder::new(), |b, (k, v)| b.raw(k, &v))
        .build()
}

/// What a result depends on besides the code under test: revision,
/// kernel and poller backends, and parallelism.
struct Stamps {
    rev: String,
    source: String,
    kernel: &'static str,
    poller: String,
    nproc: usize,
}

impl Stamps {
    fn collect() -> Stamps {
        let rev = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "none".to_string());
        let poller = fia_serve::sys::Poller::new()
            .map(|p| format!("{:?}", p.backend()).to_lowercase())
            .unwrap_or_else(|_| "none".to_string());
        Stamps {
            rev,
            source: source_hash(),
            kernel: fia_linalg::detected_backend().name(),
            poller,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn line(&self) -> String {
        format!(
            "rev={} source={} kernel={} poller={} nproc={}",
            self.rev, self.source, self.kernel, self.poller, self.nproc
        )
    }

    fn json(&self) -> String {
        ObjectBuilder::new()
            .str("rev", &self.rev)
            .str("source", &self.source)
            .str("kernel", self.kernel)
            .str("poller", &self.poller)
            .u64("nproc", self.nproc as u64)
            .build()
    }
}

/// FNV-1a over the paths and bytes of every file under `crates/` plus
/// `Cargo.lock` — identifies the code measured when the checkout is not
/// a git repository.
fn source_hash() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            eat(f.to_string_lossy().as_bytes());
            eat(&bytes);
        }
    }
    format!("{h:016x}")
}
