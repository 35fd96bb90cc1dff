//! `top` for the prediction service: polls the live `MetricsText` and
//! `AuditReport` wire ops and renders a per-client table — queries,
//! rows, cache-released rows, distinct-row coverage, repeats, ad-hoc
//! feature traffic, trailing query rate, and the ledger's probe-shape
//! flags. Point it at a running server, or let it spawn a demo
//! deployment plus two synthetic clients (one sample-space sweeper, one
//! ad-hoc feature prober) so the table has something to show.
//!
//! It also renders the campaign service's job table: the self-hosted
//! demo spawns an in-process `fia-campaignd` and submits two small
//! campaigns so the jobs panel shows live chunk/row/query progress, or
//! point `FIA_TOP_JOBS_ADDR` at a running daemon's endpoint.
//!
//! ```sh
//! cargo run --release --example fia_top                  # self-hosted demo
//! FIA_TOP_ADDR=127.0.0.1:7070 cargo run --example fia_top  # watch a server
//! FIA_TOP_JOBS_ADDR=127.0.0.1:7071 ...                      # watch a daemon
//! FIA_TOP_FRAMES=10 FIA_TOP_INTERVAL_MS=1000 ...           # pacing
//! ```

use fia::campaignd::{
    start, CampaignClient, DaemonConfig, JobAttack, JobDefense, JobModel, JobOracle, JobSpec,
};
use fia::data::PaperDataset;
use fia::defense::DefensePipeline;
use fia::linalg::Matrix;
use fia::models::LogisticRegression;
use fia::serve::{PredictionServer, RemoteOracle, ServeConfig, ServerHandle};
use fia::vfl::{VerticalPartition, VflSystem};
use std::io::IsTerminal;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const N: usize = 96;
const D: usize = 8;
const C: usize = 5;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Sum of every sample of `name` in a `MetricsText` scrape, across its
/// label sets (0 when the scrape has none).
fn sample_sum(scrape: &str, name: &str) -> f64 {
    scrape
        .lines()
        .filter_map(|line| {
            let (series, value) = line.rsplit_once(' ')?;
            let metric = series.split('{').next()?;
            if metric == name {
                value.parse::<f64>().ok()
            } else {
                None
            }
        })
        .sum()
}

/// A small deterministic LR deployment for the self-hosted demo.
fn demo_server() -> ServerHandle {
    let w = Matrix::from_fn(D, C, |i, j| ((1 + i * C + j) as f64).sin());
    let model = LogisticRegression::from_parameters(w, vec![0.0; C], C);
    let global = Matrix::from_fn(N, D, |i, j| 0.05 + 0.9 * ((i * D + j) as f64).cos().abs());
    let partition =
        VerticalPartition::from_assignments(vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]], D);
    let system = Arc::new(VflSystem::from_global(model, partition, &global));
    PredictionServer::spawn(
        system,
        Arc::new(DefensePipeline::new()),
        ServeConfig {
            replicas: 2,
            cache_capacity: 2 * N,
            ..ServeConfig::default()
        },
    )
    .expect("bind demo server")
}

/// Two synthetic clients driving the demo server until `stop` flips:
/// `sweeper` re-walks the stored sample space (coverage + repeats),
/// `prober` issues ad-hoc feature queries (feature-burst shape).
fn demo_traffic(
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
) -> Vec<std::thread::JoinHandle<()>> {
    let sweep_stop = Arc::clone(&stop);
    let sweeper = std::thread::spawn(move || {
        let mut oracle = RemoteOracle::connect(addr).expect("sweeper connect");
        oracle.declare_session("sweeper").expect("declare");
        let mut at = 0usize;
        while !sweep_stop.load(Ordering::Relaxed) {
            let indices: Vec<usize> = (0..16).map(|k| (at + k) % N).collect();
            at = (at + 16) % N;
            if oracle.predict_batch(&indices).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    let probe_stop = stop;
    let prober = std::thread::spawn(move || {
        let mut oracle = RemoteOracle::connect(addr).expect("prober connect");
        oracle.declare_session("prober").expect("declare");
        let mut tick = 0u64;
        while !probe_stop.load(Ordering::Relaxed) {
            let phase = tick as f64 / 7.0;
            tick += 1;
            let slices = vec![
                Matrix::from_fn(3, 4, |i, j| ((i + j) as f64 + phase).sin().abs()),
                Matrix::from_fn(3, 4, |i, j| ((i * j) as f64 - phase).cos().abs()),
            ];
            if oracle.predict_features(&slices).is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(35));
        }
    });
    vec![sweeper, prober]
}

/// Spawns a demo campaign daemon and submits two small throttled
/// campaigns (one in-process oracle, one shared served deployment) so
/// the jobs panel has live progress to show across frames.
fn demo_daemon(dir: &std::path::Path) -> fia::campaignd::DaemonHandle {
    let daemon = start(DaemonConfig::new(dir)).expect("spawn demo daemon");
    let mut client = CampaignClient::connect(daemon.addr()).expect("connect daemon");
    let mut spec = JobSpec {
        dataset: PaperDataset::CreditCard,
        scale: 0.005,
        target_fraction: 0.3,
        seed: 41,
        model: JobModel::Logistic,
        defense: JobDefense::RoundingFine,
        attacks: vec![JobAttack::Esa],
        max_queries: None,
        max_rows: None,
        chunk: 8,
        oracle: JobOracle::InProcess,
        throttle_ms: 120,
    };
    client.submit(&spec).expect("submit in-process job");
    spec.seed = 42;
    spec.defense = JobDefense::None;
    spec.oracle = JobOracle::Shared {
        replicas: 1,
        cache_capacity: 0,
    };
    client.submit(&spec).expect("submit served job");
    daemon
}

/// Renders the daemon's job table for one frame.
fn print_jobs(client: &mut CampaignClient) {
    let rows = match client.list() {
        Ok(rows) => rows,
        Err(e) => {
            println!("jobs: daemon unavailable ({e})");
            return;
        }
    };
    println!(
        "{:<4} {:<9} {:>6} {:>11} {:>8} {:>7} {:>7}  FINGERPRINT",
        "JOB", "STATE", "CHUNKS", "ROWS", "QUERIES", "RESUMES", "EVENTS",
    );
    for r in &rows {
        let fp_end = r.fingerprint.len().min(12);
        println!(
            "{:<4} {:<9} {:>6} {:>5}/{:<5} {:>8} {:>7} {:>7}  {}{}",
            r.id,
            r.state.name(),
            r.chunks_done,
            r.rows_done,
            r.rows_planned,
            r.queries,
            r.resumes,
            r.events,
            &r.fingerprint[..fp_end],
            if r.detail.is_empty() {
                String::new()
            } else {
                format!("  ({})", r.detail)
            },
        );
    }
    if rows.is_empty() {
        println!("(no jobs submitted yet)");
    }
}

fn main() {
    let frames = env_u64("FIA_TOP_FRAMES", 5);
    let interval = Duration::from_millis(env_u64("FIA_TOP_INTERVAL_MS", 500));

    // Resolve the target: an external server, or a self-hosted demo.
    let external = std::env::var("FIA_TOP_ADDR").ok();
    let (server, addr) = match &external {
        Some(a) => (None, a.parse().expect("FIA_TOP_ADDR parses")),
        None => {
            let s = demo_server();
            let addr = s.addr();
            (Some(s), addr)
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let traffic = if server.is_some() {
        demo_traffic(addr, Arc::clone(&stop))
    } else {
        Vec::new()
    };

    // Resolve the campaign daemon: an external endpoint, or (in demo
    // mode) a self-hosted daemon running two live campaigns.
    let external_jobs = std::env::var("FIA_TOP_JOBS_ADDR").ok();
    let demo_dir = std::env::temp_dir().join(format!("fia-top-demo-{}", std::process::id()));
    let daemon = match (&external_jobs, &external) {
        (None, None) => Some(demo_daemon(&demo_dir)),
        _ => None,
    };
    let mut jobs_client = match (&external_jobs, &daemon) {
        (Some(a), _) => CampaignClient::connect(a.as_str()).ok(),
        (None, Some(d)) => CampaignClient::connect(d.addr()).ok(),
        (None, None) => None,
    };

    let mut oracle = RemoteOracle::connect(addr).expect("connect");
    let live = std::io::stdout().is_terminal();
    for frame in 1..=frames {
        std::thread::sleep(interval);
        let scrape = oracle.metrics_text().expect("metrics");
        let m = |name| sample_sum(&scrape, name);
        let audit = oracle.audit_report().expect("audit");
        if live {
            // In a terminal, redraw in place like `top`.
            print!("\x1b[2J\x1b[H");
        }
        let uptime = m("fia_serve_uptime_seconds");
        let requests = m("fia_serve_requests_total");
        let rows = m("fia_serve_replica_rows_total");
        let rounds = m("fia_serve_replica_rounds_total");
        let hits = m("fia_serve_cache_hit_rows_total");
        println!("fia-top — {addr} — frame {frame}/{frames}  up {uptime:.1}s");
        println!(
            "server: {requests} req  {rows} rows  {rounds} rounds  {} err  cache {hits}/{}  {:.1} rps  fill {:.2}  conns {}",
            m("fia_serve_errors_total"),
            hits + m("fia_serve_cache_miss_rows_total"),
            requests / uptime.max(1e-9),
            rows / rounds.max(1.0),
            m("fia_serve_connections_open"),
        );
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>9} {:>8} {:>7} {:>8}  FLAGS",
            "CLIENT", "QUERIES", "ROWS", "CACHED", "DISTINCT", "REPEATS", "FEATQ", "RATE/S",
        );
        for c in &audit.clients {
            println!(
                "{:<18} {:>8} {:>8} {:>8} {:>9} {:>8} {:>7} {:>8.2}  {}",
                c.client,
                c.queries,
                c.rows,
                c.cached_rows,
                c.distinct_rows,
                c.repeat_rows,
                c.feature_queries,
                c.window_rate_rps,
                if c.flags.is_empty() {
                    "-".to_string()
                } else {
                    c.flags.join(",")
                },
            );
        }
        if audit.clients.is_empty() {
            println!("(no audited clients yet — is the server's audit ledger enabled?)");
        }
        if let Some(client) = jobs_client.as_mut() {
            println!();
            print_jobs(client);
        }
    }

    stop.store(true, Ordering::Relaxed);
    for t in traffic {
        let _ = t.join();
    }
    if let Some(s) = server {
        s.shutdown();
    }
    if let Some(d) = daemon {
        d.shutdown();
        let _ = std::fs::remove_dir_all(&demo_dir);
    }
}
