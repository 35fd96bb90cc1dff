//! Reactor concurrency bench (`BENCH_serve_async.json`).
//!
//! The thread-per-connection server capped out at a few dozen clients
//! and, under an open-loop arrival schedule at 2× its own capacity,
//! fell behind on virtually every send (`openloop_late_frac_2x` ≈ 0.99
//! in `BENCH_serve_pool.json`): with one blocking sender thread per
//! connection the *generator* — not the server — became the bottleneck,
//! and the server's accept loop couldn't hold more sockets than it
//! could afford threads.
//!
//! This bench drives the epoll reactor (and its multiplexed open-loop
//! client) across a connection sweep — 64, 512 and 4096 simultaneous
//! sockets — at 1× and 2× the measured closed-loop capacity of the same
//! 4-replica pool, and at the fixed rates of [`FIXED_ARRIVAL_RPS`]
//! (points tagged `_1x`, `_2x` and `_10000rps`, `_20000rps`). A change
//! that moves capacity also moves the capacity-relative load, so two
//! builds are compared at the same load only on the fixed-rate points.
//! Per point it reports offered vs achieved rps, the
//! late-send fraction (an arrival is late when its scheduled start had
//! already passed at dispatch time) and p99 latency. Headline:
//! `openloop_late_frac_2x` at the largest connection count, with a
//! < 0.05 acceptance bar — the reactor must keep a 2×-capacity schedule
//! on time across 4096 sockets where the old path was late 99% of the
//! time across 16.
//!
//! The file also carries `audit_overhead_frac`: closed-loop throughput
//! with the per-client audit ledger on vs off, held to the same ≤3%
//! bar as the telemetry kill-switch.
//!
//! Wall-clock bars are report-only under `FIA_BENCH_NO_ASSERT=1` (CI);
//! the JSON is written before any assertion, so a failed bar never
//! discards the measurements.

use fia_bench::harness::Harness;
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::{LoadConfig, OpenLoadConfig, PredictionServer, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use std::sync::Arc;
use std::time::Duration;

/// Same credit-card-shaped deployment as `benches/serve.rs`: 23
/// features, binary LR, 512 stored rows split [16, 7] across two
/// parties.
fn deployment() -> Arc<VflSystem<LogisticRegression>> {
    let d = 23;
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    let w = Matrix::from_fn(d, 1, |_, _| next());
    let model = LogisticRegression::from_parameters(w, vec![0.0], 2);
    let global = Matrix::from_fn(512, d, |_, _| 0.5 + 0.49 * next());
    let partition = VerticalPartition::contiguous(&[16, 7]);
    Arc::new(VflSystem::from_global(model, partition, &global))
}

/// The simulated secure-protocol round cost (same as `benches/serve.rs`
/// so capacities are comparable across the two JSON files).
const ROUND_COST: Duration = Duration::from_micros(300);

/// Open-loop arrival rates offered to every build alike, about 1× and
/// 2× the closed-loop capacity (11.3k rps) measured on a 2-vCPU AVX2
/// host.
const FIXED_ARRIVAL_RPS: [f64; 2] = [10_000.0, 20_000.0];

fn config(replicas: usize) -> ServeConfig {
    ServeConfig {
        batch_cap: 32,
        batch_deadline: Duration::from_micros(100),
        round_cost: ROUND_COST,
        replicas,
        ..ServeConfig::default()
    }
}

/// Measures the pool's closed-loop capacity (8 clients, 1-row
/// requests), the anchor of the capacity-relative offered rates below.
fn closed_loop_capacity(system: &Arc<VflSystem<LogisticRegression>>) -> f64 {
    closed_loop_rps(system, true)
}

/// One closed-loop capacity measurement with the per-client audit
/// ledger on or off — the two arms of `audit_overhead_frac`.
fn closed_loop_rps(system: &Arc<VflSystem<LogisticRegression>>, audit: bool) -> f64 {
    let server = PredictionServer::spawn(
        Arc::clone(system),
        Arc::new(fia_defense::DefensePipeline::new()),
        ServeConfig { audit, ..config(4) },
    )
    .expect("bind ephemeral port");
    let _ = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads: 8,
            requests_per_thread: 50,
            rows_per_request: 1,
        },
    )
    .expect("warmup load");
    let report = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads: 8,
            requests_per_thread: 250,
            rows_per_request: 1,
        },
    )
    .expect("timed load");
    server.shutdown();
    report.rps
}

/// One open-loop point: `connections` simultaneous sockets offering
/// `offered_rps` total against a fresh 4-replica cold pool. Returns the
/// load report plus the server's accept-error count (which must stay 0:
/// the fd budget covers the sweep, so any error means the reactor
/// mishandled accept).
fn open_point(
    system: &Arc<VflSystem<LogisticRegression>>,
    connections: usize,
    offered_rps: f64,
) -> (fia_serve::OpenLoadReport, u64) {
    let server = PredictionServer::spawn(
        Arc::clone(system),
        Arc::new(fia_defense::DefensePipeline::new()),
        config(4),
    )
    .expect("bind ephemeral port");
    // ~0.5 s of schedule, bounded so extreme rates stay cheap.
    let total_requests = ((offered_rps * 0.5) as usize).clamp(512, 8192);
    let report = fia_serve::run_load_open(
        server.addr(),
        &OpenLoadConfig {
            connections,
            arrival_rps: offered_rps,
            total_requests,
            rows_per_request: 1,
        },
    )
    .expect("open-loop load");
    let accept_errors = server.metrics().accept_errors;
    server.shutdown();
    (report, accept_errors)
}

fn main() {
    let mut h = Harness::new("serve_async", 1, 0);
    let system = deployment();

    let capacity = closed_loop_capacity(&system);
    h.metric("closed_loop_capacity_rps", capacity);

    // Clamp the sweep to the process fd budget: each connection costs
    // one fd on the client side and one on the server side, plus slack
    // for the workspace's own files/pipes.
    let fd_budget = fd_soft_limit().unwrap_or(20_000);
    let max_conns = (fd_budget.saturating_sub(256) / 2).max(64);

    let mut late_frac_2x_max_conns = 0.0f64;
    let mut accept_errors_total = 0u64;
    for &conns in &[64usize, 512, 4096] {
        let conns = conns.min(max_conns);
        let relative = [1.0f64, 2.0].map(|mult| (format!("{mult}x"), mult * capacity));
        let fixed = FIXED_ARRIVAL_RPS.map(|rps| (format!("{rps}rps"), rps));
        for (rate, offered) in relative.into_iter().chain(fixed) {
            let (report, accept_errors) = open_point(&system, conns, offered);
            accept_errors_total += accept_errors;
            let tag = format!("{conns}c_{rate}");
            h.metric(&format!("openloop_offered_rps_{tag}"), report.offered_rps);
            h.metric(&format!("openloop_achieved_rps_{tag}"), report.achieved_rps);
            h.metric(&format!("openloop_p99_us_{tag}"), report.p99_latency_us);
            let late_frac = report.late_sends as f64 / report.total_requests.max(1) as f64;
            h.metric(&format!("openloop_late_frac_{tag}"), late_frac);
            if rate == "2x" {
                // The headline tracks the *largest* swept connection
                // count — the regime the old server could not enter.
                late_frac_2x_max_conns = late_frac;
            }
        }
    }
    // Headline, name-compatible with the BENCH_serve_pool baseline
    // (0.988 there, thread-per-sender generator at 16 connections).
    h.metric("openloop_late_frac_2x", late_frac_2x_max_conns);
    h.metric("accept_errors_total", accept_errors_total as f64);

    // ------------------------------------------------------------------
    // Audit-ledger overhead: the same closed-loop scenario with the
    // per-client ledger on vs off. Per answered request the ledger is a
    // BTreeMap probe plus a few integer bumps and one hash-set insert
    // per row, all on the reactor thread — the bar is the same ≤3% the
    // telemetry kill-switch is held to. The interleaved off/on/off/on
    // order splits machine drift across both arms.
    let mut rps_off = 0.0;
    let mut rps_on = 0.0;
    for _ in 0..3 {
        rps_off += closed_loop_rps(&system, false);
        rps_on += closed_loop_rps(&system, true);
    }
    let audit_overhead_frac = 1.0 - rps_on / rps_off.max(1e-9);
    h.metric("audit_overhead_frac", audit_overhead_frac);
    h.write_json("BENCH_serve_async.json");

    if std::env::var_os("FIA_BENCH_NO_ASSERT").is_none() {
        assert!(
            audit_overhead_frac <= 0.03,
            "audit-ledger overhead {audit_overhead_frac:.4} exceeds the 3% acceptance bar"
        );
        assert!(
            late_frac_2x_max_conns < 0.05,
            "late fraction {late_frac_2x_max_conns:.4} at 2x offered load on the largest \
             connection sweep exceeds the 5% acceptance bar"
        );
        assert_eq!(
            accept_errors_total, 0,
            "reactor reported accept errors during the sweep"
        );
    }
}

/// `RLIMIT_NOFILE` soft limit via /proc (std-only, Linux); `None`
/// elsewhere, in which case the sweep assumes a generous budget.
fn fd_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}
