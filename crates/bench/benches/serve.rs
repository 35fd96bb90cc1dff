//! Serving-boundary benches.
//!
//! Section 1 (`BENCH_serve.json`, the PR-2 baseline): requests/sec at
//! 1/4/8 closed-loop client threads against the live TCP service,
//! batched (coalescer on) vs unbatched (`batch_cap: 1`, one request
//! per round).
//!
//! Section 2 (`BENCH_serve_pool.json`, the pool baseline): the same
//! 8-thread closed-loop traffic against 1/2/4 backend replicas with
//! sharded dispatch, cold (cache off) and warm (released-score cache
//! fully resident). The headline metric is
//! `pool_speedup_4r_warm` — 4 replicas + warm cache vs the PR-2
//! single-batcher server under the *same* simulated secure-round cost —
//! with an acceptance bar of ≥ 2×.
//!
//! All servers simulate the same fixed per-round secure-computation
//! cost (`round_cost`): a real VFL deployment pays a protocol round
//! trip (secure aggregation / HE) per joint prediction, which the
//! in-the-clear simulation would otherwise hide. The coalescer
//! amortizes that cost across queued queries, replicas pay it
//! concurrently, and cache hits skip it entirely. Wall-clock ratios are
//! noisy on shared runners, so the acceptance bars are report-only
//! under `FIA_BENCH_NO_ASSERT=1` (CI) and enforced locally.
//!
//! Section 3 (also `BENCH_serve_pool.json`): `telemetry_overhead_frac`
//! prices the fia-telemetry instrumentation — the same pooled scenario
//! with every registry recording vs the recording flag off — with a
//! ≤ 3% acceptance bar.

use fia_bench::harness::Harness;
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::{LoadConfig, OpenLoadConfig, PredictionServer, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use std::sync::Arc;
use std::time::Duration;

/// Credit-card-shaped deployment (23 features, binary LR) with a stored
/// prediction set big enough that index traffic never repeats within a
/// round.
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

/// The simulated secure-protocol round cost both servers pay.
const ROUND_COST: Duration = Duration::from_micros(300);

/// The server both scenarios run; `batched: false` caps every round at
/// one row, which turns the coalescer off.
fn config(batched: bool) -> ServeConfig {
    ServeConfig {
        batch_cap: if batched { 32 } else { 1 },
        // Closed-loop clients can never fill the row cap (every client
        // has exactly one request in flight), so the deadline is kept
        // short: rounds close on the greedy drain, which already holds
        // everything that queued behind the previous round.
        batch_deadline: Duration::from_micros(100),
        round_cost: ROUND_COST,
        ..ServeConfig::default()
    }
}

/// Runs one load scenario and returns (rps, mean batch fill).
fn scenario(
    system: &Arc<VflSystem<LogisticRegression>>,
    batched: bool,
    threads: usize,
) -> (f64, f64) {
    let server = PredictionServer::spawn(
        Arc::clone(system),
        Arc::new(fia_defense::DefensePipeline::new()),
        config(batched),
    )
    .expect("bind ephemeral port");
    // Warmup: let connection threads and the batcher reach steady state.
    let _ = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads,
            requests_per_thread: 25,
            rows_per_request: 1,
        },
    )
    .expect("warmup load");
    let report = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads,
            requests_per_thread: 250,
            rows_per_request: 1,
        },
    )
    .expect("timed load");
    let fill = server.metrics().mean_batch_fill;
    server.shutdown();
    (report.rps, fill)
}

/// One pooled load scenario at 8 client threads: `replicas` backends,
/// optionally with a fully warmed released-score cache. Returns the
/// achieved rps and the server's final metrics snapshot.
fn pool_scenario(
    system: &Arc<VflSystem<LogisticRegression>>,
    replicas: usize,
    warm_cache: bool,
) -> (f64, fia_serve::MetricsReport) {
    pool_scenario_telemetry(system, replicas, warm_cache, true)
}

/// Like [`pool_scenario`], with the telemetry recording flag explicit —
/// the off/on pair prices the instrumentation itself.
fn pool_scenario_telemetry(
    system: &Arc<VflSystem<LogisticRegression>>,
    replicas: usize,
    warm_cache: bool,
    recording: bool,
) -> (f64, fia_serve::MetricsReport) {
    let server = PredictionServer::spawn(
        Arc::clone(system),
        Arc::new(fia_defense::DefensePipeline::new()),
        ServeConfig {
            replicas,
            cache_capacity: if warm_cache { 1024 } else { 0 },
            ..config(true)
        },
    )
    .expect("bind ephemeral port");
    server.set_telemetry_recording(recording);
    fia_telemetry::global().set_recording(recording);
    // Warmup: steady-state threads, and — when the cache is on — one
    // full pass over the 512-row stored set so the timed run is
    // entirely cache-served (8 threads × 64 requests covers rows
    // 0..511 exactly once).
    let _ = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads: 8,
            requests_per_thread: 64,
            rows_per_request: 1,
        },
    )
    .expect("warmup load");
    let report = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads: 8,
            requests_per_thread: 200,
            rows_per_request: 1,
        },
    )
    .expect("timed load");
    let metrics = server.metrics();
    server.shutdown();
    (report.rps, metrics)
}

/// One open-loop scenario: a fixed `offered_rps` arrival schedule
/// (spread over 16 sender connections) against a `replicas`-backend
/// cold server. Unlike the closed loop — where every client has exactly
/// one 1-row request in flight and batch fill is capped by the client
/// count — arrivals keep coming while rounds are in flight, so queue
/// depth (and therefore coalesced fill) reflects the *offered* rate.
fn open_scenario(
    system: &Arc<VflSystem<LogisticRegression>>,
    replicas: usize,
    offered_rps: f64,
) -> (fia_serve::OpenLoadReport, f64) {
    let server = PredictionServer::spawn(
        Arc::clone(system),
        Arc::new(fia_defense::DefensePipeline::new()),
        ServeConfig {
            replicas,
            ..config(true)
        },
    )
    .expect("bind ephemeral port");
    // Warmup: reach steady-state connection threads.
    let _ = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads: 8,
            requests_per_thread: 25,
            rows_per_request: 1,
        },
    )
    .expect("warmup load");
    // Server metrics are cumulative since spawn; snapshot after warmup
    // so the reported fill covers only the open-loop rounds — the
    // closed-loop warmup's shallow rounds would otherwise dilute the
    // very number this section exists to isolate.
    let warm = server.metrics();
    // ~0.4 s of schedule, bounded so extreme rates stay cheap.
    let total_requests = ((offered_rps * 0.4) as usize).clamp(200, 4000);
    let report = fia_serve::run_load_open(
        server.addr(),
        &OpenLoadConfig {
            connections: 16,
            arrival_rps: offered_rps,
            total_requests,
            rows_per_request: 1,
        },
    )
    .expect("open-loop load");
    let metrics = server.metrics();
    server.shutdown();
    let fill = (metrics.rows - warm.rows) as f64 / (metrics.rounds - warm.rounds).max(1) as f64;
    (report, fill)
}

fn main() {
    let mut h = Harness::new("serve", 1, 0);
    let system = deployment();

    let mut speedup_8t = 0.0;
    for &threads in &[1usize, 4, 8] {
        let (rps_unbatched, _) = scenario(&system, false, threads);
        let (rps_batched, fill) = scenario(&system, true, threads);
        h.metric(&format!("rps_unbatched_{threads}t"), rps_unbatched);
        h.metric(&format!("rps_batched_{threads}t"), rps_batched);
        h.metric(&format!("batched_fill_{threads}t"), fill);
        let speedup = rps_batched / rps_unbatched;
        h.metric(&format!("batched_speedup_{threads}t"), speedup);
        if threads == 8 {
            speedup_8t = speedup;
        }
    }
    h.write_json("BENCH_serve.json");

    // ------------------------------------------------------------------
    // Pool section: sharded dispatch + released-score cache at 8 client
    // threads. The 1-replica cold run *is* the PR-2 single-batcher
    // server, measured fresh so the ratios share one machine state.
    let mut p = Harness::new("serve_pool", 1, 0);
    let mut rps_1r_cold = 0.0;
    let mut fill_4r_closed = 0.0;
    for &replicas in &[1usize, 2, 4] {
        let (rps, m) = pool_scenario(&system, replicas, false);
        p.metric(&format!("rps_{replicas}r_cold_8t"), rps);
        p.metric(&format!("fill_{replicas}r_cold_8t"), m.mean_batch_fill);
        let busy = m.replica_rounds.iter().filter(|&&r| r > 0).count();
        p.metric(&format!("busy_replicas_{replicas}r_cold"), busy as f64);
        if replicas == 1 {
            rps_1r_cold = rps;
        } else {
            p.metric(&format!("pool_speedup_{replicas}r_cold"), rps / rps_1r_cold);
        }
        if replicas == 4 {
            fill_4r_closed = m.mean_batch_fill;
        }
    }
    let (rps_4r_warm, m_warm) = pool_scenario(&system, 4, true);
    p.metric("rps_4r_warm_8t", rps_4r_warm);
    p.metric("cache_hit_rate_4r_warm", m_warm.cache_hit_rate());
    let warm_speedup = rps_4r_warm / rps_1r_cold;
    p.metric("pool_speedup_4r_warm", warm_speedup);

    // ------------------------------------------------------------------
    // Open-loop section: fixed arrival rates against the 4-replica cold
    // pool. Closed-loop 1-row traffic (above) caps queue depth at the
    // client count, diluting batch fill; an open-loop schedule keeps
    // arrivals coming while rounds are in flight, so the fill numbers
    // here are the pool's, not the loop's. Offered rates are multiples
    // of the measured single-batcher capacity so the section is
    // machine-relative.
    let mut fill_2x = 0.0;
    for &mult in &[1.0f64, 2.0] {
        let offered = mult * rps_1r_cold;
        let (report, fill) = open_scenario(&system, 4, offered);
        let tag = format!("{mult}x");
        p.metric(&format!("openloop_offered_rps_{tag}"), report.offered_rps);
        p.metric(&format!("openloop_achieved_rps_{tag}"), report.achieved_rps);
        p.metric(&format!("openloop_fill_4r_{tag}"), fill);
        p.metric(&format!("openloop_p99_us_{tag}"), report.p99_latency_us);
        p.metric(
            &format!("openloop_late_frac_{tag}"),
            report.late_sends as f64 / report.total_requests.max(1) as f64,
        );
        if mult == 2.0 {
            fill_2x = fill;
        }
    }
    // Headline: batch fill under open-loop pressure vs the diluted
    // closed-loop fill measured above on the same 4-replica pool (same
    // JSON, same machine state — the ratio is self-consistent with
    // fill_4r_cold_8t by construction).
    p.metric("openloop_fill_gain_4r", fill_2x / fill_4r_closed.max(1e-9));

    // ------------------------------------------------------------------
    // Telemetry overhead: the same 2-replica cold closed-loop scenario
    // with every instrument recording vs the registry recording flag
    // off (each record call degrades to one relaxed load and a branch).
    // The interleaved off/on/off/on order splits machine drift across
    // both arms.
    let mut rps_off = 0.0;
    let mut rps_on = 0.0;
    for _ in 0..2 {
        rps_off += pool_scenario_telemetry(&system, 2, false, false).0;
        rps_on += pool_scenario_telemetry(&system, 2, false, true).0;
    }
    fia_telemetry::global().set_recording(true);
    let telemetry_overhead_frac = 1.0 - rps_on / rps_off.max(1e-9);
    p.metric("telemetry_overhead_frac", telemetry_overhead_frac);
    p.write_json("BENCH_serve_pool.json");

    // Wall-clock ratios are noisy on shared CI runners; FIA_BENCH_NO_ASSERT
    // turns the acceptance bars into report-only metrics there while
    // keeping them enforced for local/dev runs. The JSON is written
    // first either way, so a failed bar never discards the measurements.
    if std::env::var_os("FIA_BENCH_NO_ASSERT").is_none() {
        assert!(
            speedup_8t >= 2.0,
            "batched server speedup {speedup_8t:.2}x at 8 threads is below the 2x acceptance bar"
        );
        assert!(
            warm_speedup >= 2.0,
            "4-replica warm-cache speedup {warm_speedup:.2}x over the single-batcher server \
             is below the 2x acceptance bar"
        );
        assert!(
            telemetry_overhead_frac <= 0.03,
            "telemetry overhead {telemetry_overhead_frac:.4} exceeds the 3% acceptance bar"
        );
    }
}
