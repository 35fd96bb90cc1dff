//! Over-the-wire scrape of the `MetricsText` op: a live server must
//! answer with well-formed Prometheus-style exposition whose samples
//! agree with the in-process `ServerHandle::metrics` snapshot taken
//! just before it.

use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::{PredictionServer, RemoteOracle, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use std::sync::Arc;

const D: usize = 6;
const C: usize = 3;
const N: usize = 48;

fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 32) as f64
    }
}

fn deployed_lr() -> Arc<VflSystem<LogisticRegression>> {
    let mut next = lcg(0x5C4A9E);
    let w = Matrix::from_fn(D, C, |_, _| next() * 2.0 - 1.0);
    let model = LogisticRegression::from_parameters(w, vec![0.0; C], C);
    let global = Matrix::from_fn(N, D, |_, _| 0.05 + 0.9 * next());
    let partition = VerticalPartition::from_assignments(vec![vec![0, 2, 4], vec![1, 3, 5]], D);
    Arc::new(VflSystem::from_global(model, partition, &global))
}

fn take_sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name) && !l.starts_with('#'))
        .unwrap_or_else(|| panic!("no sample line for {name} in:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|e| panic!("sample for {name} not integral: {e}"))
}

#[test]
fn scrape_is_well_formed_and_agrees_with_the_in_process_snapshot() {
    let server = PredictionServer::spawn(
        deployed_lr(),
        Arc::new(fia_defense::DefensePipeline::new()),
        ServeConfig {
            replicas: 2,
            cache_capacity: 2 * N,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");

    oracle.predict_batch(&[1, 5, 9, 13]).expect("round 1");
    oracle
        .predict_batch(&[1, 5, 9, 13])
        .expect("round 2 (cached)");
    assert!(oracle.predict_batch(&[999]).is_err(), "oob rejected");

    let report = server.metrics();
    let text = oracle.metrics_text().expect("scrape");

    // Structure: every sample's metric name has exactly one TYPE header.
    for name in [
        "fia_serve_requests_total",
        "fia_serve_errors_total",
        "fia_serve_cache_hit_rows_total",
        "fia_serve_cache_miss_rows_total",
        "fia_serve_replica_rounds_total",
        "fia_serve_replica_rows_total",
        "fia_serve_request_duration_us",
        "fia_serve_uptime_seconds",
    ] {
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with(&format!("# TYPE {name} ")))
                .count(),
            1,
            "TYPE header for {name}"
        );
    }

    // Agreement with the in-process report. Every earlier reply was
    // counted before it was sent, and the scrape renders before its own
    // request completes, so the counts are equal.
    assert_eq!(
        take_sample(&text, "fia_serve_requests_total"),
        report.requests
    );
    assert_eq!(take_sample(&text, "fia_serve_errors_total"), report.errors);
    assert_eq!(
        take_sample(&text, "fia_serve_cache_hit_rows_total"),
        report.cache_hits
    );
    assert_eq!(report.cache_hits, 4, "second round was fully cached");
    let rows: u64 = (0..2)
        .map(|i| {
            take_sample(
                &text,
                &format!("fia_serve_replica_rows_total{{replica=\"{i}\"}}"),
            )
        })
        .sum();
    assert_eq!(rows, report.rows);

    // The latency histogram saw every completed request and its +Inf
    // bucket equals its count.
    let count = take_sample(&text, "fia_serve_request_duration_us_count");
    assert_eq!(count, report.requests);
    assert_eq!(
        take_sample(&text, "fia_serve_request_duration_us_bucket{le=\"+Inf\"}"),
        count
    );

    // ServerHandle::metrics_text is the same surface, server-side.
    assert!(server
        .metrics_text()
        .contains("# TYPE fia_serve_requests_total counter"));
    server.shutdown();
}
