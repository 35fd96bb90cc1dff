//! Integration coverage for the serving layer's observability surface:
//! traced wire variants open linked `serve.request` spans on the server,
//! the audit ledger attributes traffic per client (and agrees with each
//! client's own meter), session tags rename ledger entries, and legacy
//! untraced clients stay bit-identical with no span overhead.

use fia_core::{PredictionOracle, TraceContext};
use fia_defense::DefensePipeline;
use fia_linalg::Matrix;
use fia_models::LogisticRegression;
use fia_serve::{PredictionServer, RemoteOracle, ServeConfig, SERVER_SPAN_ID_BASE};
use fia_vfl::{VerticalPartition, VflSystem};
use std::sync::Arc;

const D: usize = 6;
const C: usize = 4;
const N: usize = 40;

fn deployed() -> Arc<VflSystem<LogisticRegression>> {
    let w = Matrix::from_fn(D, C, |i, j| ((i * C + j) as f64).sin());
    let model = LogisticRegression::from_parameters(w, vec![0.0; C], C);
    let global = Matrix::from_fn(N, D, |i, j| 0.05 + 0.9 * (((i * D + j) as f64).cos().abs()));
    let partition = VerticalPartition::from_assignments(vec![vec![0, 1, 2], vec![3, 4, 5]], D);
    Arc::new(VflSystem::from_global(model, partition, &global))
}

fn spawn(cfg: ServeConfig) -> fia_serve::ServerHandle {
    PredictionServer::spawn(deployed(), Arc::new(DefensePipeline::new()), cfg).expect("bind")
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn traced_queries_open_linked_request_spans() {
    let server = spawn(ServeConfig {
        replicas: 2,
        cache_capacity: 64,
        ..ServeConfig::default()
    });
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");

    // Untraced traffic must not open spans.
    oracle.predict_batch(&[0, 1]).expect("legacy predict");
    assert!(server.trace_jsonl().is_empty(), "legacy ops stay span-free");

    oracle.set_trace_context(Some(TraceContext {
        trace_id: 0xA11CE,
        parent_span: 42,
    }));
    oracle.predict_batch(&[0, 1, 2]).expect("traced predict");
    oracle.predict_batch(&[0, 1]).expect("traced cache hit");
    let slices = vec![Matrix::zeros(2, 3), Matrix::zeros(2, 3)];
    oracle.predict_features(&slices).expect("traced features");
    oracle.set_trace_context(None);
    oracle.predict_batch(&[3]).expect("untraced again");

    // The span export travels over the wire too (TraceExport op).
    let jsonl = oracle.server_trace_jsonl().expect("trace export");
    assert_eq!(jsonl, server.trace_jsonl());

    let requests: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.contains("\"name\":\"serve.request\""))
        .collect();
    // Exactly the three traced queries; the bracketing untraced ones
    // left no spans.
    assert_eq!(requests.len(), 3, "{jsonl}");
    for req in &requests {
        assert_eq!(field_u64(req, "parent"), Some(42));
        assert_eq!(field_u64(req, "trace_id"), Some(0xA11CE));
        assert!(field_u64(req, "id").unwrap() >= SERVER_SPAN_ID_BASE);
        assert!(req.contains("\"outcome\":\"ok\""));
    }
    let ops: Vec<&str> = requests
        .iter()
        .filter_map(|l| {
            let at = l.find("\"op\":\"")? + 6;
            l[at..].split('"').next()
        })
        .collect();
    assert_eq!(
        ops,
        ["predict_by_index", "predict_by_index", "predict_features"]
    );

    // The fully-cached second predict recorded its cache hits and did
    // not dispatch: rows 0+1 were warmed by the first traced query.
    assert!(jsonl.contains("\"cached_rows\":2"), "{jsonl}");
    assert!(jsonl.contains("\"name\":\"serve.cache\""));
    assert!(jsonl.contains("\"name\":\"serve.dispatch\""));
    server.shutdown();
}

#[test]
fn rejected_traced_requests_record_the_outcome() {
    // One traced request per answer path, each on a fresh server. Its
    // span is read from `server.trace_jsonl()` right after the reply,
    // with no wait: the reactor finishes a request's span before it
    // stages the response.
    type Query = fn(&mut RemoteOracle) -> bool;
    // (input, rows fetched untraced first, traced query, answered, span
    // fields besides the outcome)
    type Case = (
        &'static str,
        &'static [usize],
        Query,
        bool,
        &'static [&'static str],
    );
    let cases: [Case; 4] = [
        (
            "out-of-range index",
            &[],
            |o| o.predict_batch(&[N]).is_ok(),
            false,
            &["\"op\":\"predict_by_index\""],
        ),
        (
            "missing party block",
            &[],
            |o| o.predict_features(&[Matrix::zeros(1, 3)]).is_ok(),
            false,
            &["\"op\":\"predict_features\""],
        ),
        (
            "dispatched round",
            &[],
            |o| o.predict_batch(&[0, 1]).is_ok(),
            true,
            &[],
        ),
        (
            "fully cache-served",
            &[0, 1],
            |o| o.predict_batch(&[0, 1]).is_ok(),
            true,
            &["\"cached_rows\":2"],
        ),
    ];
    for (what, warm, query, answered, fields) in cases {
        let server = spawn(ServeConfig {
            cache_capacity: N,
            ..ServeConfig::default()
        });
        let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
        if !warm.is_empty() {
            oracle.predict_batch(warm).expect("warm the cache");
        }
        oracle.set_trace_context(Some(TraceContext {
            trace_id: 7,
            parent_span: 9,
        }));
        assert_eq!(query(&mut oracle), answered, "{what}: answered");
        let jsonl = server.trace_jsonl();
        let spans: Vec<&str> = jsonl
            .lines()
            .filter(|l| l.contains("\"name\":\"serve.request\""))
            .collect();
        assert_eq!(spans.len(), 1, "{what}: request still traced: {jsonl}");
        let outcome = if answered {
            "\"outcome\":\"ok\""
        } else {
            "\"outcome\":\"rejected\""
        };
        for field in [outcome].iter().chain(fields) {
            assert!(spans[0].contains(field), "{what}: {}", spans[0]);
        }

        let audit = oracle.audit_report().expect("audit");
        if answered {
            // The answered query is ledgered after the untraced warm-up.
            let queries: u64 = audit.clients.iter().map(|c| c.queries).sum();
            let expected = 1 + u64::from(!warm.is_empty());
            assert_eq!(queries, expected, "{what}: {audit:?}");
        } else {
            // Rejections (all unwarmed) never reach the audit ledger.
            assert!(audit.clients.is_empty(), "{what}: {audit:?}");
        }
        server.shutdown();
    }
}

#[test]
fn audit_ledger_attributes_per_client_and_matches_their_meters() {
    let server = spawn(ServeConfig {
        replicas: 2,
        cache_capacity: 2 * N,
        ..ServeConfig::default()
    });

    // Client A: declares a session tag, sweeps most of the sample space
    // and re-queries rows (cache-exploiting probe shape).
    let mut probe = RemoteOracle::connect(server.addr()).expect("connect");
    probe.declare_session("probe-7").expect("declare");
    let sweep: Vec<usize> = (0..N).collect();
    probe.predict_batch(&sweep).expect("sweep");
    probe.predict_batch(&sweep[..10]).expect("repeat");
    probe.predict_batch(&[]).expect("empty still a query");

    // Client B: anonymous, ad-hoc feature traffic only.
    let mut casual = RemoteOracle::connect(server.addr()).expect("connect");
    let slices = vec![Matrix::zeros(3, 3), Matrix::zeros(3, 3)];
    casual.predict_features(&slices).expect("features");

    let audit = casual.audit_report().expect("audit");
    assert_eq!(audit.n_samples, N as u64);
    assert_eq!(audit.clients.len(), 2, "{audit:?}");

    let p = audit.client("probe-7").expect("tagged entry");
    assert_eq!(p.cost(), probe.query_cost(), "ledger == client meter");
    assert_eq!(p.queries, 3);
    assert_eq!(p.rows, (N + 10) as u64);
    assert_eq!(p.cached_rows, 10);
    assert_eq!(p.distinct_rows, N as u64);
    assert_eq!(p.repeat_rows, 10);
    assert!((p.coverage(N) - 1.0).abs() < 1e-12);
    assert!(p.flags.contains(&"high-coverage".to_string()));

    // The anonymous client keyed under its connection label.
    let anon = audit
        .clients
        .iter()
        .find(|c| c.client.starts_with("conn-"))
        .expect("anonymous entry");
    assert_eq!(anon.cost(), casual.query_cost());
    assert_eq!(anon.feature_queries, 1);
    assert_eq!(anon.rows, 3);
    assert_eq!(anon.distinct_rows, 0);

    // The per-client mirror series are scrapeable via MetricsText.
    let text = probe.metrics_text().expect("scrape");
    assert!(
        text.contains("fia_serve_client_queries_total{client=\"probe-7\"} 3"),
        "{text}"
    );
    assert!(text.contains("fia_serve_client_window_rate_rps{client=\"probe-7\"}"));
    server.shutdown();
}

#[test]
fn session_tag_splits_ledger_entries_and_empty_tag_reverts() {
    let server = spawn(ServeConfig::default());
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    oracle.predict_batch(&[0]).expect("as conn label");
    oracle.declare_session("alice").expect("declare");
    oracle.predict_batch(&[1, 2]).expect("as alice");
    oracle.declare_session("").expect("revert");
    oracle.predict_batch(&[3]).expect("as conn label again");

    let audit = oracle.audit_report().expect("audit");
    let alice = audit.client("alice").expect("tagged rows");
    assert_eq!(alice.rows, 2);
    let conn = audit
        .clients
        .iter()
        .find(|c| c.client.starts_with("conn-"))
        .expect("connection-labeled rows");
    assert_eq!(conn.rows, 2);
    assert_eq!(conn.queries, 2);
    // Combined, the ledger accounts for the client's whole meter.
    assert_eq!(
        alice.rows + conn.rows,
        oracle.query_cost().rows,
        "no rows lost across relabeling"
    );
    server.shutdown();
}

#[test]
fn audit_can_be_disabled_per_server() {
    let server = spawn(ServeConfig {
        audit: false,
        ..ServeConfig::default()
    });
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    oracle.declare_session("ghost").expect("tag still accepted");
    oracle.predict_batch(&[0, 1]).expect("predict");
    let audit = oracle.audit_report().expect("op still answers");
    assert_eq!(audit.n_samples, N as u64);
    assert!(audit.clients.is_empty(), "no ledger kept: {audit:?}");
    let text = oracle.metrics_text().expect("scrape");
    assert!(!text.contains("fia_serve_client_queries_total"));
    server.shutdown();
}
