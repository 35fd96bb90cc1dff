//! The whole telemetry surface in one run: a served campaign streams
//! its events to a JSONL sink, the session's tracer records a span tree
//! (run → chunks → attacks), and the live prediction server answers a
//! Prometheus-style `MetricsText` scrape that covers serve, campaign
//! and kernel instruments in one exposition. Everything lands under
//! `target/observability/` — the same three artifacts a real deployment
//! would ship to its log pipeline and metrics scraper — plus the merged
//! trace of a one-row-chunk run and its rerun.
//!
//! ```sh
//! cargo run --release --example observability
//! ```

use fia::campaign::{
    AttackSpec, Campaign, EventLog, NullObserver, OracleSpec, PartitionSpec, ScenarioSpec,
    ServedConfig,
};
use fia::data::PaperDataset;
use std::fs;
use std::path::Path;

/// Pulls `"key":N` out of a hand-rolled JSONL span line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Asserts that every server `serve.request` span in a merged trace has
/// the client-side span that caused it as parent (server ids start at
/// `SERVER_SPAN_ID_BASE`), and returns how many such links there are.
fn assert_linked(merged: &str) -> usize {
    let client_ids: std::collections::HashSet<u64> = merged
        .lines()
        .filter_map(|l| field_u64(l, "id"))
        .filter(|&id| id < fia::serve::SERVER_SPAN_ID_BASE)
        .collect();
    let mut cross_links = 0usize;
    for line in merged
        .lines()
        .filter(|l| l.contains("\"name\":\"serve.request\""))
    {
        let parent = field_u64(line, "parent").expect("serve.request has a parent");
        assert!(
            client_ids.contains(&parent),
            "server request span does not resolve to a client span: {line}"
        );
        cross_links += 1;
    }
    assert!(
        cross_links > 0,
        "no cross-process links in the merged trace"
    );
    cross_links
}

fn main() {
    // 1. A served scenario: the campaign spawns a real prediction
    //    server (two replicas, released-score cache) and queries it
    //    over TCP — so the scrape below is a genuine over-the-wire one.
    let spec = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.01)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_seed(42);
    let scenario = spec
        .clone()
        .with_oracle(OracleSpec::Served(ServedConfig {
            replicas: 2,
            cache_capacity: 8192,
            ..ServedConfig::default()
        }))
        .build();
    println!("scenario {}", scenario.fingerprint());

    // 2. Run with an EventLog observer: every Started / ChunkDone /
    //    AttackDone / Finished event is collected, each ChunkDone
    //    carrying the chunk's wall-clock duration and the run's
    //    cumulative elapsed time.
    let mut campaign = Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(64);
    let mut log = EventLog::new();
    let report = campaign.run(&mut log).expect("served campaign");
    println!(
        "campaign {}: {} rows for {} queries, ESA mse {:.3e}",
        report.outcome.name(),
        report.rows_done,
        report.cost.queries,
        report.attack("esa").unwrap().mse
    );

    // 3. The three artifacts.
    let dir = Path::new("target/observability");
    fs::create_dir_all(dir).expect("create target/observability");

    // 3a. The event stream, one JSON object per line.
    let events = log.to_jsonl();
    fs::write(dir.join("campaign_events.jsonl"), &events).expect("write events");

    // 3b. The span trace: a `campaign.run` root, `campaign.chunk`
    //     children (rows, queries, cache-served rows) and one
    //     `campaign.attack` child per attack. Of the chunk spans,
    //     finalize kept those the server's kept `serve.request` trees
    //     name as parent plus the last 16 of each duration bucket.
    let trace = campaign.trace_jsonl();
    fs::write(dir.join("campaign_trace.jsonl"), &trace).expect("write trace");

    // 3c. A live Prometheus-style scrape over the wire. The server
    //     merges its own registry with the process-global one, so one
    //     exposition covers serve counters, campaign counters and the
    //     fia-linalg gemm kernel counters.
    let metrics = campaign.server_metrics_text().expect("served scrape");
    fs::write(dir.join("metrics.txt"), &metrics).expect("write metrics");

    // 3d. The merged distributed trace: client spans followed by server
    //     spans, one id space (server ids start at 1 << 32). Every
    //     server `serve.request` span's parent is the client-side
    //     `campaign.chunk` that caused it — assert that here so the
    //     artifact is known-good before anything downstream reads it.
    let merged = report.merged_trace_jsonl();
    let cross_links = assert_linked(&merged);
    fs::write(dir.join("merged_trace.jsonl"), &merged).expect("write merged trace");

    // 3e. The server's per-client audit ledger: the defender's view of
    //     this campaign's query stream. Its cost must equal the
    //     client's own meter — the parity the ledger is built around.
    let audit = report.server_audit.as_ref().expect("served audit");
    let tag = report.session_tag.as_deref().expect("declared tag");
    let entry = audit.client(tag).expect("ledger entry for this session");
    assert_eq!(entry.cost(), report.cost, "ledger/meter parity");
    let mut audit_txt = format!("# audit ledger — n_samples {}\n", audit.n_samples);
    for c in &audit.clients {
        audit_txt.push_str(&format!(
            "client={} queries={} rows={} cached={} distinct={} repeats={} feature_queries={} rate={:.2}/s flags=[{}]\n",
            c.client,
            c.queries,
            c.rows,
            c.cached_rows,
            c.distinct_rows,
            c.repeat_rows,
            c.feature_queries,
            c.window_rate_rps,
            c.flags.join(","),
        ));
    }
    fs::write(dir.join("audit_ledger.txt"), &audit_txt).expect("write audit");
    println!(
        "merged trace: {} spans, {} cross-process request links; audit: {} ledger entries, flags [{}]",
        merged.lines().count(),
        cross_links,
        audit.clients.len(),
        entry.flags.join(","),
    );

    println!(
        "wrote {} events, {} spans, {} metric samples under target/observability/",
        events.lines().count(),
        trace.lines().count(),
        metrics
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count()
    );
    // The report itself carries the run's telemetry delta, so an
    // archived report is self-describing about what it cost.
    println!(
        "report telemetry delta: {} instruments",
        report.telemetry.entries.len()
    );
    campaign.shutdown();

    // 4. A merged trace where the join matters: one-row chunks and a
    //    rerun send many more chunks than the 16 per duration bucket the
    //    client keeps by itself, so every kept `serve.request` resolves
    //    only because finalize also kept the chunks the server's kept
    //    trees name. The cache is off, so the rerun queries the server.
    let mut rerun = Campaign::new(
        spec.with_oracle(OracleSpec::Served(ServedConfig {
            replicas: 2,
            ..ServedConfig::default()
        }))
        .build(),
    )
    .with_attack(AttackSpec::esa())
    .with_chunk(1);
    rerun.run(&mut NullObserver).expect("one-row-chunk run");
    let second = rerun.rerun(&mut NullObserver).expect("rerun");
    let merged = second.merged_trace_jsonl();
    let links = assert_linked(&merged);
    fs::write(dir.join("merged_trace_rerun.jsonl"), &merged).expect("write rerun trace");
    println!(
        "rerun trace: {} spans, {links} cross-process request links",
        merged.lines().count()
    );
    rerun.shutdown();
}
