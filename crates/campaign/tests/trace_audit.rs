//! Cross-process observability, end to end: a served campaign's merged
//! trace resolves every server-side `serve.request` span to the
//! client-side `campaign.chunk` that caused it, and the server's
//! per-client audit ledger agrees with the client's own `QueryCost`
//! meter — queries, rows, and cache-released rows — by construction.
//! Both shares of the trace stay bounded however many requests a
//! session sends: the server keeps a few trees per latency bucket, and
//! the client keeps the chunk spans those trees name plus a few per
//! chunk-duration bucket.

use fia_campaign::{
    AttackSpec, Campaign, NullObserver, OracleSpec, PartitionSpec, ScenarioSpec, ServedConfig,
};
use fia_data::PaperDataset;
use fia_serve::{KEPT_TREES_PER_BUCKET, SERVER_SPAN_ID_BASE};
use fia_telemetry::{json, Histogram, HISTOGRAM_BUCKETS};
use std::collections::HashSet;

fn served_campaign(seed: u64, cache: usize) -> Campaign {
    let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_oracle(OracleSpec::Served(ServedConfig {
            replicas: 2,
            cache_capacity: cache,
            ..ServedConfig::default()
        }))
        .with_seed(seed)
        .build();
    Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(32)
}

/// Pulls `"key":N` out of a hand-rolled JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn has_name(line: &str, name: &str) -> bool {
    line.contains(&format!("\"name\":\"{name}\""))
}

fn chunk_lines(trace: &str) -> Vec<&str> {
    trace
        .lines()
        .filter(|l| has_name(l, "campaign.chunk"))
        .collect()
}

fn dur_bucket(line: &str) -> usize {
    Histogram::bucket_index(field_u64(line, "dur_us").expect("dur_us"))
}

#[test]
fn merged_trace_resolves_server_requests_to_client_chunks() {
    let mut campaign = served_campaign(67, 512);
    let report = campaign.run(&mut NullObserver).unwrap();
    assert!(report.outcome.is_complete());
    assert!(report.server_trace_jsonl.is_some(), "served run exports");

    let merged = report.merged_trace_jsonl();
    let lines: Vec<&str> = merged.lines().collect();

    // The two id spaces are disjoint: client ids below the server base.
    let client_ids: std::collections::HashSet<u64> = lines
        .iter()
        .filter_map(|l| field_u64(l, "id"))
        .filter(|&id| id < SERVER_SPAN_ID_BASE)
        .collect();
    let chunk_ids: std::collections::HashSet<u64> = lines
        .iter()
        .filter(|l| has_name(l, "campaign.chunk"))
        .filter_map(|l| field_u64(l, "id"))
        .collect();
    assert!(!chunk_ids.is_empty(), "client chunks present");
    assert!(chunk_ids.iter().all(|id| client_ids.contains(id)));

    // Every server `serve.request` span crosses the process boundary:
    // its parent is a client-side chunk span, and it carries the
    // campaign's deterministic trace id.
    let requests: Vec<&&str> = lines
        .iter()
        .filter(|l| has_name(l, "serve.request"))
        .collect();
    assert!(!requests.is_empty(), "server request spans present");
    for req in &requests {
        let id = field_u64(req, "id").unwrap();
        assert!(id >= SERVER_SPAN_ID_BASE, "server span in server id space");
        let parent = field_u64(req, "parent").expect("request has a parent");
        assert!(
            chunk_ids.contains(&parent),
            "serve.request parent {parent} is not a campaign.chunk: {req}"
        );
        assert_eq!(field_u64(req, "trace_id"), Some(report.trace_id));
    }

    // Inside the server the request fans out: dispatch children under
    // requests, and batcher rounds linked to a dispatch span.
    let request_ids: std::collections::HashSet<u64> =
        requests.iter().filter_map(|l| field_u64(l, "id")).collect();
    let dispatch_ids: std::collections::HashSet<u64> = lines
        .iter()
        .filter(|l| has_name(l, "serve.dispatch"))
        .filter_map(|l| field_u64(l, "id"))
        .collect();
    assert!(!dispatch_ids.is_empty(), "dispatch spans present");
    for l in lines.iter().filter(|l| has_name(l, "serve.dispatch")) {
        let parent = field_u64(l, "parent").expect("dispatch has a parent");
        assert!(request_ids.contains(&parent), "dispatch under a request");
    }
    let rounds: Vec<&&str> = lines
        .iter()
        .filter(|l| has_name(l, "serve.round"))
        .collect();
    assert!(!rounds.is_empty(), "round spans present");
    for l in &rounds {
        let parent = field_u64(l, "parent").expect("round has a parent");
        assert!(
            dispatch_ids.contains(&parent),
            "serve.round links to a dispatch span: {l}"
        );
    }
    campaign.shutdown();
}

#[test]
fn rerun_server_trace_stays_bounded_and_linked() {
    // One row per chunk: every row is its own traced request.
    let mut campaign = served_campaign(79, 0).with_chunk(1);
    let first = campaign.run(&mut NullObserver).unwrap();
    let second = campaign.rerun(&mut NullObserver).unwrap();
    let sent = first.cost.queries + second.cost.queries;

    let server = second
        .server_trace_jsonl
        .as_deref()
        .expect("served run exports");
    let requests: Vec<&str> = server
        .lines()
        .filter(|l| has_name(l, "serve.request"))
        .collect();
    // At most K trees per latency bucket and outcome, so fewer than the
    // requests the two runs sent.
    let mut per_pair = [[0usize; HISTOGRAM_BUCKETS]; 2];
    for req in &requests {
        let latency = field_u64(req, "latency_us").expect("latency_us");
        let failed = !req.contains("\"outcome\":\"ok\"");
        per_pair[usize::from(failed)][Histogram::bucket_index(latency)] += 1;
    }
    assert!(per_pair
        .iter()
        .flatten()
        .all(|&n| n <= KEPT_TREES_PER_BUCKET));
    assert!(
        (requests.len() as u64) < sent,
        "{} of {sent} kept",
        requests.len()
    );

    // Every kept request resolves to a chunk of this report's client
    // trace, which spans both runs.
    let chunks: HashSet<u64> = second
        .client_trace_jsonl
        .lines()
        .filter(|l| has_name(l, "campaign.chunk"))
        .filter_map(|l| field_u64(l, "id"))
        .collect();
    for req in &requests {
        let parent = field_u64(req, "parent").expect("request has a parent");
        assert!(chunks.contains(&parent), "unresolved request: {req}");
    }
    campaign.shutdown();
}

#[test]
fn rerun_client_trace_keeps_named_and_recent_chunks() {
    // One row per chunk: every row is its own chunk span.
    let mut campaign = served_campaign(83, 0).with_chunk(1);
    let first = campaign.run(&mut NullObserver).unwrap();
    let second = campaign.rerun(&mut NullObserver).unwrap();
    campaign.shutdown();
    let sent = first.cost.queries + second.cost.queries;

    let server = second
        .server_trace_jsonl
        .as_deref()
        .expect("served run exports");
    let named: HashSet<u64> = server
        .lines()
        .filter(|l| has_name(l, "serve.request"))
        .filter_map(|l| field_u64(l, "parent"))
        .collect();
    let chunks = chunk_lines(&second.client_trace_jsonl);
    let buckets: HashSet<usize> = chunks.iter().map(|l| dur_bucket(l)).collect();
    // The chunks the kept server trees name, plus at most K per
    // duration bucket: fewer than the two runs sent.
    assert!(
        chunks.len() <= named.len() + KEPT_TREES_PER_BUCKET * buckets.len(),
        "{} chunks kept for {} named over {} buckets",
        chunks.len(),
        named.len(),
        buckets.len()
    );
    assert!(
        (chunks.len() as u64) < sent,
        "{} of {sent} chunks kept",
        chunks.len()
    );
    // The second run's last chunk is the last of its bucket, so it
    // always stays.
    let run = second
        .client_trace_jsonl
        .lines()
        .filter(|l| has_name(l, "campaign.run"))
        .filter_map(|l| field_u64(l, "id"))
        .max()
        .expect("run spans stay");
    let last = second.rows_done as u64 - 1;
    assert!(
        chunks
            .iter()
            .any(|l| field_u64(l, "parent") == Some(run) && field_u64(l, "chunk") == Some(last)),
        "the last chunk {last} of run {run} was dropped"
    );
}

#[test]
fn in_process_client_trace_keeps_the_last_chunks_of_each_bucket() {
    let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_seed(89)
        .build();
    let mut campaign = Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(1);
    let report = campaign.run(&mut NullObserver).unwrap();
    let trace = &report.client_trace_jsonl;
    let mut per_bucket = [0usize; HISTOGRAM_BUCKETS];
    for l in chunk_lines(trace) {
        per_bucket[dur_bucket(l)] += 1;
    }
    assert!(
        per_bucket.iter().all(|&n| n <= KEPT_TREES_PER_BUCKET),
        "chunk spans per bucket: {per_bucket:?}"
    );
    assert!(per_bucket.iter().sum::<usize>() < report.rows_done);
    // The newest chunk is the last of its bucket.
    let last = report.rows_done as u64 - 1;
    assert!(chunk_lines(trace)
        .iter()
        .any(|l| field_u64(l, "chunk") == Some(last)));
    // Run and attack spans all stay, and the tracer holds what the
    // report rendered.
    let spans = |name| trace.lines().filter(|l| has_name(l, name)).count();
    assert_eq!((spans("campaign.run"), spans("campaign.attack")), (1, 1));
    assert_eq!(&campaign.trace_jsonl(), trace);
}

#[test]
fn server_trace_lines_survive_every_prefix_and_bit_flip() {
    // The client parses these bytes on every served finalize.
    let mut campaign = served_campaign(97, 0);
    let report = campaign.run(&mut NullObserver).unwrap();
    campaign.shutdown();
    let server = report.server_trace_jsonl.expect("served run exports");
    // One kept line of each span name the server writes.
    let mut names = HashSet::new();
    let lines: Vec<&str> = server
        .lines()
        .filter(|l| {
            let span = json::parse(l).expect("intact lines parse");
            names.insert(span.get("name").and_then(|n| n.as_str()).map(str::to_owned))
        })
        .collect();
    for name in ["serve.request", "serve.dispatch", "serve.round"] {
        assert!(names.contains(&Some(name.to_owned())), "no {name} line");
    }
    let (mut ok, mut refused) = (0usize, 0usize);
    for line in lines {
        let bytes = line.as_bytes();
        // No strict prefix of a one-object line is a whole document.
        for n in 0..bytes.len() {
            if let Ok(prefix) = std::str::from_utf8(&bytes[..n]) {
                assert!(json::parse(prefix).is_err(), "prefix {n} of {line} parsed");
            }
        }
        // A flipped bit gives a value or a ParseError, never a panic.
        let mut flipped = bytes.to_vec();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(text) = std::str::from_utf8(&flipped) {
                match json::parse(text) {
                    Ok(_) => ok += 1,
                    Err(_) => refused += 1,
                }
            }
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
    assert!(ok > 0 && refused > 0, "{ok} parsed, {refused} refused");
}

#[test]
fn server_ledger_cost_matches_client_meter() {
    let mut campaign = served_campaign(71, 4096);
    let report = campaign.run(&mut NullObserver).unwrap();
    let tag = report
        .session_tag
        .clone()
        .expect("served run declares a tag");
    assert!(tag.starts_with("campaign-"), "tag is {tag}");

    let audit = report.server_audit.as_ref().expect("served run audits");
    assert!(audit.n_samples > 0);
    let entry = audit.client(&tag).expect("ledger keyed by session tag");
    assert_eq!(
        entry.cost(),
        report.cost,
        "serving-side ledger must equal the client's spent meter"
    );
    assert_eq!(entry.distinct_rows, report.rows_done as u64);
    assert_eq!(entry.repeat_rows, 0);
    assert_eq!(entry.feature_queries, 0);
    // A full sweep of the aligned sample space is exactly what the
    // ledger exists to flag.
    assert!(entry.flags.contains(&"high-coverage".to_string()));

    // A cache-served repeat pass keeps the two meters in lockstep,
    // including the cached-row axis, and turns the traffic repeat-heavy.
    let second = campaign.rerun(&mut NullObserver).unwrap();
    assert_eq!(second.cost.cached_rows, second.cost.rows);
    let audit2 = second.server_audit.as_ref().unwrap();
    let entry2 = audit2.client(&tag).unwrap();
    let mut combined = report.cost;
    combined.queries += second.cost.queries;
    combined.rows += second.cost.rows;
    combined.cached_rows += second.cost.cached_rows;
    assert_eq!(
        entry2.cost(),
        combined,
        "ledger accumulates across reruns of one session"
    );
    assert_eq!(entry2.repeat_rows, second.cost.rows);
    assert!(entry2.flags.contains(&"repeat-heavy".to_string()));
    campaign.shutdown();
}

#[test]
fn in_process_sessions_have_client_trace_but_no_server_artifacts() {
    let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.005)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_seed(73)
        .build();
    let mut campaign = Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(64);
    let report = campaign.run(&mut NullObserver).unwrap();
    assert!(report.server_trace_jsonl.is_none());
    assert!(report.server_audit.is_none());
    assert!(report.session_tag.is_none());
    assert_eq!(report.merged_trace_jsonl(), report.client_trace_jsonl);
    assert!(report.client_trace_jsonl.contains("campaign.run"));
    assert_ne!(report.trace_id, 0);
    // Same scenario, same seed → same trace id; different seed → different.
    assert_eq!(report.trace_id, campaign.trace_id());
}
