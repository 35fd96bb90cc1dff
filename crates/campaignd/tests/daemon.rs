//! In-process daemon integration: submit/status/attach/cancel/report
//! over real sockets, concurrent jobs over shared deployments, and
//! graceful suspend/resume.

use fia_campaign::{Campaign, CampaignEvent, NullObserver};
use fia_campaignd::{
    start, CampaignClient, DaemonConfig, JobAttack, JobDefense, JobModel, JobOracle, JobOutcome,
    JobSpec,
};
use fia_data::PaperDataset;
use fia_serve::wire::{
    decode_response, encode_request, read_frame, write_frame, Request, Response,
};
use fia_serve::JobState;
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn state_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fia-campaignd-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_spec(seed: u64) -> JobSpec {
    JobSpec {
        dataset: PaperDataset::CreditCard,
        scale: 0.005,
        target_fraction: 0.3,
        seed,
        model: JobModel::Logistic,
        defense: JobDefense::None,
        attacks: vec![JobAttack::Esa],
        max_queries: None,
        max_rows: None,
        chunk: 8,
        oracle: JobOracle::InProcess,
        throttle_ms: 0,
    }
}

/// The daemon's answer for a job must equal an uninterrupted in-process
/// campaign run of the same spec, bit for bit.
fn reference_outcome(spec: &JobSpec) -> JobOutcome {
    let mut campaign = Campaign::new(spec.to_scenario().build())
        .with_attacks(spec.attack_specs())
        .with_budget(spec.budget())
        .with_chunk(spec.chunk as usize);
    let report = campaign.run(&mut NullObserver).unwrap();
    JobOutcome::from_report(&report)
}

#[test]
fn submitted_job_completes_and_matches_in_process_run() {
    let dir = state_dir("single");
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    client.ping().unwrap();

    let spec = small_spec(3);
    let id = client.submit(&spec).unwrap();
    let row = client.wait_terminal(id, Duration::from_secs(60)).unwrap();
    assert_eq!(row.state, JobState::Completed, "detail: {}", row.detail);
    assert_eq!(row.rows_done, row.rows_planned);
    assert!(row.events >= 2, "expected started + finished events");

    let outcome = client.report(id).unwrap();
    assert_eq!(outcome.to_blob(), reference_outcome(&spec).to_blob());

    // The job table carries the row, and metrics count the job.
    let table = client.list().unwrap();
    assert_eq!(table.len(), 1);
    assert_eq!(table[0].id, id);
    let metrics = client.metrics_text().unwrap();
    assert!(metrics.contains("fia_campaignd_jobs_total"));

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn eight_concurrent_jobs_share_two_deployments_with_gapless_streams() {
    let dir = state_dir("fleet");
    let mut config = DaemonConfig::new(&dir);
    config.workers = 4;
    let daemon = start(config).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();

    // Two scenario groups (two fingerprints, two shared deployments),
    // four jobs each. Shared-oracle jobs all query one spawned server
    // per group.
    let group_spec = |seed: u64| {
        let mut s = small_spec(seed);
        s.oracle = JobOracle::Shared {
            replicas: 1,
            cache_capacity: 0,
        };
        s.throttle_ms = 10;
        s
    };
    let spec_a = group_spec(11);
    let spec_b = group_spec(22);
    let mut ids = Vec::new();
    for i in 0..8 {
        let spec = if i % 2 == 0 { &spec_a } else { &spec_b };
        ids.push(client.submit(spec).unwrap());
    }

    // Attach mid-run from sequence 0 on a second connection: the replay
    // plus the live tail must be gapless.
    let attach_id = ids[0];
    let addr = daemon.addr();
    let streamer = std::thread::spawn(move || {
        let mut c = CampaignClient::connect(addr).unwrap();
        let mut seqs = Vec::new();
        let next = c
            .attach(attach_id, 0, |seq, json| {
                assert!(json.contains("\"event\""));
                seqs.push(seq);
            })
            .unwrap();
        (seqs, next)
    });

    let mut rows = Vec::new();
    for &id in &ids {
        let row = client.wait_terminal(id, Duration::from_secs(120)).unwrap();
        assert_eq!(row.state, JobState::Completed, "detail: {}", row.detail);
        rows.push(row);
    }

    let (seqs, next) = streamer.join().unwrap();
    let expected: Vec<u64> = (0..next).collect();
    assert_eq!(seqs, expected, "attached stream must be gapless from 0");
    assert_eq!(
        next,
        client.status(attach_id).unwrap().events,
        "stream end must agree with the job row's event count"
    );

    // Same fingerprint within a group; different across groups.
    let fp_a = &rows[0].fingerprint;
    let fp_b = &rows[1].fingerprint;
    assert_ne!(fp_a, fp_b);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(&row.fingerprint, if i % 2 == 0 { fp_a } else { fp_b });
    }

    // Determinism across tenants: every job in a group produced the
    // bit-identical outcome blob.
    let blob_a = client.report(ids[0]).unwrap().to_blob();
    let blob_b = client.report(ids[1]).unwrap().to_blob();
    assert_ne!(blob_a, blob_b);
    for (i, &id) in ids.iter().enumerate() {
        let blob = client.report(id).unwrap().to_blob();
        assert_eq!(&blob, if i % 2 == 0 { &blob_a } else { &blob_b });
    }

    // A later attach with from_seq resumes exactly where it left off.
    let total = client.status(attach_id).unwrap().events;
    let mut tail = Vec::new();
    let next = client
        .attach(attach_id, total - 2, |seq, _| tail.push(seq))
        .unwrap();
    assert_eq!(tail, vec![total - 2, total - 1]);
    assert_eq!(next, total);

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cancel_and_budget_exhaustion_are_typed_ends() {
    let dir = state_dir("ends");
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();

    // A slow job canceled mid-run turns Canceled, and its report op is
    // a typed rejection.
    let mut slow = small_spec(5);
    slow.throttle_ms = 200;
    let id = client.submit(&slow).unwrap();
    loop {
        let row = client.status(id).unwrap();
        if row.chunks_done >= 1 || row.state.is_terminal() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    client.cancel(id).unwrap();
    let row = client.wait_terminal(id, Duration::from_secs(60)).unwrap();
    assert_eq!(row.state, JobState::Canceled);
    assert!(client.report(id).is_err());

    // A budget-capped job still completes, with a partial outcome.
    let mut capped = small_spec(6);
    capped.max_rows = Some(12);
    let id = client.submit(&capped).unwrap();
    let row = client.wait_terminal(id, Duration::from_secs(60)).unwrap();
    assert_eq!(row.state, JobState::Completed, "detail: {}", row.detail);
    let outcome = client.report(id).unwrap();
    assert!(!outcome.complete);
    assert_eq!(outcome.rows_done, 12);
    assert_eq!(outcome.to_blob(), reference_outcome(&capped).to_blob());

    // Unknown ids and malformed specs are typed rejections.
    assert!(client.status(999).is_err());
    let mut bad = small_spec(7);
    bad.chunk = 0;
    assert!(client.submit(&bad).is_err());

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn graceful_shutdown_suspends_and_restart_resumes() {
    let dir = state_dir("suspend");
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();

    let mut spec = small_spec(9);
    spec.throttle_ms = 100;
    let id = client.submit(&spec).unwrap();
    wait_for_chunks(&mut client, id, 1);
    daemon.shutdown();

    // Restart over the same state directory: the job resumes from its
    // checkpoint and finishes with the uninterrupted answer.
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    let row = client.wait_terminal(id, Duration::from_secs(60)).unwrap();
    assert_eq!(row.state, JobState::Completed, "detail: {}", row.detail);
    assert!(row.resumes >= 1, "expected a checkpoint resume");
    let outcome = client.report(id).unwrap();
    assert_eq!(outcome.to_blob(), reference_outcome(&spec).to_blob());

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Clients attached when the daemon shuts down gracefully receive their
/// stream and its `JobEventsEnd`, not a closed connection: on a running
/// job, up to the suspend at its next chunk boundary, which comes after
/// shutdown began; on a job still queued, at once. A restart resumes
/// both jobs.
#[test]
fn graceful_shutdown_ends_attached_streams() {
    let dir = state_dir("shutdown-attach");
    let mut config = DaemonConfig::new(&dir);
    config.workers = 1;
    let daemon = start(config.clone()).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    let mut spec = small_spec(19);
    spec.throttle_ms = 100;
    let running = client.submit(&spec).unwrap();
    let queued = client.submit(&spec).unwrap();

    let addr = daemon.addr();
    let (first_tx, first_rx) = std::sync::mpsc::channel();
    let streamer = std::thread::spawn(move || {
        let mut c = CampaignClient::connect(addr).unwrap();
        let mut seqs = Vec::new();
        let end = c.attach(running, 0, |seq, _| {
            if seqs.is_empty() {
                first_tx.send(()).unwrap();
            }
            seqs.push(seq);
        });
        (seqs, end)
    });
    first_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("no event arrived before shutdown");
    // Requests on one connection are served in order, so the `Pong`
    // shows the attach to the queued job is in place.
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut call = |req: &Request| write_frame(&mut raw, &encode_request(req).unwrap()).unwrap();
    call(&Request::JobAttach {
        id: queued,
        from_seq: 0,
    });
    call(&Request::Ping);
    let mut next = || decode_response(&read_frame(&mut raw).unwrap().expect("closed")).unwrap();
    assert_eq!(next(), Response::Pong);
    daemon.shutdown();

    assert_eq!(
        next(),
        Response::JobEventsEnd {
            id: queued,
            next_seq: 0
        }
    );
    let (seqs, end) = streamer.join().unwrap();
    let next_seq = end.expect("the stream must end with JobEventsEnd");
    assert_eq!(
        seqs,
        (0..next_seq).collect::<Vec<_>>(),
        "gap or stray event"
    );

    let daemon = start(config).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    let reference = reference_outcome(&spec).to_blob();
    for id in [running, queued] {
        let row = client.wait_terminal(id, Duration::from_secs(60)).unwrap();
        assert_eq!(row.state, JobState::Completed, "detail: {}", row.detail);
        assert_eq!(client.report(id).unwrap().to_blob(), reference);
    }

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A client that attaches to a running job and then half-closes its
/// socket still gets the whole stream: the daemon stops reading from it
/// but closes it only after the stream's `JobEventsEnd`.
#[test]
fn half_closed_attach_streams_every_event_and_the_end() {
    let dir = state_dir("half-close");
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    let mut spec = small_spec(17);
    spec.throttle_ms = 50;
    let id = client.submit(&spec).unwrap();
    wait_for_chunks(&mut client, id, 1);

    let mut raw = TcpStream::connect(daemon.addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let attach = encode_request(&Request::JobAttach { id, from_seq: 0 }).unwrap();
    write_frame(&mut raw, &attach).unwrap();
    raw.shutdown(Shutdown::Write).unwrap();
    let mut frames = Vec::new();
    while let Some(frame) = read_frame(&mut raw).unwrap() {
        frames.push(decode_response(&frame).expect("every frame decodes"));
    }

    let (last, events) = frames.split_last().expect("the stream sent nothing");
    for (n, frame) in events.iter().enumerate() {
        match frame {
            Response::JobEvent { id: job, seq, .. } => {
                assert_eq!((*job, *seq), (id, n as u64), "gap or stray event")
            }
            other => panic!("frame {n} is not an event: {other:?}"),
        }
    }
    assert_eq!(
        *last,
        Response::JobEventsEnd {
            id,
            next_seq: events.len() as u64
        }
    );
    assert!(events.len() >= 2, "expected started + finished events");

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Polls job `id` until it has issued at least `chunks` chunks.
fn wait_for_chunks(client: &mut CampaignClient, id: u64, chunks: u64) {
    loop {
        let row = client.status(id).unwrap();
        if row.chunks_done >= chunks {
            return;
        }
        assert!(!row.state.is_terminal(), "job ended before suspend");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn torn_log_tail_does_not_hide_checkpoints_written_after_restart() {
    let dir = state_dir("torn");
    let mut spec = small_spec(13);
    spec.throttle_ms = 100;

    // Run 1 makes a chunk durable and suspends; then a crash mid-append
    // leaves a torn frame at the tail of the job log.
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    let id = client.submit(&spec).unwrap();
    wait_for_chunks(&mut client, id, 1);
    daemon.shutdown();
    let log = dir.join("jobs").join(id.to_string()).join("job.log");
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new().append(true).open(&log).unwrap();
        f.write_all(&fia_campaignd::wal::LOG_MAGIC.to_le_bytes())
            .unwrap();
        f.write_all(&4096u32.to_le_bytes()).unwrap();
        f.write_all(b"half a frame").unwrap();
    }

    // Run 2 resumes and makes more chunks durable; run 3 must resume
    // from there, not from before the tear.
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    wait_for_chunks(&mut client, id, 3);
    daemon.shutdown();
    let daemon = start(DaemonConfig::new(&dir)).unwrap();
    let mut client = CampaignClient::connect(daemon.addr()).unwrap();
    let row = client.wait_terminal(id, Duration::from_secs(60)).unwrap();
    assert_eq!(row.state, JobState::Completed, "detail: {}", row.detail);
    assert_eq!(
        client.report(id).unwrap().to_blob(),
        reference_outcome(&spec).to_blob()
    );

    // Every resume starts exactly where the chunks observers saw before
    // it ended: a `Started` event carries the last `ChunkDone`'s cursor.
    let mut lines = Vec::new();
    client
        .attach(id, 0, |_, json| lines.push(json.to_string()))
        .unwrap();
    let mut starts = 0;
    let mut seen = 0;
    for line in &lines {
        match CampaignEvent::from_json(line).unwrap() {
            CampaignEvent::Started { rows_done, .. } => {
                assert_eq!(rows_done, seen, "resume {starts} went back in the log");
                starts += 1;
            }
            CampaignEvent::ChunkDone { rows_done, .. } => seen = rows_done,
            _ => {}
        }
    }
    assert!(starts >= 3, "expected three runs of the job, saw {starts}");

    daemon.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
