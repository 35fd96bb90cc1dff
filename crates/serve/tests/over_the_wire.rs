//! End-to-end integration: start the prediction service in-process on an
//! ephemeral port and replay the paper's attacks against it over the
//! wire. Because the codec carries confidence scores bit-exactly, every
//! remote replay must reproduce the in-process `AttackEngine` result —
//! the acceptance bar is per-feature-MSE agreement within 1e-9.

use fia_core::{
    accumulate_batch, metrics::mse_per_feature, run_over_oracle, AttackEngine,
    EqualitySolvingAttack, Grna, GrnaConfig, PathRestrictionAttack, PredictionOracle, QueryBatch,
};
use fia_data::{make_classification, normalize_dataset, SynthConfig};
use fia_defense::{DefensePipeline, RoundingDefense};
use fia_linalg::Matrix;
use fia_models::{DecisionTree, LogisticRegression, TreeConfig};
use fia_serve::wire::MAX_FRAME_LEN;
use fia_serve::{ClientError, LoadConfig, PredictionServer, RemoteOracle, ServeConfig};
use fia_vfl::{VerticalPartition, VflSystem};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

/// Deterministic pseudo-random stream (splitmix-flavoured LCG) so the
/// fixture needs no shared global state.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 32) as f64
    }
}

const D: usize = 8;
const C: usize = 5;
const N: usize = 72;
const ADV: [usize; 4] = [0, 2, 4, 6];
const TARGET: [usize; 4] = [1, 3, 5, 7];

/// A deployed multiclass LR system where ESA recovery is exact
/// (`d_target = 4 = c − 1`), plus the global prediction matrix.
fn deployed_lr() -> (Arc<VflSystem<LogisticRegression>>, Matrix) {
    let mut next = lcg(0xFEED5EED);
    let w = Matrix::from_fn(D, C, |_, _| next() * 2.0 - 1.0);
    let model = LogisticRegression::from_parameters(w, vec![0.0; C], C);
    let global = Matrix::from_fn(N, D, |_, _| 0.05 + 0.9 * next());
    let partition = VerticalPartition::from_assignments(vec![ADV.to_vec(), TARGET.to_vec()], D);
    let system = Arc::new(VflSystem::from_global(model, partition, &global));
    (system, global)
}

fn identity_defense() -> Arc<DefensePipeline> {
    Arc::new(DefensePipeline::new())
}

#[test]
fn esa_over_the_wire_matches_in_process_engine() {
    let (system, global) = deployed_lr();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig::default(),
    )
    .expect("bind ephemeral port");

    let indices: Vec<usize> = (0..N).collect();
    let x_adv = global.select_columns(&ADV).unwrap();
    let truth = global.select_columns(&TARGET).unwrap();
    let attack = EqualitySolvingAttack::new(system.model(), &ADV, &TARGET);
    let engine = AttackEngine::new();

    // In-process reference: the same engine over the same deployment.
    let local = engine.run(
        &attack,
        &QueryBatch::new(x_adv.clone(), system.predict_batch(&indices)),
    );
    let local_mse = local.mse_against(&truth);

    // Over the wire, accumulated across several prediction rounds.
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let remote = run_over_oracle(&engine, &attack, &mut oracle, &x_adv, &indices, 16)
        .expect("remote replay");
    let remote_mse = remote.mse_against(&truth);

    assert!(
        (local_mse - remote_mse).abs() < 1e-9,
        "per-feature MSE diverged: local {local_mse} vs wire {remote_mse}"
    );
    assert!(
        local.estimates.max_abs_diff(&remote.estimates).unwrap() < 1e-12,
        "estimates must be reproduced bit-for-bit up to fp noise"
    );
    // Exact-recovery regime: both must actually succeed, not agree on
    // garbage.
    assert!(
        remote_mse < 1e-8,
        "wire ESA should be exact, got {remote_mse}"
    );
    server.shutdown();
}

#[test]
fn grna_over_the_wire_matches_in_process() {
    let (system, global) = deployed_lr();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig::default(),
    )
    .expect("bind ephemeral port");

    let indices: Vec<usize> = (0..N).collect();
    let x_adv = global.select_columns(&ADV).unwrap();
    let mut cfg = GrnaConfig::fast().with_seed(11);
    cfg.hidden = vec![16, 8];
    cfg.epochs = 6;

    // Remote corpus, chunked like a long-term observation campaign.
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let wire_batch = accumulate_batch(&mut oracle, &x_adv, &indices, 9).expect("accumulate");

    // Identical training data (the wire is bit-exact) + identical seed
    // ⇒ identical generator ⇒ identical estimates.
    let local_batch = QueryBatch::new(x_adv.clone(), system.predict_batch(&indices));
    assert_eq!(local_batch.confidences, wire_batch.confidences);

    let grna = Grna::new(system.model(), &ADV, &TARGET, cfg);
    let engine = AttackEngine::new();
    let local = engine.run(
        &grna
            .train(&local_batch.x_adv, &local_batch.confidences)
            .with_infer_seed(3),
        &local_batch,
    );
    let remote = engine.run(
        &grna
            .train(&wire_batch.x_adv, &wire_batch.confidences)
            .with_infer_seed(3),
        &wire_batch,
    );
    assert!(local.estimates.max_abs_diff(&remote.estimates).unwrap() < 1e-12);
    server.shutdown();
}

#[test]
fn pra_over_the_wire_matches_in_process() {
    // Decision-tree deployment: one-hot confidences, path restriction.
    let synth = SynthConfig {
        n_samples: 160,
        n_features: D,
        n_informative: 6,
        n_redundant: 1,
        n_classes: 3,
        class_sep: 1.5,
        redundant_noise: 0.2,
        flip_y: 0.0,
        shuffle_features: false,
        seed: 23,
    };
    let ds = normalize_dataset(&make_classification(&synth)).0;
    let mut rng = StdRng::seed_from_u64(23);
    let tree = DecisionTree::fit(&ds, &TreeConfig::paper_dt(), &mut rng);
    let attack_tree = tree.clone();
    let partition = VerticalPartition::from_assignments(vec![ADV.to_vec(), TARGET.to_vec()], D);
    let system = Arc::new(VflSystem::from_global(tree, partition, &ds.features));

    // Tree deployments shard like any other: run this parity check
    // through a 3-replica pool with the cache on, not the single
    // batcher — released one-hot confidences must survive both.
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig {
            replicas: 3,
            cache_capacity: 256,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");

    let n = system.n_samples();
    let indices: Vec<usize> = (0..n).collect();
    let x_adv = ds.features.select_columns(&ADV).unwrap();
    let attack = PathRestrictionAttack::new(&attack_tree, &ADV, &TARGET);
    let engine = AttackEngine::new();

    let local = engine.run(
        &attack,
        &QueryBatch::new(x_adv.clone(), system.predict_batch(&indices)),
    );
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let remote =
        run_over_oracle(&engine, &attack, &mut oracle, &x_adv, &indices, 25).expect("replay");
    assert_eq!(local.estimates, remote.estimates);
    assert_eq!(local.degraded_rows, remote.degraded_rows);
    server.shutdown();
}

#[test]
fn esa_and_grna_through_pool_and_cache_match_in_process() {
    // The acceptance bar for the pool rework: with 4 replicas sharding
    // the stored prediction set and a warm released-score cache, attack
    // replays over the wire must still pin the in-process engine within
    // 1e-9 — sharding and caching change where rounds run, never what
    // is released.
    let (system, global) = deployed_lr();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig {
            replicas: 4,
            cache_capacity: 2 * N,
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral port");

    let indices: Vec<usize> = (0..N).collect();
    let x_adv = global.select_columns(&ADV).unwrap();
    let truth = global.select_columns(&TARGET).unwrap();
    let engine = AttackEngine::new();

    // ESA, cold (populates the cache through all four shards).
    let esa = EqualitySolvingAttack::new(system.model(), &ADV, &TARGET);
    let local = engine.run(
        &esa,
        &QueryBatch::new(x_adv.clone(), system.predict_batch(&indices)),
    );
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let cold =
        run_over_oracle(&engine, &esa, &mut oracle, &x_adv, &indices, 13).expect("cold replay");
    assert!(
        (local.mse_against(&truth) - cold.mse_against(&truth)).abs() < 1e-9,
        "pooled ESA diverged from the in-process engine"
    );
    assert!(local.estimates.max_abs_diff(&cold.estimates).unwrap() < 1e-12);

    // ESA, warm (every row served from the cache) on a fresh connection.
    let mut warm_oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let warm = run_over_oracle(&engine, &esa, &mut warm_oracle, &x_adv, &indices, 20)
        .expect("warm replay");
    assert_eq!(warm_oracle.query_cost().cached_rows, N as u64);
    assert!(local.estimates.max_abs_diff(&warm.estimates).unwrap() < 1e-12);

    // GRNA on the warm corpus: bit-exact training data + same seed ⇒
    // identical generator ⇒ identical estimates.
    let wire_batch = accumulate_batch(&mut warm_oracle, &x_adv, &indices, 7).expect("accumulate");
    let local_batch = QueryBatch::new(x_adv.clone(), system.predict_batch(&indices));
    assert_eq!(local_batch.confidences, wire_batch.confidences);
    let mut cfg = GrnaConfig::fast().with_seed(5);
    cfg.hidden = vec![12, 6];
    cfg.epochs = 4;
    let grna = Grna::new(system.model(), &ADV, &TARGET, cfg);
    let local_g = engine.run(
        &grna
            .train(&local_batch.x_adv, &local_batch.confidences)
            .with_infer_seed(2),
        &local_batch,
    );
    let remote_g = engine.run(
        &grna
            .train(&wire_batch.x_adv, &wire_batch.confidences)
            .with_infer_seed(2),
        &wire_batch,
    );
    assert!(local_g.estimates.max_abs_diff(&remote_g.estimates).unwrap() < 1e-12);

    // The shard routing actually spread the cold campaign: every
    // replica ran rounds, and the totals reconcile.
    let m = server.metrics();
    assert_eq!(m.replica_rounds.len(), 4);
    assert!(
        m.replica_rounds.iter().all(|&r| r > 0),
        "a shard never saw traffic: {:?}",
        m.replica_rounds
    );
    assert_eq!(m.replica_rows.iter().sum::<u64>(), m.rows);
    server.shutdown();
}

#[test]
fn pooled_concurrent_clients_spread_over_replicas_and_get_their_own_rows() {
    let (system, _) = deployed_lr();
    let config = ServeConfig {
        replicas: 3,
        batch_cap: 16,
        batch_deadline: Duration::from_millis(1),
        round_cost: Duration::from_millis(1),
        cache_capacity: 0, // pure dispatch path
        ..ServeConfig::default()
    };
    let server =
        PredictionServer::spawn(Arc::clone(&system), identity_defense(), config).expect("bind");
    let addr = server.addr();

    let workers: Vec<_> = (0..6)
        .map(|worker| {
            let system = Arc::clone(&system);
            std::thread::spawn(move || {
                let mut oracle = RemoteOracle::connect(addr).expect("connect");
                let mut next = lcg(worker * 7919 + 1);
                for round in 0..8 {
                    if round % 2 == 0 {
                        // Stored-index query spanning all three shards.
                        let indices: Vec<usize> =
                            (0..6).map(|_| (next() * N as f64) as usize % N).collect();
                        let wire = oracle.predict_batch(&indices).expect("predict");
                        let local = system.predict_batch(&indices);
                        assert_eq!(wire, local, "worker {worker} round {round} misrouted");
                    } else {
                        // Ad-hoc query (least-loaded routing).
                        let rows = 1 + round % 3;
                        let slices = vec![
                            Matrix::from_fn(rows, ADV.len(), |_, _| next()),
                            Matrix::from_fn(rows, TARGET.len(), |_, _| next()),
                        ];
                        let wire = oracle.predict_features(&slices).expect("predict");
                        let local = system.predict_features_batch(&slices);
                        assert_eq!(wire, local, "worker {worker} round {round} misrouted");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }

    let m = server.metrics();
    assert_eq!(m.errors, 0);
    assert!(m.requests >= 48, "all requests served, got {}", m.requests);
    assert_eq!(m.replica_rounds.len(), 3);
    assert!(
        m.replica_rounds.iter().filter(|&&r| r > 0).count() >= 2,
        "traffic never spread past one replica: {:?}",
        m.replica_rounds
    );
    assert_eq!(m.replica_rows.iter().sum::<u64>(), m.rows);
    server.shutdown();
}

#[test]
fn defense_pipeline_applies_at_the_release_boundary() {
    let (system, global) = deployed_lr();
    let defense = Arc::new(DefensePipeline::new().then(RoundingDefense::coarse()));
    let server = PredictionServer::spawn(Arc::clone(&system), defense, ServeConfig::default())
        .expect("bind ephemeral port");

    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");
    let released = oracle.predict_batch(&[0, 1, 2, 3]).expect("predict");
    // Every released score is coarsened to one decimal digit — the raw
    // model scores are not (they are generic softmax outputs).
    for &v in released.as_slice() {
        assert!(
            ((v * 10.0) - (v * 10.0).round()).abs() < 1e-9,
            "score {v} escaped the rounding defense"
        );
    }
    let raw = system.predict_batch(&[0, 1, 2, 3]);
    assert!(
        released.max_abs_diff(&raw).unwrap() > 0.0,
        "defense was a no-op"
    );

    // And the degradation propagates into the attack, as in the paper.
    let indices: Vec<usize> = (0..N).collect();
    let x_adv = global.select_columns(&ADV).unwrap();
    let truth = global.select_columns(&TARGET).unwrap();
    let attack = EqualitySolvingAttack::new(system.model(), &ADV, &TARGET);
    let engine = AttackEngine::new();
    let defended =
        run_over_oracle(&engine, &attack, &mut oracle, &x_adv, &indices, 0).expect("replay");
    let defended_mse = mse_per_feature(&defended.estimates.map(|v| v.clamp(0.0, 1.0)), &truth);
    assert!(
        defended_mse > 1e-4,
        "coarse rounding should break exact recovery, mse = {defended_mse}"
    );
    server.shutdown();
}

#[test]
fn concurrent_clients_each_get_their_own_rows() {
    let (system, _) = deployed_lr();
    let config = ServeConfig {
        batch_cap: 32,
        batch_deadline: Duration::from_millis(2),
        round_cost: Duration::from_millis(2),
        ..ServeConfig::default()
    };
    let server =
        PredictionServer::spawn(Arc::clone(&system), identity_defense(), config).expect("bind");
    let addr = server.addr();

    let workers: Vec<_> = (0..6)
        .map(|worker| {
            let system = Arc::clone(&system);
            std::thread::spawn(move || {
                let mut oracle = RemoteOracle::connect(addr).expect("connect");
                for round in 0..6 {
                    // Distinct ad-hoc inputs per worker and round, so a
                    // misrouted row would be caught immediately.
                    let mut next = lcg(worker * 1000 + round + 1);
                    let rows = 1 + (round as usize % 3);
                    let slices = vec![
                        Matrix::from_fn(rows, ADV.len(), |_, _| next()),
                        Matrix::from_fn(rows, TARGET.len(), |_, _| next()),
                    ];
                    let wire = oracle.predict_features(&slices).expect("predict");
                    let local = system.predict_features_batch(&slices);
                    assert_eq!(wire, local, "worker {worker} round {round} misrouted");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }

    let m = server.metrics();
    assert_eq!(m.errors, 0);
    assert!(m.requests >= 36, "all requests served, got {}", m.requests);
    assert!(
        m.mean_batch_fill > 1.0,
        "coalescer never merged concurrent traffic (fill = {})",
        m.mean_batch_fill
    );
    assert!(m.rounds < m.requests);
    assert!(m.p99_latency_us >= m.p50_latency_us);
    server.shutdown();
}

#[test]
fn info_ping_empty_batches_and_rejections() {
    let (system, _) = deployed_lr();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig::default(),
    )
    .expect("bind");
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");

    oracle.ping().expect("ping");
    let info = oracle.info().clone();
    assert_eq!(info.n_samples, N);
    assert_eq!(info.n_features, D);
    assert_eq!(info.n_classes, C);
    assert_eq!(info.party_widths, vec![ADV.len(), TARGET.len()]);
    assert_eq!(PredictionOracle::n_samples(&oracle), N);

    // Empty round: answered directly, shaped 0 × c.
    let empty = oracle.predict_batch(&[]).expect("empty batch");
    assert_eq!(empty.shape(), (0, C));

    // Out-of-range index and malformed feature blocks are rejected with
    // reasons, and the connection stays usable afterwards.
    let err = oracle.predict_batch(&[N]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "{err}");
    let err = oracle
        .predict_features(&[Matrix::zeros(1, ADV.len())])
        .unwrap_err();
    assert!(err.to_string().contains("party"), "{err}");
    let err = oracle
        .predict_features(&[Matrix::zeros(1, 3), Matrix::zeros(1, 4)])
        .unwrap_err();
    assert!(err.to_string().contains("wide"), "{err}");
    let ok = oracle.predict_batch(&[0]).expect("connection survived");
    assert_eq!(ok.shape(), (1, C));

    let m = server.metrics();
    assert_eq!(m.errors, 3);
    server.shutdown();
}

#[test]
fn over_cap_reply_is_rejected_and_the_connection_survives() {
    // A 2-feature, 256-class LR: one more ad-hoc row than fits the frame
    // cap pushes the score reply over it.
    const CLASSES: usize = 256;
    let rows = MAX_FRAME_LEN / (CLASSES * 8) + 1;
    let w = Matrix::from_fn(2, CLASSES, |i, j| ((i + j) % 7) as f64 * 0.1);
    let model = LogisticRegression::from_parameters(w, vec![0.0; CLASSES], CLASSES);
    let global = Matrix::from_fn(4, 2, |i, j| (i + j) as f64 * 0.25);
    let partition = VerticalPartition::contiguous(&[1, 1]);
    let system = Arc::new(VflSystem::from_global(model, partition, &global));
    let server =
        PredictionServer::spawn(system, identity_defense(), ServeConfig::default()).expect("bind");
    let mut oracle = RemoteOracle::connect(server.addr()).expect("connect");

    let err = oracle
        .predict_features(&[Matrix::zeros(rows, 1), Matrix::zeros(rows, 1)])
        .unwrap_err();
    assert!(matches!(err, ClientError::Rejected(_)), "{err}");
    // The reply was never length-prefixed past the cap, so the stream is
    // still in frame sync.
    oracle.ping().expect("ping after the rejected reply");
    let ok = oracle
        .predict_features(&[Matrix::zeros(1, 1), Matrix::zeros(1, 1)])
        .expect("small query after the rejected reply");
    assert_eq!(ok.shape(), (1, CLASSES));
    server.shutdown();
}

#[test]
fn graceful_shutdown_over_the_wire() {
    let (system, _) = deployed_lr();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig::default(),
    )
    .expect("bind");
    let addr = server.addr();

    let mut oracle = RemoteOracle::connect(addr).expect("connect");
    oracle.predict_batch(&[0, 1]).expect("warm request");
    oracle.shutdown_server().expect("shutdown acknowledged");
    // Joins every thread; must not hang even though a client socket is
    // still open.
    server.shutdown();
    assert!(
        RemoteOracle::connect(addr).is_err(),
        "listener should be closed after shutdown"
    );
}

#[test]
fn load_generator_reports_sane_throughput() {
    let (system, _) = deployed_lr();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig::default(),
    )
    .expect("bind");
    let report = fia_serve::run_load(
        server.addr(),
        &LoadConfig {
            threads: 3,
            requests_per_thread: 20,
            rows_per_request: 2,
        },
    )
    .expect("load run");
    assert_eq!(report.total_requests, 60);
    assert_eq!(report.total_rows, 120);
    assert!(report.rps > 0.0);
    let m = server.metrics();
    assert!(m.requests >= 60);
    assert!(m.rows >= 120);
    server.shutdown();
}

#[test]
fn open_loop_generator_honors_schedule_and_counts_everything() {
    let (system, _) = deployed_lr();
    let server = PredictionServer::spawn(
        Arc::clone(&system),
        identity_defense(),
        ServeConfig::default(),
    )
    .expect("bind");
    // A rate the loopback server trivially sustains: the run should
    // complete the whole schedule, on time, at roughly the offered rate
    // (wall clock ≈ schedule span).
    let report = fia_serve::run_load_open(
        server.addr(),
        &fia_serve::OpenLoadConfig {
            connections: 4,
            arrival_rps: 400.0,
            total_requests: 80,
            rows_per_request: 2,
        },
    )
    .expect("open-loop run");
    assert_eq!(report.total_requests, 80);
    assert_eq!(report.total_rows, 160);
    assert!((report.offered_rps - 400.0).abs() < f64::EPSILON);
    // 80 arrivals at 400/s span 200 ms; achieved must be in that
    // ballpark, not "as fast as the server can close the loop".
    assert!(
        report.achieved_rps <= 1.5 * report.offered_rps,
        "achieved {} should track the offered schedule",
        report.achieved_rps
    );
    assert!(report.elapsed >= Duration::from_millis(150));
    assert!(report.p99_latency_us >= report.p50_latency_us);
    let m = server.metrics();
    assert!(m.requests >= 80);
    server.shutdown();
}
