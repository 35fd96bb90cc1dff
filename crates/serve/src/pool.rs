//! The replica pool: N backend clones of the deployment, each owning a
//! private job queue, [`Coalescer`] and batcher thread.
//!
//! PR 2's server ran *one* batcher over *one* model — one joint
//! prediction round in flight at a time, however many clients queued.
//! The pool keeps that faithfulness *per replica* (each replica is a
//! deployment of the same `m` parties running one secure computation at
//! a time) while letting N replicas run rounds concurrently, which is
//! how a real serving stack scales past one backend: replicate the
//! read-only model state, shard the traffic.
//!
//! Replication is an `Arc` bump, not a copy — [`fia_vfl::VflSystem`]'s
//! `Clone` shares the model, partition and party tables — so a 4-replica
//! pool holds the stored prediction set in memory once.
//!
//! Every round, wherever it runs, goes through one function,
//! `run_round`, which applies the [`DefensePipeline`] once per round at
//! the replica's score-release boundary, exactly as the single-batcher
//! server did: sharding changes *where* a round runs, never *what* is
//! released.
//!
//! A round usually runs on the replica's batcher thread. The reactor
//! may instead run a lone job itself through [`ReplicaPool::run_here`]
//! when the replica is idle, the job fits one coalesced round and
//! rounds simulate no cost: that saves the two cross-thread handoffs
//! (job channel, completion channel plus waker) around a round that
//! does a few microseconds of work. The replica's row gauge doubles as
//! its lock, so a replica still runs one round at a time.
//!
//! Invariant: a round must not panic. On the reactor thread a panic
//! takes every connection down, not one replica. Every input reaching a
//! round has been validated first: stored indices against the sample
//! range, ad-hoc blocks against the party widths and row alignment.

use crate::coalesce::{Coalescer, Coalescible};
use crate::metrics::ServerMetrics;
use crate::sys::Waker;
use fia_defense::{DefensePipeline, ScoreDefense};
use fia_linalg::Matrix;
use fia_models::PredictProba;
use fia_telemetry::Tracer;
use fia_vfl::VflSystem;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked server threads re-check the stop flag.
pub(crate) const POLL_TICK: Duration = Duration::from_millis(20);

/// One queued prediction job: the round input plus where its released
/// rows travel back to.
pub(crate) struct Job {
    pub input: RoundInput,
    pub rows: usize,
    pub reply: ReplyTo,
    /// Where the round files its spans, when the originating request
    /// carried a trace context.
    pub trace: Option<TraceLink>,
    /// When the job was planned — prices the coalescer's batch wait
    /// into the round span.
    pub enqueued: Instant,
}

/// A traced job's place in its request's span tree: the request's own
/// span sink and the id of the `serve.dispatch` span that enqueued the
/// job. The round's `serve.round` span opens there, so it joins the
/// request's tree on whichever thread the round runs.
pub(crate) struct TraceLink {
    pub sink: Tracer,
    pub parent: u64,
}

/// Where a job's released rows go.
pub(crate) enum ReplyTo {
    /// A blocking caller waiting on an mpsc receiver (unit tests and
    /// any in-process dispatch path).
    #[cfg_attr(not(test), allow(dead_code))]
    Channel(Sender<Result<Matrix, String>>),
    /// The reactor's completion queue: the round pushes the result and,
    /// unless the reactor ran the round itself, nudges the event loop
    /// awake.
    Reactor(ReactorReply),
}

impl ReplyTo {
    /// Delivers the job's outcome to whoever is waiting.
    pub fn send(self, result: Result<Matrix, String>) {
        match self {
            ReplyTo::Channel(tx) => {
                let _ = tx.send(result);
            }
            ReplyTo::Reactor(mut r) => r.deliver(result),
        }
    }
}

/// One sub-round's route back to the reactor. If the job is dropped
/// unanswered — a queue torn down mid-shutdown, a send that never
/// happened — `Drop` delivers an error completion, so a connection can
/// never wait forever on a reply that isn't coming.
pub(crate) struct ReactorReply {
    tx: Sender<Completion>,
    waker: Waker,
    pending_id: u64,
    part: usize,
    sent: bool,
    /// `false` when the reactor runs the round itself: it drains the
    /// completion in the same loop pass, so a wake would only cost it a
    /// spurious readiness event.
    wake: bool,
}

impl ReactorReply {
    pub fn new(tx: Sender<Completion>, waker: Waker, pending_id: u64, part: usize) -> Self {
        ReactorReply {
            tx,
            waker,
            pending_id,
            part,
            sent: false,
            wake: true,
        }
    }

    fn deliver(&mut self, result: Result<Matrix, String>) {
        if self.sent {
            return;
        }
        self.sent = true;
        let _ = self.tx.send(Completion {
            pending_id: self.pending_id,
            part: self.part,
            result,
        });
        if self.wake {
            self.waker.wake();
        }
    }
}

impl Drop for ReactorReply {
    fn drop(&mut self) {
        self.deliver(Err("server is shutting down".to_string()));
    }
}

/// A finished sub-round flowing back to the reactor's event loop.
pub(crate) struct Completion {
    pub pending_id: u64,
    pub part: usize,
    pub result: Result<Matrix, String>,
}

pub(crate) enum RoundInput {
    /// Stored-sample queries (already range-checked).
    Stored(Vec<usize>),
    /// Ad-hoc per-party feature blocks (already shape-checked).
    AdHoc(Vec<Matrix>),
}

impl Coalescible for Job {
    fn rows(&self) -> usize {
        self.rows
    }
}

/// The dispatcher-facing half of one replica: where to enqueue jobs,
/// how many rows are already waiting or running there, and its round.
struct ReplicaQueue {
    tx: Sender<Job>,
    depth_rows: Arc<AtomicUsize>,
    /// The replica's round context, shared with its batcher thread.
    round: Arc<dyn RunRound>,
}

/// One replica's round, callable from any thread. It hides the model
/// type, so the reactor that calls it through [`ReplicaPool::run_here`]
/// stays monomorphic.
trait RunRound: Send + Sync {
    fn run_round(&self, jobs: Vec<Job>);
}

impl<M: PredictProba + Send + Sync> RunRound for ReplicaCtx<M> {
    fn run_round(&self, jobs: Vec<Job>) {
        run_round(self, jobs)
    }
}

/// Dispatcher-side handle to the pool's queues. The batcher threads'
/// join handles live separately in the server handle (the pool is owned
/// by the shared state, which the reactor holds).
pub(crate) struct ReplicaPool {
    queues: Vec<ReplicaQueue>,
    /// Rows of the largest job [`Self::run_here`] runs on the calling
    /// thread: one coalesced round's row cap, or 0 when rounds simulate
    /// a cost, which the caller must never sleep through.
    run_here_rows: usize,
}

impl ReplicaPool {
    /// Spawns `replicas` batcher threads over cheap clones of `system`
    /// and returns the queue handles plus the join handles.
    pub fn spawn<M>(
        system: &Arc<VflSystem<M>>,
        defense: &Arc<DefensePipeline>,
        metrics: &Arc<ServerMetrics>,
        stop: &Arc<AtomicBool>,
        coalescer: Coalescer,
        round_cost: Duration,
        replicas: usize,
    ) -> (ReplicaPool, Vec<JoinHandle<()>>)
    where
        M: PredictProba + Send + Sync + 'static,
    {
        let replicas = replicas.max(1);
        let mut queues = Vec::with_capacity(replicas);
        let mut handles = Vec::with_capacity(replicas);
        for id in 0..replicas {
            let (tx, rx) = mpsc::channel::<Job>();
            let depth_rows = Arc::new(AtomicUsize::new(0));
            let partition = system.partition();
            let party_widths = (0..partition.n_parties())
                .map(|p| partition.features_of(fia_vfl::PartyId(p)).len())
                .collect();
            let ctx = Arc::new(ReplicaCtx {
                id,
                // A replica, not a second copy: shares the read-only
                // deployment state behind the caller's Arc.
                system: system.as_ref().clone(),
                defense: Arc::clone(defense),
                metrics: Arc::clone(metrics),
                stop: Arc::clone(stop),
                depth_rows: Arc::clone(&depth_rows),
                party_widths,
                coalescer,
                round_cost,
            });
            let owned = metrics.own_thread();
            let batcher = Arc::clone(&ctx);
            handles.push(std::thread::spawn(move || {
                let _owned = owned;
                batcher_loop(&batcher, &rx)
            }));
            queues.push(ReplicaQueue {
                tx,
                depth_rows,
                round: ctx,
            });
        }
        let run_here_rows = if round_cost.is_zero() {
            coalescer.max_rows
        } else {
            0
        };
        (
            ReplicaPool {
                queues,
                run_here_rows,
            },
            handles,
        )
    }

    /// Number of replicas in the pool.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues `job` on `replica`'s queue, accounting its rows into the
    /// replica's load gauge before the batcher can see the job, so the
    /// batcher's release never runs ahead of it. Fails only during
    /// shutdown.
    pub fn send(&self, replica: usize, job: Job) -> Result<(), String> {
        let q = &self.queues[replica];
        let rows = job.rows;
        q.depth_rows.fetch_add(rows, Ordering::Relaxed);
        q.tx.send(job).map_err(|_| {
            q.depth_rows.fetch_sub(rows, Ordering::Relaxed);
            "server is shutting down".to_string()
        })
    }

    /// Whether a job of `rows` rows may ever run on the calling thread:
    /// it fits one coalesced round (`rows ≤ max_rows`, the batch cap),
    /// so the caller never stalls for longer
    /// than one normal round, and rounds simulate no cost (`round_cost`
    /// is zero), so the caller never sleeps.
    pub fn fits_here(&self, rows: usize) -> bool {
        rows <= self.run_here_rows
    }

    /// Runs `job` as a round of its own on the calling thread, or hands
    /// it back to be queued. It runs here only when [`Self::fits_here`]
    /// allows its size and `replica` is idle: the replica's row gauge
    /// moves from 0 to `job.rows` in one compare-and-swap, and the
    /// round's own release returns it to 0. No other round can start on
    /// the replica meanwhile: the reactor, the only thread that
    /// enqueues, is the one running it.
    ///
    /// The round delivers its reply without the reactor wake, since the
    /// caller drains the completion itself.
    pub fn run_here(&self, replica: usize, mut job: Job) -> Result<(), Job> {
        let q = &self.queues[replica];
        // Acquire pairs with the Release of `run_round`'s gauge release,
        // so the replica's previous round happens-before this one.
        if !self.fits_here(job.rows)
            || q.depth_rows
                .compare_exchange(0, job.rows, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            return Err(job);
        }
        if let ReplyTo::Reactor(r) = &mut job.reply {
            r.wake = false;
        }
        q.round.run_round(vec![job]);
        Ok(())
    }

    /// The replica with the fewest queued rows right now (ties broken by
    /// lowest id) — the target for ad-hoc feature queries, which have no
    /// shard affinity.
    pub fn least_loaded(&self) -> usize {
        self.queues
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| q.depth_rows.load(Ordering::Relaxed))
            .map(|(i, _)| i)
            .expect("pool has at least one replica")
    }

    /// Rows currently queued on `replica` (test/diagnostic visibility).
    #[cfg(test)]
    pub fn queued_rows(&self, replica: usize) -> usize {
        self.queues[replica].depth_rows.load(Ordering::Relaxed)
    }
}

/// Everything one replica's round needs, shared by its batcher thread
/// and [`ReplicaPool::run_here`].
struct ReplicaCtx<M: PredictProba> {
    id: usize,
    system: VflSystem<M>,
    defense: Arc<DefensePipeline>,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    depth_rows: Arc<AtomicUsize>,
    /// Per-party feature widths, precomputed once (round hot path).
    party_widths: Vec<usize>,
    coalescer: Coalescer,
    round_cost: Duration,
}

fn batcher_loop<M: PredictProba>(ctx: &ReplicaCtx<M>, rx: &Receiver<Job>) {
    // A job the coalescer refused to pack past the row cap; it becomes
    // the next round's first job, preserving arrival order.
    let mut pending: Option<Job> = None;
    loop {
        let first = match pending.take() {
            Some(job) => job,
            None => match rx.recv_timeout(POLL_TICK) {
                Ok(job) => job,
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    if ctx.stop.load(Ordering::SeqCst) {
                        // Drain stragglers so no connection hangs, then exit.
                        while let Ok(job) = rx.try_recv() {
                            run_round(ctx, vec![job]);
                        }
                        return;
                    }
                    continue;
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            },
        };
        let round = ctx.coalescer.drain(rx, first, &mut pending);
        run_round(ctx, round);
    }
}

/// Executes one joint-prediction round over the coalesced jobs.
fn run_round<M: PredictProba>(ctx: &ReplicaCtx<M>, jobs: Vec<Job>) {
    let total: usize = jobs.iter().map(|j| j.rows).sum();

    // A round is traced when any coalesced job carried a trace context:
    // the span files into the *first* traced job's tree under its
    // dispatch span (a round may serve many requests; one tree holds
    // it) and prices that job's queue wait.
    let round_span = jobs
        .iter()
        .find_map(|j| j.trace.as_ref().map(|t| (t, j.enqueued)))
        .map(|(trace, enqueued)| {
            let s = trace.sink.root_with_parent("serve.round", trace.parent);
            s.record_u64("replica", ctx.id as u64);
            s.record_u64("jobs", jobs.len() as u64);
            s.record_u64("rows", total as u64);
            s.record_u64("batch_wait_us", enqueued.elapsed().as_micros() as u64);
            s
        });

    // Assemble each party's contribution for the whole round, consuming
    // the jobs so ad-hoc blocks are moved, not cloned.
    let mut slices: Vec<Matrix> = ctx
        .party_widths
        .iter()
        .map(|&w| Matrix::zeros(total, w))
        .collect();
    let mut replies = Vec::with_capacity(jobs.len());
    let mut offset = 0;
    for job in jobs {
        let blocks: Vec<Matrix> = match job.input {
            RoundInput::Stored(indices) => ctx.system.party_slices(&indices),
            RoundInput::AdHoc(blocks) => blocks,
        };
        for (slice, block) in slices.iter_mut().zip(&blocks) {
            for r in 0..job.rows {
                slice.row_mut(offset + r).copy_from_slice(block.row(r));
            }
        }
        offset += job.rows;
        replies.push((job.rows, job.reply));
    }

    // The simulated secure-computation round trip: paid once per round,
    // however many queries the round answers.
    if ctx.round_cost > Duration::ZERO {
        std::thread::sleep(ctx.round_cost);
    }

    let scores = {
        let _predict = round_span.as_ref().map(|s| s.child("serve.predict"));
        ctx.system.predict_features_batch(&slices)
    };
    // Defense at the score-release boundary: one batch hook per round,
    // exactly where a deployment would apply it.
    let released = {
        let _defense = round_span.as_ref().map(|s| s.child("serve.defense"));
        ctx.defense.defend_batch(&scores)
    };
    ctx.metrics.record_round(ctx.id, total);
    // The reactor files a request's tree when it answers, so the round
    // span must be finished before any reply goes out.
    drop(round_span);

    let mut offset = 0;
    for (job_rows, reply) in replies {
        let rows: Vec<usize> = (offset..offset + job_rows).collect();
        let part = released
            .select_rows(&rows)
            .expect("round rows were assembled in range");
        offset += job_rows;
        reply.send(Ok(part));
    }
    // Every job was accounted into the gauge first, by
    // `ReplicaPool::send` or `run_here`, so it cannot underflow.
    ctx.depth_rows.fetch_sub(total, Ordering::Release);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fia_models::LogisticRegression;
    use fia_vfl::VerticalPartition;

    fn toy_system() -> Arc<VflSystem<LogisticRegression>> {
        let w = Matrix::from_fn(4, 3, |i, j| 0.1 * (i as f64 + 1.0) - 0.05 * j as f64);
        let model = LogisticRegression::from_parameters(w, vec![0.0, 0.1, -0.1], 3);
        let partition = VerticalPartition::contiguous(&[2, 2]);
        let global = Matrix::from_fn(6, 4, |i, j| ((i + 2 * j) % 5) as f64 * 0.2);
        Arc::new(VflSystem::from_global(model, partition, &global))
    }

    fn spawn_pool(
        replicas: usize,
        stop: &Arc<AtomicBool>,
    ) -> (ReplicaPool, Vec<JoinHandle<()>>, Arc<ServerMetrics>) {
        let metrics = Arc::new(ServerMetrics::with_replicas(replicas));
        let (pool, handles) = ReplicaPool::spawn(
            &toy_system(),
            &Arc::new(DefensePipeline::new()),
            &metrics,
            stop,
            Coalescer::adaptive(16, Duration::from_micros(100)),
            Duration::ZERO,
            replicas,
        );
        (pool, handles, metrics)
    }

    fn job(input: RoundInput, rows: usize, reply: ReplyTo) -> Job {
        Job {
            input,
            rows,
            reply,
            trace: None,
            enqueued: Instant::now(),
        }
    }

    fn traced(sink: &Tracer, parent: u64, input: RoundInput, rows: usize, reply: ReplyTo) -> Job {
        Job {
            trace: Some(TraceLink {
                sink: sink.clone(),
                parent,
            }),
            ..job(input, rows, reply)
        }
    }

    fn shutdown(stop: &Arc<AtomicBool>, handles: Vec<JoinHandle<()>>) {
        stop.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().expect("batcher thread panicked");
        }
    }

    #[test]
    fn each_replica_answers_its_own_queue() {
        let stop = Arc::new(AtomicBool::new(false));
        let (pool, handles, metrics) = spawn_pool(3, &stop);
        let system = toy_system();
        let mut receivers = Vec::new();
        for replica in 0..3 {
            let (tx, rx) = mpsc::channel();
            pool.send(
                replica,
                job(
                    RoundInput::Stored(vec![replica, replica + 1]),
                    2,
                    ReplyTo::Channel(tx),
                ),
            )
            .expect("send");
            receivers.push((replica, rx));
        }
        for (replica, rx) in receivers {
            let scores = rx.recv().expect("reply").expect("round ok");
            assert_eq!(scores, system.predict_batch(&[replica, replica + 1]));
        }
        let r = metrics.report();
        assert_eq!(r.replica_rounds, vec![1, 1, 1]);
        assert_eq!(r.replica_rows, vec![2, 2, 2]);
        shutdown(&stop, handles);
    }

    #[test]
    fn least_loaded_prefers_the_empty_queue() {
        let stop = Arc::new(AtomicBool::new(true)); // batchers idle out fast
        let (pool, handles, _metrics) = spawn_pool(2, &stop);
        // Gauge accounting is what least_loaded reads; simulate load on
        // replica 0 directly.
        pool.queues[0].depth_rows.store(10, Ordering::Relaxed);
        assert_eq!(pool.least_loaded(), 1);
        pool.queues[1].depth_rows.store(20, Ordering::Relaxed);
        assert_eq!(pool.least_loaded(), 0);
        for h in handles {
            h.join().expect("join");
        }
        assert_eq!(pool.queued_rows(0), 10);
    }

    #[test]
    fn run_here_takes_only_an_idle_replica_and_a_one_round_job() {
        let stop = Arc::new(AtomicBool::new(false));
        let (pool, handles, metrics) = spawn_pool(1, &stop);
        let (tx, rx) = mpsc::channel();
        let lone = || job(RoundInput::Stored(vec![2]), 1, ReplyTo::Channel(tx.clone()));
        // A busy replica (rows queued or running) hands the job back.
        pool.queues[0].depth_rows.store(3, Ordering::Relaxed);
        assert!(pool.run_here(0, lone()).is_err());
        pool.queues[0].depth_rows.store(0, Ordering::Relaxed);
        // Past the 16-row round cap: handed back, even when idle.
        let big = job(
            RoundInput::Stored(vec![0; 17]),
            17,
            ReplyTo::Channel(tx.clone()),
        );
        assert!(pool.run_here(0, big).is_err());
        // Idle and small: the round runs on this thread, so the reply is
        // already there and the gauge is released when it returns.
        assert!(pool.run_here(0, lone()).is_ok());
        let scores = rx.try_recv().expect("answered in place").expect("round ok");
        assert_eq!(scores, toy_system().predict_batch(&[2]));
        assert_eq!(pool.queued_rows(0), 0);
        assert_eq!(metrics.report().replica_rounds, vec![1]);
        shutdown(&stop, handles);
    }

    #[test]
    fn queued_jobs_are_answered_before_shutdown() {
        let stop = Arc::new(AtomicBool::new(false));
        let (pool, handles, _metrics) = spawn_pool(1, &stop);
        let mut rxs = Vec::new();
        for i in 0..5 {
            let (tx, rx) = mpsc::channel();
            pool.send(0, job(RoundInput::Stored(vec![i]), 1, ReplyTo::Channel(tx)))
                .expect("send");
            rxs.push(rx);
        }
        shutdown(&stop, handles);
        for rx in rxs {
            assert!(rx.recv().expect("answered before exit").is_ok());
        }
    }

    #[test]
    fn traced_jobs_open_a_round_span_linked_to_the_dispatch() {
        let stop = Arc::new(AtomicBool::new(false));
        let (pool, handles, _metrics) = spawn_pool(1, &stop);
        let sink = Tracer::new();
        let (tx, rx) = mpsc::channel();
        pool.send(
            0,
            traced(
                &sink,
                77,
                RoundInput::Stored(vec![0, 1]),
                2,
                ReplyTo::Channel(tx),
            ),
        )
        .expect("send");
        rx.recv().expect("reply").expect("round ok");
        // Read right after the reply: the batcher finishes the round
        // span before it sends any reply.
        let recs = sink.records();
        let round = recs
            .iter()
            .find(|r| r.name == "serve.round")
            .expect("round span filed before the reply");
        assert_eq!(round.parent, Some(77), "round links to the dispatch span");
        for child in ["serve.predict", "serve.defense"] {
            let c = recs
                .iter()
                .find(|r| r.name == child)
                .unwrap_or_else(|| panic!("missing {child} span"));
            assert_eq!(c.parent, Some(round.id));
        }
        shutdown(&stop, handles);
    }

    #[test]
    fn a_round_files_its_spans_under_its_first_traced_job_before_any_reply() {
        let stop = Arc::new(AtomicBool::new(false));
        let (pool, handles, _metrics) = spawn_pool(1, &stop);
        let (first, second) = (Tracer::new(), Tracer::new());
        let (tx, rx) = mpsc::channel();
        let reply = || ReplyTo::Channel(tx.clone());
        // One coalesced round: an untraced job, two traced ones, then
        // enough untraced jobs that replies are still going out when the
        // first one arrives.
        let mut jobs = vec![
            job(RoundInput::Stored(vec![0]), 1, reply()),
            traced(&first, 77, RoundInput::Stored(vec![1]), 1, reply()),
            traced(&second, 88, RoundInput::Stored(vec![2]), 1, reply()),
        ];
        jobs.extend((0..2000).map(|i| job(RoundInput::Stored(vec![i % 6]), 1, reply())));
        let n = jobs.len();
        // The caller accounts the rows into the gauge, as `send` does.
        pool.queues[0].depth_rows.store(n, Ordering::Relaxed);
        std::thread::scope(|s| {
            s.spawn(|| pool.queues[0].round.run_round(jobs));
            rx.recv().expect("first reply").expect("round ok");
            // Read on the first reply: the round's spans are filed.
            let recs = first.records();
            let filed: Vec<(&str, Option<u64>)> = recs.iter().map(|r| (r.name, r.parent)).collect();
            let round_id = recs.last().expect("round span filed").id;
            assert_eq!(
                filed,
                [
                    ("serve.predict", Some(round_id)),
                    ("serve.defense", Some(round_id)),
                    ("serve.round", Some(77)),
                ]
            );
        });
        for _ in 1..n {
            rx.recv().expect("reply").expect("round ok");
        }
        assert!(second.records().is_empty(), "one tree holds the round");
        shutdown(&stop, handles);
    }
}
