//! The budgeted adversary session.
//!
//! A [`Campaign`] drives the paper's end-to-end adversary loop — query
//! the deployment, accumulate the `(x_adv, v)` corpus, invert it — over
//! whatever oracle the scenario resolved ([`OracleSpec::InProcess`] or a
//! real spawned `PredictionServer` for [`OracleSpec::Served`]), in
//! resumable chunks under a hard [`QueryBudget`]:
//!
//! * every oracle round passes through a [`BudgetedOracle`], so no
//!   attack can overspend — the session additionally *plans* its final
//!   chunk to land exactly on the budget;
//! * when the budget runs out mid-accumulation the session does not
//!   fail: the configured attacks run over the partial corpus and the
//!   report carries a typed [`CampaignOutcome::BudgetExhausted`];
//! * the session checkpoints itself — extending the budget
//!   ([`Campaign::set_budget`]) and calling [`Campaign::run`] again
//!   resumes accumulation where it stopped, and reproduces the
//!   unbudgeted result bit-for-bit when the release boundary is
//!   deterministic per row (identity/rounding pipelines; defenses
//!   seeded from batch composition release different bytes under
//!   different chunkings — see `ScenarioSpec::with_defense`);
//! * progress streams to a [`CampaignObserver`] as
//!   [`CampaignEvent`](crate::CampaignEvent)s, and the run ends in one
//!   serializable [`CampaignReport`].

use crate::attack::AttackSpec;
use crate::budget::{BudgetMeter, BudgetedOracle, QueryBudget};
use crate::checkpoint::{BlobHeader, CampaignCheckpoint, CheckpointError};
use crate::error::CampaignError;
use crate::event::{CampaignEvent, CampaignObserver};
use crate::model::TrainedModel;
use crate::report::{AttackReport, CampaignOutcome, CampaignReport};
use crate::spec::{fnv, OracleSpec, ResolvedScenario};
use fia_core::{metrics, AttackEngine, PredictionOracle, QueryBatch, QueryCost, TraceContext};
use fia_defense::{DefensePipeline, ScoreDefense};
use fia_linalg::Matrix;
use fia_models::PredictProba;
use fia_serve::{
    AuditSummary, MetricsReport, PredictionServer, RemoteOracle, ServeConfig, ServerHandle,
};
use fia_telemetry::{global, Counter, Span, TelemetrySnapshot, Tracer};
use fia_vfl::VflSystem;
use std::sync::Arc;
use std::time::Instant;

/// The in-process deployment as the adversary's oracle: one protocol
/// round per call with the scenario's [`DefensePipeline`] applied at
/// the score-release boundary — the same release semantics the served
/// oracle applies inside the prediction server.
pub struct InProcessOracle {
    system: VflSystem<TrainedModel>,
    defense: Arc<DefensePipeline>,
    cost: QueryCost,
}

impl InProcessOracle {
    /// Wraps a deployment replica and its defense stack.
    pub fn new(system: VflSystem<TrainedModel>, defense: Arc<DefensePipeline>) -> Self {
        InProcessOracle {
            system,
            defense,
            cost: QueryCost::default(),
        }
    }
}

impl PredictionOracle for InProcessOracle {
    fn n_classes(&self) -> usize {
        self.system.model().n_classes()
    }

    fn n_samples(&self) -> usize {
        self.system.n_samples()
    }

    fn confidences(&mut self, indices: &[usize]) -> Result<Matrix, fia_core::OracleError> {
        let released = self
            .defense
            .defend_batch(&self.system.predict_batch(indices));
        self.cost.queries += 1;
        self.cost.rows += indices.len() as u64;
        Ok(released)
    }

    fn query_cost(&self) -> QueryCost {
        self.cost
    }
}

/// The resolved oracle a session queries: either the in-process
/// deployment, or a spawned prediction server plus the client
/// connection into it.
enum OracleHandle {
    InProcess(InProcessOracle),
    Served {
        /// Owned so the server lives exactly as long as the campaign
        /// needs it; dropping the handle tears the server down.
        _server: ServerHandle,
        client: RemoteOracle,
    },
    /// A caller-attached oracle ([`Campaign::attach_oracle`]): the
    /// session queries it but does not own its deployment — the
    /// campaign daemon uses this to point many jobs at one shared
    /// `PredictionServer`.
    External(Box<dyn PredictionOracle + Send>),
}

impl OracleHandle {
    fn oracle_mut(&mut self) -> &mut dyn PredictionOracle {
        match self {
            OracleHandle::InProcess(o) => o,
            OracleHandle::Served { client, .. } => client,
            OracleHandle::External(o) => o.as_mut(),
        }
    }
}

/// What one [`Campaign::step`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One chunk was accumulated; more rows remain in the plan.
    Chunk,
    /// The budget cannot afford another row; accumulation is over for
    /// this run ([`Campaign::finalize`] will attack the partial corpus).
    Exhausted,
    /// The planned corpus is complete.
    Done,
}

/// Per-run state [`Campaign::begin`] opens and [`Campaign::finalize`]
/// consumes: the telemetry before-image, the root span, the run clock
/// and the global counters.
struct RunCtx {
    telemetry_before: TelemetrySnapshot,
    run_span: Span,
    run_started: Instant,
    exhausted: bool,
    chunks_total: Arc<Counter>,
    rows_total: Arc<Counter>,
    queries_total: Arc<Counter>,
    cached_rows_total: Arc<Counter>,
}

/// A budgeted adversary session over a resolved scenario. See the
/// module docs for the lifecycle.
pub struct Campaign {
    scenario: ResolvedScenario,
    attacks: Vec<AttackSpec>,
    budget: QueryBudget,
    chunk: usize,
    engine: AttackEngine,
    // ---- checkpointed progress ----
    rows_done: usize,
    confidences: Matrix,
    spent: QueryCost,
    chunks_issued: usize,
    oracle: Option<OracleHandle>,
    run_ctx: Option<RunCtx>,
    tracer: Tracer,
    /// Deterministic distributed-trace id stamped on every traced wire
    /// query (derived from fingerprint and seed).
    trace_id: u64,
    /// Audit-ledger session tag declared to a served oracle.
    session_tag: Option<String>,
}

/// Deterministic trace id: FNV-1a over the scenario fingerprint, XORed
/// with the seed — stable across reruns of one scenario, distinct
/// across scenarios and seeds.
fn derive_trace_id(fingerprint: &str, seed: u64) -> u64 {
    fnv(0, fingerprint.as_bytes()) ^ seed
}

impl Campaign {
    /// A session over `scenario` with no attacks configured yet, an
    /// unlimited budget, and 64-row accumulation chunks.
    pub fn new(scenario: ResolvedScenario) -> Self {
        let c = scenario.data.n_classes;
        let trace_id = derive_trace_id(&scenario.fingerprint, scenario.seed);
        Campaign {
            scenario,
            attacks: Vec::new(),
            budget: QueryBudget::unlimited(),
            chunk: 64,
            engine: AttackEngine::new(),
            rows_done: 0,
            confidences: Matrix::zeros(0, c),
            spent: QueryCost::default(),
            chunks_issued: 0,
            oracle: None,
            run_ctx: None,
            tracer: Tracer::new(),
            trace_id,
            session_tag: None,
        }
    }

    /// Rebuilds a session from a [`CampaignCheckpoint`] — the crash
    /// recovery path. The checkpoint's fingerprint must match the
    /// scenario it is being restored into (a fingerprint covers data,
    /// split, model, defense, oracle kind and seed, so a match
    /// guarantees the corpus prefix is the one this scenario would have
    /// released); a mismatch or an inconsistent blob is a typed
    /// [`CheckpointError`], never a panic.
    pub fn restore(
        scenario: ResolvedScenario,
        cp: &CampaignCheckpoint,
    ) -> Result<Self, CheckpointError> {
        if cp.fingerprint != scenario.fingerprint {
            return Err(CheckpointError::FingerprintMismatch {
                expected: scenario.fingerprint.clone(),
                found: cp.fingerprint.clone(),
            });
        }
        if cp.confidences.rows() != cp.rows_done || cp.confidences.cols() != scenario.data.n_classes
        {
            return Err(CheckpointError::Corrupt(
                "checkpoint corpus shape disagrees with the scenario",
            ));
        }
        if cp.chunk == 0 {
            return Err(CheckpointError::Corrupt("checkpoint chunk size is zero"));
        }
        let mut c = Campaign::new(scenario);
        c.budget = cp.budget;
        c.chunk = cp.chunk;
        c.rows_done = cp.rows_done;
        c.confidences = cp.confidences.clone();
        c.spent = cp.spent;
        c.chunks_issued = cp.chunks_issued;
        Ok(c)
    }

    /// Captures the session's resumable state. Valid between
    /// [`Campaign::step`] calls (the corpus and the cost meter are
    /// mutually consistent there); the blob form is
    /// [`CampaignCheckpoint::to_blob`].
    pub fn checkpoint(&self) -> CampaignCheckpoint {
        CampaignCheckpoint {
            fingerprint: self.scenario.fingerprint.clone(),
            seed: self.scenario.seed,
            budget: self.budget,
            spent: self.spent,
            rows_done: self.rows_done,
            chunks_issued: self.chunks_issued,
            chunk: self.chunk,
            confidences: self.confidences.clone(),
        }
    }

    /// Encodes a delta frame: the checkpoint blob of the session's
    /// current state whose matrix holds only corpus rows
    /// `[since, rows_done)`, read straight from the session without
    /// copying the corpus. `delta_blob(0)` is byte-identical to
    /// `checkpoint().to_blob()`; [`CampaignCheckpoint::fold`] rebuilds
    /// the full checkpoint from consecutive frames.
    ///
    /// # Panics
    /// Panics when `since` is past [`Campaign::rows_done`].
    pub fn delta_blob(&self, since: usize) -> Vec<u8> {
        assert!(
            since <= self.rows_done,
            "delta frame starts at row {since}, past the {} accumulated rows",
            self.rows_done
        );
        let cols = self.confidences.cols();
        BlobHeader {
            fingerprint: &self.scenario.fingerprint,
            seed: self.scenario.seed,
            meter: BudgetMeter {
                budget: self.budget,
                spent: self.spent,
            },
            rows_done: self.rows_done,
            chunks_issued: self.chunks_issued,
            chunk: self.chunk,
        }
        .encode(
            self.rows_done - since,
            cols,
            &self.confidences.as_slice()[since * cols..],
        )
    }

    /// Attaches a caller-owned oracle instead of letting the session
    /// resolve one from the scenario spec — how the campaign daemon
    /// points many jobs at one shared `PredictionServer` deployment.
    /// The session queries (and budgets, and traces) the attached
    /// oracle exactly as it would its own; it never tears the backing
    /// deployment down.
    pub fn attach_oracle(&mut self, oracle: Box<dyn PredictionOracle + Send>) {
        self.oracle = Some(OracleHandle::External(oracle));
    }

    /// Adds an attack to mount over the accumulated corpus.
    pub fn with_attack(mut self, attack: AttackSpec) -> Self {
        self.attacks.push(attack);
        self
    }

    /// Adds several attacks (run in order over the same corpus).
    pub fn with_attacks(mut self, attacks: impl IntoIterator<Item = AttackSpec>) -> Self {
        self.attacks.extend(attacks);
        self
    }

    /// Sets the session's query budget.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the accumulation chunk (rows per oracle round).
    pub fn with_chunk(mut self, rows: usize) -> Self {
        self.chunk = rows.max(1);
        self
    }

    /// Overrides the attack engine (worker count, stripe size).
    pub fn with_engine(mut self, engine: AttackEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Replaces the budget mid-session — the resume path: after a
    /// [`CampaignOutcome::BudgetExhausted`] run, raise the budget and
    /// [`Campaign::run`] again to continue accumulating where the
    /// session stopped.
    pub fn set_budget(&mut self, budget: QueryBudget) {
        self.budget = budget;
    }

    /// The resolved scenario this session attacks.
    pub fn scenario(&self) -> &ResolvedScenario {
        &self.scenario
    }

    /// Rows accumulated so far (across runs).
    pub fn rows_done(&self) -> usize {
        self.rows_done
    }

    /// Rows the full campaign plans to accumulate.
    pub fn rows_planned(&self) -> usize {
        self.scenario.data.n_predictions()
    }

    /// Accumulation chunks issued so far (across runs).
    pub fn chunks_issued(&self) -> usize {
        self.chunks_issued
    }

    /// The session's query budget.
    pub fn budget(&self) -> QueryBudget {
        self.budget
    }

    /// What the session has spent so far, as metered at the oracle
    /// boundary.
    pub fn spent(&self) -> QueryCost {
        self.spent
    }

    /// The served oracle's live server metrics (`None` for in-process
    /// sessions or before the first run).
    pub fn server_metrics(&mut self) -> Option<MetricsReport> {
        match self.oracle.as_mut()? {
            OracleHandle::Served { client, .. } => client.server_metrics().ok(),
            _ => None,
        }
    }

    /// A live Prometheus-style scrape of the served oracle's telemetry
    /// surface (`None` for in-process sessions or before the first run).
    pub fn server_metrics_text(&mut self) -> Option<String> {
        match self.oracle.as_mut()? {
            OracleHandle::Served { client, .. } => client.metrics_text().ok(),
            _ => None,
        }
    }

    /// The session's distributed-trace id (see
    /// [`CampaignReport::trace_id`]).
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// The audit-ledger session tag declared to a served oracle
    /// (`None` for in-process sessions or before the first run).
    pub fn session_tag(&self) -> Option<&str> {
        self.session_tag.as_deref()
    }

    /// The served oracle's span stream as JSONL (`None` for in-process
    /// sessions or before the first run).
    pub fn server_trace_jsonl(&mut self) -> Option<String> {
        match self.oracle.as_mut()? {
            OracleHandle::Served { client, .. } => client.server_trace_jsonl().ok(),
            _ => None,
        }
    }

    /// The served oracle's per-client audit ledger (`None` for
    /// in-process sessions or before the first run).
    pub fn server_audit(&mut self) -> Option<AuditSummary> {
        match self.oracle.as_mut()? {
            OracleHandle::Served { client, .. } => client.audit_report().ok(),
            _ => None,
        }
    }

    /// The session's tracer: every `run()` files a `campaign.run` root
    /// span with per-chunk and per-attack children under it.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The finished spans so far as JSONL (one span per line).
    pub fn trace_jsonl(&self) -> String {
        self.tracer.to_jsonl()
    }

    /// Tears down the resolved oracle (shuts a served scenario's
    /// prediction server down). Also happens on drop.
    pub fn shutdown(&mut self) {
        self.oracle = None;
    }

    /// Resets the accumulated corpus and cost meter — but keeps the
    /// resolved oracle alive — and runs the session again from row zero.
    /// Against a served scenario with a released-score cache this is the
    /// repeat-campaign experiment: the second pass is answered from the
    /// cache (visible as `cached_rows` in the new report) and, because
    /// the cache re-releases first-released bytes, teaches the adversary
    /// nothing new.
    pub fn rerun(
        &mut self,
        observer: &mut dyn CampaignObserver,
    ) -> Result<CampaignReport, CampaignError> {
        self.rows_done = 0;
        self.confidences = Matrix::zeros(0, self.scenario.data.n_classes);
        self.spent = QueryCost::default();
        self.chunks_issued = 0;
        self.run(observer)
    }

    /// Runs (or resumes) the session: accumulate the corpus in chunks
    /// under the budget, mount every configured attack over whatever
    /// corpus the budget allowed, and return the report. Emits
    /// [`CampaignEvent`](crate::CampaignEvent)s to `observer`
    /// throughout. Equivalent to [`Campaign::begin`], [`Campaign::step`]
    /// until the plan or budget is spent, then [`Campaign::finalize`] —
    /// the decomposed form is what the campaign daemon drives so it can
    /// checkpoint (and be killed) between any two chunks.
    pub fn run(
        &mut self,
        observer: &mut dyn CampaignObserver,
    ) -> Result<CampaignReport, CampaignError> {
        self.begin(observer)?;
        while self.step(observer)? == StepOutcome::Chunk {}
        self.finalize(observer)
    }

    /// Opens a run: validates the attack/model pairing, resolves the
    /// oracle, files the `campaign.run` root span and emits
    /// [`CampaignEvent::Started`]. Must precede [`Campaign::step`] /
    /// [`Campaign::finalize`]; calling it again abandons the previous
    /// unfinalized run context.
    pub fn begin(&mut self, observer: &mut dyn CampaignObserver) -> Result<(), CampaignError> {
        // Fail a misconfigured session before it spends anything: the
        // attack/model pairing is fully determined by the specs, so an
        // incompatibility must not cost a single oracle round.
        for spec in &self.attacks {
            spec.check_model(self.scenario.system.model())?;
        }
        self.ensure_oracle()?;
        let rows_planned = self.scenario.data.n_predictions();

        // Telemetry: a `campaign.run` root span for this invocation and
        // the before-image of the process-global registry, so the report
        // can carry exactly what *this run* added (chunks, rows, kernel
        // calls, attack phases) as a snapshot delta.
        let telemetry_before = global().snapshot();
        let chunks_total = global().counter(
            "fia_campaign_chunks_total",
            "Accumulation chunks answered across campaign sessions.",
        );
        let rows_total = global().counter(
            "fia_campaign_rows_total",
            "Corpus rows accumulated across campaign sessions.",
        );
        let queries_total = global().counter(
            "fia_campaign_queries_total",
            "Oracle rounds issued across campaign sessions.",
        );
        let cached_rows_total = global().counter(
            "fia_campaign_cached_rows_total",
            "Rows the deployment served from its released-score cache.",
        );
        let run_span = self.tracer.root("campaign.run");
        run_span.record_str("fingerprint", &self.scenario.fingerprint);
        run_span.record_u64("trace_id", self.trace_id);
        let run_started = Instant::now();

        observer.on_event(&CampaignEvent::Started {
            fingerprint: self.scenario.fingerprint.clone(),
            rows_planned,
            rows_done: self.rows_done,
            budget: self.budget,
        });
        self.run_ctx = Some(RunCtx {
            telemetry_before,
            run_span,
            run_started,
            exhausted: false,
            chunks_total,
            rows_total,
            queries_total,
            cached_rows_total,
        });
        Ok(())
    }

    /// Accumulates one chunk under the budget (between a
    /// [`Campaign::begin`] and a [`Campaign::finalize`]). Between two
    /// `step` calls the session is checkpoint-consistent
    /// ([`Campaign::checkpoint`]): the corpus, cursor and cost meter all
    /// describe the same prefix.
    ///
    /// # Panics
    /// Panics when called without [`Campaign::begin`].
    pub fn step(
        &mut self,
        observer: &mut dyn CampaignObserver,
    ) -> Result<StepOutcome, CampaignError> {
        let rows_planned = self.scenario.data.n_predictions();
        if self.rows_done >= rows_planned {
            return Ok(StepOutcome::Done);
        }
        let ctx = self.run_ctx.as_mut().expect("begin() must precede step()");
        let handle = self.oracle.as_mut().expect("begin() resolved the oracle");
        let mut adapter = BudgetedOracle::resuming(handle.oracle_mut(), self.budget, self.spent);
        let remaining_plan = rows_planned - self.rows_done;
        let take = match adapter.affordable_rows() {
            None => self.chunk.min(remaining_plan),
            Some(a) => self.chunk.min(remaining_plan).min(a as usize),
        };
        if take == 0 {
            ctx.exhausted = true;
            return Ok(StepOutcome::Exhausted);
        }
        let indices: Vec<usize> = (self.rows_done..self.rows_done + take).collect();
        let chunk_span = ctx.run_span.child("campaign.chunk");
        chunk_span.record_u64("chunk", self.chunks_issued as u64);
        chunk_span.record_u64("rows", take as u64);
        // Stamp this chunk's wire queries with the chunk span as
        // remote parent: the server's `serve.request` spans link
        // here, which is what the merged trace resolves on.
        adapter.set_trace_context(Some(TraceContext {
            trace_id: self.trace_id,
            parent_span: chunk_span.id(),
        }));
        let before_chunk = self.spent;
        let chunk_started = Instant::now();
        let v = adapter.confidences(&indices);
        let duration = chunk_started.elapsed();
        // Persist the meter before surfacing any error: a chunk
        // that failed mid-run must leave the checkpoint
        // consistent (spent in sync with the accumulated rows),
        // or a resumed session would under-count prior spend
        // and could overrun the hard budget.
        self.spent = adapter.spent();
        adapter.set_trace_context(None);
        chunk_span.record_u64("queries", self.spent.queries - before_chunk.queries);
        chunk_span.record_u64(
            "cached_rows",
            self.spent.cached_rows - before_chunk.cached_rows,
        );
        chunk_span.finish();
        let v = v?;
        self.confidences
            .append_rows(&v)
            .expect("oracle answers a fixed class width");
        self.rows_done += take;
        self.chunks_issued += 1;
        ctx.chunks_total.inc();
        ctx.rows_total.add(take as u64);
        ctx.queries_total
            .add(self.spent.queries - before_chunk.queries);
        ctx.cached_rows_total
            .add(self.spent.cached_rows - before_chunk.cached_rows);
        observer.on_event(&CampaignEvent::ChunkDone {
            chunk: self.chunks_issued - 1,
            rows_done: self.rows_done,
            rows_planned,
            cost: self.spent,
            duration,
            elapsed: ctx.run_started.elapsed(),
        });
        Ok(if self.rows_done >= rows_planned {
            StepOutcome::Done
        } else {
            StepOutcome::Chunk
        })
    }

    /// Closes a run: emits [`CampaignEvent::BudgetExhausted`] when the
    /// budget cut accumulation short, mounts every configured attack
    /// over the (possibly partial) corpus, finishes the root span and
    /// returns the [`CampaignReport`].
    ///
    /// # Panics
    /// Panics when called without [`Campaign::begin`].
    pub fn finalize(
        &mut self,
        observer: &mut dyn CampaignObserver,
    ) -> Result<CampaignReport, CampaignError> {
        let ctx = self
            .run_ctx
            .take()
            .expect("begin() must precede finalize()");
        let RunCtx {
            telemetry_before,
            run_span,
            exhausted,
            ..
        } = ctx;
        let rows_planned = self.scenario.data.n_predictions();
        if exhausted {
            observer.on_event(&CampaignEvent::BudgetExhausted {
                rows_done: self.rows_done,
                rows_planned,
                cost: self.spent,
            });
        }

        // ---- Attacks over the (possibly partial) corpus -------------
        let mut attack_reports = Vec::with_capacity(self.attacks.len());
        if self.rows_done > 0 {
            let rows: Vec<usize> = (0..self.rows_done).collect();
            let data = &self.scenario.data;
            let x_adv = data.x_adv.select_rows(&rows).expect("prefix in range");
            let truth = data.truth.select_rows(&rows).expect("prefix in range");
            let batch = QueryBatch::new(x_adv, self.confidences.clone());
            for spec in &self.attacks {
                let attack_span = run_span.child("campaign.attack");
                attack_span.record_str("attack", spec.name());
                attack_span.record_u64("rows", self.rows_done as u64);
                let result = spec.run(
                    self.scenario.system.model(),
                    &data.adv_indices,
                    &data.target_indices,
                    &self.engine,
                    &batch,
                )?;
                attack_span.finish();
                let mse = metrics::mse_per_feature(&result.estimates, &truth);
                let per_feature_mse = metrics::per_feature_mse(&result.estimates, &truth);
                observer.on_event(&CampaignEvent::AttackDone {
                    attack: spec.name(),
                    rows: self.rows_done,
                    mse,
                    per_feature_mse: per_feature_mse.clone(),
                    degraded_rows: result.degraded_rows.len(),
                });
                attack_reports.push(AttackReport {
                    attack: spec.name(),
                    rows: self.rows_done,
                    degraded_rows: result.degraded_rows.len(),
                    mse,
                    per_feature_mse,
                    target_indices: result.target_indices,
                    estimates: result.estimates,
                });
            }
        }

        // ---- Report -------------------------------------------------
        let outcome = if self.rows_done < rows_planned {
            CampaignOutcome::BudgetExhausted {
                rows_done: self.rows_done,
                rows_planned,
            }
        } else {
            CampaignOutcome::Completed
        };
        observer.on_event(&CampaignEvent::Finished {
            outcome,
            cost: self.spent,
        });
        run_span.record_u64("rows_done", self.rows_done as u64);
        run_span.record_str("outcome", outcome.name());
        run_span.finish();
        // Collect the cross-process observability artifacts after the
        // run span finished, so the client JSONL includes it.
        let (server_trace_jsonl, server_audit) = match self.oracle.as_mut() {
            Some(OracleHandle::Served { client, .. }) => {
                (client.server_trace_jsonl().ok(), client.audit_report().ok())
            }
            _ => (None, None),
        };
        Ok(CampaignReport {
            fingerprint: self.scenario.fingerprint.clone(),
            scenario: self.scenario.description.clone(),
            seed: self.scenario.seed,
            oracle: self.scenario.oracle.describe(),
            outcome,
            rows_done: self.rows_done,
            rows_planned,
            cost: self.spent,
            attacks: attack_reports,
            telemetry: global().snapshot().delta_since(&telemetry_before),
            trace_id: self.trace_id,
            client_trace_jsonl: self.tracer.to_jsonl(),
            server_trace_jsonl,
            session_tag: self.session_tag.clone(),
            server_audit,
        })
    }

    /// Resolves the scenario's oracle on first use: the in-process
    /// deployment, or a spawned prediction server (ephemeral port) plus
    /// a connected client.
    fn ensure_oracle(&mut self) -> Result<(), CampaignError> {
        if self.oracle.is_some() {
            return Ok(());
        }
        let handle = match &self.scenario.oracle {
            OracleSpec::InProcess => OracleHandle::InProcess(InProcessOracle::new(
                self.scenario.system.as_ref().clone(),
                Arc::clone(&self.scenario.defense),
            )),
            OracleSpec::Served(cfg) => {
                let serve_cfg = ServeConfig {
                    bind: "127.0.0.1:0".to_string(),
                    replicas: cfg.replicas,
                    batch_cap: cfg.batch_cap,
                    batch_deadline: cfg.batch_deadline,
                    coalesce: true,
                    cache_capacity: cfg.cache_capacity,
                    cache_seed: self.scenario.seed ^ 0x5C0_7E5,
                    round_cost: cfg.round_cost,
                    audit: true,
                };
                let server = PredictionServer::spawn(
                    Arc::clone(&self.scenario.system),
                    Arc::clone(&self.scenario.defense),
                    serve_cfg,
                )
                .map_err(CampaignError::Spawn)?;
                let mut client = RemoteOracle::connect(server.addr())
                    .map_err(|e| CampaignError::Connect(e.to_string()))?;
                // Declare an audit-ledger session tag so the server's
                // per-client ledger attributes this campaign's traffic
                // by fingerprint rather than by anonymous connection.
                let tag: String = format!(
                    "campaign-{}",
                    self.scenario
                        .fingerprint
                        .chars()
                        .take(16)
                        .collect::<String>()
                );
                client
                    .declare_session(&tag)
                    .map_err(|e| CampaignError::Connect(e.to_string()))?;
                self.session_tag = Some(tag);
                OracleHandle::Served {
                    _server: server,
                    client,
                }
            }
        };
        self.oracle = Some(handle);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventLog, NullObserver};
    use crate::spec::ScenarioSpec;
    use fia_data::PaperDataset;

    fn lr_campaign(seed: u64) -> Campaign {
        let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
            .with_scale(0.005)
            .with_partition(crate::PartitionSpec::two_block_random(0.2))
            .with_seed(seed)
            .build();
        Campaign::new(scenario)
            .with_attack(AttackSpec::esa())
            .with_chunk(32)
    }

    #[test]
    fn trace_id_is_golden() {
        // The fingerprint pinned by `spec::tests::fingerprint_is_golden`.
        assert_eq!(
            derive_trace_id("8f24b89fa50ed567", 7),
            0x7349_c3ad_cd7c_c98e
        );
    }

    #[test]
    fn completed_campaign_is_exact_and_metered() {
        let mut campaign = lr_campaign(11);
        let mut log = EventLog::new();
        let report = campaign.run(&mut log).unwrap();
        assert!(report.outcome.is_complete());
        let n = report.rows_planned as u64;
        assert_eq!(report.cost.rows, n);
        assert_eq!(report.cost.queries, n.div_ceil(32));
        assert_eq!(report.cost.cached_rows, 0);
        // Drive at d_target ≤ c−1: ESA exact through the whole session.
        let esa = report.attack("esa").unwrap();
        assert!(esa.mse < 1e-8, "mse = {}", esa.mse);
        assert_eq!(
            esa.per_feature_mse.len(),
            campaign.scenario().data().d_target()
        );
        assert_eq!(log.chunks_done() as u64, report.cost.queries);
        assert!(!log.saw_exhaustion());
    }

    #[test]
    fn exhausted_campaign_returns_partial_estimates() {
        let mut campaign = lr_campaign(13).with_budget(QueryBudget::rows(50));
        let mut log = EventLog::new();
        let report = campaign.run(&mut log).unwrap();
        assert_eq!(
            report.outcome,
            CampaignOutcome::BudgetExhausted {
                rows_done: 50,
                rows_planned: report.rows_planned
            }
        );
        assert_eq!(report.cost.rows, 50);
        assert_eq!(report.attack("esa").unwrap().estimates.rows(), 50);
        assert!(log.saw_exhaustion());
    }

    #[test]
    fn zero_budget_skips_attacks() {
        let mut campaign = lr_campaign(17).with_budget(QueryBudget::rows(0));
        let report = campaign.run(&mut NullObserver).unwrap();
        assert_eq!(report.rows_done, 0);
        assert!(report.attacks.is_empty());
        assert_eq!(report.cost, QueryCost::default());
        assert!(!report.outcome.is_complete());
    }

    #[test]
    fn resume_completes_and_matches_fresh_run() {
        let mut fresh = lr_campaign(19);
        let full = fresh.run(&mut NullObserver).unwrap();

        let mut stopped = lr_campaign(19).with_budget(QueryBudget::rows(45));
        let partial = stopped.run(&mut NullObserver).unwrap();
        assert!(!partial.outcome.is_complete());
        stopped.set_budget(QueryBudget::unlimited());
        let resumed = stopped.run(&mut NullObserver).unwrap();
        assert!(resumed.outcome.is_complete());
        // Chunk boundaries differ between the runs (45-row remainder),
        // but the release boundary is deterministic per row, so the
        // resumed corpus — and therefore the attack — is bit-identical.
        assert_eq!(
            resumed.attack("esa").unwrap().estimates,
            full.attack("esa").unwrap().estimates
        );
        assert_eq!(resumed.cost.rows, full.cost.rows);
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        use crate::checkpoint::{CampaignCheckpoint, CheckpointError};

        let mut fresh = lr_campaign(29);
        let full = fresh.run(&mut NullObserver).unwrap();

        // Drive the stepping API directly (the daemon's loop), stop
        // after two chunks, checkpoint through the blob codec, and
        // resume in a "new process" (a fresh Campaign over a freshly
        // built scenario).
        let mut first = lr_campaign(29);
        first.begin(&mut NullObserver).unwrap();
        assert_eq!(first.step(&mut NullObserver).unwrap(), StepOutcome::Chunk);
        assert_eq!(first.step(&mut NullObserver).unwrap(), StepOutcome::Chunk);
        let blob = first.checkpoint().to_blob();
        drop(first); // the "kill": the run context and oracle die here

        let cp = CampaignCheckpoint::from_blob(&blob).unwrap();
        assert_eq!(cp.rows_done, 64);
        let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
            .with_scale(0.005)
            .with_partition(crate::PartitionSpec::two_block_random(0.2))
            .with_seed(29)
            .build();
        let mut resumed = Campaign::restore(scenario, &cp)
            .unwrap()
            .with_attack(AttackSpec::esa());
        assert_eq!(resumed.rows_done(), 64);
        assert_eq!(resumed.chunks_issued(), 2);
        let report = resumed.run(&mut NullObserver).unwrap();
        assert!(report.outcome.is_complete());
        assert_eq!(report.cost, full.cost);
        assert_eq!(
            report.attack("esa").unwrap().estimates,
            full.attack("esa").unwrap().estimates
        );

        // A checkpoint from a different scenario is refused, typed.
        let other = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
            .with_scale(0.005)
            .with_partition(crate::PartitionSpec::two_block_random(0.2))
            .with_seed(30)
            .build();
        assert!(matches!(
            Campaign::restore(other, &cp),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn attached_external_oracle_is_queried_and_budgeted() {
        let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
            .with_scale(0.005)
            .with_partition(crate::PartitionSpec::two_block_random(0.2))
            .with_seed(31)
            .build();
        let external = InProcessOracle::new(
            scenario.system().as_ref().clone(),
            Arc::clone(scenario.defense()),
        );
        let mut owned = Campaign::new(scenario.clone())
            .with_attack(AttackSpec::esa())
            .with_chunk(32);
        let mut attached = Campaign::new(scenario)
            .with_attack(AttackSpec::esa())
            .with_chunk(32);
        attached.attach_oracle(Box::new(external));
        let a = owned.run(&mut NullObserver).unwrap();
        let b = attached.run(&mut NullObserver).unwrap();
        assert_eq!(
            a.attack("esa").unwrap().estimates,
            b.attack("esa").unwrap().estimates
        );
        assert_eq!(a.cost, b.cost);
    }

    #[test]
    fn in_process_oracle_applies_defense_at_release() {
        use fia_defense::RoundingDefense;
        let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
            .with_scale(0.005)
            .with_partition(crate::PartitionSpec::two_block_random(0.2))
            .with_defense(DefensePipeline::new().then(RoundingDefense::coarse()))
            .with_seed(23)
            .build();
        let mut oracle = InProcessOracle::new(
            scenario.system().as_ref().clone(),
            Arc::clone(scenario.defense()),
        );
        let v = oracle.confidences(&[0, 1, 2]).unwrap();
        for &x in v.as_slice() {
            assert!(
                ((x * 10.0) - (x * 10.0).round()).abs() < 1e-9,
                "score {x} not rounded at release"
            );
        }
        assert_eq!(oracle.query_cost().rows, 3);
    }
}
