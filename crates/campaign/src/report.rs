//! The campaign's terminal artifact.
//!
//! Every run ends in one [`CampaignReport`]: attack metrics, the
//! session's [`QueryCost`], the scenario fingerprint and seed — enough
//! to reproduce the run and to compare runs across scenarios. The
//! report serializes to JSON ([`CampaignReport::to_json`]) with the
//! same hand-rolled writer style as the bench harness (the offline
//! build has no serde); the raw estimate matrices stay in memory only.

use fia_core::QueryCost;
use fia_linalg::Matrix;
use fia_serve::AuditSummary;
use fia_telemetry::{json::escape, TelemetrySnapshot};
use std::fmt::Write as _;

/// How a campaign session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// The full planned corpus was accumulated and attacked.
    Completed,
    /// The [`QueryBudget`](crate::QueryBudget) ran out first; the
    /// attacks ran over the partial corpus accumulated so far.
    BudgetExhausted {
        /// Rows accumulated when the budget ran out.
        rows_done: usize,
        /// Rows the full campaign would have accumulated.
        rows_planned: usize,
    },
}

impl CampaignOutcome {
    /// Short stable identifier (`"completed"` / `"budget-exhausted"`).
    pub fn name(&self) -> &'static str {
        match self {
            CampaignOutcome::Completed => "completed",
            CampaignOutcome::BudgetExhausted { .. } => "budget-exhausted",
        }
    }

    /// `true` for [`CampaignOutcome::Completed`].
    pub fn is_complete(&self) -> bool {
        matches!(self, CampaignOutcome::Completed)
    }
}

/// One attack's results over the accumulated corpus.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Attack identifier (`"esa"`, `"pra"`, `"grna"`).
    pub attack: &'static str,
    /// Rows inferred (the corpus size — partial under an exhausted
    /// budget).
    pub rows: usize,
    /// Rows where inference degraded to a fallback.
    pub degraded_rows: usize,
    /// MSE-per-feature (Eqn 10) against the ground truth.
    pub mse: f64,
    /// Per-target-feature MSE columns, ordered per `target_indices`.
    pub per_feature_mse: Vec<f64>,
    /// Global feature indices the estimate columns reconstruct.
    pub target_indices: Vec<usize>,
    /// The inferred target features (`rows × d_target`). Not serialized
    /// by [`CampaignReport::to_json`].
    pub estimates: Matrix,
}

/// The single serializable artifact a campaign run ends in.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Scenario fingerprint (`ScenarioSpec::fingerprint`).
    pub fingerprint: String,
    /// Canonical scenario description (`ScenarioSpec::describe`).
    pub scenario: String,
    /// Scenario seed.
    pub seed: u64,
    /// Oracle kind the session queried (`"in-process"` / `"served(…)"`).
    pub oracle: String,
    /// How the session ended.
    pub outcome: CampaignOutcome,
    /// Rows accumulated (equals `rows_planned` when completed).
    pub rows_done: usize,
    /// Rows a full campaign would accumulate.
    pub rows_planned: usize,
    /// What the session cost the deployment, metered at the oracle
    /// boundary (including rows the deployment served from cache).
    pub cost: QueryCost,
    /// One entry per configured attack, in configuration order.
    pub attacks: Vec<AttackReport>,
    /// What this run added to the process-global telemetry registry
    /// (kernel calls, attack phases, campaign chunk counters), as a
    /// snapshot delta over the run.
    pub telemetry: TelemetrySnapshot,
    /// The session's distributed-trace id, stamped on every traced
    /// prediction query (deterministic: derived from fingerprint and
    /// seed, so reruns of one scenario share it).
    pub trace_id: u64,
    /// Client-side spans (`campaign.run` / `campaign.chunk` /
    /// `campaign.attack`) as JSONL: every run and attack span of the
    /// session, and of its `campaign.chunk` spans only those that the
    /// kept `serve.request` spans of [`CampaignReport::server_trace_jsonl`]
    /// name as parent, plus the last
    /// [`fia_serve::KEPT_TREES_PER_BUCKET`] chunk spans of each
    /// `dur_us` histogram bucket. So every kept server tree resolves to
    /// its chunk in [`CampaignReport::merged_trace_jsonl`]. Sessions
    /// without a server trace (in-process or attached oracles) keep by
    /// the bucket rule alone.
    pub client_trace_jsonl: String,
    /// The server's kept span trees (`serve.request` → `serve.round`)
    /// as JSONL: for each request-latency bucket and outcome, the trees
    /// of the last [`fia_serve::KEPT_TREES_PER_BUCKET`] traced requests
    /// the server answered, this run's or earlier ones', in answer
    /// order. `None` for in-process sessions.
    pub server_trace_jsonl: Option<String>,
    /// The audit-ledger session tag this campaign declared to the
    /// server; `None` for in-process sessions.
    pub session_tag: Option<String>,
    /// The server's per-client audit ledger at run end; `None` for
    /// in-process sessions.
    pub server_audit: Option<AuditSummary>,
}

impl CampaignReport {
    /// The report for one attack by name, if present.
    pub fn attack(&self, name: &str) -> Option<&AttackReport> {
        self.attacks.iter().find(|a| a.attack == name)
    }

    /// One merged distributed trace: the client-side spans followed by
    /// the server's kept span trees. The two id spaces are disjoint
    /// (server span ids start at `1 << 32`), and every kept
    /// `serve.request` span's parent is the client-side `campaign.chunk`
    /// span that caused it — so the concatenated JSONL resolves into a
    /// single cross-process tree per `campaign.run`, with the server
    /// subtrees of the chunks whose requests the server kept. For
    /// in-process sessions this is just the client trace.
    pub fn merged_trace_jsonl(&self) -> String {
        match &self.server_trace_jsonl {
            Some(server) => format!("{}{}", self.client_trace_jsonl, server),
            None => self.client_trace_jsonl.clone(),
        }
    }

    /// Serializes the report (metrics only — estimates stay in memory)
    /// as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"fingerprint\": \"{}\",", self.fingerprint);
        let _ = writeln!(out, "  \"scenario\": \"{}\",", escape(&self.scenario));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"oracle\": \"{}\",", escape(&self.oracle));
        let _ = writeln!(out, "  \"trace_id\": {},", self.trace_id);
        if let Some(tag) = &self.session_tag {
            let _ = writeln!(out, "  \"session_tag\": \"{}\",", escape(tag));
        }
        let _ = writeln!(out, "  \"outcome\": \"{}\",", self.outcome.name());
        let _ = writeln!(out, "  \"rows_done\": {},", self.rows_done);
        let _ = writeln!(out, "  \"rows_planned\": {},", self.rows_planned);
        let _ = writeln!(
            out,
            "  \"cost\": {{\"queries\": {}, \"rows\": {}, \"cached_rows\": {}}},",
            self.cost.queries, self.cost.rows, self.cost.cached_rows
        );
        out.push_str("  \"attacks\": [\n");
        for (i, a) in self.attacks.iter().enumerate() {
            let per_feature: Vec<String> = a
                .per_feature_mse
                .iter()
                .map(|v| format!("{v:.9e}"))
                .collect();
            let _ = write!(
                out,
                "    {{\"attack\": \"{}\", \"rows\": {}, \"degraded_rows\": {}, \"mse\": {:.9e}, \"per_feature_mse\": [{}]}}",
                a.attack,
                a.rows,
                a.degraded_rows,
                a.mse,
                per_feature.join(", ")
            );
            out.push_str(if i + 1 < self.attacks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(out, "  \"telemetry\": {}", self.telemetry.to_json());
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_report() -> CampaignReport {
        CampaignReport {
            fingerprint: "deadbeefdeadbeef".to_string(),
            scenario: "data=paper;model=\"lr\"".to_string(),
            seed: 7,
            oracle: "in-process".to_string(),
            outcome: CampaignOutcome::BudgetExhausted {
                rows_done: 5,
                rows_planned: 10,
            },
            rows_done: 5,
            rows_planned: 10,
            cost: QueryCost {
                queries: 2,
                rows: 5,
                cached_rows: 1,
            },
            attacks: vec![AttackReport {
                attack: "esa",
                rows: 5,
                degraded_rows: 0,
                mse: 1.5e-17,
                per_feature_mse: vec![1e-17, 2e-17],
                target_indices: vec![3, 4],
                estimates: Matrix::zeros(5, 2),
            }],
            telemetry: TelemetrySnapshot::default(),
            trace_id: 0xFEED,
            client_trace_jsonl: "{\"id\":1,\"name\":\"campaign.run\"}\n".to_string(),
            server_trace_jsonl: None,
            session_tag: None,
            server_audit: None,
        }
    }

    #[test]
    fn json_is_balanced_and_carries_cost() {
        let json = toy_report().to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"cached_rows\": 1"));
        assert!(json.contains("\"outcome\": \"budget-exhausted\""));
        assert!(json.contains("\\\"lr\\\""), "quotes escaped: {json}");
        assert!(json.contains("\"attack\": \"esa\""));
        assert!(json.contains("\"telemetry\": {\"instruments\":[]}"));
        assert!(json.contains("\"trace_id\": 65261"));
        // Estimates and traces are not serialized into the report JSON.
        assert!(!json.contains("estimates"));
        assert!(!json.contains("campaign.run"));
    }

    #[test]
    fn merged_trace_concatenates_client_then_server() {
        let mut r = toy_report();
        assert_eq!(r.merged_trace_jsonl(), r.client_trace_jsonl);
        r.server_trace_jsonl = Some("{\"id\":4294967296,\"parent\":1}\n".to_string());
        let merged = r.merged_trace_jsonl();
        assert!(merged.starts_with(&r.client_trace_jsonl));
        assert!(merged.ends_with("\"parent\":1}\n"));
        assert_eq!(merged.lines().count(), 2);
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut r = toy_report();
        r.scenario = "custom:line1\nline2\t\u{1}".to_string();
        let json = r.to_json();
        assert!(json.contains("line1\\nline2\\t\\u0001"));
        assert!(!json.contains('\u{1}'));
    }

    #[test]
    fn outcome_names_and_lookup() {
        let r = toy_report();
        assert!(!r.outcome.is_complete());
        assert_eq!(CampaignOutcome::Completed.name(), "completed");
        assert_eq!(r.attack("esa").unwrap().rows, 5);
        assert!(r.attack("pra").is_none());
    }
}
