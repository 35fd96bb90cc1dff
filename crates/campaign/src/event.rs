//! Streaming campaign progress.
//!
//! A campaign is a long-running adversary session (accumulate → attack
//! → evaluate); [`CampaignEvent`]s stream its progress to a
//! [`CampaignObserver`] as it happens — chunk completions with
//! cost-so-far, budget exhaustion, per-attack per-feature error — so a
//! driver can render progress, abort early, or log a trace, without
//! waiting for the final [`CampaignReport`](crate::CampaignReport).

use crate::budget::QueryBudget;
use crate::report::CampaignOutcome;
use fia_core::QueryCost;
use fia_telemetry::json::{self, ObjectBuilder, Value};
use std::time::Duration;

/// One progress event of a running campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignEvent {
    /// The session started (or resumed) accumulating.
    Started {
        /// Scenario fingerprint (see `ScenarioSpec::fingerprint`).
        fingerprint: String,
        /// Rows the full campaign would accumulate.
        rows_planned: usize,
        /// Rows already accumulated (non-zero when resuming).
        rows_done: usize,
        /// The session's budget.
        budget: QueryBudget,
    },
    /// One accumulation chunk was answered by the oracle.
    ChunkDone {
        /// Zero-based chunk index within the whole session.
        chunk: usize,
        /// Rows accumulated so far (across resumes).
        rows_done: usize,
        /// Rows the full campaign would accumulate.
        rows_planned: usize,
        /// Session cost so far, as metered at the oracle boundary.
        cost: QueryCost,
        /// Wall-clock time this chunk's oracle round took (monotonic
        /// clock).
        duration: Duration,
        /// Cumulative wall-clock time since this `run()` started
        /// (monotonic clock; resets on resume).
        elapsed: Duration,
    },
    /// The budget ran out before the planned corpus was complete; the
    /// session continues to the attack stage over the partial corpus.
    BudgetExhausted {
        /// Rows accumulated when the budget ran out.
        rows_done: usize,
        /// Rows the full campaign would have accumulated.
        rows_planned: usize,
        /// Session cost at exhaustion.
        cost: QueryCost,
    },
    /// One attack finished over the accumulated corpus.
    AttackDone {
        /// Attack identifier (`"esa"`, `"pra"`, `"grna"`).
        attack: &'static str,
        /// Rows the attack inferred (the accumulated corpus size).
        rows: usize,
        /// MSE-per-feature (Eqn 10) against the ground truth.
        mse: f64,
        /// Per-target-feature MSE columns, ordered per `target_indices`.
        per_feature_mse: Vec<f64>,
        /// Rows where inference degraded to a fallback.
        degraded_rows: usize,
    },
    /// The session finished; the final report follows.
    Finished {
        /// How the session ended.
        outcome: CampaignOutcome,
        /// Total session cost.
        cost: QueryCost,
    },
}

impl CampaignEvent {
    /// Short stable event-kind identifier (the `"event"` JSON field).
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignEvent::Started { .. } => "started",
            CampaignEvent::ChunkDone { .. } => "chunk-done",
            CampaignEvent::BudgetExhausted { .. } => "budget-exhausted",
            CampaignEvent::AttackDone { .. } => "attack-done",
            CampaignEvent::Finished { .. } => "finished",
        }
    }

    /// One compact JSON object (a JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        fn with_cost(b: ObjectBuilder, cost: &QueryCost) -> ObjectBuilder {
            b.u64("queries", cost.queries)
                .u64("rows", cost.rows)
                .u64("cached_rows", cost.cached_rows)
        }
        let b = ObjectBuilder::new().str("event", self.kind());
        match self {
            CampaignEvent::Started {
                fingerprint,
                rows_planned,
                rows_done,
                budget,
            } => {
                let axis = |v: Option<u64>| v.map_or("null".to_string(), |n| n.to_string());
                let budget_obj = ObjectBuilder::new()
                    .raw("max_queries", &axis(budget.max_queries))
                    .raw("max_rows", &axis(budget.max_rows))
                    .build();
                b.str("fingerprint", fingerprint)
                    .u64("rows_done", *rows_done as u64)
                    .u64("rows_planned", *rows_planned as u64)
                    .raw("budget", &budget_obj)
                    .build()
            }
            CampaignEvent::ChunkDone {
                chunk,
                rows_done,
                rows_planned,
                cost,
                duration,
                elapsed,
            } => with_cost(
                b.u64("chunk", *chunk as u64)
                    .u64("rows_done", *rows_done as u64)
                    .u64("rows_planned", *rows_planned as u64)
                    .u64("duration_us", duration.as_micros() as u64)
                    .u64("elapsed_us", elapsed.as_micros() as u64),
                cost,
            )
            .build(),
            CampaignEvent::BudgetExhausted {
                rows_done,
                rows_planned,
                cost,
            } => with_cost(
                b.u64("rows_done", *rows_done as u64)
                    .u64("rows_planned", *rows_planned as u64),
                cost,
            )
            .build(),
            CampaignEvent::AttackDone {
                attack,
                rows,
                mse,
                per_feature_mse,
                degraded_rows,
            } => {
                let per_feature = fia_telemetry::json::array(
                    &per_feature_mse
                        .iter()
                        .map(|v| fia_telemetry::json::number(*v))
                        .collect::<Vec<_>>(),
                );
                b.str("attack", attack)
                    .u64("rows", *rows as u64)
                    .f64("mse", *mse)
                    .raw("per_feature_mse", &per_feature)
                    .u64("degraded_rows", *degraded_rows as u64)
                    .build()
            }
            CampaignEvent::Finished { outcome, cost } => {
                let mut b = b.str("outcome", outcome.name());
                if let CampaignOutcome::BudgetExhausted {
                    rows_done,
                    rows_planned,
                } = outcome
                {
                    b = b
                        .u64("rows_done", *rows_done as u64)
                        .u64("rows_planned", *rows_planned as u64);
                }
                with_cost(b, cost).build()
            }
        }
    }

    /// Parses one JSON object produced by [`CampaignEvent::to_json`]
    /// back into the event — the daemon's attach/replay path, and what
    /// makes archived `campaign_events.jsonl` artifacts
    /// machine-checkable. Durations round-trip at microsecond
    /// granularity (the serialized resolution).
    pub fn from_json(line: &str) -> Result<CampaignEvent, EventParseError> {
        let v = json::parse(line).map_err(|e| EventParseError(e.to_string()))?;
        let req = |key: &str| {
            v.get(key)
                .ok_or_else(|| EventParseError(format!("missing field {key:?}")))
        };
        let req_u64 = |key: &str| {
            req(key)?
                .as_u64()
                .ok_or_else(|| EventParseError(format!("field {key:?} is not an unsigned integer")))
        };
        let req_usize = |key: &str| req_u64(key).map(|n| n as usize);
        let req_f64 = |key: &str| {
            req(key)?
                .as_f64()
                .ok_or_else(|| EventParseError(format!("field {key:?} is not a number")))
        };
        let cost = || -> Result<QueryCost, EventParseError> {
            Ok(QueryCost {
                queries: req_u64("queries")?,
                rows: req_u64("rows")?,
                cached_rows: req_u64("cached_rows")?,
            })
        };
        let kind = req("event")?
            .as_str()
            .ok_or_else(|| EventParseError("field \"event\" is not a string".to_string()))?;
        match kind {
            "started" => {
                let budget_v = req("budget")?;
                let axis = |key: &str| -> Result<Option<u64>, EventParseError> {
                    match budget_v.get(key) {
                        Some(Value::Null) => Ok(None),
                        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
                            EventParseError(format!("budget axis {key:?} is not an integer"))
                        }),
                        None => Err(EventParseError(format!("budget is missing axis {key:?}"))),
                    }
                };
                Ok(CampaignEvent::Started {
                    fingerprint: req("fingerprint")?
                        .as_str()
                        .ok_or_else(|| {
                            EventParseError("field \"fingerprint\" is not a string".to_string())
                        })?
                        .to_string(),
                    rows_planned: req_usize("rows_planned")?,
                    rows_done: req_usize("rows_done")?,
                    budget: QueryBudget {
                        max_queries: axis("max_queries")?,
                        max_rows: axis("max_rows")?,
                    },
                })
            }
            "chunk-done" => Ok(CampaignEvent::ChunkDone {
                chunk: req_usize("chunk")?,
                rows_done: req_usize("rows_done")?,
                rows_planned: req_usize("rows_planned")?,
                cost: cost()?,
                duration: Duration::from_micros(req_u64("duration_us")?),
                elapsed: Duration::from_micros(req_u64("elapsed_us")?),
            }),
            "budget-exhausted" => Ok(CampaignEvent::BudgetExhausted {
                rows_done: req_usize("rows_done")?,
                rows_planned: req_usize("rows_planned")?,
                cost: cost()?,
            }),
            "attack-done" => {
                let attack = match req("attack")?.as_str() {
                    Some("esa") => "esa",
                    Some("pra") => "pra",
                    Some("grna") => "grna",
                    other => {
                        return Err(EventParseError(format!("unknown attack {other:?}")));
                    }
                };
                let per_feature_mse = req("per_feature_mse")?
                    .as_arr()
                    .ok_or_else(|| {
                        EventParseError("field \"per_feature_mse\" is not an array".to_string())
                    })?
                    .iter()
                    .map(|x| {
                        x.as_f64().ok_or_else(|| {
                            EventParseError("per_feature_mse entry is not a number".to_string())
                        })
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                Ok(CampaignEvent::AttackDone {
                    attack,
                    rows: req_usize("rows")?,
                    mse: req_f64("mse")?,
                    per_feature_mse,
                    degraded_rows: req_usize("degraded_rows")?,
                })
            }
            "finished" => {
                let outcome = match req("outcome")?.as_str() {
                    Some("completed") => CampaignOutcome::Completed,
                    Some("budget-exhausted") => CampaignOutcome::BudgetExhausted {
                        rows_done: req_usize("rows_done")?,
                        rows_planned: req_usize("rows_planned")?,
                    },
                    other => {
                        return Err(EventParseError(format!("unknown outcome {other:?}")));
                    }
                };
                Ok(CampaignEvent::Finished {
                    outcome,
                    cost: cost()?,
                })
            }
            other => Err(EventParseError(format!("unknown event kind {other:?}"))),
        }
    }
}

/// A typed [`CampaignEvent::from_json`] failure: what was malformed or
/// missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventParseError(pub String);

impl std::fmt::Display for EventParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid campaign event: {}", self.0)
    }
}

impl std::error::Error for EventParseError {}

/// Receives [`CampaignEvent`]s as a campaign runs. Implemented by any
/// `FnMut(&CampaignEvent)` closure; see also [`NullObserver`] and
/// [`EventLog`].
pub trait CampaignObserver {
    /// Called once per event, in order.
    fn on_event(&mut self, event: &CampaignEvent);
}

impl<F: FnMut(&CampaignEvent)> CampaignObserver for F {
    fn on_event(&mut self, event: &CampaignEvent) {
        self(event)
    }
}

/// Discards every event.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl CampaignObserver for NullObserver {
    fn on_event(&mut self, _event: &CampaignEvent) {}
}

/// Collects every event for later inspection (tests, traces).
#[derive(Debug, Default)]
pub struct EventLog {
    /// The events observed so far, in order.
    pub events: Vec<CampaignEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Number of [`CampaignEvent::ChunkDone`] events observed.
    pub fn chunks_done(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::ChunkDone { .. }))
            .count()
    }

    /// `true` when a [`CampaignEvent::BudgetExhausted`] was observed.
    pub fn saw_exhaustion(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, CampaignEvent::BudgetExhausted { .. }))
    }

    /// Renders every event as one JSONL line each (trailing newline
    /// included when non-empty) — the campaign's trace-sink format.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a [`EventLog::to_jsonl`] artifact back into a log,
    /// skipping blank lines; the first malformed line fails the whole
    /// parse with its 1-based line number.
    pub fn from_jsonl(jsonl: &str) -> Result<EventLog, EventParseError> {
        let mut events = Vec::new();
        for (i, line) in jsonl.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            events.push(
                CampaignEvent::from_json(line)
                    .map_err(|e| EventParseError(format!("line {}: {}", i + 1, e.0)))?,
            );
        }
        Ok(EventLog { events })
    }
}

impl CampaignObserver for EventLog {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_and_log_observe_events() {
        let e = CampaignEvent::ChunkDone {
            chunk: 0,
            rows_done: 8,
            rows_planned: 80,
            cost: QueryCost::default(),
            duration: Duration::from_micros(120),
            elapsed: Duration::from_micros(480),
        };
        let mut count = 0usize;
        {
            let mut obs = |_: &CampaignEvent| count += 1;
            obs.on_event(&e);
            obs.on_event(&e);
        }
        assert_eq!(count, 2);

        let mut log = EventLog::new();
        log.on_event(&e);
        log.on_event(&CampaignEvent::BudgetExhausted {
            rows_done: 8,
            rows_planned: 80,
            cost: QueryCost::default(),
        });
        assert_eq!(log.chunks_done(), 1);
        assert!(log.saw_exhaustion());
        NullObserver.on_event(&e);
    }

    #[test]
    fn events_render_as_jsonl() {
        let mut log = EventLog::new();
        log.on_event(&CampaignEvent::ChunkDone {
            chunk: 2,
            rows_done: 24,
            rows_planned: 80,
            cost: QueryCost {
                queries: 3,
                rows: 24,
                cached_rows: 8,
            },
            duration: Duration::from_micros(1500),
            elapsed: Duration::from_micros(4000),
        });
        log.on_event(&CampaignEvent::AttackDone {
            attack: "esa",
            rows: 24,
            mse: 0.375,
            per_feature_mse: vec![0.5, 0.25],
            degraded_rows: 0,
        });
        log.on_event(&CampaignEvent::Finished {
            outcome: CampaignOutcome::Completed,
            cost: QueryCost {
                queries: 3,
                rows: 24,
                cached_rows: 8,
            },
        });
        let jsonl = log.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].contains("\"event\":\"chunk-done\""));
        assert!(lines[0].contains("\"duration_us\":1500"));
        assert!(lines[0].contains("\"elapsed_us\":4000"));
        assert!(lines[0].contains("\"cached_rows\":8"));
        assert!(lines[1].contains("\"event\":\"attack-done\""));
        assert!(lines[1].contains("\"per_feature_mse\":[0.5,0.25]"));
        assert!(lines[2].contains("\"event\":\"finished\""));
        assert!(lines[2].contains("\"outcome\":\"completed\""));
        // Every line is a single balanced object.
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
        assert_eq!(EventLog::new().to_jsonl(), "");
    }

    #[test]
    fn event_line_bytes_are_golden() {
        let started = CampaignEvent::Started {
            fingerprint: "8f24b89fa50ed567".to_string(),
            rows_planned: 284,
            rows_done: 0,
            budget: QueryBudget::rows(100),
        };
        assert_eq!(
            started.to_json(),
            r#"{"event":"started","fingerprint":"8f24b89fa50ed567","rows_done":0,"rows_planned":284,"budget":{"max_queries":null,"max_rows":100}}"#
        );
        let chunk = CampaignEvent::ChunkDone {
            chunk: 2,
            rows_done: 24,
            rows_planned: 80,
            cost: QueryCost {
                queries: 3,
                rows: 24,
                cached_rows: u64::MAX,
            },
            duration: Duration::from_micros(1500),
            elapsed: Duration::from_micros(4000),
        };
        assert_eq!(
            chunk.to_json(),
            r#"{"event":"chunk-done","chunk":2,"rows_done":24,"rows_planned":80,"duration_us":1500,"elapsed_us":4000,"queries":3,"rows":24,"cached_rows":18446744073709551615}"#
        );
    }

    fn random_event(rng: &mut impl rand::Rng) -> CampaignEvent {
        let cost = QueryCost {
            queries: rng.gen::<u64>() >> 8,
            rows: rng.gen::<u64>() >> 8,
            // Exercise the full u64 range on one axis: the raw-token
            // JSON numbers must not squeeze through an f64.
            cached_rows: rng.gen::<u64>(),
        };
        match rng.gen::<u32>() % 5 {
            0 => CampaignEvent::Started {
                fingerprint: format!("{:016x}", rng.gen::<u64>()),
                rows_planned: rng.gen::<u32>() as usize,
                rows_done: rng.gen::<u32>() as usize,
                budget: QueryBudget {
                    max_queries: rng.gen::<bool>().then(|| rng.gen::<u64>()),
                    max_rows: rng.gen::<bool>().then(|| rng.gen::<u64>()),
                },
            },
            1 => CampaignEvent::ChunkDone {
                chunk: rng.gen::<u32>() as usize,
                rows_done: rng.gen::<u32>() as usize,
                rows_planned: rng.gen::<u32>() as usize,
                cost,
                duration: Duration::from_micros(rng.gen::<u64>() >> 20),
                elapsed: Duration::from_micros(rng.gen::<u64>() >> 20),
            },
            2 => CampaignEvent::BudgetExhausted {
                rows_done: rng.gen::<u32>() as usize,
                rows_planned: rng.gen::<u32>() as usize,
                cost,
            },
            3 => CampaignEvent::AttackDone {
                attack: ["esa", "pra", "grna"][(rng.gen::<u32>() % 3) as usize],
                rows: rng.gen::<u32>() as usize,
                mse: rng.gen::<f64>() * 10.0,
                per_feature_mse: (0..rng.gen::<u32>() % 8)
                    .map(|_| rng.gen::<f64>() * 3.0)
                    .collect(),
                degraded_rows: rng.gen::<u32>() as usize,
            },
            _ => CampaignEvent::Finished {
                outcome: if rng.gen::<bool>() {
                    CampaignOutcome::Completed
                } else {
                    CampaignOutcome::BudgetExhausted {
                        rows_done: rng.gen::<u32>() as usize,
                        rows_planned: rng.gen::<u32>() as usize,
                    }
                },
                cost,
            },
        }
    }

    #[test]
    fn every_event_kind_round_trips_through_json() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xE7E77);
        for i in 0..500 {
            let e = random_event(&mut rng);
            let line = e.to_json();
            let back = CampaignEvent::from_json(&line)
                .unwrap_or_else(|err| panic!("case {i}: {err} for {line}"));
            assert_eq!(back, e, "case {i}: {line}");
        }
    }

    #[test]
    fn event_log_round_trips_as_jsonl() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let log = EventLog {
            events: (0..40).map(|_| random_event(&mut rng)).collect(),
        };
        let back = EventLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(back.events, log.events);
        assert!(EventLog::from_jsonl("\n  \n").unwrap().events.is_empty());
    }

    #[test]
    fn from_json_rejects_malformed_events() {
        for bad in [
            "not json",
            "{}",
            "{\"event\":\"no-such-kind\"}",
            "{\"event\":42}",
            "{\"event\":\"started\",\"fingerprint\":\"ab\",\"rows_done\":0,\"rows_planned\":1,\"budget\":{\"max_queries\":null}}",
            "{\"event\":\"started\",\"fingerprint\":\"ab\",\"rows_done\":0,\"rows_planned\":1,\"budget\":{\"max_queries\":null,\"max_rows\":-3}}",
            "{\"event\":\"chunk-done\",\"chunk\":0,\"rows_done\":1,\"rows_planned\":2,\"duration_us\":1,\"elapsed_us\":2,\"queries\":1,\"rows\":1}",
            "{\"event\":\"attack-done\",\"attack\":\"zzz\",\"rows\":1,\"mse\":0.5,\"per_feature_mse\":[],\"degraded_rows\":0}",
            "{\"event\":\"attack-done\",\"attack\":\"esa\",\"rows\":1,\"mse\":0.5,\"per_feature_mse\":[\"x\"],\"degraded_rows\":0}",
            "{\"event\":\"finished\",\"outcome\":\"sideways\",\"queries\":1,\"rows\":1,\"cached_rows\":0}",
        ] {
            let err = CampaignEvent::from_json(bad);
            assert!(err.is_err(), "accepted malformed event {bad}");
        }
        // Line numbers surface in JSONL errors.
        let err = EventLog::from_jsonl("{\"event\":\"finished\",\"outcome\":\"completed\",\"queries\":1,\"rows\":1,\"cached_rows\":0}\nnope\n")
            .unwrap_err();
        assert!(err.0.contains("line 2"), "{err}");
    }
}
