//! The query budget and the oracle adapter that enforces it.
//!
//! The paper's adversary is *query-limited*: it spends a bounded number
//! of prediction requests/rows against the deployment (Section V: the
//! corpus is "collected … in the long term", i.e. at a cost). A
//! [`QueryBudget`] makes that bound a first-class constraint, and
//! [`BudgetedOracle`] enforces it *at the oracle boundary*: every
//! prediction round an attack issues passes through the adapter, so no
//! attack — however it drives the oracle — can overspend. The campaign
//! session additionally *plans* around the budget (shrinking its final
//! accumulation chunk to land exactly on the limit), but the adapter is
//! the hard stop.

use crate::checkpoint::CheckpointError;
use fia_core::{OracleError, PredictionOracle, QueryCost, TraceContext};
use fia_linalg::bytes::{ByteReader, ByteWriter};
use fia_linalg::Matrix;

/// A hard limit on what an adversary session may spend against the
/// prediction oracle, in deployment-metered units ([`QueryCost`]):
/// prediction requests and/or total confidence rows. `None` on an axis
/// means that axis is unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryBudget {
    /// Maximum prediction requests (oracle rounds).
    pub max_queries: Option<u64>,
    /// Maximum total confidence rows across all requests.
    pub max_rows: Option<u64>,
}

impl QueryBudget {
    /// No limit on either axis.
    pub fn unlimited() -> Self {
        QueryBudget::default()
    }

    /// Limit the total confidence rows the session may obtain.
    pub fn rows(max_rows: u64) -> Self {
        QueryBudget {
            max_queries: None,
            max_rows: Some(max_rows),
        }
    }

    /// Limit the number of prediction requests the session may issue.
    pub fn queries(max_queries: u64) -> Self {
        QueryBudget {
            max_queries: Some(max_queries),
            max_rows: None,
        }
    }

    /// Adds a row cap to this budget.
    pub fn with_rows(mut self, max_rows: u64) -> Self {
        self.max_rows = Some(max_rows);
        self
    }

    /// Adds a request cap to this budget.
    pub fn with_queries(mut self, max_queries: u64) -> Self {
        self.max_queries = Some(max_queries);
        self
    }

    /// `true` when neither axis is capped.
    pub fn is_unlimited(&self) -> bool {
        self.max_queries.is_none() && self.max_rows.is_none()
    }

    /// Rows still affordable after `spent`, respecting *both* axes:
    /// `Some(0)` when the next request would be rejected outright,
    /// `None` when unlimited.
    pub fn affordable_rows(&self, spent: &QueryCost) -> Option<u64> {
        if let Some(q) = self.max_queries {
            if spent.queries >= q {
                return Some(0);
            }
        }
        self.max_rows.map(|r| r.saturating_sub(spent.rows))
    }

    /// Whether one more request of `rows` rows fits after `spent`.
    pub fn allows(&self, spent: &QueryCost, rows: u64) -> bool {
        if let Some(q) = self.max_queries {
            if spent.queries + 1 > q {
                return false;
            }
        }
        if let Some(r) = self.max_rows {
            if spent.rows + rows > r {
                return false;
            }
        }
        true
    }

    /// Compact human-readable form for reports (`"rows≤500"`,
    /// `"queries≤10,rows≤500"`, `"unlimited"`).
    pub fn describe(&self) -> String {
        match (self.max_queries, self.max_rows) {
            (None, None) => "unlimited".to_string(),
            (Some(q), None) => format!("queries≤{q}"),
            (None, Some(r)) => format!("rows≤{r}"),
            (Some(q), Some(r)) => format!("queries≤{q},rows≤{r}"),
        }
    }
}

/// The serializable budget meter: a [`QueryBudget`] plus everything
/// already [spent](QueryCost) against it — the state a checkpointed
/// session must carry across process restarts so the budget bounds the
/// *whole* session, not each incarnation.
///
/// Serializes as a small versioned blob (version byte, presence flags,
/// little-endian `u64`s); decoding rejects version skew, truncation and
/// trailing bytes with a typed [`CheckpointError`] rather than
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BudgetMeter {
    /// The session's budget.
    pub budget: QueryBudget,
    /// What the session has spent so far.
    pub spent: QueryCost,
}

/// Current budget-meter blob version.
const METER_VERSION: u8 = 1;

impl BudgetMeter {
    /// Serializes the meter: `[version, flags, caps…, spent…]` where
    /// `flags` bit 0 marks a query cap and bit 1 a row cap.
    pub fn to_blob(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(42);
        out.push(METER_VERSION);
        let mut flags = 0u8;
        if self.budget.max_queries.is_some() {
            flags |= 1;
        }
        if self.budget.max_rows.is_some() {
            flags |= 2;
        }
        out.push(flags);
        if let Some(q) = self.budget.max_queries {
            out.put_u64(q);
        }
        if let Some(r) = self.budget.max_rows {
            out.put_u64(r);
        }
        out.put_u64(self.spent.queries);
        out.put_u64(self.spent.rows);
        out.put_u64(self.spent.cached_rows);
        out
    }

    /// Decodes a blob produced by [`BudgetMeter::to_blob`].
    pub fn from_blob(blob: &[u8]) -> Result<Self, CheckpointError> {
        let mut c = ByteReader::new(blob);
        let version = c.u8()?;
        if version != METER_VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let flags = c.u8()?;
        if flags > 3 {
            return Err(CheckpointError::Corrupt("unknown budget-meter flags"));
        }
        let max_queries = if flags & 1 != 0 { Some(c.u64()?) } else { None };
        let max_rows = if flags & 2 != 0 { Some(c.u64()?) } else { None };
        let spent = QueryCost {
            queries: c.u64()?,
            rows: c.u64()?,
            cached_rows: c.u64()?,
        };
        if c.remaining() != 0 {
            return Err(CheckpointError::Corrupt(
                "trailing bytes after budget meter",
            ));
        }
        Ok(BudgetMeter {
            budget: QueryBudget {
                max_queries,
                max_rows,
            },
            spent,
        })
    }
}

/// A [`PredictionOracle`] adapter that meters every round against a
/// [`QueryBudget`] and *refuses* rounds that would overspend.
///
/// Enforcement lives here — below the attack, above the transport — so
/// the guarantee holds for any driver: the campaign session, a raw
/// `accumulate_batch` loop, or an attack issuing oracle rounds itself.
/// The adapter also meters the session's own [`QueryCost`], folding in
/// the rows the deployment answered from its released-score cache (the
/// delta of the inner oracle's own meter).
pub struct BudgetedOracle<'a> {
    inner: &'a mut dyn PredictionOracle,
    budget: QueryBudget,
    spent: QueryCost,
    /// The inner oracle's cached-row meter at adapter construction;
    /// `spent.cached_rows` reports the delta beyond `base_cached`, on
    /// top of whatever prior spend the adapter was seeded with.
    base_cached: u64,
    prior_cached: u64,
}

impl<'a> BudgetedOracle<'a> {
    /// Wraps `inner` under `budget`, starting from zero spend.
    pub fn new(inner: &'a mut dyn PredictionOracle, budget: QueryBudget) -> Self {
        Self::resuming(inner, budget, QueryCost::default())
    }

    /// Wraps `inner` under `budget`, counting `spent` as already spent —
    /// the resume path: a checkpointed session carries its meter across
    /// adapter instances so the budget bounds the *whole* session, not
    /// each run.
    pub fn resuming(
        inner: &'a mut dyn PredictionOracle,
        budget: QueryBudget,
        spent: QueryCost,
    ) -> Self {
        let base_cached = inner.query_cost().cached_rows;
        BudgetedOracle {
            inner,
            budget,
            spent,
            base_cached,
            prior_cached: spent.cached_rows,
        }
    }

    /// What this adapter has metered so far (including any seed spend).
    pub fn spent(&self) -> QueryCost {
        self.spent
    }

    /// Rows still affordable under the budget (`None` = unlimited).
    pub fn affordable_rows(&self) -> Option<u64> {
        self.budget.affordable_rows(&self.spent)
    }
}

impl PredictionOracle for BudgetedOracle<'_> {
    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn n_samples(&self) -> usize {
        self.inner.n_samples()
    }

    fn confidences(&mut self, indices: &[usize]) -> Result<Matrix, OracleError> {
        let rows = indices.len() as u64;
        if !self.budget.allows(&self.spent, rows) {
            return Err(OracleError(format!(
                "query budget exhausted: {} spent {} queries / {} rows, next round wants {rows} rows",
                self.budget.describe(),
                self.spent.queries,
                self.spent.rows,
            )));
        }
        let v = self.inner.confidences(indices)?;
        self.spent.queries += 1;
        self.spent.rows += rows;
        self.spent.cached_rows = self.prior_cached
            + self
                .inner
                .query_cost()
                .cached_rows
                .saturating_sub(self.base_cached);
        Ok(v)
    }

    fn query_cost(&self) -> QueryCost {
        self.spent
    }

    fn set_trace_context(&mut self, ctx: Option<TraceContext>) {
        // Budgeting is cost-transparent to tracing: forward, so a
        // budgeted remote oracle still stamps its wire queries.
        self.inner.set_trace_context(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 3-class toy oracle with a fake cache meter.
    struct ToyOracle {
        cost: QueryCost,
    }

    impl PredictionOracle for ToyOracle {
        fn n_classes(&self) -> usize {
            3
        }
        fn n_samples(&self) -> usize {
            100
        }
        fn confidences(&mut self, indices: &[usize]) -> Result<Matrix, OracleError> {
            self.cost.queries += 1;
            self.cost.rows += indices.len() as u64;
            // Pretend every second row came from a cache.
            self.cost.cached_rows += indices.len() as u64 / 2;
            Ok(Matrix::from_fn(indices.len(), 3, |i, j| {
                (indices[i] * 3 + j) as f64
            }))
        }
        fn query_cost(&self) -> QueryCost {
            self.cost
        }
    }

    #[test]
    fn unlimited_budget_passes_everything_through() {
        let mut toy = ToyOracle {
            cost: QueryCost::default(),
        };
        let mut b = BudgetedOracle::new(&mut toy, QueryBudget::unlimited());
        let v = b.confidences(&[0, 1, 2]).unwrap();
        assert_eq!(v.shape(), (3, 3));
        assert_eq!(b.spent().queries, 1);
        assert_eq!(b.spent().rows, 3);
        assert_eq!(b.affordable_rows(), None);
    }

    #[test]
    fn row_budget_rejects_overspending_round() {
        let mut toy = ToyOracle {
            cost: QueryCost::default(),
        };
        let mut b = BudgetedOracle::new(&mut toy, QueryBudget::rows(5));
        assert!(b.confidences(&[0, 1, 2]).is_ok());
        assert_eq!(b.affordable_rows(), Some(2));
        let err = b.confidences(&[3, 4, 5]).unwrap_err();
        assert!(err.to_string().contains("budget exhausted"), "{err}");
        // The rejected round spent nothing.
        assert_eq!(b.spent().rows, 3);
        assert!(b.confidences(&[3, 4]).is_ok());
        assert_eq!(b.spent().rows, 5);
        assert_eq!(b.affordable_rows(), Some(0));
    }

    #[test]
    fn query_budget_counts_rounds() {
        let mut toy = ToyOracle {
            cost: QueryCost::default(),
        };
        let mut b = BudgetedOracle::new(&mut toy, QueryBudget::queries(2));
        assert!(b.confidences(&[0]).is_ok());
        assert!(b.confidences(&[1]).is_ok());
        assert!(b.confidences(&[2]).is_err());
        assert_eq!(b.spent().queries, 2);
        assert_eq!(b.affordable_rows(), Some(0));
    }

    #[test]
    fn cached_rows_metered_as_inner_delta() {
        let mut toy = ToyOracle {
            cost: QueryCost {
                queries: 7,
                rows: 40,
                cached_rows: 10,
            },
        };
        // Pre-existing inner traffic must not leak into this session.
        let mut b = BudgetedOracle::new(&mut toy, QueryBudget::unlimited());
        b.confidences(&[0, 1, 2, 3]).unwrap();
        assert_eq!(b.spent().cached_rows, 2);
        assert_eq!(b.spent().rows, 4);
    }

    #[test]
    fn resuming_counts_prior_spend_against_budget() {
        let mut toy = ToyOracle {
            cost: QueryCost::default(),
        };
        let prior = QueryCost {
            queries: 1,
            rows: 4,
            cached_rows: 1,
        };
        let mut b = BudgetedOracle::resuming(&mut toy, QueryBudget::rows(6), prior);
        assert_eq!(b.affordable_rows(), Some(2));
        assert!(b.confidences(&[0, 1, 2]).is_err());
        assert!(b.confidences(&[0, 1]).is_ok());
        let spent = b.spent();
        assert_eq!(spent.rows, 6);
        assert_eq!(spent.queries, 2);
        // cached = prior 1 + this run's delta (2/2 = 1).
        assert_eq!(spent.cached_rows, 2);
    }

    #[test]
    fn meter_blob_round_trips_every_flag_combination() {
        let spent = QueryCost {
            queries: 3,
            rows: u64::MAX - 7,
            cached_rows: 11,
        };
        for budget in [
            QueryBudget::unlimited(),
            QueryBudget::queries(9),
            QueryBudget::rows(u64::MAX),
            QueryBudget::queries(2).with_rows(500),
        ] {
            let m = BudgetMeter { budget, spent };
            assert_eq!(BudgetMeter::from_blob(&m.to_blob()), Ok(m));
        }
    }

    #[test]
    fn meter_blob_rejects_skew_truncation_and_trailing_bytes() {
        use crate::checkpoint::CheckpointError;
        let m = BudgetMeter {
            budget: QueryBudget::queries(2).with_rows(500),
            spent: QueryCost::default(),
        };
        let blob = m.to_blob();
        for cut in 0..blob.len() {
            assert_eq!(
                BudgetMeter::from_blob(&blob[..cut]),
                Err(CheckpointError::Truncated),
                "cut at {cut}"
            );
        }
        let mut extra = blob.clone();
        extra.push(0);
        assert!(matches!(
            BudgetMeter::from_blob(&extra),
            Err(CheckpointError::Corrupt(_))
        ));
        let mut skewed = blob.clone();
        skewed[0] = 7;
        assert_eq!(
            BudgetMeter::from_blob(&skewed),
            Err(CheckpointError::UnsupportedVersion(7))
        );
        let mut bad_flags = blob.clone();
        bad_flags[1] = 0xF0;
        assert!(matches!(
            BudgetMeter::from_blob(&bad_flags),
            Err(CheckpointError::Corrupt(_))
        ));
        // Every single-bit flip decodes to `Ok` or a typed error, never
        // a panic.
        let mut flipped = blob.clone();
        for bit in 0..blob.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = BudgetMeter::from_blob(&flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Pins an uncapped meter (flags 0) byte for byte; the checkpoint
    /// golden pins one with both caps (flags 3).
    #[test]
    fn meter_blob_bytes_are_golden() {
        let m = BudgetMeter {
            budget: QueryBudget::unlimited(),
            spent: QueryCost {
                queries: 3,
                rows: 96,
                cached_rows: 5,
            },
        };
        let hex: String = m.to_blob().iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            "01",               // version
            "00",               // flags: no caps
            "0300000000000000", // queries
            "6000000000000000", // rows
            "0500000000000000", // cached_rows
        );
        assert_eq!(hex, golden);
    }

    #[test]
    fn describe_is_compact() {
        assert_eq!(QueryBudget::unlimited().describe(), "unlimited");
        assert_eq!(QueryBudget::rows(9).describe(), "rows≤9");
        assert_eq!(
            QueryBudget::queries(2).with_rows(9).describe(),
            "queries≤2,rows≤9"
        );
        assert!(QueryBudget::unlimited().is_unlimited());
        assert!(!QueryBudget::rows(1).is_unlimited());
    }
}
