//! The batched attack engine.
//!
//! The paper's threat model is stream-shaped: the active party accumulates
//! `(x_adv, v)` pairs over many prediction rounds and attacks the whole
//! corpus at once (GRNA trains on it; ESA solves one linear system per
//! record; PRA restricts one path per record). This module gives every
//! attack the same batch-first interface:
//!
//! * [`QueryBatch`] — `n` accumulated observations (adversary features +
//!   revealed confidence vectors), the unit of work everywhere.
//! * [`Attack`] — the trait ESA, PRA and GRNA implement:
//!   `infer_batch(&QueryBatch) → AttackResult`. Single-record calls are
//!   thin wrappers over a 1-row batch.
//! * [`AttackResult`] — the estimates plus per-run diagnostics.
//! * [`AttackEngine`] — fans a batch out over worker threads in
//!   row-stripes and stitches the results back in order. Implementations
//!   are required to be *chunk-invariant* (same estimates whatever the
//!   stripe boundaries), which the engine's tests enforce; stochastic
//!   attacks achieve this by keying per-row randomness on row content
//!   rather than row position.

use crate::metrics;
use fia_linalg::Matrix;
use std::sync::OnceLock;

/// A batch of accumulated prediction-round observations: one row per
/// query the adversary saw answered.
#[derive(Debug, Clone)]
pub struct QueryBatch {
    /// Adversary-owned feature values, `n × d_adv` (columns ordered per
    /// the attack's `adv_indices`).
    pub x_adv: Matrix,
    /// Revealed confidence scores, `n × c`.
    pub confidences: Matrix,
}

impl QueryBatch {
    /// Builds a batch; rows of both matrices must correspond 1:1.
    ///
    /// # Panics
    /// Panics when the row counts disagree.
    pub fn new(x_adv: Matrix, confidences: Matrix) -> Self {
        assert_eq!(
            x_adv.rows(),
            confidences.rows(),
            "QueryBatch: row count mismatch"
        );
        QueryBatch { x_adv, confidences }
    }

    /// A 1-row batch for the single-record compatibility path.
    pub fn single(x_adv: &[f64], confidence: &[f64]) -> Self {
        QueryBatch {
            x_adv: Matrix::row_vector(x_adv),
            confidences: Matrix::row_vector(confidence),
        }
    }

    /// Number of queries `n` in the batch.
    pub fn len(&self) -> usize {
        self.x_adv.rows()
    }

    /// `true` when the batch holds no queries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The contiguous row-stripe `start..end` as its own batch.
    pub fn stripe(&self, start: usize, end: usize) -> QueryBatch {
        let rows: Vec<usize> = (start..end).collect();
        QueryBatch {
            x_adv: self.x_adv.select_rows(&rows).expect("stripe in range"),
            confidences: self
                .confidences
                .select_rows(&rows)
                .expect("stripe in range"),
        }
    }
}

/// Outcome of one batched attack run.
#[derive(Debug, Clone)]
pub struct AttackResult {
    /// Inferred target features, `n × d_target` (columns ordered per the
    /// attack's `target_indices`).
    pub estimates: Matrix,
    /// Global feature indices the columns of `estimates` reconstruct.
    pub target_indices: Vec<usize>,
    /// Name of the attack that produced this result.
    pub attack: &'static str,
    /// Rows where inference degraded to a fallback (ESA: equations
    /// dropped by a defense; PRA: no surviving path). Estimates for these
    /// rows are best-effort, not the attack's nominal output.
    pub degraded_rows: Vec<usize>,
}

impl AttackResult {
    /// Number of queries answered.
    pub fn n_queries(&self) -> usize {
        self.estimates.rows()
    }

    /// MSE-per-feature (Eqn 10) of the estimates against ground truth.
    pub fn mse_against(&self, truth: &Matrix) -> f64 {
        metrics::mse_per_feature(&self.estimates, truth)
    }

    /// Concatenates per-stripe results back into batch order. Stripe `i`
    /// must hold the rows immediately following stripe `i − 1`.
    fn stitch(parts: Vec<AttackResult>) -> AttackResult {
        let mut iter = parts.into_iter();
        let mut acc = iter.next().expect("at least one stripe");
        for part in iter {
            assert_eq!(acc.attack, part.attack, "stitch: mixed attacks");
            let offset = acc.estimates.rows();
            acc.estimates = acc
                .estimates
                .vstack(&part.estimates)
                .expect("stripe widths agree");
            acc.degraded_rows
                .extend(part.degraded_rows.iter().map(|r| r + offset));
        }
        acc
    }
}

/// A feature-inference attack with a batch-first interface.
///
/// `Sync` is part of the contract so [`AttackEngine`] can share the
/// attack across worker threads; all three paper attacks are read-only at
/// inference time.
pub trait Attack: Sync {
    /// Short stable identifier (`"esa"`, `"pra"`, `"grna"`).
    fn name(&self) -> &'static str;

    /// Global indices of the target features this attack reconstructs.
    fn target_indices(&self) -> &[usize];

    /// Infers target features for every query in the batch.
    fn infer_batch(&self, batch: &QueryBatch) -> AttackResult;

    /// `false` when the attack's output is only defined over the exact
    /// batch it was prepared on (e.g. GRNA's free-variable ablation); the
    /// engine then skips row-striping.
    fn chunkable(&self) -> bool {
        true
    }

    /// Single-record compatibility wrapper: a 1-row batch.
    fn infer_one(&self, x_adv: &[f64], confidence: &[f64]) -> Vec<f64> {
        let result = self.infer_batch(&QueryBatch::single(x_adv, confidence));
        result.estimates.row(0).to_vec()
    }
}

/// Dispatches query batches to attacks, striping rows across worker
/// threads.
///
/// On a single-core host (or for small batches) the engine degrades to a
/// direct `infer_batch` call; because implementations are chunk-invariant
/// the result is identical either way.
#[derive(Debug, Clone)]
pub struct AttackEngine {
    workers: usize,
    /// Minimum rows per stripe — below this, fan-out overhead dominates.
    min_stripe: usize,
}

impl Default for AttackEngine {
    fn default() -> Self {
        Self::new()
    }
}

/// The host's available parallelism (1 when it cannot be queried).
/// Cached — the underlying query is a syscall, and engines are built on
/// the per-batch hot path.
fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

impl AttackEngine {
    /// Engine sized to the host's available parallelism.
    pub fn new() -> Self {
        Self::with_workers(default_workers())
    }

    /// Engine with an explicit worker count (`0` is treated as `1`).
    pub fn with_workers(workers: usize) -> Self {
        AttackEngine {
            workers: workers.max(1),
            min_stripe: 64,
        }
    }

    /// Overrides the minimum stripe height (rows per worker).
    pub fn with_min_stripe(mut self, rows: usize) -> Self {
        self.min_stripe = rows.max(1);
        self
    }

    /// Runs one attack over the batch, striping rows across workers.
    pub fn run(&self, attack: &dyn Attack, batch: &QueryBatch) -> AttackResult {
        let n = batch.len();
        let stripes = if attack.chunkable() {
            self.workers.min(n.div_ceil(self.min_stripe)).max(1)
        } else {
            1
        };
        if stripes <= 1 {
            return attack.infer_batch(batch);
        }

        let per = n.div_ceil(stripes);
        let bounds: Vec<(usize, usize)> = (0..stripes)
            .map(|s| (s * per, ((s + 1) * per).min(n)))
            .filter(|(a, b)| a < b)
            .collect();
        let mut slots: Vec<Option<AttackResult>> = bounds.iter().map(|_| None).collect();
        std::thread::scope(|scope| {
            for (slot, &(start, end)) in slots.iter_mut().zip(&bounds) {
                scope.spawn(move || {
                    *slot = Some(attack.infer_batch(&batch.stripe(start, end)));
                });
            }
        });
        AttackResult::stitch(slots.into_iter().map(|s| s.expect("stripe ran")).collect())
    }

    /// Runs several attacks over the same accumulated stream, in order.
    pub fn run_all(&self, attacks: &[&dyn Attack], batch: &QueryBatch) -> Vec<AttackResult> {
        attacks.iter().map(|a| self.run(*a, batch)).collect()
    }
}

/// Stable content hash of one query row — the seed material that keeps
/// stochastic attacks chunk-invariant: the same `(x_adv, v)` pair draws
/// the same randomness no matter where in a batch (or which stripe) it
/// lands.
pub fn row_seed(base: u64, x_adv: &[f64], confidence: &[f64]) -> u64 {
    crate::fnv_words(base, x_adv.iter().chain(confidence).map(|v| v.to_bits()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy attack: "reconstructs" the negated mean of x_adv, flags rows
    /// whose first confidence is 0. Chunk-invariant by construction.
    struct NegMean {
        targets: Vec<usize>,
    }

    impl Attack for NegMean {
        fn name(&self) -> &'static str {
            "neg-mean"
        }
        fn target_indices(&self) -> &[usize] {
            &self.targets
        }
        fn infer_batch(&self, batch: &QueryBatch) -> AttackResult {
            let n = batch.len();
            let mut est = Matrix::zeros(n, 1);
            let mut degraded = Vec::new();
            for i in 0..n {
                let row = batch.x_adv.row(i);
                est[(i, 0)] = -row.iter().sum::<f64>() / row.len() as f64;
                if batch.confidences[(i, 0)] == 0.0 {
                    degraded.push(i);
                }
            }
            AttackResult {
                estimates: est,
                target_indices: self.targets.clone(),
                attack: self.name(),
                degraded_rows: degraded,
            }
        }
    }

    fn batch(n: usize) -> QueryBatch {
        let x = Matrix::from_fn(n, 3, |i, j| (i * 3 + j) as f64 * 0.01);
        let c = Matrix::from_fn(n, 2, |i, _| if i % 7 == 0 { 0.0 } else { 0.5 });
        QueryBatch::new(x, c)
    }

    #[test]
    fn engine_matches_direct_call() {
        let attack = NegMean { targets: vec![3] };
        let b = batch(301);
        let direct = attack.infer_batch(&b);
        for workers in [1, 2, 4] {
            let engine = AttackEngine::with_workers(workers).with_min_stripe(32);
            let run = engine.run(&attack, &b);
            assert_eq!(run.estimates, direct.estimates, "workers = {workers}");
            assert_eq!(run.degraded_rows, direct.degraded_rows);
        }
    }

    #[test]
    fn engine_small_batch_single_stripe() {
        let attack = NegMean { targets: vec![0] };
        let b = batch(5);
        let engine = AttackEngine::with_workers(8);
        let run = engine.run(&attack, &b);
        assert_eq!(run.n_queries(), 5);
    }

    #[test]
    fn infer_one_wraps_single_row_batch() {
        let attack = NegMean { targets: vec![0] };
        let est = attack.infer_one(&[0.3, 0.6, 0.9], &[0.5, 0.5]);
        assert!((est[0] + 0.6).abs() < 1e-12);
    }

    #[test]
    fn stitch_shifts_degraded_rows() {
        let attack = NegMean { targets: vec![0] };
        let b = batch(14); // rows 0, 7 degraded
        let engine = AttackEngine::with_workers(2).with_min_stripe(1);
        let run = engine.run(&attack, &b);
        assert_eq!(run.degraded_rows, vec![0, 7]);
    }

    #[test]
    fn row_seed_depends_on_content_not_position() {
        let a = row_seed(1, &[0.1, 0.2], &[0.7]);
        let b = row_seed(1, &[0.1, 0.2], &[0.7]);
        let c = row_seed(1, &[0.1, 0.3], &[0.7]);
        let d = row_seed(2, &[0.1, 0.2], &[0.7]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Pinned values: PRA and GRNA inference draws are keyed on them.
        assert_eq!(a, 0x1135_5f62_5e88_3b34);
        assert_eq!(d, 0xdfe2_e363_14ae_fecf);
    }

    #[test]
    #[should_panic(expected = "row count mismatch")]
    fn mismatched_batch_rejected() {
        QueryBatch::new(Matrix::zeros(3, 2), Matrix::zeros(4, 2));
    }

    #[test]
    fn run_all_preserves_order() {
        let a1 = NegMean { targets: vec![0] };
        let a2 = NegMean { targets: vec![1] };
        let b = batch(10);
        let engine = AttackEngine::new();
        let results = engine.run_all(&[&a1, &a2], &b);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].target_indices, vec![0]);
        assert_eq!(results[1].target_indices, vec![1]);
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
    }
}
