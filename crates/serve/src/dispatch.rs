//! Sharded dispatch over the replica pool.
//!
//! Two request families, two routing policies:
//!
//! * **Stored-index queries** route by *shard*: the stored prediction
//!   set is split into consistent contiguous row ranges, one per
//!   replica, so a given sample index always lands on the same backend
//!   (its party slices stay hot there, and repeated adversary queries
//!   for one row serialize onto one queue). A request whose indices span
//!   shards is split into per-shard sub-rounds and reassembled in
//!   request order — the client sees one response either way.
//! * **Ad-hoc feature queries** have no shard affinity (they name no
//!   stored row), so they route to the least-loaded replica by queued
//!   row count.
//!
//! The [`ScoreCache`] sits here, strictly *after* the defense pipeline
//! in dataflow terms: what it stores is what a replica's round
//! *released* (post-defense), keyed by stored-sample index. Hits are
//! answered without touching any replica queue — no joint round, no
//! simulated protocol cost — and re-release the first-released bytes
//! bit-identically.

use crate::cache::ScoreCache;
use crate::metrics::ServerMetrics;
use crate::pool::{Job, ReplicaPool, ReplyTo, RoundInput, TraceLink};
use fia_linalg::Matrix;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Consistent contiguous row-range sharding of `n_rows` stored samples
/// across `n_shards` backends: shard `s` owns rows
/// `[s · ⌈n/N⌉, (s+1) · ⌈n/N⌉)` (the last shard takes the remainder).
/// The map is pure arithmetic — no state to rebalance — so every server
/// component and test agrees on row placement by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    n_rows: usize,
    n_shards: usize,
    rows_per_shard: usize,
}

impl ShardMap {
    /// A map of `n_rows` stored samples over `n_shards ≥ 1` shards.
    pub fn new(n_rows: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.max(1);
        ShardMap {
            n_rows,
            n_shards,
            rows_per_shard: n_rows.div_ceil(n_shards).max(1),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The shard owning stored row `row`.
    ///
    /// # Panics
    /// Panics when `row` is outside the stored prediction set.
    pub fn shard_of(&self, row: usize) -> usize {
        assert!(row < self.n_rows, "row {row} outside the shard map");
        (row / self.rows_per_shard).min(self.n_shards - 1)
    }

    /// The contiguous row range shard `shard` owns (possibly empty for
    /// trailing shards when `n_rows < n_shards`).
    pub fn range_of(&self, shard: usize) -> std::ops::Range<usize> {
        let lo = (shard * self.rows_per_shard).min(self.n_rows);
        let hi = ((shard + 1) * self.rows_per_shard).min(self.n_rows);
        lo..hi
    }
}

/// Routes validated prediction requests to the replica pool, answering
/// stored-index rows from the released-score cache where possible.
pub(crate) struct Dispatcher {
    pool: ReplicaPool,
    shards: ShardMap,
    /// `None` when caching is disabled (`cache_capacity == 0`).
    cache: Option<Mutex<ScoreCache>>,
    metrics: Arc<ServerMetrics>,
    n_classes: usize,
}

impl Dispatcher {
    pub fn new(
        pool: ReplicaPool,
        shards: ShardMap,
        cache: Option<ScoreCache>,
        metrics: Arc<ServerMetrics>,
        n_classes: usize,
    ) -> Self {
        debug_assert_eq!(pool.len(), shards.n_shards(), "one shard per replica");
        Dispatcher {
            pool,
            shards,
            cache: cache.map(Mutex::new),
            metrics,
            n_classes,
        }
    }

    /// Phase 1 of a stored-index request (synchronous, no pool traffic):
    /// fill cache hits directly into the output matrix and group the
    /// misses by owning shard. The reactor registers the plan's groups
    /// as in-flight parts, builds each with [`Part::stored`], and folds
    /// releases back in with [`Self::finish_stored_part`].
    pub fn plan_stored(&self, indices: &[usize]) -> StoredPlan {
        let n = indices.len();
        let mut out = Matrix::zeros(n, self.n_classes);

        let mut misses: Vec<(usize, usize)> = Vec::new(); // (request pos, sample index)
        if let Some(cache) = &self.cache {
            let cache = cache.lock().expect("score cache lock");
            for (pos, &idx) in indices.iter().enumerate() {
                match cache.get(idx) {
                    Some(row) => out.row_mut(pos).copy_from_slice(row),
                    None => misses.push((pos, idx)),
                }
            }
        } else {
            misses.extend(indices.iter().copied().enumerate());
        }
        let hits = (n - misses.len()) as u64;
        if self.cache.is_some() {
            self.metrics.record_cache(hits, misses.len() as u64);
        }

        // Group the misses by owning shard; each group becomes one
        // sub-round, all in flight concurrently.
        let mut by_shard: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (pos, idx) in misses {
            by_shard
                .entry(self.shards.shard_of(idx))
                .or_default()
                .push((pos, idx));
        }
        StoredPlan {
            out,
            hits,
            groups: by_shard.into_iter().collect(),
        }
    }

    /// Phase 3: admits one sub-round's released rows into the cache and
    /// scatters the *canonical* bytes back into request order. `admit`
    /// returns the already-resident row when a concurrent request
    /// populated the entry first, so duplicate in-flight queries for one
    /// sample all release identical bytes.
    pub fn finish_stored_part(&self, group: &[(usize, usize)], part: &Matrix, out: &mut Matrix) {
        if let Some(cache) = &self.cache {
            let mut cache = cache.lock().expect("score cache lock");
            for (r, &(pos, idx)) in group.iter().enumerate() {
                let canonical = cache.admit(idx, part.row(r).to_vec());
                out.row_mut(pos).copy_from_slice(&canonical);
            }
        } else {
            for (r, &(pos, _)) in group.iter().enumerate() {
                out.row_mut(pos).copy_from_slice(part.row(r));
            }
        }
    }

    /// The replica `part` goes to now: its shard, or the least-loaded
    /// replica for an ad-hoc part.
    fn replica_of(&self, part: &Part) -> usize {
        part.replica.unwrap_or_else(|| self.pool.least_loaded())
    }

    /// Queues `part` on its replica's batcher. A send that fails
    /// mid-shutdown drops the job, whose reply guard delivers the error
    /// completion — the caller never has to special-case it.
    pub fn send(&self, part: Part) {
        let _ = self.pool.send(self.replica_of(&part), part.job);
    }

    /// Whether `part` is small enough, and rounds cheap enough, for
    /// [`Self::run_here`] ever to run it on the calling thread.
    pub fn fits_here(&self, part: &Part) -> bool {
        self.pool.fits_here(part.job.rows)
    }

    /// Runs `part` as a round on the calling thread when
    /// [`ReplicaPool::run_here`] allows it, counting it in
    /// `fia_serve_reactor_rounds_total`; otherwise queues it as
    /// [`Self::send`] does.
    pub fn run_here(&self, part: Part) {
        let replica = self.replica_of(&part);
        match self.pool.run_here(replica, part.job) {
            Ok(()) => self.metrics.record_reactor_round(),
            Err(job) => {
                let _ = self.pool.send(replica, job);
            }
        }
    }
}

/// One planned sub-round and where it goes.
pub(crate) struct Part {
    /// The owning shard's replica; `None` for an ad-hoc part, which goes
    /// to the least-loaded replica when it is sent.
    replica: Option<usize>,
    job: Job,
}

impl Part {
    /// Phase 2 of a stored-index request: the job for one planned miss
    /// group, threading the request's trace link (if traced) into it so
    /// the round span files under the part's dispatch span. The reactor
    /// sends it with [`Dispatcher::send`] or [`Dispatcher::run_here`].
    pub fn stored(
        shard: usize,
        group: &[(usize, usize)],
        reply: ReplyTo,
        trace: Option<TraceLink>,
    ) -> Part {
        let sub_indices: Vec<usize> = group.iter().map(|&(_, idx)| idx).collect();
        let rows = sub_indices.len();
        Part {
            replica: Some(shard),
            job: Job {
                input: RoundInput::Stored(sub_indices),
                rows,
                reply,
                trace,
                enqueued: Instant::now(),
            },
        }
    }

    /// The job for an ad-hoc feature request. It has no shard: it goes
    /// to whichever replica is least loaded when it is sent. Never
    /// cached: an ad-hoc query names no stored row, so there is no
    /// stable identity to key a re-release on.
    pub fn adhoc(
        blocks: Vec<Matrix>,
        rows: usize,
        reply: ReplyTo,
        trace: Option<TraceLink>,
    ) -> Part {
        Part {
            replica: None,
            job: Job {
                input: RoundInput::AdHoc(blocks),
                rows,
                reply,
                trace,
                enqueued: Instant::now(),
            },
        }
    }
}

/// A planned stored-index request: cache hits already filled, misses
/// grouped into per-shard sub-rounds awaiting dispatch.
pub(crate) struct StoredPlan {
    /// The released scores, request-ordered; hit rows are final, miss
    /// rows are zeros until their sub-round completes.
    pub out: Matrix,
    /// Rows served from the cache.
    pub hits: u64,
    /// `(shard, [(request pos, sample index)])` miss groups, in shard
    /// order.
    pub groups: Vec<(usize, Vec<(usize, usize)>)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_covers_every_row_exactly_once() {
        for (n_rows, n_shards) in [(72, 4), (10, 3), (5, 8), (1, 1), (100, 7)] {
            let map = ShardMap::new(n_rows, n_shards);
            let mut owned = vec![0usize; n_rows];
            for s in 0..map.n_shards() {
                for row in map.range_of(s) {
                    owned[row] += 1;
                    assert_eq!(map.shard_of(row), s, "range/shard_of disagree");
                }
            }
            assert!(
                owned.iter().all(|&c| c == 1),
                "{n_rows} rows over {n_shards} shards not a partition: {owned:?}"
            );
        }
    }

    #[test]
    fn shard_ranges_are_contiguous_and_ordered() {
        let map = ShardMap::new(72, 4);
        assert_eq!(map.range_of(0), 0..18);
        assert_eq!(map.range_of(3), 54..72);
        assert_eq!(map.shard_of(0), 0);
        assert_eq!(map.shard_of(17), 0);
        assert_eq!(map.shard_of(18), 1);
        assert_eq!(map.shard_of(71), 3);
    }

    #[test]
    fn consistent_sharding_is_deterministic() {
        // "Consistent" here means pure arithmetic: two independently
        // constructed maps place every row identically.
        let a = ShardMap::new(1000, 6);
        let b = ShardMap::new(1000, 6);
        for row in 0..1000 {
            assert_eq!(a.shard_of(row), b.shard_of(row));
        }
    }

    #[test]
    #[should_panic(expected = "outside the shard map")]
    fn out_of_range_row_panics() {
        ShardMap::new(10, 2).shard_of(10);
    }

    #[test]
    fn more_shards_than_rows_leaves_trailing_shards_empty() {
        let map = ShardMap::new(3, 8);
        for row in 0..3 {
            assert_eq!(map.shard_of(row), row);
        }
        for shard in 3..8 {
            assert!(map.range_of(shard).is_empty());
        }
    }
}
