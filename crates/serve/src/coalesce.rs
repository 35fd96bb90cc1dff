//! The adaptive micro-batch coalescer.
//!
//! One joint-prediction protocol round can answer any number of queued
//! queries, but each round pays fixed costs — model dispatch, defense
//! application, and in a real deployment the secure-computation round
//! trip itself. The coalescer drains the server's request queue into one
//! round under two caps: a row budget ([`Coalescer::max_rows`]) and a
//! deadline measured from the round's first request
//! ([`Coalescer::max_delay`]).
//!
//! The policy is *adaptive*: the first job is taken the moment it
//! arrives, everything already queued behind it is grabbed without
//! waiting, and the deadline clock only runs when that greedy grab found
//! concurrent traffic. A lone client therefore never pays the deadline
//! as added latency, while concurrent load naturally fills rounds — the
//! classic serving-stack batching behaviour.
//!
//! The row cap is strict: a job that would overflow the round is
//! *carried* into the next round instead of packed (see
//! [`Coalescer::drain`]), so `rows ≤ max_rows` holds for every round
//! with more than one job and arrival order is preserved across rounds.

use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::time::{Duration, Instant};

/// Anything the coalescer can pack into a round: a queued job knows how
/// many query rows it contributes.
pub trait Coalescible {
    /// Query rows this job adds to the round.
    fn rows(&self) -> usize;
}

/// Queue-draining policy for one prediction round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coalescer {
    /// Close the round once it holds at least this many rows.
    pub max_rows: usize,
    /// Close the round this long after its first request arrived, even
    /// if the row budget is not reached. Only consulted when the greedy
    /// drain found concurrent traffic.
    pub max_delay: Duration,
}

impl Coalescer {
    /// A coalescing policy: up to `max_rows` rows per round, waiting at
    /// most `max_delay` past the first request for the round to fill.
    pub fn adaptive(max_rows: usize, max_delay: Duration) -> Self {
        Coalescer {
            max_rows: max_rows.max(1),
            max_delay,
        }
    }

    /// Drains `rx` into one round starting from `first` (which the
    /// caller already received). Returns the jobs of the round, in
    /// arrival order; never blocks longer than `max_delay`.
    ///
    /// The row cap is *strict*: a job that would push the round past
    /// `max_rows` is not packed — it is parked in `carry`, closes the
    /// round, and must be fed back as the next round's `first` (the
    /// batcher loop does this), so arrival order is preserved across
    /// rounds. The single exception is a lone job whose own row count
    /// exceeds the cap: it forms a round of one, because splitting a
    /// request across protocol rounds would change what the defense
    /// pipeline sees released together. The resulting invariant, which
    /// the property sweep pins: every round satisfies
    /// `rows ≤ max_rows || jobs.len() == 1`.
    ///
    /// `carry` must be `None` on entry; the caller owns the parked job
    /// between rounds.
    pub fn drain<T: Coalescible>(
        &self,
        rx: &Receiver<T>,
        first: T,
        carry: &mut Option<T>,
    ) -> Vec<T> {
        debug_assert!(carry.is_none(), "previous round's carry was not consumed");
        let t0 = Instant::now();
        let mut rows = first.rows();
        let mut jobs = vec![first];
        if rows >= self.max_rows {
            return jobs;
        }
        // Greedy phase: everything already queued joins the round free,
        // up to the row cap.
        while let Ok(job) = rx.try_recv() {
            if rows + job.rows() > self.max_rows {
                *carry = Some(job);
                return jobs;
            }
            rows += job.rows();
            jobs.push(job);
            if rows >= self.max_rows {
                return jobs;
            }
        }
        // Adaptive phase: only wait out the deadline when the greedy
        // grab proved there is concurrent traffic to wait for.
        if jobs.len() > 1 {
            while rows < self.max_rows {
                let Some(remaining) = self.max_delay.checked_sub(t0.elapsed()) else {
                    break;
                };
                match rx.recv_timeout(remaining) {
                    Ok(job) => {
                        if rows + job.rows() > self.max_rows {
                            *carry = Some(job);
                            return jobs;
                        }
                        rows += job.rows();
                        jobs.push(job);
                    }
                    Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        jobs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    struct Job(usize);
    impl Coalescible for Job {
        fn rows(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn passthrough_never_merges() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap();
        tx.send(Job(1)).unwrap();
        let c = Coalescer::adaptive(1, Duration::ZERO);
        assert_eq!(c.max_rows, 1);
        let mut carry = None;
        let round = c.drain(&rx, Job(1), &mut carry);
        assert_eq!(round.len(), 1);
        assert!(carry.is_none());
        // The queued jobs are untouched for the next rounds.
        assert_eq!(rx.try_iter().count(), 2);
    }

    #[test]
    fn greedy_drain_takes_everything_queued() {
        let (tx, rx) = mpsc::channel();
        for _ in 0..5 {
            tx.send(Job(1)).unwrap();
        }
        let mut carry = None;
        let round =
            Coalescer::adaptive(64, Duration::from_millis(50)).drain(&rx, Job(1), &mut carry);
        assert_eq!(round.len(), 6);
        assert!(carry.is_none());
    }

    #[test]
    fn row_budget_is_a_strict_cap() {
        let (tx, rx) = mpsc::channel();
        for _ in 0..10 {
            tx.send(Job(2)).unwrap();
        }
        let mut carry = None;
        let round = Coalescer::adaptive(5, Duration::from_secs(5)).drain(&rx, Job(2), &mut carry);
        // 2 + 2 = 4; a third job would make 6 > 5, so it is carried to
        // the next round rather than packed past the cap.
        assert_eq!(round.len(), 2);
        assert_eq!(round.iter().map(Coalescible::rows).sum::<usize>(), 4);
        assert_eq!(carry.take().map(|j| j.rows()), Some(2));
        assert_eq!(rx.try_iter().count(), 8);
    }

    #[test]
    fn oversized_lone_job_still_forms_a_round() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap();
        let mut carry = None;
        let round = Coalescer::adaptive(4, Duration::from_secs(5)).drain(&rx, Job(9), &mut carry);
        // A single job above the cap runs alone; nothing else joins it.
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].rows(), 9);
        assert!(carry.is_none());
        assert_eq!(rx.try_iter().count(), 1);
    }

    #[test]
    fn lone_request_pays_no_deadline() {
        let (_tx, rx) = mpsc::channel::<Job>();
        let t0 = Instant::now();
        let mut carry = None;
        let round = Coalescer::adaptive(64, Duration::from_secs(10)).drain(&rx, Job(1), &mut carry);
        assert_eq!(round.len(), 1);
        // Adaptive rule: no concurrent traffic observed → no waiting.
        assert!(t0.elapsed() < Duration::from_secs(1), "drained immediately");
    }

    #[test]
    fn deadline_window_admits_late_concurrent_jobs() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap(); // concurrency signal for the greedy phase
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let _ = tx.send(Job(1));
        });
        let mut carry = None;
        let round = Coalescer::adaptive(64, Duration::from_secs(2)).drain(&rx, Job(1), &mut carry);
        sender.join().unwrap();
        assert_eq!(round.len(), 3, "late job joined within the deadline");
    }

    #[test]
    fn deadline_phase_carries_an_overflowing_job() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap(); // concurrency signal
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let _ = tx.send(Job(10)); // would overflow the cap of 4
        });
        let mut carry = None;
        let round = Coalescer::adaptive(4, Duration::from_secs(2)).drain(&rx, Job(1), &mut carry);
        sender.join().unwrap();
        assert_eq!(round.len(), 2);
        assert_eq!(carry.map(|j| j.rows()), Some(10));
    }

    #[test]
    fn deadline_expiry_closes_an_unfilled_round() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap();
        let t0 = Instant::now();
        let mut carry = None;
        let round =
            Coalescer::adaptive(64, Duration::from_millis(30)).drain(&rx, Job(1), &mut carry);
        assert_eq!(round.len(), 2);
        let waited = t0.elapsed();
        assert!(
            waited < Duration::from_secs(2),
            "deadline bounded the wait, got {waited:?}"
        );
        drop(tx);
    }

    #[test]
    fn first_job_at_budget_returns_immediately() {
        let (tx, rx) = mpsc::channel();
        tx.send(Job(1)).unwrap();
        let mut carry = None;
        let round = Coalescer::adaptive(4, Duration::from_secs(5)).drain(&rx, Job(4), &mut carry);
        assert_eq!(round.len(), 1);
        assert!(carry.is_none());
        assert_eq!(rx.try_iter().count(), 1);
    }
}
