//! Seeded property sweep for `Coalescer::drain`.
//!
//! The coalescer sits between every queued prediction job and the round
//! that answers it, so its invariants are load-bearing for the whole
//! serve layer — until now they were only exercised indirectly through
//! `over_the_wire.rs`. The sweep drives arbitrary queued request
//! sequences through the same drain loop the batcher threads run and
//! pins, for every generated sequence:
//!
//! * **No request is dropped or duplicated** — the concatenation of all
//!   rounds is exactly the arrival sequence.
//! * **The row cap is never exceeded** — every round satisfies
//!   `rows ≤ max_rows`, except a round consisting of a single job whose
//!   own row count exceeds the cap (which must run alone rather than be
//!   split across release boundaries).
//! * **Passthrough mode preserves arrival order** with one job per
//!   round, exactly.

use fia_serve::{Coalescer, Coalescible};
use std::sync::mpsc;
use std::time::Duration;

#[derive(Debug, Clone, PartialEq, Eq)]
struct PJob {
    id: usize,
    rows: usize,
}

impl Coalescible for PJob {
    fn rows(&self) -> usize {
        self.rows
    }
}

/// Deterministic splitmix-flavoured generator, same idiom as the other
/// in-tree sweeps.
fn lcg(seed: u64) -> impl FnMut(usize) -> usize {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    move |bound: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % bound.max(1)
    }
}

/// Runs the batcher-thread drain loop (including the carry slot for
/// cap-overflowing jobs) over a pre-queued sequence until the queue is
/// exhausted, returning the rounds in execution order.
fn drain_to_rounds(coalescer: Coalescer, jobs: Vec<PJob>) -> Vec<Vec<PJob>> {
    let (tx, rx) = mpsc::channel();
    for job in jobs {
        tx.send(job).expect("queue");
    }
    drop(tx); // deadline waits resolve instantly via Disconnected
    let mut rounds = Vec::new();
    let mut pending: Option<PJob> = None;
    loop {
        let first = match pending.take() {
            Some(job) => job,
            None => match rx.try_recv() {
                Ok(job) => job,
                Err(_) => break,
            },
        };
        rounds.push(coalescer.drain(&rx, first, &mut pending));
    }
    assert!(pending.is_none(), "carry must be flushed by the loop");
    rounds
}

fn random_sequence(rng: &mut impl FnMut(usize) -> usize) -> Vec<PJob> {
    let n = 1 + rng(40);
    (0..n)
        .map(|id| PJob {
            id,
            // Mostly small jobs, occasionally one bigger than any
            // plausible cap so the oversized-lone-job path is hit.
            rows: if rng(10) == 0 {
                20 + rng(30)
            } else {
                1 + rng(8)
            },
        })
        .collect()
}

#[test]
fn sweep_no_request_dropped_or_duplicated_and_cap_strict() {
    for seed in 0..200u64 {
        let mut rng = lcg(seed);
        let jobs = random_sequence(&mut rng);
        let cap = 1 + rng(12);
        let coalescer = Coalescer::adaptive(cap, Duration::from_millis(5));
        let rounds = drain_to_rounds(coalescer, jobs.clone());

        // Conservation + order: the rounds concatenate back to exactly
        // the arrival sequence (carry preserves order across rounds).
        let replayed: Vec<PJob> = rounds.iter().flatten().cloned().collect();
        assert_eq!(replayed, jobs, "seed {seed}: drop/dup/reorder detected");

        // Strict row cap, with the lone-oversized-job exception.
        for (r, round) in rounds.iter().enumerate() {
            assert!(!round.is_empty(), "seed {seed}: empty round {r}");
            let rows: usize = round.iter().map(Coalescible::rows).sum();
            assert!(
                rows <= cap || round.len() == 1,
                "seed {seed}: round {r} packed {rows} rows past cap {cap} \
                 across {} jobs",
                round.len()
            );
        }
    }
}

#[test]
fn sweep_passthrough_is_one_job_per_round_in_arrival_order() {
    for seed in 0..100u64 {
        let mut rng = lcg(seed ^ 0xBEEF);
        let jobs = random_sequence(&mut rng);
        let rounds = drain_to_rounds(Coalescer::adaptive(1, Duration::ZERO), jobs.clone());
        assert_eq!(rounds.len(), jobs.len(), "seed {seed}");
        for (round, expected) in rounds.iter().zip(&jobs) {
            assert_eq!(round.len(), 1, "seed {seed}: passthrough merged");
            assert_eq!(&round[0], expected, "seed {seed}: order broken");
        }
    }
}

#[test]
fn live_sender_sequence_is_conserved_in_order() {
    // Same invariants under a real concurrent sender (timing-dependent
    // round boundaries, timing-independent assertions).
    let (tx, rx) = mpsc::channel();
    let sender = std::thread::spawn(move || {
        let mut rng = lcg(7);
        for id in 0..60 {
            tx.send(PJob {
                id,
                rows: 1 + rng(4),
            })
            .expect("send");
            if rng(3) == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    });
    let coalescer = Coalescer::adaptive(6, Duration::from_micros(300));
    let mut rounds = Vec::new();
    let mut pending: Option<PJob> = None;
    loop {
        let first = match pending.take() {
            Some(job) => job,
            None => match rx.recv_timeout(Duration::from_millis(200)) {
                Ok(job) => job,
                Err(_) => break,
            },
        };
        rounds.push(coalescer.drain(&rx, first, &mut pending));
    }
    sender.join().expect("sender");
    let ids: Vec<usize> = rounds.iter().flatten().map(|j| j.id).collect();
    assert_eq!(ids, (0..60).collect::<Vec<_>>());
    for round in &rounds {
        let rows: usize = round.iter().map(Coalescible::rows).sum();
        assert!(rows <= 6 || round.len() == 1);
    }
}
