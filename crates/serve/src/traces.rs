//! The span trees a prediction server keeps.
//!
//! Every traced request opens its spans on its own fork of the server
//! tracer ([`KeptTraces::sink`]), so its `serve.request` tree — cache,
//! dispatch, round, predict, defense — collects apart from every other
//! request's, whichever thread runs its round. When the reactor answers
//! the request it files the finished tree here, once, under the pair of
//! the `fia_serve_request_duration_us` bucket of the latency it recorded
//! and the outcome (answered or failed). Each pair keeps the trees of
//! the last [`KEPT_TREES_PER_BUCKET`] requests answered in it and drops
//! older ones, so a server holds at most
//! `2 × HISTOGRAM_BUCKETS × KEPT_TREES_PER_BUCKET` trees however many
//! requests it answers, and still holds recent trees for every latency
//! band and every failure it has seen: a slow bucket's trees name the
//! layer the time went to.

use fia_telemetry::{records_to_jsonl, Histogram, SpanRecord, Tracer, HISTOGRAM_BUCKETS};
use std::collections::VecDeque;
use std::sync::Mutex;

/// How many of the most recent span trees a server keeps for each pair
/// of request-latency bucket and outcome.
pub const KEPT_TREES_PER_BUCKET: usize = 16;

/// The kept trees of one server, shared by its reactor, which files
/// them, and its handle, which exports them.
pub(crate) struct KeptTraces {
    /// Mints each traced request's sink. No span is opened on it, so
    /// its own record list stays empty.
    root: Tracer,
    slots: Mutex<Slots>,
}

struct Slots {
    /// Answer number of the next filed tree: export order.
    next: u64,
    /// One ring per pair, answered requests first, then failed ones,
    /// each in bucket order. A ring holds `(answer number, tree)`.
    rings: Vec<VecDeque<(u64, Vec<SpanRecord>)>>,
}

impl KeptTraces {
    /// An empty store whose span ids count up from `id_base`.
    pub fn new(id_base: u64) -> Self {
        KeptTraces {
            root: Tracer::with_id_base(id_base),
            slots: Mutex::new(Slots {
                next: 0,
                rings: vec![VecDeque::new(); 2 * HISTOGRAM_BUCKETS],
            }),
        }
    }

    /// A fresh span sink for one traced request, in the server's id
    /// space and on its clock.
    pub fn sink(&self) -> Tracer {
        self.root.fork()
    }

    /// Files one answered request's finished tree under the bucket of
    /// `latency_us` and its outcome. A full slot lets its oldest tree go
    /// and returns it, so the caller can free it once the reply is out.
    pub fn keep(
        &self,
        latency_us: u64,
        failed: bool,
        tree: Vec<SpanRecord>,
    ) -> Option<Vec<SpanRecord>> {
        let slot = usize::from(failed) * HISTOGRAM_BUCKETS + Histogram::bucket_index(latency_us);
        let mut slots = self.slots.lock().expect("kept traces lock");
        let seq = slots.next;
        slots.next += 1;
        let ring = &mut slots.rings[slot];
        let dropped = if ring.len() == KEPT_TREES_PER_BUCKET {
            ring.pop_front().map(|(_, tree)| tree)
        } else {
            None
        };
        ring.push_back((seq, tree));
        dropped
    }

    /// The kept trees as JSONL, tree after tree in answer order, each
    /// tree's spans in finish order.
    pub fn to_jsonl(&self) -> String {
        let slots = self.slots.lock().expect("kept traces lock");
        let mut trees: Vec<&(u64, Vec<SpanRecord>)> = slots.rings.iter().flatten().collect();
        trees.sort_unstable_by_key(|(seq, _)| *seq);
        records_to_jsonl(trees.into_iter().flat_map(|(_, tree)| tree))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-span tree whose request span carries `tag` as its parent.
    fn tree(store: &KeptTraces, tag: u64) -> Vec<SpanRecord> {
        let sink = store.sink();
        sink.root_with_parent("serve.request", tag).finish();
        sink.take_records()
    }

    fn parents(jsonl: &str) -> Vec<u64> {
        jsonl
            .lines()
            .map(|l| {
                let at = l.find("\"parent\":").expect("parent") + 9;
                let rest = &l[at..];
                rest[..rest.find(',').expect("more fields")]
                    .parse()
                    .expect("numeric parent")
            })
            .collect()
    }

    #[test]
    fn each_bucket_and_outcome_keeps_its_last_trees_in_answer_order() {
        let store = KeptTraces::new(1 << 32);
        let k = KEPT_TREES_PER_BUCKET as u64;
        // 3K answered requests alternate between the 5 µs and 100 µs
        // buckets; two failures land in the 5 µs bucket's failed slot.
        for tag in 0..3 * k {
            let latency = if tag % 2 == 0 { 5 } else { 100 };
            let dropped = store.keep(latency, false, tree(&store, tag));
            // A slot holding K trees lets its oldest go.
            assert_eq!(
                dropped.and_then(|t| t[0].parent),
                (tag >= 2 * k).then(|| tag - 2 * k)
            );
            if tag == 3 || tag == 40 {
                store.keep(5, true, tree(&store, 1000 + tag));
            }
        }
        let kept = parents(&store.to_jsonl());
        // Each answered slot keeps its last K; both failures stay.
        let mut want: Vec<u64> = (k..3 * k).collect();
        want.insert(want.iter().position(|&t| t > 40).unwrap(), 1040);
        want.insert(0, 1003);
        assert_eq!(kept, want);
        // The store never grows past its bound, however many it files.
        for tag in 0..10 * k {
            store.keep(tag * 7919 % 100_000, tag % 3 == 0, tree(&store, tag));
        }
        assert!(store.to_jsonl().lines().count() <= 2 * HISTOGRAM_BUCKETS * KEPT_TREES_PER_BUCKET);
    }

    #[test]
    fn the_root_tracer_keeps_no_spans() {
        let store = KeptTraces::new(1 << 32);
        let sink = store.sink();
        let req = sink.root("serve.request");
        assert!(req.id() >= 1 << 32, "sinks share the server id space");
        drop(req);
        assert!(store.root.records().is_empty());
        assert_eq!(store.to_jsonl(), "", "nothing kept until filed");
    }
}
