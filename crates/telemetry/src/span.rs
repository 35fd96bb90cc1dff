//! Hierarchical scoped timers with explicit parent handles.
//!
//! There is deliberately no thread-local "current span": the workspace's
//! parallelism is scoped threads (`AttackEngine` stripes, serve batchers),
//! and implicit context would either not cross those boundaries or
//! require per-thread bookkeeping. Instead a parent [`Span`] is an
//! ordinary value — [`Span::child`] takes `&self`, so handing a span to
//! a scoped worker is just a borrow.
//!
//! Span names and field keys are `&'static str`: every caller names its
//! spans and fields with literals, so opening a span or recording a
//! field copies no name or key, and [`Span::finish`] moves the fields
//! into the record.

use crate::json::ObjectBuilder;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// A typed span field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer field.
    U64(u64),
    /// Float field.
    F64(f64),
    /// String field.
    Str(String),
}

/// A finished span: identity, timing relative to the tracer's epoch, and
/// attached fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Tracer-unique span id.
    pub id: u64,
    /// Parent span id, `None` for roots.
    pub parent: Option<u64>,
    /// Span name (e.g. `campaign.chunk`).
    pub name: &'static str,
    /// Start offset from the tracer's epoch, microseconds.
    pub start_us: u64,
    /// Absolute wall-clock start, microseconds since the Unix epoch.
    /// Monotonic offsets (`start_us`) order spans *within* one tracer;
    /// this anchor time-aligns traces merged from different processes.
    pub unix_us: u64,
    /// Wall-clock duration, microseconds.
    pub dur_us: u64,
    /// Fields attached while the span was open.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// One compact JSON object (a JSONL line, sans newline).
    pub fn to_json(&self) -> String {
        self.render(ObjectBuilder::new())
    }

    /// Appends this record's fields to `b` and closes the object.
    fn render(&self, b: ObjectBuilder) -> String {
        let b = b.u64("id", self.id);
        let mut b = match self.parent {
            Some(p) => b.u64("parent", p),
            None => b.raw("parent", "null"),
        }
        .str("name", self.name)
        .u64("start_us", self.start_us)
        .u64("unix_us", self.unix_us)
        .u64("dur_us", self.dur_us);
        for (k, v) in &self.fields {
            b = match v {
                FieldValue::U64(n) => b.u64(k, *n),
                FieldValue::F64(x) => b.f64(k, *x),
                FieldValue::Str(s) => b.str(k, s),
            };
        }
        b.build()
    }
}

/// What a tracer shares with its forks: one epoch and one id counter.
struct Clock {
    epoch: Instant,
    /// Wall-clock time of `epoch`, microseconds since the Unix epoch —
    /// captured once so every record's `unix_us` shares one anchor.
    epoch_unix_us: u64,
    next_id: AtomicU64,
}

struct TracerInner {
    clock: Arc<Clock>,
    records: Mutex<Vec<SpanRecord>>,
}

/// Creates [`Span`]s and collects their finished [`SpanRecord`]s.
///
/// Cheap to clone (an `Arc`); clones share one record sink and id space.
/// A [`Tracer::fork`] shares the id space and clock but has a record
/// sink of its own.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self::with_id_base(1)
    }

    /// A tracer whose epoch is now and whose span ids count up from
    /// `base` (clamped to at least 1 — id 0 is reserved).
    ///
    /// Distinct processes that will later *merge* their JSONL traces
    /// should pick disjoint bases (e.g. a server at `1 << 32`, clients
    /// at 1) so span ids stay unique in the merged tree and a
    /// cross-process `parent` reference is unambiguous.
    pub fn with_id_base(base: u64) -> Self {
        Self::with_clock(Arc::new(Clock {
            epoch: Instant::now(),
            epoch_unix_us: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_micros() as u64)
                .unwrap_or(0),
            next_id: AtomicU64::new(base.max(1)),
        }))
    }

    fn with_clock(clock: Arc<Clock>) -> Self {
        Tracer {
            inner: Arc::new(TracerInner {
                clock,
                records: Mutex::new(Vec::new()),
            }),
        }
    }

    /// A tracer with an empty record sink of its own that shares this
    /// tracer's id space and clock: span ids stay unique across the
    /// tracer and all its forks, and every record's times count from
    /// one epoch. A server forks one per traced request, so each
    /// request's spans collect apart from every other request's and
    /// leave as one tree ([`Tracer::take_records`]).
    pub fn fork(&self) -> Tracer {
        Self::with_clock(Arc::clone(&self.inner.clock))
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> Span {
        Span {
            tracer: self.clone(),
            id: self.inner.clock.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            started: Instant::now(),
            fields: Mutex::new(Vec::new()),
            finished: AtomicU64::new(0),
        }
    }

    /// Opens a root span.
    pub fn root(&self, name: &'static str) -> Span {
        self.open(name, None)
    }

    /// Opens a span whose parent lives in *another* tracer — typically
    /// another process. The span is a root of this tracer's local tree
    /// but records `parent` as the remote span id, so after merging the
    /// two JSONL streams the edge resolves like any in-process link.
    pub fn root_with_parent(&self, name: &'static str, parent: u64) -> Span {
        self.open(name, Some(parent))
    }

    /// Finished spans so far, in finish order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner
            .records
            .lock()
            .expect("tracer records lock")
            .clone()
    }

    /// Removes and returns the finished spans so far, in finish order.
    pub fn take_records(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.inner.records.lock().expect("tracer records lock"))
    }

    /// Runs `f` on the finished spans, in finish order, while the
    /// records lock is held: a caller can count and prune them in place
    /// (say with `Vec::retain`) without cloning any.
    pub fn edit_records<R>(&self, f: impl FnOnce(&mut Vec<SpanRecord>) -> R) -> R {
        f(&mut self.inner.records.lock().expect("tracer records lock"))
    }

    /// Renders every finished span as one JSONL line each (see
    /// [`records_to_jsonl`]), in place while the records lock is held.
    pub fn to_jsonl(&self) -> String {
        records_to_jsonl(
            self.inner
                .records
                .lock()
                .expect("tracer records lock")
                .iter(),
        )
    }
}

/// Renders `records` as one JSONL line each, trailing newline included
/// when non-empty. Each record renders in place into the one output
/// buffer; none is cloned.
pub fn records_to_jsonl<'a>(records: impl IntoIterator<Item = &'a SpanRecord>) -> String {
    let mut out = String::new();
    for r in records {
        out = r.render(ObjectBuilder::append_to(out));
        out.push('\n');
    }
    out
}

/// An open span. Timing stops at [`Span::finish`] or on drop, whichever
/// comes first; the record then appears in the owning [`Tracer`].
pub struct Span {
    tracer: Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    started: Instant,
    fields: Mutex<Vec<(&'static str, FieldValue)>>,
    finished: AtomicU64,
}

impl Span {
    /// This span's id (what children store as their parent).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span. Takes `&self`, so a parent can be borrowed
    /// into scoped worker threads and have children opened concurrently.
    pub fn child(&self, name: &'static str) -> Span {
        self.tracer.open(name, Some(self.id))
    }

    fn push_field(&self, key: &'static str, value: FieldValue) {
        self.fields
            .lock()
            .expect("span fields lock")
            .push((key, value));
    }

    /// Attaches an integer field.
    pub fn record_u64(&self, key: &'static str, value: u64) {
        self.push_field(key, FieldValue::U64(value));
    }

    /// Attaches a float field.
    pub fn record_f64(&self, key: &'static str, value: f64) {
        self.push_field(key, FieldValue::F64(value));
    }

    /// Attaches a string field.
    pub fn record_str(&self, key: &'static str, value: &str) {
        self.push_field(key, FieldValue::Str(value.to_string()));
    }

    /// Stops the clock and files the record (idempotent; drop calls it).
    /// The record takes the span's fields; none is copied.
    pub fn finish(&self) {
        if self.finished.swap(1, Ordering::Relaxed) != 0 {
            return;
        }
        let clock = &self.tracer.inner.clock;
        let start_us = self.started.duration_since(clock.epoch).as_micros() as u64;
        let record = SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_us,
            unix_us: clock.epoch_unix_us.saturating_add(start_us),
            dur_us: self.started.elapsed().as_micros() as u64,
            fields: std::mem::take(&mut *self.fields.lock().expect("span fields lock")),
        };
        self.tracer
            .inner
            .records
            .lock()
            .expect("tracer records lock")
            .push(record);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_is_recorded_with_parents() {
        let t = Tracer::new();
        let root = t.root("run");
        let child = root.child("chunk");
        child.record_u64("rows", 64);
        child.finish();
        root.finish();
        let recs = t.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "chunk");
        assert_eq!(recs[0].parent, Some(recs[1].id));
        assert_eq!(recs[1].parent, None);
        assert_eq!(recs[0].fields, vec![("rows", FieldValue::U64(64))]);
    }

    #[test]
    fn finish_is_idempotent_and_drop_finishes() {
        let t = Tracer::new();
        {
            let s = t.root("a");
            s.finish();
            s.finish();
        } // drop after explicit finish must not double-record
        {
            let _s = t.root("b");
        } // drop-only
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn spans_cross_scoped_threads_by_borrow() {
        let t = Tracer::new();
        let root = t.root("par");
        std::thread::scope(|scope| {
            for i in 0..4u64 {
                let root = &root;
                scope.spawn(move || {
                    let c = root.child("worker");
                    c.record_u64("idx", i);
                });
            }
        });
        root.finish();
        let recs = t.records();
        assert_eq!(recs.len(), 5);
        let root_id = recs.last().unwrap().id;
        assert!(recs[..4].iter().all(|r| r.parent == Some(root_id)));
    }

    #[test]
    fn jsonl_renders_one_line_per_span() {
        let t = Tracer::new();
        t.root("x\"y").record_str("note", "a\nb");
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 1);
        assert!(jsonl.contains("\"name\":\"x\\\"y\""));
        assert!(jsonl.contains("\"note\":\"a\\nb\""));
        assert!(jsonl.contains("\"parent\":null"));
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn record_json_bytes_are_golden() {
        let mut r = SpanRecord {
            id: 7,
            parent: None,
            name: "serve.\"req\"\n",
            start_us: 12,
            unix_us: 1_700_000_000_000_012,
            dur_us: 0,
            fields: vec![
                ("rows", FieldValue::U64(u64::MAX)),
                ("frac", FieldValue::F64(0.25)),
                ("nan", FieldValue::F64(f64::NAN)),
                ("neg_zero", FieldValue::F64(-0.0)),
                ("op", FieldValue::Str("a\tb é".to_string())),
            ],
        };
        assert_eq!(
            r.to_json(),
            r#"{"id":7,"parent":null,"name":"serve.\"req\"\n","start_us":12,"unix_us":1700000000000012,"dur_us":0,"rows":18446744073709551615,"frac":0.25,"nan":null,"neg_zero":-0,"op":"a\tb é"}"#
        );
        r.parent = Some(u64::MAX);
        r.fields.clear();
        assert_eq!(
            r.to_json(),
            r#"{"id":7,"parent":18446744073709551615,"name":"serve.\"req\"\n","start_us":12,"unix_us":1700000000000012,"dur_us":0}"#
        );
    }

    #[test]
    fn jsonl_is_the_records_json_lines() {
        assert_eq!(Tracer::new().to_jsonl(), "");
        let t = Tracer::new();
        let root = t.root("run");
        std::thread::scope(|scope| {
            for i in 0..2u64 {
                let root = &root;
                scope.spawn(move || {
                    let c = root.child("worker");
                    c.record_u64("idx", i);
                    c.record_f64("share", 0.5 * i as f64);
                    c.record_str("note", "x\"y");
                });
            }
        });
        root.record_f64("inf", f64::INFINITY);
        root.finish();
        let recs = t.records();
        assert_eq!(recs.len(), 3);
        let want: String = recs.iter().map(|r| r.to_json() + "\n").collect();
        assert_eq!(t.to_jsonl(), want);
    }

    #[test]
    fn unix_us_anchors_the_monotonic_offsets() {
        let t = Tracer::new();
        t.root("a").finish();
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.root("b").finish();
        let recs = t.records();
        // Anchored to a plausible wall clock (after 2020-01-01)…
        assert!(recs[0].unix_us > 1_577_836_800_000_000);
        // …and the wall-clock gap matches the monotonic gap exactly,
        // because both derive from one captured epoch.
        assert_eq!(
            recs[1].unix_us - recs[0].unix_us,
            recs[1].start_us - recs[0].start_us
        );
        assert!(t.to_jsonl().contains("\"unix_us\":"));
    }

    #[test]
    fn id_base_offsets_the_id_space() {
        let t = Tracer::with_id_base(1 << 32);
        let a = t.root("a");
        let b = a.child("b");
        assert_eq!(a.id(), 1 << 32);
        assert_eq!(b.id(), (1 << 32) + 1);
        // Base 0 is clamped: id 0 is reserved for "no span".
        assert_eq!(Tracer::with_id_base(0).root("z").id(), 1);
    }

    #[test]
    fn root_with_parent_links_to_a_foreign_id() {
        let client = Tracer::new();
        let server = Tracer::with_id_base(1 << 32);
        let chunk = client.root("campaign.chunk");
        let req = server.root_with_parent("serve.request", chunk.id());
        req.finish();
        chunk.finish();
        let recs = server.records();
        assert_eq!(recs[0].parent, Some(chunk.id()));
        // The merged stream resolves the edge: every parent id appears.
        let mut merged = client.records();
        merged.extend(server.records());
        for r in &merged {
            if let Some(p) = r.parent {
                assert!(merged.iter().any(|o| o.id == p));
            }
        }
    }

    #[test]
    fn forks_share_ids_and_clock_but_not_records() {
        let t = Tracer::with_id_base(1 << 32);
        let a = t.fork();
        let b = t.fork();
        let root = a.root("req");
        let child = root.child("round");
        let other = b.root_with_parent("req", 9);
        assert_eq!(
            [root.id(), child.id(), other.id()],
            [1 << 32, (1 << 32) + 1, (1 << 32) + 2],
            "one id space across forks"
        );
        child.finish();
        root.finish();
        other.finish();
        assert!(t.records().is_empty(), "forks file nothing into the parent");
        assert_eq!(b.records().len(), 1);
        let tree = a.take_records();
        assert_eq!(
            tree.iter().map(|r| r.name).collect::<Vec<_>>(),
            ["round", "req"]
        );
        assert!(a.records().is_empty(), "take_records drains the sink");
        // One clock: both forks' wall-clock anchors sit on one epoch.
        let [other] = b.take_records().try_into().unwrap();
        assert_eq!(
            other.unix_us - tree[1].unix_us,
            other.start_us - tree[1].start_us
        );
        assert_eq!(
            records_to_jsonl(&tree),
            tree.iter().map(|r| r.to_json() + "\n").collect::<String>()
        );
    }

    #[test]
    fn edit_records_prunes_in_place() {
        let t = Tracer::new();
        for name in ["a", "b", "a"] {
            t.root(name).record_u64("n", 1);
        }
        let left = t.edit_records(|recs| {
            recs.retain(|r| r.name != "a");
            recs.len()
        });
        assert_eq!(left, 1);
        let [b] = t.take_records().try_into().unwrap();
        assert_eq!((b.name, b.fields), ("b", vec![("n", FieldValue::U64(1))]));
    }

    #[test]
    fn timing_is_monotone() {
        let t = Tracer::new();
        let root = t.root("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let child = root.child("inner");
        child.finish();
        root.finish();
        let recs = t.records();
        let inner = &recs[0];
        let outer = &recs[1];
        assert!(inner.start_us >= outer.start_us);
        assert!(outer.dur_us >= inner.dur_us);
    }
}
