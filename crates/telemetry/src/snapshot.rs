//! Plain-old-data snapshots of a [`crate::Registry`].

use crate::instrument::HistogramSnapshot;
use crate::json::{self, ObjectBuilder};

/// The value a single instrument held at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrumentValue {
    /// A monotonic counter's total.
    Counter(u64),
    /// A gauge's last-set value.
    Gauge(f64),
    /// A histogram's buckets, count and sum.
    Histogram(HistogramSnapshot),
}

impl InstrumentValue {
    fn kind(&self) -> &'static str {
        match self {
            InstrumentValue::Counter(_) => "counter",
            InstrumentValue::Gauge(_) => "gauge",
            InstrumentValue::Histogram(_) => "histogram",
        }
    }
}

/// One instrument's identity and value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct InstrumentSnapshot {
    /// Metric name (Prometheus-style, e.g. `fia_serve_requests_total`).
    pub name: String,
    /// One-line human description.
    pub help: String,
    /// Label key/value pairs distinguishing instruments that share a name.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: InstrumentValue,
}

impl InstrumentSnapshot {
    fn to_json(&self) -> String {
        let labels = json::array(
            &self
                .labels
                .iter()
                .map(|(k, v)| ObjectBuilder::new().str("key", k).str("value", v).build())
                .collect::<Vec<_>>(),
        );
        let b = ObjectBuilder::new()
            .str("name", &self.name)
            .str("kind", self.value.kind())
            .raw("labels", &labels);
        match &self.value {
            InstrumentValue::Counter(v) => b.u64("value", *v).build(),
            InstrumentValue::Gauge(v) => b.f64("value", *v).build(),
            InstrumentValue::Histogram(h) => {
                let buckets =
                    json::array(&h.buckets.iter().map(|c| c.to_string()).collect::<Vec<_>>());
                b.u64("count", h.count)
                    .u64("sum", h.sum)
                    .raw("buckets", &buckets)
                    .build()
            }
        }
    }
}

/// A point-in-time, plain-old-data view of a registry: what campaign
/// reports attach and what the exposition encoder renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Instruments in registration order.
    pub entries: Vec<InstrumentSnapshot>,
}

impl TelemetrySnapshot {
    /// `true` when nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one instrument by name and label *set* — label order is
    /// irrelevant, as it is in Prometheus: `{a="1",b="2"}` and
    /// `{b="2",a="1"}` name the same series.
    pub fn get(&self, name: &str, labels: &[(&str, &str)]) -> Option<&InstrumentSnapshot> {
        self.entries.iter().find(|e| {
            e.name == name
                && e.labels.len() == labels.len()
                && labels
                    .iter()
                    .all(|(lk, lv)| e.labels.iter().any(|(k, v)| k == lk && v == lv))
        })
    }

    /// Appends another snapshot's entries (e.g. a server registry view
    /// followed by the process-global one).
    pub fn merge(mut self, other: TelemetrySnapshot) -> TelemetrySnapshot {
        self.entries.extend(other.entries);
        self
    }

    /// The change since `earlier`: counters and histogram buckets/counts/
    /// sums subtract (saturating, so a restarted counter degrades to its
    /// current value rather than wrapping); gauges keep their current
    /// reading; instruments absent from `earlier` pass through unchanged.
    pub fn delta_since(&self, earlier: &TelemetrySnapshot) -> TelemetrySnapshot {
        let entries = self
            .entries
            .iter()
            .map(|now| {
                let before = earlier.get(
                    &now.name,
                    &now.labels
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str()))
                        .collect::<Vec<_>>(),
                );
                let value = match (&now.value, before.map(|b| &b.value)) {
                    (InstrumentValue::Counter(n), Some(InstrumentValue::Counter(b))) => {
                        InstrumentValue::Counter(n.saturating_sub(*b))
                    }
                    (InstrumentValue::Histogram(n), Some(InstrumentValue::Histogram(b)))
                        if n.buckets.len() == b.buckets.len() =>
                    {
                        let buckets: Vec<u64> = n
                            .buckets
                            .iter()
                            .zip(&b.buckets)
                            .map(|(x, y)| x.saturating_sub(*y))
                            .collect();
                        InstrumentValue::Histogram(HistogramSnapshot {
                            count: buckets.iter().sum(),
                            sum: n.sum.saturating_sub(b.sum),
                            buckets,
                        })
                    }
                    (v, _) => v.clone(),
                };
                InstrumentSnapshot {
                    name: now.name.clone(),
                    help: now.help.clone(),
                    labels: now.labels.clone(),
                    value,
                }
            })
            .collect();
        TelemetrySnapshot { entries }
    }

    /// Canonical `(identity, value)` list of the counters only — the
    /// deterministic subset two identically-seeded runs must agree on
    /// (timings live in histograms/gauges and are excluded).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .entries
            .iter()
            .filter_map(|e| match e.value {
                InstrumentValue::Counter(v) => {
                    let labels = e
                        .labels
                        .iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(",");
                    Some((format!("{}{{{labels}}}", e.name), v))
                }
                _ => None,
            })
            .collect();
        out.sort();
        out
    }

    /// Compact hand-rolled JSON rendering.
    pub fn to_json(&self) -> String {
        let items = self
            .entries
            .iter()
            .map(InstrumentSnapshot::to_json)
            .collect::<Vec<_>>();
        ObjectBuilder::new()
            .raw("instruments", &json::array(&items))
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn snap_with(counter: u64, hist: &[u64]) -> TelemetrySnapshot {
        let r = Registry::new();
        let c = r.counter_with("c_total", "c", &[("k", "v")]);
        c.add(counter);
        let h = r.histogram("h_us", "h");
        for &v in hist {
            h.record(v);
        }
        let g = r.gauge("g_val", "g");
        g.set(2.5);
        r.snapshot()
    }

    #[test]
    fn delta_subtracts_counters_and_histograms_keeps_gauges() {
        let before = snap_with(10, &[1, 2]);
        let after = snap_with(25, &[1, 2, 1000]);
        let d = after.delta_since(&before);
        assert_eq!(
            d.get("c_total", &[("k", "v")]).unwrap().value,
            InstrumentValue::Counter(15)
        );
        match &d.get("h_us", &[]).unwrap().value {
            InstrumentValue::Histogram(h) => {
                assert_eq!(h.count, 1);
                assert_eq!(h.sum, 1000);
            }
            other => panic!("expected histogram, got {other:?}"),
        }
        assert_eq!(
            d.get("g_val", &[]).unwrap().value,
            InstrumentValue::Gauge(2.5)
        );
    }

    #[test]
    fn delta_passes_through_new_instruments() {
        let d = snap_with(7, &[]).delta_since(&TelemetrySnapshot::default());
        assert_eq!(
            d.get("c_total", &[("k", "v")]).unwrap().value,
            InstrumentValue::Counter(7)
        );
    }

    #[test]
    fn counters_is_sorted_and_counters_only() {
        let s = snap_with(3, &[5]);
        let c = s.counters();
        assert_eq!(c, vec![("c_total{k=v}".to_string(), 3)]);
    }

    #[test]
    fn merge_concatenates() {
        let m = snap_with(1, &[]).merge(snap_with(2, &[]));
        assert_eq!(m.entries.len(), 6);
    }

    #[test]
    fn get_and_delta_are_label_order_invariant() {
        let r = Registry::new();
        r.counter_with("m_total", "m", &[("client", "a"), ("op", "idx")])
            .add(9);
        let snap = r.snapshot();
        // Lookup matches regardless of query label order.
        let fwd = snap.get("m_total", &[("client", "a"), ("op", "idx")]);
        let rev = snap.get("m_total", &[("op", "idx"), ("client", "a")]);
        assert_eq!(fwd, rev);
        assert!(fwd.is_some());
        // A baseline whose labels were stored in a different order still
        // subtracts — the series identity is the set, not the sequence.
        let mut earlier = snap.clone();
        earlier.entries[0].labels.reverse();
        if let InstrumentValue::Counter(ref mut v) = earlier.entries[0].value {
            *v = 4;
        }
        let d = snap.delta_since(&earlier);
        assert_eq!(
            d.get("m_total", &[("op", "idx"), ("client", "a")])
                .unwrap()
                .value,
            InstrumentValue::Counter(5)
        );
    }

    #[test]
    fn delta_passes_through_instruments_only_in_the_newer_snapshot() {
        // The baseline has *different* instruments entirely (not just an
        // empty snapshot): nothing matches, everything passes through.
        let r0 = Registry::new();
        r0.counter("old_total", "old").add(99);
        let before = r0.snapshot();
        let after = snap_with(7, &[42]);
        let d = after.delta_since(&before);
        assert_eq!(
            d.get("c_total", &[("k", "v")]).unwrap().value,
            InstrumentValue::Counter(7)
        );
        match &d.get("h_us", &[]).unwrap().value {
            InstrumentValue::Histogram(h) => assert_eq!((h.count, h.sum), (1, 42)),
            other => panic!("expected histogram, got {other:?}"),
        }
        // And the retired instrument does not resurface in the delta.
        assert!(d.get("old_total", &[]).is_none());
    }

    #[test]
    fn delta_after_counter_reset_saturates_to_zero() {
        // A re-registered (restarted) counter reads lower than the
        // baseline; the delta saturates at zero instead of wrapping to
        // an astronomically large u64.
        let before = snap_with(10, &[1, 2, 3]);
        let after = snap_with(4, &[1]); // "restart": fewer events so far
        let d = after.delta_since(&before);
        assert_eq!(
            d.get("c_total", &[("k", "v")]).unwrap().value,
            InstrumentValue::Counter(0)
        );
        match &d.get("h_us", &[]).unwrap().value {
            InstrumentValue::Histogram(h) => {
                assert_eq!(h.count, 0);
                assert_eq!(h.sum, 0);
                assert!(h.buckets.iter().all(|&b| b == 0));
            }
            other => panic!("expected histogram, got {other:?}"),
        }
    }

    #[test]
    fn json_bytes_are_golden() {
        let entry = |name: &str, labels: &[(&str, &str)], value| InstrumentSnapshot {
            name: name.to_string(),
            help: "ignored".to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        };
        let snap = TelemetrySnapshot {
            entries: vec![
                entry("c_total", &[("k", "v\"w")], InstrumentValue::Counter(3)),
                entry("g_val", &[], InstrumentValue::Gauge(f64::NAN)),
                entry(
                    "h_us",
                    &[("a", "1"), ("b", "2")],
                    InstrumentValue::Histogram(HistogramSnapshot {
                        buckets: vec![0, 2, 1],
                        count: 3,
                        sum: 7,
                    }),
                ),
            ],
        };
        assert_eq!(
            snap.to_json(),
            concat!(
                r#"{"instruments":["#,
                r#"{"name":"c_total","kind":"counter","labels":[{"key":"k","value":"v\"w"}],"value":3},"#,
                r#"{"name":"g_val","kind":"gauge","labels":[],"value":null},"#,
                r#"{"name":"h_us","kind":"histogram","labels":[{"key":"a","value":"1"},{"key":"b","value":"2"}],"count":3,"sum":7,"buckets":[0,2,1]}"#,
                r#"]}"#
            )
        );
    }

    #[test]
    fn json_is_well_formed_and_typed() {
        let j = snap_with(3, &[5]).to_json();
        assert!(j.starts_with("{\"instruments\":["));
        assert!(j.contains("\"kind\":\"counter\""));
        assert!(j.contains("\"kind\":\"histogram\""));
        assert!(j.contains("\"kind\":\"gauge\""));
        assert!(j.contains("\"key\":\"k\""));
        assert_eq!(
            TelemetrySnapshot::default().to_json(),
            "{\"instruments\":[]}"
        );
    }
}
