//! `perfbench compare OLD.jsonl NEW.jsonl [--bench BENCHMARK.json]`:
//! one row per workload and metric present on both sides, reading
//! `better`, `worse`, `same` or `unresolved` under the benchmark's own
//! bounds.
//!
//! Each side is a file of run records (`--out`), usually several runs
//! with different seeds. A side's value is the median of its runs'
//! values and its spread the inter-quartile distance of those values
//! over their median (a single run contributes its within-run spread).
//! A row is `unresolved` when either spread is wider than the bound,
//! unless every new run reads better than every old one. Per-layer
//! metrics have no bound: they read `better`/`worse` only when the two
//! sides' runs do not overlap, and `same` when every value is equal.

use crate::stats::Summary;
use fia_telemetry::json::{self, Value};
use std::collections::BTreeMap;

struct Bound {
    lower_is_better: bool,
    /// `None` for per-layer metrics.
    bound: Option<f64>,
}

/// `(workload, metric)` → per-run values, plus each metric's unit and
/// the within-run spread of a run.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    inner_spread: BTreeMap<(String, String), f64>,
    units: BTreeMap<String, String>,
}

pub fn main(args: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [old, new] = files.as_slice() else {
        return Err("usage: perfbench compare OLD.jsonl NEW.jsonl [--bench BENCHMARK.json]".into());
    };
    let bounds = read_bounds(&bench)?;
    let (old, new) = (read_side(old)?, read_side(new)?);
    println!(
        "{:<14} {:<28} {:>8} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "unit", "old", "new", "change", "spread", "bound"
    );
    for (key, old_v) in &old.values {
        let (Some(new_v), Some(b)) = (new.values.get(key), bounds.get(&key.1)) else {
            continue;
        };
        let spread = |side: &Side, v: &[f64]| {
            if v.len() > 1 {
                Summary::of(v).spread()
            } else {
                side.inner_spread.get(key).copied().unwrap_or(0.0)
            }
        };
        let (o, n) = (Summary::of(old_v).median, Summary::of(new_v).median);
        let spread = spread(&old, old_v).max(spread(&new, new_v));
        // Positive `worse` means the new side reads worse.
        let worse = if o == 0.0 {
            0.0
        } else if b.lower_is_better {
            (n - o) / o.abs()
        } else {
            (o - n) / o.abs()
        };
        let better_than = |x: f64, y: f64| if b.lower_is_better { x < y } else { x > y };
        let all_better = new_v
            .iter()
            .all(|&x| old_v.iter().all(|&y| better_than(x, y)));
        let all_worse = new_v
            .iter()
            .all(|&x| old_v.iter().all(|&y| better_than(y, x)));
        let verdict = match b.bound {
            Some(bound) if spread > bound && all_better => "better",
            Some(bound) if spread > bound => "unresolved",
            Some(bound) if worse > bound => "worse",
            Some(bound) if worse < -bound => "better",
            Some(_) => "same",
            None if all_better => "better",
            None if all_worse => "worse",
            None if old_v.iter().chain(new_v).all(|&x| x == o) => "same",
            None => "unresolved",
        };
        println!(
            "{:<14} {:<28} {:>8} {:>14.6} {:>14.6} {:>+8.1}% {:>7.1}% {:>7}  {verdict}",
            key.0,
            key.1,
            old.units.get(&key.1).map_or("", String::as_str),
            o,
            n,
            if o == 0.0 {
                0.0
            } else {
                100.0 * (n - o) / o.abs()
            },
            100.0 * spread,
            b.bound
                .map_or("-".to_string(), |x| format!("{:.1}%", 100.0 * x)),
        );
    }
    Ok(())
}

fn read_bounds(path: &str) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc.get(section).and_then(Value::as_arr).unwrap_or(&[]) {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without name")?;
            out.insert(
                name.to_string(),
                Bound {
                    lower_is_better: m.get("better").and_then(Value::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Value::as_f64),
                },
            );
        }
    }
    Ok(out)
}

fn read_side(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let workload = rec
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", i + 1))?;
        let Some(Value::Obj(metrics)) = rec.get("metrics") else {
            return Err(format!("{path}:{}: no metrics", i + 1));
        };
        for (name, m) in metrics {
            let key = (workload.to_string(), name.clone());
            let num = |k: &str| m.get(k).and_then(Value::as_f64);
            let value =
                num("value").ok_or_else(|| format!("{path}:{}: {name} has no value", i + 1))?;
            side.values.entry(key.clone()).or_default().push(value);
            if let (Some(q1), Some(q3), Some(median)) = (num("q1"), num("q3"), num("median")) {
                if median != 0.0 {
                    side.inner_spread.insert(key, (q3 - q1) / median.abs());
                }
            }
            if let Some(unit) = m.get("unit").and_then(Value::as_str) {
                side.units.insert(name.clone(), unit.to_string());
            }
        }
    }
    Ok(side)
}
