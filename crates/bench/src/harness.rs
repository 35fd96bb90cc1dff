//! Minimal wall-clock bench harness.
//!
//! The offline build environment has no `criterion`, so `benches/` use
//! this hand-rolled stand-in: warmup + repeated timed samples, a robust
//! median summary, and a machine-readable JSON dump
//! (`BENCH_attacks.json`) so future changes can track the perf
//! trajectory. The JSON layout intentionally mirrors a flattened
//! criterion summary (`name`, `median_ns`, `mean_ns`, `samples`), plus
//! `calls_per_sample`.
//!
//! Times are per closure call. A closure that returns in well under a
//! millisecond is called repeatedly within each sample (the count is
//! fixed during warmup, so that a sample lasts about [`MIN_SAMPLE_NS`]):
//! one call of a sub-microsecond kernel would time the timer and the
//! cache state more than the kernel.

use std::fmt::Write as _;
use std::time::Instant;

/// The shortest a timed sample should last, in nanoseconds (1 ms).
pub const MIN_SAMPLE_NS: f64 = 1e6;

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark identifier (`group/name`).
    pub name: String,
    /// Median over samples of the per-call wall-clock time, nanoseconds.
    pub median_ns: f64,
    /// Mean over samples of the per-call wall-clock time, nanoseconds.
    pub mean_ns: f64,
    /// Number of timed samples.
    pub samples: usize,
    /// Closure calls per timed sample (1 for a closure that lasts at
    /// least [`MIN_SAMPLE_NS`]).
    pub calls_per_sample: usize,
}

impl BenchResult {
    /// Median time in milliseconds.
    pub fn median_ms(&self) -> f64 {
        self.median_ns / 1e6
    }
}

/// A named collection of benchmarks, run sequentially.
pub struct Harness {
    group: &'static str,
    samples: usize,
    warmup: usize,
    results: Vec<BenchResult>,
    /// Extra scalar metrics (speedups, ratios) to embed in the JSON.
    metrics: Vec<(String, f64)>,
}

impl Harness {
    /// Creates a harness; `samples` timed samples (after `warmup`
    /// untimed rounds) per benchmark.
    pub fn new(group: &'static str, samples: usize, warmup: usize) -> Self {
        Harness {
            group,
            samples: samples.max(1),
            warmup,
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Times `f` per call, keeping its output alive via
    /// `std::hint::black_box`. Each warmup round times the current
    /// calls per sample and raises the count to what would last
    /// [`MIN_SAMPLE_NS`]; a round shorter than half that warms once more
    /// at the new count (each such round at least doubles it). Without
    /// warmup a sample is one call.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> BenchResult {
        let mut calls = 1;
        let mut rounds_left = self.warmup;
        while rounds_left > 0 {
            rounds_left -= 1;
            let batch_ns = time_calls(&mut f, calls);
            if batch_ns < MIN_SAMPLE_NS {
                calls =
                    calls.max((MIN_SAMPLE_NS * calls as f64 / batch_ns.max(1.0)).ceil() as usize);
                if batch_ns < MIN_SAMPLE_NS / 2.0 {
                    rounds_left = rounds_left.max(1);
                }
            }
        }
        let mut times_ns: Vec<f64> = (0..self.samples)
            .map(|_| time_calls(&mut f, calls) / calls as f64)
            .collect();
        times_ns.sort_by(|a, b| a.total_cmp(b));
        let median_ns = times_ns[times_ns.len() / 2];
        let mean_ns = times_ns.iter().sum::<f64>() / times_ns.len() as f64;
        let result = BenchResult {
            name: format!("{}/{}", self.group, name),
            median_ns,
            mean_ns,
            samples: self.samples,
            calls_per_sample: calls,
        };
        println!(
            "{:<48} median {:>10.3} ms   mean {:>10.3} ms   ({} samples x {} calls)",
            result.name,
            result.median_ns / 1e6,
            result.mean_ns / 1e6,
            result.samples,
            result.calls_per_sample
        );
        self.results.push(result.clone());
        result
    }

    /// Records a derived scalar metric (e.g. a speedup ratio).
    pub fn metric(&mut self, name: &str, value: f64) {
        println!("{:<48} {value:.4}", format!("{}/{}", self.group, name));
        self.metrics
            .push((format!("{}/{}", self.group, name), value));
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Serializes results + metrics as a JSON document (criterion-like
    /// flattened summary).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"samples\": {}, \"calls_per_sample\": {}}}",
                r.name, r.median_ns, r.mean_ns, r.samples, r.calls_per_sample
            );
            out.push_str(if i + 1 < self.results.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"metrics\": {\n");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let _ = write!(out, "    \"{k}\": {v:.6}");
            out.push_str(if i + 1 < self.metrics.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  }\n}\n");
        out
    }

    /// Writes the JSON summary to `path` (best-effort; benches must not
    /// fail on a read-only filesystem).
    pub fn write_json(&self, path: &str) {
        match std::fs::write(path, self.to_json()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }
}

/// Wall-clock nanoseconds of `calls` back-to-back calls of `f`.
fn time_calls<T>(f: &mut impl FnMut() -> T, calls: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        std::hint::black_box(f());
    }
    t0.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_records() {
        let mut h = Harness::new("test", 3, 1);
        let r = h.bench("busy", || (0..1000).sum::<u64>());
        assert_eq!(r.samples, 3);
        assert!(r.median_ns > 0.0);
        assert_eq!(h.results().len(), 1);
    }

    #[test]
    fn short_closures_are_called_many_times_per_sample() {
        let mut h = Harness::new("test", 2, 1);
        let mut calls = 0usize;
        let fast = h.bench("fast", || {
            calls += 1;
            calls
        });
        assert!(fast.calls_per_sample > 1, "{fast:?}");
        assert!(
            calls > 2 * fast.calls_per_sample,
            "warmup calls are untimed"
        );
        let slow = h.bench("slow", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert_eq!(slow.calls_per_sample, 1);
        assert!(slow.median_ns >= 2e6, "per-call time {}", slow.median_ns);
        let unwarmed = Harness::new("test", 1, 0).bench("once", || 1 + 1);
        assert_eq!(unwarmed.calls_per_sample, 1);
    }

    #[test]
    fn json_is_well_formed_ish() {
        let mut h = Harness::new("g", 2, 0);
        h.bench("a", || 1 + 1);
        h.metric("speedup", 4.2);
        let json = h.to_json();
        assert!(json.contains("\"g/a\""));
        assert!(json.contains("\"samples\": 2, \"calls_per_sample\": 1}"));
        assert!(json.contains("\"g/speedup\": 4.2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
