//! The benchmark's metric catalogue: every metric a run prints, with its
//! unit, how a run reduces its pass samples and — for per-layer metrics —
//! the end-to-end metric and workload it is expected to move. `BENCHMARK.json` carries
//! the same names and units plus each metric's direction and the
//! end-to-end bounds.

use std::collections::BTreeMap;

/// How a run reduces a metric's pass samples to its reported value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The smallest pass. Other tenants of a small machine only ever add
    /// time, in bursts lasting seconds to minutes, and allocator memory
    /// retained from earlier passes only adds to a pass's peak, so the
    /// smallest pass is what the code costs while a median moves with
    /// their load.
    Min,
    /// The median pass, for a time whose fastest passes are rare
    /// outliers: `attack_s` on `daemon-rerun` is a handful of fsyncs.
    Median,
    /// The mean pass: per-layer times, so that they add up.
    Mean,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub stat: Stat,
    /// For per-layer metrics: the end-to-end metric and workload the
    /// layer should move (empty for end-to-end metrics).
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, stat: Stat) -> MetricDef {
    MetricDef {
        name,
        unit,
        stat,
        moves: "",
    }
}

const fn def(name: &'static str, unit: &'static str, moves: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        stat: Stat::Mean,
        moves,
    }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Stat::Min),
    e2e("campaign_s", "s", Stat::Min),
    e2e("chunk_p50_ms", "ms", Stat::Min),
    e2e("attack_s", "s", Stat::Median),
    // One sample per run: the mean over the run's scenarios.
    e2e("attack_mse", "mse", Stat::Min),
    e2e("peak_rss_mb", "MB", Stat::Min),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    def("data.materialize_s", "s", "setup_s on all workloads"),
    def(
        "models.train_s",
        "s",
        "setup_s on all workloads, most on grna-nn",
    ),
    def(
        "vfl.predict_s",
        "s",
        "chunk_p50_ms, campaign_s on esa-per-row; ~0 on grna-nn",
    ),
    def(
        "defense.release_s",
        "s",
        "chunk_p50_ms, campaign_s on esa-per-row; ~0 on grna-nn",
    ),
    def(
        "serve.codec_s",
        "s",
        "chunk_p50_ms, campaign_s on esa-per-row; ~0 on grna-nn",
    ),
    def(
        "serve.roundtrip_s",
        "s",
        "chunk_p50_ms, campaign_s on esa-per-row; ~0 on grna-nn",
    ),
    def(
        "serve.chunk_p99_ms",
        "ms",
        "campaign_s on esa-per-row (a per-pass tail moves with neighbours' load, too much to bound end to end)",
    ),
    def(
        "serve.unclaimed_s",
        "s",
        "chunk_p50_ms, campaign_s on esa-per-row; ~0 on grna-nn",
    ),
    def("serve.rounds", "count", "campaign_s on esa-per-row"),
    def("serve.batch_fill", "rows", "campaign_s on esa-per-row"),
    def("serve.cache_hit_frac", "1", "campaign_s on daemon-rerun"),
    def("serve.hit_chunk_p50_ms", "ms", "campaign_s on daemon-rerun"),
    def(
        "serve.miss_chunk_p50_ms",
        "ms",
        "campaign_s on daemon-rerun",
    ),
    def("campaign.step_self_s", "s", "campaign_s on esa-per-row"),
    def("campaign.finalize_self_s", "s", "attack_s on esa-per-row"),
    def("campaign.spans", "count", "peak_rss_mb on esa-per-row"),
    def(
        "core.esa_solve_s",
        "s",
        "attack_s on esa-per-row and daemon-rerun",
    ),
    def("core.grna_train_s", "s", "attack_s on grna-nn"),
    def("core.grna_infer_s", "s", "attack_s on grna-nn"),
    def("linalg.gemm_calls", "count", "attack_s on grna-nn"),
    def("linalg.gemm_gflop", "GFLOP", "attack_s on grna-nn"),
    def(
        "tensor.train_gflops",
        "GFLOP/s",
        "attack_s on grna-nn (vs linalg.kernel_gflops: tape overhead)",
    ),
    def("linalg.kernel_gflops", "GFLOP/s", "attack_s on grna-nn"),
    def(
        "telemetry.trace_bytes",
        "B",
        "attack_s, peak_rss_mb on esa-per-row",
    ),
    def(
        "telemetry.trace_export_s",
        "s",
        "attack_s, peak_rss_mb on esa-per-row",
    ),
    def(
        "telemetry.overhead_frac",
        "1",
        "traced vs untraced campaign_s, every workload",
    ),
    def("campaignd.wal_bytes", "B", "campaign_s on daemon-rerun"),
    def(
        "campaignd.checkpoint_encode_s",
        "s",
        "campaign_s on daemon-rerun",
    ),
    def("campaignd.wal_append_s", "s", "campaign_s on daemon-rerun"),
    def("campaignd.submit_ms", "ms", "campaign_s on daemon-rerun"),
    def("unclaimed_s", "s", "campaign_s on every workload"),
];

/// The per-layer times that lie on a campaign's blocking path; with
/// `unclaimed_s` they sum to the traced passes' `campaign_s` on every
/// workload (layers a workload does not run read 0).
pub const BLOCKING_PATH: &[&str] = &[
    "vfl.predict_s",
    "defense.release_s",
    "serve.codec_s",
    "serve.unclaimed_s",
    "campaign.step_self_s",
    "campaignd.checkpoint_encode_s",
    "campaignd.wal_append_s",
    "core.esa_solve_s",
    "core.grna_train_s",
    "core.grna_infer_s",
    "telemetry.trace_export_s",
    "campaign.finalize_self_s",
    "unclaimed_s",
];

/// Samples collected by a run, one list per metric name.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample to `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// The samples of `name` (empty when none were taken).
    pub fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}
