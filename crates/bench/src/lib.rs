#![warn(missing_docs)]

//! # fia-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (Section VI; the index is in [`experiments`]). Each sub-module exposes
//! a `run(&ExperimentConfig)` returning typed rows; `src/bin/repro.rs`
//! prints them in the paper's layout.
//!
//! Every figure runs through the workspace's one scenario seam. A trial
//! is one `fia_campaign::ScenarioSpec` plus the `AttackSpec`s mounted on
//! it, run as one in-process `Campaign` ([`sweep::Trial`]); a figure is a
//! grid of trials plus a projection of each trial's resolved scenario
//! and report into its rows. `tests/golden/repro_smoke.txt` pins the
//! stdout of `repro --profile smoke all`, and the root package's
//! `tests/paper_claims.rs` asserts the figures' claims on a reduced
//! smoke grid.
//!
//! `benches/` measures representative configurations under the in-tree
//! wall-clock [`harness`] (criterion is unavailable offline) and emits
//! machine-readable `BENCH_*.json` summaries.
//!
//! Profiles ([`profiles::ExperimentConfig`]): `smoke` and `quick` run
//! every experiment in seconds on scaled-down workloads (the *shapes* of
//! the results — who wins, where thresholds fall — are preserved),
//! `medium` in minutes, and `paper` uses the paper's full sizes.

pub mod experiments;
pub mod harness;
pub mod profiles;
pub mod report;
pub mod sweep;
