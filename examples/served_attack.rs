//! The paper's threat model, end to end over a real socket — as one
//! campaign: `OracleSpec::Served` makes the session spawn a real
//! `fia-serve` prediction service (ephemeral port, two backend
//! replicas, released-score cache) and mount ESA by *querying the
//! service*, exactly how the adversary of Luo et al. accumulates its
//! `(x_adv, v)` corpus in production. The report says what the campaign
//! cost the deployment.
//!
//! ```sh
//! cargo run --release --example served_attack
//! ```

use fia::campaign::{
    AttackSpec, Campaign, CampaignEvent, OracleSpec, PartitionSpec, ScenarioSpec, ServedConfig,
};
use fia::data::PaperDataset;
use std::time::Duration;

fn main() {
    // 1. The scenario: drive-diagnosis stand-in (11 classes), a random
    //    20% of features held by the passive target party, served over
    //    TCP. `round_cost` simulates the secure-computation round trip
    //    a real deployment pays per joint prediction; the coalescer
    //    amortizes it, two replicas shard the stored prediction set and
    //    pay it concurrently, and the released-score cache answers
    //    repeated queries without paying it at all.
    let scenario = ScenarioSpec::paper(PaperDataset::DriveDiagnosis)
        .with_scale(0.01)
        .with_partition(PartitionSpec::two_block_random(0.2))
        .with_oracle(OracleSpec::Served(ServedConfig {
            replicas: 2,
            cache_capacity: 8192,
            round_cost: Duration::from_micros(200),
            ..ServedConfig::default()
        }))
        .with_seed(42)
        .build();
    println!(
        "scenario {}: {}",
        scenario.fingerprint(),
        scenario.description()
    );

    // 2. The campaign session: the server is spawned when the session
    //    first needs it, and the adversary accumulates confidence
    //    vectors in rounds of 64 queries over the wire.
    let mut campaign = Campaign::new(scenario)
        .with_attack(AttackSpec::esa())
        .with_chunk(64);
    let mut observer = |e: &CampaignEvent| match e {
        CampaignEvent::Started { rows_planned, .. } => {
            println!("accumulating {rows_planned} rows over the wire…");
        }
        CampaignEvent::AttackDone {
            attack, rows, mse, ..
        } => {
            println!("{attack}: reconstructed {rows} target rows, per-feature MSE = {mse:.3e}");
        }
        _ => {}
    };
    let report = campaign.run(&mut observer).expect("campaign over the wire");

    // 3. What the campaign cost the deployment, from the report.
    println!(
        "campaign cost: {} queries / {} rows ({} cache-served, {} computed)",
        report.cost.queries,
        report.cost.rows,
        report.cost.cached_rows,
        report.cost.computed_rows()
    );

    // 4. A second campaign over the same rows: the released-score cache
    //    re-releases the first-released bytes, so the repeat run costs
    //    the deployment no joint rounds and teaches the adversary
    //    nothing new.
    let rerun = campaign
        .rerun(&mut fia::campaign::NullObserver)
        .expect("warm replay");
    println!(
        "repeat campaign: {} of {} rows cache-served ({} recomputed), estimates unchanged: {}",
        rerun.cost.cached_rows,
        rerun.cost.rows,
        rerun.cost.computed_rows(),
        rerun.attack("esa").unwrap().estimates == report.attack("esa").unwrap().estimates
    );

    // 5. What the server saw, from its `MetricsText` scrape: request and
    //    round counts, per-replica rows, cache hits and the latency
    //    histogram. Then tear it down.
    let scrape = campaign.server_metrics_text().expect("served scenario");
    println!("server scrape:");
    for sample in scrape.lines().filter(|l| l.starts_with("fia_serve_")) {
        println!("{sample}");
    }
    campaign.shutdown();
}
