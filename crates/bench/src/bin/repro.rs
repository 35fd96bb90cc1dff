//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--profile quick|smoke|medium|paper] [--seed N] <experiment>...
//! experiments: table2 table3 fig5 fig6 fig7 fig8 fig9 fig10
//!              fig11ab fig11cd fig11ef ablation all
//! ```
//!
//! Results are printed as aligned text tables, one row per plotted point,
//! in the same series layout the paper reports.

use fia_bench::experiments::{
    ablation, fig10, fig11, fig5, fig6, fig7, fig8, fig9, table2, table3,
};
use fia_bench::profiles::ExperimentConfig;
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11ab", "fig11cd",
    "fig11ef", "ablation", "all",
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--profile quick|smoke|medium|paper] [--seed N] <experiment>...\n\
         experiments: {}",
        EXPERIMENTS.join(" ")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut profile = "quick".to_string();
    let mut seed: Option<u64> = None;
    let mut experiments: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile" => profile = it.next().unwrap_or_else(|| usage()),
            "--seed" => {
                seed = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.is_empty() {
        usage();
    }
    if let Some(unknown) = experiments
        .iter()
        .find(|e| !EXPERIMENTS.contains(&e.as_str()))
    {
        eprintln!("repro: unknown experiment `{unknown}`");
        usage();
    }

    let mut cfg = match profile.as_str() {
        "quick" => ExperimentConfig::quick(),
        "smoke" => ExperimentConfig::smoke(),
        "medium" => ExperimentConfig::medium(),
        "paper" => ExperimentConfig::paper(),
        _ => usage(),
    };
    if let Some(s) = seed {
        cfg.seed = s;
    }
    println!(
        "# profile = {profile}, scale = {}, seed = {}, trials = {}",
        cfg.scale, cfg.seed, cfg.trials
    );

    let all = experiments.iter().any(|e| e == "all");
    let want = |name: &str| all || experiments.iter().any(|e| e == name);

    let t0 = Instant::now();
    if want("table2") {
        println!("{}", table2::render());
    }
    if want("fig5") {
        run_timed("fig5", || println!("{}", fig5::render(&fig5::run(&cfg))));
    }
    if want("fig6") {
        run_timed("fig6", || println!("{}", fig6::render(&fig6::run(&cfg))));
    }
    if want("table3") {
        run_timed("table3", || {
            println!("{}", table3::render(&table3::run(&cfg)))
        });
    }
    if want("fig7") {
        run_timed("fig7", || println!("{}", fig7::render(&fig7::run(&cfg))));
    }
    if want("fig8") {
        run_timed("fig8", || println!("{}", fig8::render(&fig8::run(&cfg))));
    }
    if want("fig9") {
        run_timed("fig9", || println!("{}", fig9::render(&fig9::run(&cfg))));
    }
    if want("fig10") {
        run_timed("fig10", || {
            let rows = fig10::run(&cfg);
            println!("{}", fig10::render(&rows));
            // The error-vs-correlation tradeoff is a *within-panel*
            // statement (panels differ in scale and model family).
            for panel in ["Bank marketing (LR)", "Credit card (RF)"] {
                let panel_rows: Vec<_> =
                    rows.iter().filter(|r| r.panel == panel).cloned().collect();
                println!(
                    "{panel}: corr(raw MSE, corr_adv) = {:.3}; corr(MSE/Var, corr_adv) = {:.3}",
                    fig10::mse_correlation_tradeoff(&panel_rows),
                    fig10::relative_mse_correlation_tradeoff(&panel_rows)
                );
            }
            println!(
                "(negative = correlated features reconstruct better; MSE/Var removes\n\
                 the feature-variance confound)\n"
            );
        });
    }
    if want("fig11ab") {
        run_timed("fig11ab", || {
            println!(
                "{}",
                fig11::render_rounding(
                    &fig11::run_rounding_esa(&cfg),
                    "Fig. 11a-b: rounding defense vs ESA"
                )
            )
        });
    }
    if want("fig11cd") {
        run_timed("fig11cd", || {
            println!(
                "{}",
                fig11::render_rounding(
                    &fig11::run_rounding_grna(&cfg),
                    "Fig. 11c-d: rounding defense vs GRNA-LR"
                )
            )
        });
    }
    if want("fig11ef") {
        run_timed("fig11ef", || {
            println!("{}", fig11::render_dropout(&fig11::run_dropout(&cfg)))
        });
    }
    if want("ablation") {
        run_timed("ablation", || {
            println!(
                "{}",
                ablation::render_pinv(&ablation::run_pinv_vs_ridge(&cfg, 1e-6))
            );
            println!(
                "{}",
                ablation::render_distill(&ablation::run_distill_sweep(&cfg))
            );
            println!(
                "{}",
                ablation::render_noise(&ablation::run_noise_sweep(&cfg))
            );
        });
    }
    eprintln!("# total wall clock: {:.1}s", t0.elapsed().as_secs_f64());
}

fn run_timed(name: &str, f: impl FnOnce()) {
    let t = Instant::now();
    f();
    eprintln!("# {name}: {:.1}s", t.elapsed().as_secs_f64());
}
