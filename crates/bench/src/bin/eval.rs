//! Regenerate the BatteryLab paper's evaluation: every table and figure
//! of §4, printed as the rows/series the paper reports.
//!
//! ```sh
//! cargo run --release -p batterylab-bench --bin eval -- all
//! cargo run --release -p batterylab-bench --bin eval -- fig2 fig5
//! cargo run --release -p batterylab-bench --bin eval -- --quick all
//! cargo run --release -p batterylab-bench --bin eval -- --seed 7 fig3
//! ```
//!
//! Targets: `fig2 fig3 fig4 fig5 fig6 table2 sysperf all`.
//! `--quick` runs the reduced configuration (shorter videos, fewer sites
//! and repetitions); the default is paper-scale.

use batterylab::eval::{run_target, EvalConfig, ALL_TARGETS};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: eval [--quick] [--seed N] [--jobs N] [--out DIR] <target>...\n\
         targets: fig2 fig3 fig4 fig5 fig6 table2 sysperf all\n\
         --jobs N fans independent runs across N workers (0 = every core);\n\
         output is byte-identical for any job count\n\
         --out DIR writes plot-ready CSV/JSON series next to the printed tables"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed: Option<u64> = None;
    let mut jobs: usize = 1;
    let mut out: Option<PathBuf> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                seed = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| usage());
                jobs = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => {
                out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage())));
            }
            "--help" | "-h" => usage(),
            t => targets.push(t.to_string()),
        }
    }
    if targets.is_empty() {
        usage();
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_TARGETS.iter().map(|s| s.to_string()).collect();
    }
    if let Some(other) = targets.iter().find(|t| !ALL_TARGETS.contains(&t.as_str())) {
        eprintln!("unknown target {other:?}");
        usage();
    }

    let mut config = if quick {
        EvalConfig::quick(2019)
    } else {
        EvalConfig::default()
    };
    if let Some(s) = seed {
        config.seed = s;
    }
    config.jobs = jobs;
    println!(
        "# BatteryLab evaluation | seed={} | {} configuration | {} worker(s)\n",
        config.seed,
        if quick { "quick" } else { "paper-scale" },
        config.effective_jobs(),
    );

    for target in targets {
        let text = run_target(&target, &config, out.as_deref()).expect("write output");
        println!("{text}");
    }
}
