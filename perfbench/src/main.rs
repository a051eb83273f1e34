//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics for `--trace 0`, the per-layer ones for `--trace 1`.

use perfbench::{Options, Scale, Workload};

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper_eval|node_lifetime|fleet_faults> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    let outcome = perfbench::run(&Options {
        workload,
        seed,
        seconds,
        trace,
        scale: Scale::Full,
    });
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", outcome.to_json());
}
