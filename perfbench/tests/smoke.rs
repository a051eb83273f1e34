//! A tiny-scale run of every workload, timed and traced: each must emit
//! exactly the metrics `BENCHMARK.json` names for its mode, with the
//! units it records, and pass every output check.

use perfbench::{run, Options, Scale, Workload};

fn declared(bench: &serde_json::Value, section: &str) -> Vec<(String, String)> {
    let mut metrics: Vec<(String, String)> = bench[section]
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("name").to_string(),
                m["unit"].as_str().expect("unit").to_string(),
            )
        })
        .collect();
    metrics.sort();
    metrics
}

#[test]
fn every_workload_emits_its_metrics_and_passes_its_checks() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = serde_json::from_str_value(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = bench["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("name"))
        .collect();
    assert_eq!(
        workloads,
        Workload::ALL.map(Workload::name).to_vec(),
        "BENCHMARK.json lists the workloads the benchmark runs"
    );

    for workload in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run(&Options {
                workload,
                seed: 7,
                seconds: 0.01,
                trace,
                scale: Scale::Tiny,
            });
            let context = format!("{} trace={trace}: {:?}", workload.name(), outcome.notes);
            assert!(outcome.correct, "checks failed: {context}");
            assert_eq!(outcome.failed, 0, "{context}");
            assert!(outcome.attempted >= 1, "{context}");
            let mut emitted: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            emitted.sort();
            assert_eq!(emitted, declared(&bench, section), "{context}");
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} is not a number: {context}", m.name);
            }
            let line = outcome.to_json();
            let parsed = serde_json::from_str_value(&line).expect("result line is JSON");
            assert_eq!(parsed["correct"], serde_json::json!(true), "{line}");
        }
    }
}
