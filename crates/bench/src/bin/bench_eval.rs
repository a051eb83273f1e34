//! Wall-clock comparison of the paper-scale evaluation at `--jobs 1` vs
//! the machine's full parallelism, per target. Each target runs as
//! [`TRIALS`] interleaved (serial, parallel) pairs; the table and the
//! JSON report each cell's median and interquartile range, with the host
//! core count. Further tables time the Monsoon sampler's two paths on
//! the sample-path instance this CPU runs, the telemetry overhead budget
//! and a job's automation session, and record durable nodes' trace
//! points, WAL bytes and recovery time as they age. The JSON
//! (`BENCH_eval.json`) is written only with `--out`.
//!
//! ```sh
//! cargo run --release -p batterylab-bench --bin bench_eval
//! cargo run --release -p batterylab-bench --bin bench_eval -- --out .
//! ```
//!
//! Output is byte-identical between the two job counts by construction
//! (see `batterylab::eval::par`), so this binary also checks that each
//! pair renders the same text while it times them.

use std::path::PathBuf;
use std::time::Instant;

use batterylab::adb::{AdbKey, AdbLink, MockServices, TransportKind};
use batterylab::automation::{AdbBackend, AutomationBackend, Script};
use batterylab::device::boot_j7_duo;
use batterylab::eval::{par, run_target, EvalConfig, ALL_TARGETS};
use batterylab::platform::Platform;
use batterylab::power::{
    sampler_instance, Calibration, ConstantLoad, Monsoon, TraceLoad, MONSOON_RATE_HZ,
};
use batterylab::server::{AccessServer, Constraints, ExperimentSpec, Payload};
use batterylab::sim::{SimRng, SimTime, StepSignal};
use batterylab::stats::Cdf;
use batterylab::telemetry::Registry;
use batterylab::workloads::BrowserProfile;

/// Interleaved (serial, parallel) pairs per target.
const TRIALS: usize = 5;

/// DESIGN §3c: binding a component to a registry may cost at most this
/// percentage of its unbound time.
const OVERHEAD_BUDGET_PCT: f64 = 5.0;

fn usage() -> ! {
    eprintln!("usage: bench_eval [--seed N] [--out DIR]");
    std::process::exit(2);
}

/// Median and interquartile range of one cell's trials.
fn spread(trials: &[f64]) -> (f64, f64) {
    let cdf = Cdf::from_samples(trials);
    (cdf.median(), cdf.quantile(0.75) - cdf.quantile(0.25))
}

/// A spread as `median ± iqr` text, `digits` decimals, then `unit`.
fn text((median, iqr): (f64, f64), digits: usize, unit: &str) -> String {
    format!("{median:.digits$} ± {iqr:.digits$}{unit}")
}

/// A spread as `{median, iqr}` JSON.
fn json((median, iqr): (f64, f64)) -> serde_json::Value {
    serde_json::json!({ "median": median, "iqr": iqr })
}

fn timed(mut run: impl FnMut()) -> f64 {
    let start = Instant::now();
    run();
    start.elapsed().as_secs_f64() * 1e3
}

/// [`TRIALS`] interleaved pairs: each pair starts from `setup()`, then
/// measures `run(&mut state, side)` once per side (`false` is the side a
/// cell names first), alternating which side runs first so neither
/// always runs warm. Returns each side's trials, first-named side first.
fn interleaved<S>(
    mut setup: impl FnMut() -> S,
    mut run: impl FnMut(&mut S, bool) -> f64,
) -> [[f64; TRIALS]; 2] {
    let pairs: [[f64; 2]; TRIALS] = std::array::from_fn(|trial| {
        let mut state = setup();
        let mut pair = [0.0; 2];
        for side in [trial % 2 == 1, trial % 2 == 0] {
            pair[usize::from(side)] = run(&mut state, side);
        }
        pair
    });
    [0, 1].map(|side| pairs.map(|pair| pair[side]))
}

/// Serial sampler throughput: a sparse step trace (a step every ~230 ms,
/// the shape real device traces have) sampled for 10 s at the native
/// 5 kHz, segment-batched vs the per-sample reference path, as [`TRIALS`]
/// interleaved (reference, segmented) pairs reported as median and IQR,
/// in two instrument configurations:
///
/// * `noise_free` — noise floor disabled, the pure pipeline-overhead
///   comparison (physics, calibration, quantisation, aggregation);
/// * `noisy` — the default calibration, where both paths additionally
///   draw one Ziggurat Gaussian per sample from the same noise blocks, a
///   cost the batching cannot remove.
///
/// The block's `instance` names the compiled instance of the sample path
/// both paths ran on ([`sampler_instance`]).
fn sampler_throughput(seed: u64) -> serde_json::Value {
    let duration_s = 10.0;
    let mut trace = StepSignal::new(120.0);
    let mut t = 0u64;
    let mut level = 120.0;
    while t < (duration_s * 1e6) as u64 {
        t += 230_000;
        level = if level > 400.0 { 130.0 } else { level + 95.0 };
        trace.set(SimTime::from_micros(t), level);
    }
    let load = TraceLoad::new(trace, 4.0);
    let samples = (duration_s * MONSOON_RATE_HZ) as u64;
    let meter = |cal: Calibration| {
        let mut m = Monsoon::new(SimRng::new(seed).derive("monsoon")).with_calibration(cal);
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        m
    };
    let instance = sampler_instance();
    println!(
        "\n# sampler throughput (serial, {samples} samples, sparse step trace, \
         {instance} instance; median ± IQR of {TRIALS} interleaved pairs)"
    );
    println!(
        "{:<12} {:<22} {:>16} {:>14} {:>8}",
        "config", "path", "wall", "samples/s", "speedup"
    );
    let mut out = serde_json::Map::new();
    out.push(("instance".to_string(), serde_json::json!(instance)));
    let noisy = Calibration::default();
    let noise_free = Calibration {
        noise_ma: 0.0,
        ..noisy
    };
    for (name, cal) in [("noise_free", noise_free), ("noisy", noisy)] {
        let mut meters = [meter(cal), meter(cal)];
        let [reference_ms, segmented_ms] = interleaved(
            || (),
            |(), segmented| {
                let m = &mut meters[usize::from(segmented)];
                timed(|| {
                    let run = if segmented {
                        m.sample_run_at_rate(&load, SimTime::ZERO, duration_s, MONSOON_RATE_HZ)
                    } else {
                        m.sample_run_reference_at_rate(
                            &load,
                            SimTime::ZERO,
                            duration_s,
                            MONSOON_RATE_HZ,
                        )
                    };
                    std::hint::black_box(run.unwrap());
                })
            },
        );
        let (reference, segmented) = (spread(&reference_ms), spread(&segmented_ms));
        let segmented_sps = samples as f64 / (segmented.0 / 1e3);
        let reference_sps = samples as f64 / (reference.0 / 1e3);
        let speedup = reference.0 / segmented.0.max(1e-9);
        println!(
            "{:<12} {:<22} {:>16} {:>12.0}/s {:>8}",
            name,
            "per-sample reference",
            text(reference, 2, "ms"),
            reference_sps,
            ""
        );
        println!(
            "{:<12} {:<22} {:>16} {:>12.0}/s {:>7.2}x",
            name,
            "segment-batched",
            text(segmented, 2, "ms"),
            segmented_sps,
            speedup
        );
        out.push((
            name.to_string(),
            serde_json::json!({
                "samples": samples,
                "rate_hz": MONSOON_RATE_HZ,
                "reference_ms": json(reference),
                "segmented_ms": json(segmented),
                "reference_samples_per_sec": reference_sps,
                "segmented_samples_per_sec": segmented_sps,
                "speedup": speedup,
            }),
        ));
    }
    serde_json::Value::Object(out)
}

/// One overhead cell: `reps` runs of `run(bound)` per timed trial, enough
/// to make a trial milliseconds long, as [`TRIALS`] interleaved
/// (unbound, bound) pairs. The overhead is the median of the per-pair
/// ratios, so host load that drifts between pairs cancels out.
fn overhead_pair(name: &str, reps: usize, mut run: impl FnMut(bool)) -> serde_json::Value {
    let [unbound_ms, bound_ms] = interleaved(
        || (),
        |(), bound| timed(|| (0..reps).for_each(|_| run(bound))),
    );
    let overhead_pct: Vec<f64> = (0..TRIALS)
        .map(|trial| (bound_ms[trial] / unbound_ms[trial] - 1.0) * 100.0)
        .collect();
    let (unbound, bound) = (spread(&unbound_ms), spread(&bound_ms));
    let overhead = spread(&overhead_pct);
    let within_budget = overhead.0 <= OVERHEAD_BUDGET_PCT;
    println!(
        "{:<22} {:>18} {:>18} {:>14} {}",
        name,
        text(unbound, 2, "ms"),
        text(bound, 2, "ms"),
        text(overhead, 1, "%"),
        if within_budget { "ok" } else { "BROKEN" }
    );
    serde_json::json!({
        "reps": reps,
        "unbound_ms": json(unbound),
        "bound_ms": json(bound),
        "overhead_pct": json(overhead),
        "within_budget": within_budget,
    })
}

/// Telemetry overhead (DESIGN §3c): one virtual second of 5 kHz Monsoon
/// sampling on a fresh meter, and one ADB shell round trip over a
/// connected WiFi link, each with its component bound to a shared
/// registry vs left unbound.
fn telemetry_overhead() -> serde_json::Value {
    println!(
        "\n# telemetry overhead (registry bound vs unbound; \
         median ± IQR of {TRIALS} interleaved pairs; budget {OVERHEAD_BUDGET_PCT}%)"
    );
    println!(
        "{:<22} {:>18} {:>18} {:>14}",
        "operation", "unbound", "bound", "overhead"
    );
    let registry = Registry::new();
    let monsoon = overhead_pair("monsoon_1s_5khz", 300, |bound| {
        let mut m = Monsoon::new(SimRng::new(1).derive("m"));
        if bound {
            m.set_telemetry(&registry);
        }
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        std::hint::black_box(
            m.sample_run(&ConstantLoad::new(160.0, 4.0), SimTime::ZERO, 1.0)
                .unwrap(),
        );
    });
    let mut links = [false, true].map(|bound| {
        let mut link = AdbLink::new(
            MockServices::default(),
            TransportKind::WiFi,
            AdbKey::generate("bench", 1),
        );
        if bound {
            link.set_telemetry(&registry);
        }
        link.connect().unwrap();
        link
    });
    let adb = overhead_pair("adb_shell_round_trip", 10_000, |bound| {
        std::hint::black_box(links[bound as usize].shell("echo bench").unwrap());
    });
    serde_json::json!({
        "budget_pct": OVERHEAD_BUDGET_PCT,
        "monsoon_1s_5khz": monsoon,
        "adb_shell_round_trip": adb,
    })
}

/// Sessions per timed trial of the automation-session cell, enough to
/// make a trial milliseconds long.
const SESSIONS: usize = 500;

/// A measured job's automation session (DESIGN §4d), as `run_experiment`
/// drives it over ADB-WiFi: a fresh `AdbBackend::connect` to a booted J7
/// Duo (handshake and `logcat -c`), `node_lifetime`'s 2-scroll browser
/// workload, and `logcat -d`. Each trial boots a fresh device, and the
/// key it trusts on first contact is registered before timing, as on a
/// node past its first job. The sessions run as [`TRIALS`] interleaved
/// pairs against the same commands over one channel kept open, so the
/// per-pair difference is what opening the channel costs.
fn automation_session(seed: u64) -> serde_json::Value {
    const PACKAGE: &str = "com.brave.browser";
    let script = Script::browser_workload(PACKAGE, &["https://news.example"], 2);
    let key = AdbKey::generate("bench", 1);
    let [open_us, fresh_us] = interleaved(
        || {
            let device = boot_j7_duo(&SimRng::new(seed).derive("bench"), "j7duo-0001");
            device.install_package(PACKAGE);
            let open = AdbBackend::connect(device.clone(), TransportKind::WiFi, key.clone())
                .expect("first contact");
            (device, open)
        },
        |(device, open), fresh| {
            let ms = timed(|| {
                for _ in 0..SESSIONS {
                    if fresh {
                        let mut session =
                            AdbBackend::connect(device.clone(), TransportKind::WiFi, key.clone())
                                .unwrap();
                        session.run_script(&script).unwrap();
                        std::hint::black_box(session.link_mut().logcat().unwrap());
                    } else {
                        open.link_mut().shell("logcat -c").unwrap();
                        open.run_script(&script).unwrap();
                        std::hint::black_box(open.link_mut().logcat().unwrap());
                    }
                }
            });
            ms * 1e3 / SESSIONS as f64
        },
    );
    let connect_us: Vec<f64> = (0..TRIALS).map(|t| fresh_us[t] - open_us[t]).collect();
    let (fresh, open, connect) = (spread(&fresh_us), spread(&open_us), spread(&connect_us));
    println!(
        "\n# automation session (per session, {SESSIONS} per trial; \
         median ± IQR of {TRIALS} interleaved pairs)"
    );
    println!("{:<34} {:>16}", "operation", "wall");
    for (operation, spread) in [
        ("connect + script + logcat -d", fresh),
        ("open channel: script + logcat -c/-d", open),
        ("opening the channel (difference)", connect),
    ] {
        println!("{:<34} {:>16}", operation, text(spread, 2, "us"));
    }
    serde_json::json!({
        "sessions": SESSIONS,
        "session_us": json(fresh),
        "open_channel_us": json(open),
        "connect_us": json(connect),
    })
}

/// Node ages, in jobs, at which the node-age cell records its state.
const NODE_AGES: [usize; 4] = [250, 1000, 4000, 10_000];

/// One node's state at one of [`NODE_AGES`]: the change points its
/// device's current, CPU and frame-change traces hold, its WAL's durable
/// bytes, and one `AccessServer::recover` from that WAL, ms.
struct AgedNode {
    points: [usize; 3],
    wal_bytes: usize,
    recover_ms: f64,
}

/// Build one `Platform::durable_testbed` node and run measured 2-scroll
/// browser jobs on it one at a time, recording its state at each of
/// [`NODE_AGES`].
fn age_node(seed: u64) -> [AgedNode; NODE_AGES.len()] {
    let (mut platform, wal) = Platform::durable_testbed(seed);
    let serial = platform.j7_serial();
    let token = platform.experimenter_token;
    let browsers = BrowserProfile::all_four();
    let mut jobs = 0;
    NODE_AGES.map(|age| {
        for i in jobs..age {
            let spec = ExperimentSpec::measured(
                serial,
                Script::browser_workload(
                    &browsers[i % browsers.len()].package,
                    &["https://news.example"],
                    2,
                ),
            );
            let id = platform
                .server
                .submit_job(
                    token,
                    &format!("job-{i}"),
                    Constraints::default(),
                    Payload::Experiment(spec),
                )
                .expect("job accepted");
            assert_eq!(platform.server.tick(), Some(id), "job {i} ran");
        }
        jobs = age;
        let points = platform.j7().with_sim(|s| {
            [
                s.current_trace().changes(),
                s.cpu_trace().changes(),
                s.frame_change_trace().changes(),
            ]
        });
        let mut recovered = None;
        let recover_ms = timed(|| recovered = Some(AccessServer::recover(&wal, &Registry::new())));
        // Dropped untimed: `recover` returns the server it built.
        drop(recovered.expect("timed").expect("the WAL recovers"));
        AgedNode {
            points,
            wal_bytes: wal.durable_len(),
            recover_ms,
        }
    })
}

/// Node age (DESIGN §4d): [`TRIALS`] nodes, each built fresh and aged
/// through [`NODE_AGES`] by [`age_node`]. At each age the cell records
/// the change points the device's three traces hold, the WAL's durable
/// bytes (both the same on every node: they follow from the seed) and
/// the median and IQR of the nodes' `AccessServer::recover` timings, so
/// the spread takes in whatever differs between whole runs, not only
/// between repeats on one warm node. Traces that hold a constant number
/// of points show the node's memory stays bounded. The access server
/// compacts its log into a snapshot of the live state (DESIGN §4c), so
/// WAL bytes and `recover` grow with the builds the node keeps, not
/// with every record since boot: between compactions the log holds at
/// most the snapshot plus as many records again.
fn node_age(seed: u64) -> serde_json::Value {
    println!(
        "
# node age (one durable node per trial, measured 2-scroll jobs; \
         recover median ± IQR of {TRIALS} nodes)"
    );
    println!(
        "{:<6} {:>24} {:>10} {:>18}",
        "jobs", "trace points (I/CPU/FC)", "WAL bytes", "recover"
    );
    let nodes: [_; TRIALS] = std::array::from_fn(|_| age_node(seed));
    let mut cells = Vec::new();
    for (at, age) in NODE_AGES.into_iter().enumerate() {
        let AgedNode {
            points, wal_bytes, ..
        } = nodes[0][at];
        for node in &nodes {
            assert_eq!(
                (node[at].points, node[at].wal_bytes),
                (points, wal_bytes),
                "a node's state at {age} jobs depends on more than the seed"
            );
        }
        let recover = spread(&nodes.each_ref().map(|node| node[at].recover_ms));
        let [current, cpu, frame_change] = points;
        println!(
            "{:<6} {:>24} {:>10} {:>18}",
            age,
            format!("{current}/{cpu}/{frame_change}"),
            wal_bytes,
            text(recover, 2, "ms")
        );
        cells.push(serde_json::json!({
            "jobs": age,
            "trace_points": serde_json::json!({
                "current": current,
                "cpu": cpu,
                "frame_change": frame_change,
            }),
            "wal_bytes": wal_bytes,
            "recover_ms": json(recover),
        }));
    }
    serde_json::Value::Array(cells)
}

/// Print one table row and return its JSON cell.
fn row(name: &str, serial_ms: &[f64], parallel_ms: &[f64]) -> serde_json::Value {
    let (serial, parallel) = (spread(serial_ms), spread(parallel_ms));
    let speedup = serial.0 / parallel.0;
    println!(
        "{:<10} {:>18} {:>18} {:>7.2}x",
        name,
        text(serial, 1, "ms"),
        text(parallel, 1, "ms"),
        speedup
    );
    serde_json::json!({
        "target": name,
        "serial_ms": json(serial),
        "parallel_ms": json(parallel),
        "speedup": speedup,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut serial = EvalConfig::default();
    let mut out: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                serial.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => out = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            _ => usage(),
        }
    }

    let seed = serial.seed;
    let parallel = serial.clone().with_jobs(0);
    let jobs = parallel.effective_jobs();
    let cores = par::available_jobs();
    println!(
        "# eval wall-clock: jobs=1 vs jobs={jobs} (paper configuration, seed={seed}, \
         {cores} cores; median ± IQR of {TRIALS} interleaved pairs)\n"
    );
    println!(
        "{:<10} {:>18} {:>18} {:>8}",
        "target",
        "1 job",
        format!("{jobs} jobs"),
        "speedup"
    );

    let mut targets = Vec::new();
    let mut total_serial = [0.0; TRIALS];
    let mut total_parallel = [0.0; TRIALS];
    for target in ALL_TARGETS {
        // The pair's first run leaves its text for the second to match.
        let [serial_ms, parallel_ms] = interleaved(
            || None,
            |first: &mut Option<String>, is_parallel| {
                let config = if is_parallel { &parallel } else { &serial };
                let mut text = String::new();
                let ms = timed(|| text = run_target(target, config, None).unwrap());
                match first.take() {
                    Some(first) => assert_eq!(first, text, "{target}: output depends on --jobs"),
                    None => *first = Some(text),
                }
                ms
            },
        );
        for trial in 0..TRIALS {
            total_serial[trial] += serial_ms[trial];
            total_parallel[trial] += parallel_ms[trial];
        }
        targets.push(row(target, &serial_ms, &parallel_ms));
    }
    let total = row("total", &total_serial, &total_parallel);

    let sampler = sampler_throughput(seed);
    let overhead = telemetry_overhead();
    let session = automation_session(seed);
    let age = node_age(seed);

    let Some(dir) = out else { return };
    let json = serde_json::json!({
        "config": "paper",
        "seed": seed,
        "trials": TRIALS,
        "parallel_jobs": jobs,
        "available_parallelism": cores,
        "sampler": sampler,
        "telemetry_overhead": overhead,
        "automation_session": session,
        "node_age": age,
        "targets": targets,
        "total": total,
    });
    std::fs::create_dir_all(&dir).expect("create output dir");
    let path = dir.join("BENCH_eval.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&json).expect("serialise"),
    )
    .expect("write BENCH_eval.json");
    eprintln!("\nwrote {}", path.display());
}
