//! `blab` — the BatteryLab command-line client.
//!
//! The operator-facing face of the platform: every subcommand drives the
//! full simulated deployment (access server + node1 + J7 Duo) through the
//! same APIs an experimenter uses.
//!
//! ```sh
//! blab devices
//! blab measure --seconds 60 --mirror
//! blab browser --name brave --mirror
//! blab vpn --location japan --name chrome
//! blab speedtest
//! blab latency --trials 40
//! blab eval --quick --jobs 4 --out results/
//! ```

use batterylab::eval::common::{measured_browser_run, EvalConfig};
use batterylab::eval::{run_target, ALL_TARGETS};
use batterylab::mirror::{colocated_path, LatencyProbe};
use batterylab::net::{Region, VpnLocation};
use batterylab::platform::Platform;
use batterylab::sim::{SimDuration, SimRng};
use batterylab::workloads::{stream_video, BrowserProfile, StreamProfile};

struct Args {
    flags: Vec<(String, String)>,
    command: String,
}

impl Args {
    fn parse() -> Option<Args> {
        let mut args = std::env::args().skip(1);
        let command = args.next()?;
        let mut flags = Vec::new();
        let rest: Vec<String> = args.collect();
        let mut i = 0;
        while i < rest.len() {
            let key = rest[i].strip_prefix("--")?.to_string();
            if i + 1 < rest.len() && !rest[i + 1].starts_with("--") {
                flags.push((key, rest[i + 1].clone()));
                i += 2;
            } else {
                flags.push((key, "true".to_string()));
                i += 1;
            }
        }
        Some(Args { flags, command })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn u64_or(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn usage() -> ! {
    eprintln!(
        "blab — BatteryLab CLI (simulated deployment)\n\
         \n\
         commands:\n\
           devices                         list test devices at node1\n\
           measure  [--seconds N] [--mirror] [--rate HZ]   measured video workload\n\
           browser  --name <brave|chrome|edge|firefox> [--mirror] [--sites N] [--reps N]\n\
           vpn      --location <southafrica|china|japan|brazil|california> [--name <browser>]\n\
           stream   [--seconds N] [--mbps X]        measured adaptive-streaming workload\n\
           speedtest                       characterise the five VPN exits (Table 2)\n\
           latency  [--trials N]           click-to-display probe (§4.2)\n\
           metrics  [--seconds N] [--json] [--format prom]\n\
                                           run a seeded measured workload and dump\n\
                                           the platform-wide telemetry snapshot\n\
                                           (--format prom: Prometheus text format)\n\
           eval     [--quick] [--jobs N] [--out DIR] [--targets LIST]\n\
                                           regenerate the paper's §4 figures/tables;\n\
                                           --jobs 0 (default) uses every core — output\n\
                                           is byte-identical for any job count\n\
           chaos    [--runs N] [--intensity X] [--jobs N] [--json]\n\
                                           soak experiment pipelines under a seeded\n\
                                           fault schedule (incl. server crashes) and\n\
                                           check the robustness invariants (exit 1 on\n\
                                           any violation)\n\
           recover  [--intensity X]        crash-point sweep: kill the server at every\n\
                                           WAL record boundary, recover, and verify\n\
                                           jobs/ledger/report survive byte-identically\n\
           checkpoint [--seconds N] [--rate HZ] [--interval N] [--keep K]\n\
                                           crash a checkpointed sample run after K\n\
                                           sealed segments, resume it, and verify the\n\
                                           aggregates match the uninterrupted run\n\
         \n\
         global: --seed N (default 42; eval: 20191113, or 2019 with --quick)"
    );
    std::process::exit(2);
}

fn browser_by_name(name: &str) -> Option<BrowserProfile> {
    BrowserProfile::all_four()
        .into_iter()
        .find(|p| p.name.eq_ignore_ascii_case(name))
}

fn location_by_name(name: &str) -> Option<VpnLocation> {
    Some(match name.to_ascii_lowercase().as_str() {
        "southafrica" | "za" => VpnLocation::SouthAfrica,
        "china" | "cn" => VpnLocation::China,
        "japan" | "jp" => VpnLocation::Japan,
        "brazil" | "br" => VpnLocation::Brazil,
        "california" | "ca" | "usa" => VpnLocation::California,
        _ => return None,
    })
}

fn main() {
    let Some(args) = Args::parse() else { usage() };
    let seed = args.u64_or("seed", 42);

    match args.command.as_str() {
        "devices" => {
            let mut platform = Platform::paper_testbed(seed);
            let vp = platform.node1();
            for serial in vp.list_devices() {
                let sdk = vp
                    .execute_adb(&serial, "getprop ro.build.version.sdk")
                    .unwrap_or_default();
                let model = vp
                    .execute_adb(&serial, "getprop ro.product.model")
                    .unwrap_or_default();
                println!("{serial}\t{}\tAPI {}", model.trim(), sdk.trim());
            }
        }

        "measure" => {
            let seconds = args.u64_or("seconds", 60);
            let rate = args.u64_or("rate", 1000) as f64;
            let mirror = args.flag("mirror");
            let mut platform = Platform::paper_testbed(seed);
            let serial = platform.j7_serial().to_string();
            let vp = platform.node1();
            vp.power_monitor().expect("socket");
            vp.set_voltage(4.0).expect("voltage");
            vp.batt_switch(&serial).expect("bypass");
            if mirror {
                vp.device_mirroring(&serial).expect("mirroring");
            }
            vp.start_monitor(&serial).expect("armed");
            let device = vp.device_handle(&serial).expect("device");
            device.with_sim(|s| {
                s.set_screen(true);
                s.play_video(SimDuration::from_secs(seconds));
            });
            let report = vp.stop_monitor_at_rate(rate).expect("report");
            let cdf = report.cdf();
            println!("device    : {serial} (mirroring={mirror})");
            println!("samples   : {} @ {rate} Hz", report.samples.len());
            println!("median    : {:.1} mA", cdf.median());
            println!(
                "p10..p90  : {:.1}..{:.1} mA",
                cdf.quantile(0.1),
                cdf.quantile(0.9)
            );
            println!("discharge : {:.3} mAh over {seconds} s", report.mah());
        }

        "browser" => {
            let Some(profile) = args.get("name").and_then(browser_by_name) else {
                usage()
            };
            let mirror = args.flag("mirror");
            let mut config = EvalConfig::quick(seed);
            config.sites = args.u64_or("sites", 10) as usize;
            config.reps = args.u64_or("reps", 1) as usize;
            let mut platform = Platform::paper_testbed(seed);
            let serial = platform.j7_serial().to_string();
            let vp = platform.node1();
            println!(
                "running {} × {} sites (mirroring={mirror})...",
                profile.name, config.sites
            );
            let report =
                measured_browser_run(vp, &serial, profile.clone(), Region::Local, mirror, &config);
            println!("mean      : {:.1} mA", report.mean_ma());
            println!(
                "discharge : {:.3} mAh over {:.0} s",
                report.mah(),
                (report.window.1 - report.window.0).as_secs_f64()
            );
        }

        "vpn" => {
            let Some(location) = args.get("location").and_then(location_by_name) else {
                usage()
            };
            let profile = args
                .get("name")
                .and_then(browser_by_name)
                .unwrap_or_else(BrowserProfile::chrome);
            let mut config = EvalConfig::quick(seed);
            config.sites = args.u64_or("sites", 10) as usize;
            let mut platform = Platform::paper_testbed(seed);
            let serial = platform.j7_serial().to_string();
            let vp = platform.node1();
            vp.connect_vpn(location).expect("tunnel");
            println!("tunnel up via {location}; running {}...", profile.name);
            let report =
                measured_browser_run(vp, &serial, profile, Region::Vpn(location), false, &config);
            vp.disconnect_vpn().expect("teardown");
            println!("discharge : {:.3} mAh", report.mah());
        }

        "stream" => {
            let seconds = args.u64_or("seconds", 60);
            let mbps = args
                .get("mbps")
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(2.5);
            let mut platform = Platform::paper_testbed(seed);
            let serial = platform.j7_serial().to_string();
            let vp = platform.node1();
            vp.power_monitor().expect("socket");
            vp.set_voltage(4.0).expect("voltage");
            vp.batt_switch(&serial).expect("bypass");
            vp.start_monitor(&serial).expect("armed");
            let device = vp.device_handle(&serial).expect("device");
            let stats = stream_video(
                &device,
                SimDuration::from_secs(seconds),
                StreamProfile {
                    bitrate_bps: mbps * 1e6,
                    ..Default::default()
                },
            );
            let report = vp.stop_monitor_at_rate(500.0).expect("report");
            println!("streamed   : {:.0} s of {mbps} Mbps video", stats.played_s);
            println!(
                "fetched    : {:.1} MB in {} segments ({} stalls)",
                stats.bytes as f64 / 1e6,
                stats.segments,
                stats.stalls
            );
            println!(
                "discharge  : {:.3} mAh (mean {:.1} mA)",
                report.mah(),
                report.mean_ma()
            );
        }

        "speedtest" => {
            let config = EvalConfig {
                seed,
                ..EvalConfig::quick(seed)
            };
            print!("{}", batterylab::eval::table2::run(&config).render());
        }

        "metrics" => {
            let seconds = args.u64_or("seconds", 30);
            if seconds == 0 {
                eprintln!("metrics: --seconds must be at least 1");
                std::process::exit(2);
            }
            let mut platform = Platform::paper_testbed(seed);
            let serial = platform.j7_serial().to_string();
            let vp = platform.node1();
            vp.power_monitor().expect("socket");
            vp.set_voltage(4.0).expect("voltage");
            vp.batt_switch(&serial).expect("bypass");
            vp.execute_adb(&serial, "getprop ro.product.model")
                .expect("adb");
            vp.device_mirroring(&serial).expect("mirroring");
            vp.attach_viewer(&serial, "batterylab").expect("viewer");
            vp.start_monitor(&serial).expect("armed");
            let device = vp.device_handle(&serial).expect("device");
            device.with_sim(|s| {
                s.set_screen(true);
                s.play_video(SimDuration::from_secs(seconds));
            });
            vp.pump_mirrors().expect("mirror pump");
            let _ = vp.stop_monitor_at_rate(500.0).expect("report");
            let report = platform.metrics();
            if args.get("format") == Some("prom") {
                print!("{}", report.to_prometheus());
            } else if args.flag("json") {
                println!("{}", report.to_json());
            } else {
                print!("{}", report.render_text());
            }
        }

        "eval" => {
            // Without --seed, `eval`'s seeds (the paper seed; 2019 with
            // --quick), so the output reproduces eval_output.txt.
            let seed = args.get("seed").and_then(|v| v.parse().ok());
            let mut config = if args.flag("quick") {
                EvalConfig::quick(2019)
            } else {
                EvalConfig::default()
            };
            if let Some(s) = seed {
                config.seed = s;
            }
            // 0 = every available core; the merge order is fixed by the
            // descriptor list, so any job count produces the same bytes.
            config.jobs = args.u64_or("jobs", 0) as usize;
            let out = args.get("out").map(std::path::PathBuf::from);
            let targets: Vec<&str> = match args.get("targets") {
                Some(list) => list
                    .split(',')
                    .map(str::trim)
                    .filter(|t| !t.is_empty())
                    .collect(),
                None => ALL_TARGETS.to_vec(),
            };
            if let Some(other) = targets.iter().find(|t| !ALL_TARGETS.contains(t)) {
                eprintln!("eval: unknown target {other:?}");
                std::process::exit(2);
            }
            eprintln!(
                "eval: seed={} jobs={} ({})",
                config.seed,
                config.effective_jobs(),
                if args.flag("quick") {
                    "quick"
                } else {
                    "paper-scale"
                }
            );
            for target in targets {
                let text = run_target(target, &config, out.as_deref()).expect("write output");
                println!("{text}");
            }
        }

        "chaos" => {
            use batterylab::chaos::{run_chaos, ChaosConfig};
            let config = ChaosConfig {
                seed,
                runs: args.u64_or("runs", 4) as usize,
                intensity: args
                    .get("intensity")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.8),
                jobs: args.u64_or("jobs", 1) as usize,
            };
            let report = run_chaos(&config);
            if args.flag("json") {
                println!("{}", report.to_json());
            } else {
                println!(
                    "chaos soak: {} run(s), seed {}, intensity {:.2}",
                    report.runs, config.seed, config.intensity
                );
                println!(
                    "  faults injected: {}   server crashes: {}   jobs: {} submitted, {} succeeded, {} failed",
                    report.faults_injected,
                    report.server_crashes,
                    report.jobs_submitted,
                    report.jobs_succeeded,
                    report.jobs_failed
                );
                if report.passed() {
                    println!("  invariants: all held");
                } else {
                    for v in &report.violations {
                        eprintln!("  VIOLATION: {v}");
                    }
                }
            }
            if !report.passed() {
                std::process::exit(1);
            }
        }

        "recover" => {
            use batterylab::crashpoint::{sweep, CrashPointConfig};
            let config = CrashPointConfig {
                seed,
                intensity: args
                    .get("intensity")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.8),
            };
            let report = sweep(&config);
            println!(
                "crash-point sweep: seed {}, intensity {:.2}",
                config.seed, config.intensity
            );
            println!(
                "  WAL records: {}   prefix recoveries: {}   crash/continue cycles: {}",
                report.wal_records, report.prefixes_checked, report.continuation_crashes
            );
            if report.passed() {
                println!("  invariants: held at every record boundary");
            } else {
                for v in &report.violations {
                    eprintln!("  VIOLATION: {v}");
                }
                std::process::exit(1);
            }
        }

        "checkpoint" => {
            use batterylab::power::CheckpointStream;
            let seconds = args.u64_or("seconds", 20);
            let rate = args.u64_or("rate", 500) as f64;
            let interval = args.u64_or("interval", 1000);
            if seconds == 0 || rate <= 0.0 || interval == 0 {
                eprintln!("checkpoint: --seconds, --rate and --interval must be positive");
                std::process::exit(2);
            }
            let run = |stream: &mut CheckpointStream| {
                let mut platform = Platform::paper_testbed(seed);
                let serial = platform.j7_serial().to_string();
                let vp = platform.node1();
                vp.power_monitor().expect("socket");
                vp.set_voltage(4.0).expect("voltage");
                vp.batt_switch(&serial).expect("bypass");
                vp.start_monitor(&serial).expect("armed");
                let device = vp.device_handle(&serial).expect("device");
                device.with_sim(|s| {
                    s.set_screen(true);
                    s.play_video(SimDuration::from_secs(seconds));
                });
                vp.stop_monitor_checkpointed(rate, stream)
                    .expect("checkpointed measurement")
            };

            let mut full_stream = CheckpointStream::new(interval);
            let full = run(&mut full_stream);
            let sealed = full_stream.segments.len() as u64;
            let keep = args.u64_or("keep", sealed / 2).min(sealed) as usize;

            let mut salvage = CheckpointStream::new(interval);
            let _ = run(&mut salvage);
            salvage.segments.truncate(keep);
            let resumed = run(&mut salvage);

            println!(
                "checkpointed run: {} samples @ {rate} Hz, {sealed} sealed segment(s) of {interval}",
                full.samples.len()
            );
            println!("  crash kept {keep} segment(s); resume salvaged them and refilled the rest");
            let identical = full.samples.values() == resumed.samples.values()
                && full.mah().to_bits() == resumed.mah().to_bits();
            println!(
                "  uninterrupted: {:.6} mAh   resumed: {:.6} mAh   bit-identical: {}",
                full.mah(),
                resumed.mah(),
                if identical { "yes" } else { "NO" }
            );
            if !identical {
                std::process::exit(1);
            }
        }

        "latency" => {
            let trials = args.u64_or("trials", 40) as usize;
            let probe = LatencyProbe::new(colocated_path());
            let mut rng = SimRng::new(seed).derive("latency");
            let (_, summary) = probe.run_trials(trials, &mut rng);
            println!(
                "click-to-display: {:.2} ± {:.2} s over {trials} trials (paper: 1.44 ± 0.12 s)",
                summary.mean, summary.std_dev
            );
        }

        _ => usage(),
    }
}
