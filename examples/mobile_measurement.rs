//! Mobility support (§2's BattOr future work): measure a phone *on the
//! move* — cellular data, no mains power, no relay bench — with the
//! portable BattOr logger, then compare the same workload on the bench
//! Monsoon over WiFi.
//!
//! ```sh
//! cargo run --example mobile_measurement
//! ```

use batterylab::device::{boot_j7_duo, DataPath, PowerSource};
use batterylab::net::{Direction, LinkProfile};
use batterylab::power::{BattOr, Monsoon};
use batterylab::sim::{SimDuration, SimRng, SimTime};
use batterylab::stats::Cdf;

fn browse_for_two_minutes(device: &batterylab::device::AndroidDevice) {
    device.with_sim(|s| {
        s.set_screen(true);
        for _ in 0..6 {
            s.transfer(2_000_000, Direction::Down, 0.25); // page fetch
            s.run_activity(SimDuration::from_secs(8), 0.2, 0.45); // read + scroll
            s.idle(SimDuration::from_secs(4));
        }
    });
}

fn main() {
    let rng = SimRng::new(314);

    // --- The walk: cellular + BattOr -----------------------------------
    let walker = boot_j7_duo(&rng, "walker-j7");
    walker.with_sim(|s| {
        s.set_data_path(DataPath::Cellular);
        // A mid-band LTE path while moving.
        s.set_network(LinkProfile::new(18.0, 8.0, 55.0, 0.002));
    });
    let mut battor = BattOr::new(rng.derive("battor"));
    browse_for_two_minutes(&walker);
    let walk_end = walker.with_sim(|s| s.now());
    let walk_log = battor
        .log_run(&walker, SimTime::ZERO, walk_end.as_secs_f64())
        .expect("a phone draws far below 6 A");

    // --- The bench: WiFi + Monsoon --------------------------------------
    let bench_dev = boot_j7_duo(&rng, "bench-j7");
    bench_dev.with_sim(|s| s.set_power_source(PowerSource::MonsoonBypass));
    let mut monsoon = Monsoon::new(rng.derive("monsoon"));
    monsoon.set_powered(true);
    monsoon.set_voltage(4.0).expect("range");
    monsoon.enable_vout().expect("powered");
    browse_for_two_minutes(&bench_dev);
    let bench_end = bench_dev.with_sim(|s| s.now());
    let bench_run = monsoon
        .sample_run_at_rate(&bench_dev, SimTime::ZERO, bench_end.as_secs_f64(), 1000.0)
        .expect("sampling");

    let walk_cdf = Cdf::from_samples(walk_log.samples.values());
    let bench_cdf = Cdf::from_samples(bench_run.samples.values());

    println!("same browsing workload, two measurement setups:\n");
    println!(
        "{:<22} {:>10} {:>10} {:>12}",
        "setup", "median mA", "p95 mA", "mAh/2min"
    );
    println!(
        "{:<22} {:>10.1} {:>10.1} {:>12.3}",
        "walk (cellular+BattOr)",
        walk_cdf.median(),
        walk_cdf.quantile(0.95),
        walk_log.energy.mah()
    );
    println!(
        "{:<22} {:>10.1} {:>10.1} {:>12.3}",
        "bench (WiFi+Monsoon)",
        bench_cdf.median(),
        bench_cdf.quantile(0.95),
        bench_run.energy.mah()
    );
    println!(
        "\ncellular premium: {:.0}% more energy on the move — the measurement\n\
         class the mains-tethered Monsoon bench cannot capture (hence BattOr).",
        (walk_log.energy.mah() / bench_run.energy.mah() - 1.0) * 100.0
    );
    println!(
        "BattOr budget left: {:.1} h battery, {} Msamples flash",
        battor.runtime_left_s() / 3600.0,
        battor.buffer_left() / 1_000_000
    );
}
