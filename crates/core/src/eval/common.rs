//! Shared plumbing for the evaluation harness: measured browser runs and
//! the evaluation configuration (paper-scale by default, reducible for
//! benches and CI).

use batterylab_controller::{MeasurementReport, VantagePoint};
use batterylab_net::Region;
use batterylab_relay::ChannelRoute;
use batterylab_server::open_automation;
use batterylab_sim::SimDuration;
use batterylab_workloads::{news_sites, BrowserProfile, BrowserRunner, Website};

/// Knobs for the evaluation runs.
#[derive(Clone, Debug)]
pub struct EvalConfig {
    /// Experiment seed (all randomness derives from it).
    pub seed: u64,
    /// Fig. 2 video duration, seconds (paper: 300).
    pub fig2_duration_s: f64,
    /// Sampling rate for stored traces, Hz (5000 native; decimated keeps
    /// long sweeps light).
    pub sample_rate_hz: f64,
    /// Repetitions per browser (paper: 5).
    pub reps: usize,
    /// Scroll gestures per page (the paper scrolls "multiple" times).
    pub scrolls_per_page: usize,
    /// How many of the ten sites to visit (10 = full workload).
    pub sites: usize,
    /// Latency trials (paper: 40).
    pub latency_trials: usize,
    /// Worker threads for the evaluation runners: `1` = serial, `0` =
    /// the machine's available parallelism. Output is byte-identical
    /// for any value — jobs only change wall-clock.
    pub jobs: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            seed: 20191113, // HotNets '19 opening day
            fig2_duration_s: 300.0,
            sample_rate_hz: 500.0,
            reps: 5,
            scrolls_per_page: 4,
            sites: 10,
            latency_trials: 40,
            jobs: 1,
        }
    }
}

impl EvalConfig {
    /// A reduced configuration for benches and smoke tests.
    pub fn quick(seed: u64) -> Self {
        EvalConfig {
            seed,
            fig2_duration_s: 20.0,
            sample_rate_hz: 200.0,
            reps: 2,
            scrolls_per_page: 2,
            sites: 3,
            latency_trials: 10,
            jobs: 1,
        }
    }

    /// This configuration with `jobs` workers (see [`Self::jobs`]).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// The worker count the runners will actually use: `jobs`, with `0`
    /// resolved to the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            crate::eval::par::available_jobs()
        } else {
            self.jobs
        }
    }

    /// The site list this configuration visits.
    pub fn site_list(&self) -> Vec<Website> {
        let mut sites = news_sites();
        sites.truncate(self.sites.max(1));
        sites
    }
}

/// Ensure the meter is energised and the device routed to the bypass.
pub fn arm_measurement(vp: &mut VantagePoint, serial: &str) {
    if !matches!(
        vp.power_monitor().expect("socket reachable"),
        batterylab_power::SocketState::On
    ) {
        vp.power_monitor().expect("socket reachable");
    }
    vp.set_voltage(4.0).expect("valid voltage");
    // batt_switch toggles; only engage if not already on the bypass.
    let route = vp.batt_switch(serial).expect("device attached");
    if route == ChannelRoute::Battery {
        vp.batt_switch(serial).expect("device attached");
    }
}

/// One measured browser-workload run: returns the power report.
///
/// This is the §4.2 protocol: arm the bypass, start the monitor, run the
/// browser workload over ADB-WiFi, stop the monitor.
pub fn measured_browser_run(
    vp: &mut VantagePoint,
    serial: &str,
    profile: BrowserProfile,
    region: Region,
    mirroring: bool,
    config: &EvalConfig,
) -> MeasurementReport {
    arm_measurement(vp, serial);
    let was_mirroring = vp.is_mirroring(serial);
    if mirroring != was_mirroring {
        vp.device_mirroring(serial).expect("mirroring toggles");
    }
    vp.start_monitor(serial).expect("armed");
    let device = vp.device_handle(serial).expect("device attached");
    let mut backend = open_automation(vp, device.clone()).expect("wifi adb");
    let mut runner = BrowserRunner::new(device.clone(), &mut backend, profile, region);
    // The §4.3 protocol turns Lite Pages off for comparability.
    runner.set_lite_pages(false);
    runner
        .run_workload(&config.site_list(), config.scrolls_per_page)
        .expect("workload runs");
    // Small settle so radio tails end inside the window.
    device.with_sim(|s| s.idle(SimDuration::from_secs(1)));
    if mirroring {
        vp.pump_mirrors().expect("mirror pump");
    }
    let report = vp
        .stop_monitor_at_rate(config.sample_rate_hz)
        .expect("measurement stops");
    if mirroring != was_mirroring {
        // Leave the vantage point as we found it.
        vp.device_mirroring(serial).expect("mirroring toggles");
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;

    #[test]
    fn measured_run_produces_energy() {
        let mut p = Platform::paper_testbed(3);
        let serial = p.j7_serial().to_string();
        let config = EvalConfig::quick(3);
        let vp = p.node1();
        let report = measured_browser_run(
            vp,
            &serial,
            BrowserProfile::brave(),
            Region::Local,
            false,
            &config,
        );
        assert!(
            report.mah() > 0.5,
            "3 pages must cost energy: {}",
            report.mah()
        );
        assert!(
            report.mean_ma() > 100.0,
            "screen-on workload: {}",
            report.mean_ma()
        );
    }

    #[test]
    fn arm_is_idempotent() {
        let mut p = Platform::paper_testbed(4);
        let serial = p.j7_serial().to_string();
        let vp = p.node1();
        arm_measurement(vp, &serial);
        arm_measurement(vp, &serial);
        vp.start_monitor(&serial).expect("armed twice is fine");
    }

    #[test]
    fn quick_config_is_small() {
        let q = EvalConfig::quick(1);
        assert!(q.site_list().len() == 3);
        assert!(q.fig2_duration_s < 60.0);
    }
}
