//! Executing a declarative [`ExperimentSpec`](crate::jobs::ExperimentSpec)
//! against a vantage point: the sequence a Jenkins pipeline performs —
//! VPN, meter power, bypass, optional mirroring, run the script over
//! ADB-WiFi, collect power report and logcat, and leave the bench safe
//! (meter off) afterwards.

use batterylab_adb::TransportKind;
use batterylab_automation::{AdbBackend, AutomationBackend, AutomationError};
use batterylab_controller::{ControllerError, VantagePoint};
use batterylab_device::AndroidDevice;
use batterylab_sim::SimTime;

use crate::jobs::{Artifact, ExperimentSpec};

/// What a payload returns into the build record.
pub struct JobOutcome {
    /// Structured summary.
    pub summary: serde_json::Value,
    /// Workspace artifacts.
    pub artifacts: Vec<Artifact>,
    /// Device-clock completion instant (drives retention).
    pub finished_at: SimTime,
}

// The summary keys `run_experiment` writes, in the order it writes them:
// always the first four, `MIRROR_UPLOAD_BYTES` for a mirrored job, the
// last three for a measured one. The WAL's string table is seeded with
// them and with the artifact names below.
pub(crate) const JOB: &str = "job";
pub(crate) const DEVICE: &str = "device";
pub(crate) const MIRRORING: &str = "mirroring";
pub(crate) const VPN: &str = "vpn";
pub(crate) const MIRROR_UPLOAD_BYTES: &str = "mirror_upload_bytes";
pub(crate) const DISCHARGE_MAH: &str = "discharge_mah";
pub(crate) const MEAN_MA: &str = "mean_ma";
pub(crate) const DURATION_S: &str = "duration_s";

/// Artifact a measured job leaves: its power report.
pub(crate) const POWER_SUMMARY: &str = "power_summary.json";
/// Artifact a job that collects logs leaves.
pub(crate) const LOGCAT: &str = "logcat.txt";

fn ctl(e: ControllerError) -> String {
    format!("controller: {e}")
}

/// Open `vp`'s automation channel to `device`: ADB over WiFi with the
/// node's key, its traffic counted in the node's registry from the first
/// service after the open.
pub fn open_automation(
    vp: &VantagePoint,
    device: AndroidDevice,
) -> Result<AdbBackend, AutomationError> {
    let mut backend = AdbBackend::connect(device, TransportKind::WiFi, vp.adb_key().clone())?;
    backend.link_mut().set_telemetry(vp.telemetry());
    Ok(backend)
}

/// Run `spec` on `vp`. Leaves the power meter off afterwards regardless of
/// outcome (the safety discipline the paper's maintenance jobs enforce).
/// A successful job releases its device's trace history and measurement
/// windows behind its window (DESIGN §4d), so reads of earlier instants on
/// that device panic.
pub fn run_experiment(vp: &mut VantagePoint, spec: &ExperimentSpec) -> Result<JobOutcome, String> {
    let result = run_inner(vp, spec);
    if result.is_err() {
        // A job that died mid-run must not wedge the bench: abort any
        // dangling measurement, release the bypass, drop mirroring/VPN.
        if vp.measurement_active() {
            let _ = vp.abort_monitor();
        }
        if vp.is_mirroring(&spec.device) {
            let _ = vp.device_mirroring(&spec.device);
        }
        if vp.vpn_location().is_some() {
            let _ = vp.disconnect_vpn();
        }
        // batt_switch toggles; only flip back if the device holds the bypass.
        if let Ok(device) = vp.device_handle(&spec.device) {
            use batterylab_device::PowerSource;
            if device.with_sim(|s| s.state().power_source) == PowerSource::MonsoonBypass {
                let _ = vp.batt_switch(&spec.device);
            }
        }
    }
    // Safety: never leave the Monsoon energised after a job.
    if matches!(vp.power_monitor(), Ok(state) if state == batterylab_power::SocketState::On) {
        // We just toggled it back on — toggle once more to turn it off.
        let _ = vp.power_monitor();
    }
    result
}

fn run_inner(vp: &mut VantagePoint, spec: &ExperimentSpec) -> Result<JobOutcome, String> {
    // 1. Network location.
    match spec.vpn {
        Some(loc) => vp.connect_vpn(loc).map_err(ctl)?,
        None => {
            if vp.vpn_location().is_some() {
                vp.disconnect_vpn().map_err(ctl)?;
            }
        }
    }

    // 2. Meter + bypass.
    if spec.measure {
        if !matches!(vp.power_monitor(), Ok(batterylab_power::SocketState::On)) {
            // power_monitor() toggles; if it reported Off we toggle again.
            vp.power_monitor().map_err(ctl)?;
        }
        vp.set_voltage(4.0).map_err(ctl)?;
        vp.batt_switch(&spec.device).map_err(ctl)?;
    }

    // 3. Mirroring (before the measurement starts, like the GUI flow).
    if spec.mirroring && !vp.is_mirroring(&spec.device) {
        vp.device_mirroring(&spec.device).map_err(ctl)?;
    }

    // 4. Measure around the script.
    if spec.measure {
        vp.start_monitor(&spec.device).map_err(ctl)?;
    }

    let device = vp.device_handle(&spec.device).map_err(ctl)?;
    // The job's window: the measurement's start, else the script's.
    let mut window_start = device.with_sim(|s| s.now());
    let mut backend =
        open_automation(vp, device.clone()).map_err(|e| format!("automation: {e}"))?;
    backend
        .run_script(&spec.script)
        .map_err(|e| format!("automation: {e}"))?;

    // Both are allocated at their final size: four keys, one more for
    // mirroring, three more for a measurement; an artifact each for the
    // power report and the logs.
    let mut summary = serde_json::Map::with_capacity(
        4 + usize::from(spec.mirroring) + 3 * usize::from(spec.measure),
    );
    let mut artifacts =
        Vec::with_capacity(usize::from(spec.measure) + usize::from(spec.collect_logcat));
    let mut field = |key: &str, value: serde_json::Value| summary.push((key.to_string(), value));
    field(JOB, serde_json::json!(spec.script.name));
    field(DEVICE, serde_json::json!(spec.device));
    field(MIRRORING, serde_json::json!(spec.mirroring));
    field(
        VPN,
        serde_json::json!(spec.vpn.map(|l| l.country().to_string())),
    );

    if spec.mirroring {
        vp.pump_mirrors().map_err(ctl)?;
        field(
            MIRROR_UPLOAD_BYTES,
            serde_json::json!(vp.mirror_upload_bytes()),
        );
    }

    let finished_at;
    if spec.measure {
        let report = vp.stop_monitor_at_rate(spec.sample_rate_hz).map_err(ctl)?;
        (window_start, finished_at) = report.window;
        field(DISCHARGE_MAH, serde_json::json!(report.mah()));
        field(MEAN_MA, serde_json::json!(report.mean_ma()));
        field(
            DURATION_S,
            serde_json::json!((report.window.1 - report.window.0).as_secs_f64()),
        );
        artifacts.push(Artifact {
            name: POWER_SUMMARY.to_string(),
            content: serde_json::json!({
                "voltage_v": report.voltage_v,
                "rate_hz": report.rate_hz,
                "samples": report.samples.len(),
                "mean_ma": report.mean_ma(),
                "mah": report.mah(),
            })
            .to_string(),
        });
        // Return the device to its battery.
        vp.batt_switch(&spec.device).map_err(ctl)?;
    } else {
        finished_at = device.with_sim(|s| s.now());
    }

    // 5. Logs.
    if spec.collect_logcat {
        let logcat = vp.execute_adb(&spec.device, "logcat -d").map_err(ctl)?;
        artifacts.push(Artifact {
            name: LOGCAT.to_string(),
            content: logcat,
        });
    }

    // 6. Teardown: mirroring off, VPN down.
    if spec.mirroring && vp.is_mirroring(&spec.device) {
        vp.device_mirroring(&spec.device).map_err(ctl)?;
    }
    if vp.vpn_location().is_some() {
        vp.disconnect_vpn().map_err(ctl)?;
    }

    // 7. Release the device's history behind this job's window (or a
    // mirror session the job left running). Later jobs read from their
    // own windows on, so the node keeps about one job's history.
    vp.release_history(&spec.device, window_start);

    Ok(JobOutcome {
        summary: serde_json::Value::Object(summary),
        artifacts,
        finished_at,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_automation::Script;
    use batterylab_controller::VantageConfig;
    use batterylab_device::boot_j7_duo;
    use batterylab_net::VpnLocation;
    use batterylab_sim::SimRng;

    fn vantage() -> VantagePoint {
        let rng = SimRng::new(31);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        let device = boot_j7_duo(&rng, "exec-dev");
        device.install_package("com.brave.browser");
        vp.add_device(device);
        vp
    }

    fn spec() -> ExperimentSpec {
        ExperimentSpec::measured(
            "exec-dev",
            Script::browser_workload("com.brave.browser", &["https://news.example"], 2),
        )
    }

    #[test]
    fn measured_job_produces_power_artifacts() {
        let mut vp = vantage();
        let outcome = run_experiment(&mut vp, &spec()).unwrap();
        assert!(outcome.summary["discharge_mah"].as_f64().unwrap() > 0.0);
        let names: Vec<&str> = outcome.artifacts.iter().map(|a| a.name.as_str()).collect();
        assert!(names.contains(&"power_summary.json"));
        assert!(names.contains(&"logcat.txt"));
    }

    #[test]
    fn outcome_uses_the_seeded_names_at_its_final_size() {
        let mut vp = vantage();
        let mut s = spec();
        s.mirroring = true;
        let outcome = run_experiment(&mut vp, &s).unwrap();
        let serde_json::Value::Object(summary) = &outcome.summary else {
            panic!("summary is an object");
        };
        let keys: Vec<&str> = summary.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                JOB,
                DEVICE,
                MIRRORING,
                VPN,
                MIRROR_UPLOAD_BYTES,
                DISCHARGE_MAH,
                MEAN_MA,
                DURATION_S
            ]
        );
        let names: Vec<&str> = outcome.artifacts.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, [POWER_SUMMARY, LOGCAT]);
        assert_eq!(summary.capacity(), summary.len());
        assert_eq!(outcome.artifacts.capacity(), outcome.artifacts.len());
    }

    #[test]
    fn meter_left_off_after_job() {
        let mut vp = vantage();
        run_experiment(&mut vp, &spec()).unwrap();
        // Toggling reports On if it was off.
        assert_eq!(
            vp.power_monitor().unwrap(),
            batterylab_power::SocketState::On,
            "meter was off after the job (toggle turned it on)"
        );
    }

    #[test]
    fn vpn_job_tunnels_then_tears_down() {
        let mut vp = vantage();
        let mut s = spec();
        s.vpn = Some(VpnLocation::Brazil);
        let outcome = run_experiment(&mut vp, &s).unwrap();
        assert_eq!(outcome.summary["vpn"], serde_json::json!("Brazil"));
        assert!(vp.vpn_location().is_none(), "tunnel torn down after job");
    }

    #[test]
    fn mirrored_job_reports_upload() {
        let mut vp = vantage();
        let mut s = spec();
        s.mirroring = true;
        let outcome = run_experiment(&mut vp, &s).unwrap();
        assert!(outcome.summary["mirror_upload_bytes"].is_number());
        assert!(!vp.is_mirroring("exec-dev"));
    }

    #[test]
    fn job_releases_device_traces_behind_its_window() {
        let mut vp = vantage();
        let device = vp.device_handle("exec-dev").unwrap();
        device.with_sim(|s| s.idle(batterylab_sim::SimDuration::from_secs(30)));
        let job_start = device.with_sim(|s| s.now());
        run_experiment(&mut vp, &spec()).unwrap();
        let floors = device.with_sim(|s| {
            [s.current_trace(), s.cpu_trace(), s.frame_change_trace()].map(|t| t.floor())
        });
        assert!(floors[0] >= job_start, "released up to the job's window");
        assert!(floors.iter().all(|&f| f == floors[0]), "{floors:?}");
        // A second job keeps about one job's change points, not two.
        let one = device.with_sim(|s| s.current_trace().changes());
        run_experiment(&mut vp, &spec()).unwrap();
        let two = device.with_sim(|s| s.current_trace().changes());
        assert!(
            two < one + one / 2,
            "{two} points after two jobs, {one} after one"
        );
    }

    #[test]
    fn job_releases_measurement_windows_behind_its_window() {
        let mut vp = vantage();
        for _ in 0..20 {
            run_experiment(&mut vp, &spec()).unwrap();
            assert!(
                vp.measurement_windows() <= 2,
                "{}",
                vp.measurement_windows()
            );
        }
    }

    #[test]
    fn running_mirror_session_keeps_the_history_it_has_not_read() {
        let mut vp = vantage();
        let device = vp.device_handle("exec-dev").unwrap();
        // Mirroring started outside the job, which neither uses nor stops
        // it; the session has not been pumped since well before the job.
        assert!(vp.device_mirroring("exec-dev").unwrap());
        let read_from = vp.mirror_read_from("exec-dev").unwrap();
        device.with_sim(|s| s.idle(batterylab_sim::SimDuration::from_secs(5)));
        run_experiment(&mut vp, &spec()).unwrap();
        assert!(vp.is_mirroring("exec-dev"));
        assert_eq!(
            device.with_sim(|s| s.frame_change_trace().floor()),
            read_from
        );
        // The session's next pump reads from where it stopped.
        assert!(vp.pump_mirrors().unwrap() > 0);
        assert!(vp.mirror_read_from("exec-dev").unwrap() > read_from);
        run_experiment(&mut vp, &spec()).unwrap();
        let floor = device.with_sim(|s| s.frame_change_trace().floor());
        assert!(floor > read_from, "released up to the pumped session");
    }

    #[test]
    fn job_after_adb_transport_reset_collects_logcat() {
        use batterylab_faults::{FaultInjector, FaultKind, FaultPlan};
        let mut vp = vantage();
        let plan = FaultPlan::new().next_n("node1.adb.transport", FaultKind::TransportReset, 1);
        let injector = FaultInjector::new(&plan, 31);
        vp.attach_faults(&injector);
        let err = run_experiment(&mut vp, &spec()).map(|_| ()).unwrap_err();
        assert!(err.contains("transport"), "{err}");
        let outcome = run_experiment(&mut vp, &spec()).expect("link reconnected");
        let logcat = outcome.artifacts.iter().find(|a| a.name == "logcat.txt");
        assert!(logcat
            .expect("logcat artifact")
            .content
            .contains("Displayed com.brave.browser"));
        assert_eq!(injector.injected(), 1);
        // The controller's log link connects through the node's registry
        // once for the first job and once more after the reset; each
        // job's automation channel is bound only after it has connected.
        assert_eq!(vp.telemetry().snapshot().counter("adb.connects"), 2);
    }

    #[test]
    fn meter_error_aborts_the_measurement_it_interrupted() {
        use batterylab_faults::{FaultInjector, FaultKind, FaultPlan};
        let mut vp = vantage();
        let plan = FaultPlan::new().next_n("node1.power.meter", FaultKind::OverCurrent, 1);
        vp.attach_faults(&FaultInjector::new(&plan, 31));
        let err = run_experiment(&mut vp, &spec()).map(|_| ()).unwrap_err();
        assert!(err.contains("over-current"), "{err}");
        assert!(!vp.measurement_active(), "cleanup must close the window");
        run_experiment(&mut vp, &spec()).expect("the next job measures");
        // Every started measurement ends exactly once: completed or aborted.
        let report = vp.telemetry().snapshot();
        let started = report.counter("node1.controller.measurements_started");
        let completed = report.counter("node1.controller.measurements_completed");
        let aborted = report.counter("node1.controller.measurements_aborted");
        assert_eq!((started, completed, aborted), (2, 1, 1));
    }

    #[test]
    fn unknown_device_fails_cleanly() {
        let mut vp = vantage();
        let mut s = spec();
        s.device = "ghost".to_string();
        let err = run_experiment(&mut vp, &s).map(|_| ()).unwrap_err();
        assert!(err.contains("no such device"), "{err}");
    }
}
