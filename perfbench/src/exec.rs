//! Job payloads. The timed run submits `Payload::Experiment` specs, which
//! the scheduler hands to `run_experiment`. The traced run wraps the
//! same spec in a `Payload::Custom` that makes the same public
//! `VantagePoint` / `AdbBackend` calls in the same order as
//! `run_experiment`, timing each layer as it goes.

use batterylab::adb::TransportKind;
use batterylab::automation::{AdbBackend, AutomationBackend};
use batterylab::controller::{ControllerError, VantagePoint};
use batterylab::device::PowerSource;
use batterylab::power::SocketState;
use batterylab::server::{Artifact, ExperimentSpec, JobOutcome, Payload};
use batterylab::telemetry::Registry;

use crate::cpu::CpuInstant;
use crate::trace::Tracer;

/// Span names of the split job path.
pub const EXEC_RUN: &str = "exec.run";
const VPN: &str = "controller.vpn";
const MIRROR: &str = "controller.mirror";
const RUN_SCRIPT: &str = "automation.run_script";
const STOP_MONITOR: &str = "controller.stop_monitor";
const LOGCAT: &str = "controller.logcat";
/// Marks a payload run that returned `Ok`.
pub const EXEC_OK: &str = "exec.ok";

/// The traced run's view of the job path: where spans go, and the
/// registry that counts the automation channel's ADB traffic (the
/// untraced path leaves that link unbound).
#[derive(Clone)]
pub struct TraceSink {
    /// Span recorder.
    pub tracer: Tracer,
    /// Counters of the automation channel (`adb.frames_tx`, …).
    pub automation: Registry,
}

/// The payload for `spec`: the declarative spec when untraced, the
/// timed split of `run_experiment` when traced.
pub fn payload(spec: ExperimentSpec, trace: Option<&TraceSink>) -> Payload {
    match trace {
        None => Payload::Experiment(spec),
        Some(sink) => {
            let sink = sink.clone();
            Payload::Custom(Box::new(move |vp: &mut VantagePoint| {
                let dispatch = sink.tracer.dispatch();
                let start = CpuInstant::now();
                let result = run_split(vp, &spec, &sink, dispatch);
                sink.tracer.record(dispatch, EXEC_RUN, "server.tick", start);
                if result.is_ok() {
                    sink.tracer
                        .record(dispatch, EXEC_OK, EXEC_RUN, CpuInstant::now());
                }
                result
            }))
        }
    }
}

fn ctl(e: ControllerError) -> String {
    format!("controller: {e}")
}

/// `run_experiment`, step for step, with a span around each layer call.
fn run_split(
    vp: &mut VantagePoint,
    spec: &ExperimentSpec,
    sink: &TraceSink,
    dispatch: u64,
) -> Result<JobOutcome, String> {
    let t = &sink.tracer;
    let result = run_inner_split(vp, spec, sink, dispatch);
    if result.is_err() {
        if vp.measurement_active() {
            let _ = vp.abort_monitor();
        }
        if vp.is_mirroring(&spec.device) {
            let _ = t.time(dispatch, MIRROR, EXEC_RUN, || {
                vp.device_mirroring(&spec.device)
            });
        }
        if vp.vpn_location().is_some() {
            let _ = t.time(dispatch, VPN, EXEC_RUN, || vp.disconnect_vpn());
        }
        if let Ok(device) = vp.device_handle(&spec.device) {
            if device.with_sim(|s| s.state().power_source) == PowerSource::MonsoonBypass {
                let _ = vp.batt_switch(&spec.device);
            }
        }
    }
    if matches!(vp.power_monitor(), Ok(state) if state == SocketState::On) {
        let _ = vp.power_monitor();
    }
    result
}

fn run_inner_split(
    vp: &mut VantagePoint,
    spec: &ExperimentSpec,
    sink: &TraceSink,
    dispatch: u64,
) -> Result<JobOutcome, String> {
    let t = &sink.tracer;
    match spec.vpn {
        Some(loc) => t.time(dispatch, VPN, EXEC_RUN, || vp.connect_vpn(loc).map_err(ctl))?,
        None => {
            if vp.vpn_location().is_some() {
                t.time(dispatch, VPN, EXEC_RUN, || vp.disconnect_vpn().map_err(ctl))?;
            }
        }
    }

    if spec.measure {
        if !matches!(vp.power_monitor(), Ok(SocketState::On)) {
            vp.power_monitor().map_err(ctl)?;
        }
        vp.set_voltage(4.0).map_err(ctl)?;
        vp.batt_switch(&spec.device).map_err(ctl)?;
    }

    if spec.mirroring && !vp.is_mirroring(&spec.device) {
        t.time(dispatch, MIRROR, EXEC_RUN, || {
            vp.device_mirroring(&spec.device).map_err(ctl)
        })?;
    }

    if spec.measure {
        vp.start_monitor(&spec.device).map_err(ctl)?;
    }

    let device = vp.device_handle(&spec.device).map_err(ctl)?;
    t.time(dispatch, RUN_SCRIPT, EXEC_RUN, || {
        let mut backend = AdbBackend::connect(device, TransportKind::WiFi, vp.adb_key().clone())
            .map_err(|e| format!("automation: {e}"))?;
        backend.link_mut().set_telemetry(&sink.automation);
        backend
            .run_script(&spec.script)
            .map_err(|e| format!("automation: {e}"))
    })?;

    let mut artifacts = Vec::new();
    let mut summary = serde_json::json!({
        "job": spec.script.name,
        "device": spec.device,
        "mirroring": spec.mirroring,
        "vpn": spec.vpn.map(|l| l.country().to_string()),
    });

    if spec.mirroring {
        t.time(dispatch, MIRROR, EXEC_RUN, || {
            vp.pump_mirrors().map_err(ctl)
        })?;
        summary["mirror_upload_bytes"] = serde_json::json!(vp.mirror_upload_bytes());
    }

    let finished_at;
    if spec.measure {
        let report = t.time(dispatch, STOP_MONITOR, EXEC_RUN, || {
            vp.stop_monitor_at_rate(spec.sample_rate_hz).map_err(ctl)
        })?;
        finished_at = report.window.1;
        summary["discharge_mah"] = serde_json::json!(report.mah());
        summary["mean_ma"] = serde_json::json!(report.mean_ma());
        summary["duration_s"] =
            serde_json::json!((report.window.1 - report.window.0).as_secs_f64());
        artifacts.push(Artifact {
            name: "power_summary.json".to_string(),
            content: serde_json::json!({
                "voltage_v": report.voltage_v,
                "rate_hz": report.rate_hz,
                "samples": report.samples.len(),
                "mean_ma": report.mean_ma(),
                "mah": report.mah(),
            })
            .to_string(),
        });
        vp.batt_switch(&spec.device).map_err(ctl)?;
    } else {
        let device = vp.device_handle(&spec.device).map_err(ctl)?;
        finished_at = device.with_sim(|s| s.now());
    }

    if spec.collect_logcat {
        let logcat = t.time(dispatch, LOGCAT, EXEC_RUN, || {
            vp.execute_adb(&spec.device, "logcat -d").map_err(ctl)
        })?;
        artifacts.push(Artifact {
            name: "logcat.txt".to_string(),
            content: logcat,
        });
    }

    if spec.mirroring && vp.is_mirroring(&spec.device) {
        t.time(dispatch, MIRROR, EXEC_RUN, || {
            vp.device_mirroring(&spec.device).map_err(ctl)
        })?;
    }
    if vp.vpn_location().is_some() {
        t.time(dispatch, VPN, EXEC_RUN, || vp.disconnect_vpn().map_err(ctl))?;
    }

    Ok(JobOutcome {
        summary,
        artifacts,
        finished_at,
    })
}
