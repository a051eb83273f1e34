//! The automation session's ADB traffic, pinned byte for byte: opening a
//! channel to a booted J7 Duo, the 2-scroll browser workload every
//! measured job runs, and `logcat -d`, each counted by a bound registry.
//! A change to framing, buffering or command text that moves one frame or
//! one byte fails here.

use batterylab::adb::{AdbKey, AdbLink, TransportKind};
use batterylab::automation::{AdbBackend, AutomationBackend, Script};
use batterylab::device::{boot_j7_duo, AndroidDevice};
use batterylab::platform::Platform;
use batterylab::server::{Constraints, ExperimentSpec, Payload};
use batterylab::sim::SimRng;
use batterylab::telemetry::Registry;

const PACKAGE: &str = "com.brave.browser";

fn device() -> AndroidDevice {
    let device = boot_j7_duo(&SimRng::new(1), "j7duo-0001");
    device.install_package(PACKAGE);
    device
}

fn key() -> AdbKey {
    AdbKey::generate("controller", 1)
}

/// `adb.frames_tx`, `adb.frames_rx`, `adb.bytes_tx`, `adb.bytes_rx`, and
/// the count and sum of `adb.frame_payload_bytes`.
fn traffic(registry: &Registry) -> [u64; 6] {
    let report = registry.snapshot();
    let payload = report
        .histogram("adb.frame_payload_bytes")
        .expect("a bound link records frame payloads");
    [
        report.counter("adb.frames_tx"),
        report.counter("adb.frames_rx"),
        report.counter("adb.bytes_tx"),
        report.counter("adb.bytes_rx"),
        payload.count,
        payload.sum,
    ]
}

/// What `AdbBackend::connect` sends on a first contact: the handshake
/// (signature refused, public key accepted) and `logcat -c`.
#[test]
fn channel_open_traffic_is_pinned() {
    let registry = Registry::new();
    let mut link = AdbLink::new(device(), TransportKind::WiFi, key());
    link.set_telemetry(&registry);
    link.connect().unwrap();
    link.shell("logcat -c").unwrap();
    assert_eq!(traffic(&registry), [4, 5, 181, 270, 5, 150]);
}

/// The job's script and its `logcat -d` over an open channel.
#[test]
fn automation_session_traffic_is_pinned() {
    let mut backend = AdbBackend::connect(device(), TransportKind::WiFi, key()).unwrap();
    let registry = Registry::new();
    backend.link_mut().set_telemetry(&registry);
    backend
        .run_script(&Script::browser_workload(
            PACKAGE,
            &["https://news.example"],
            2,
        ))
        .unwrap();
    let logcat = backend.link_mut().logcat().unwrap();
    assert_eq!(traffic(&registry), [13, 23, 643, 656, 23, 104]);
    assert_eq!(
        logcat,
        "2.100 I/ActivityManager: Displayed com.brave.browser\n"
    );
}

/// A measured 2-scroll job submitted to the server counts its own
/// automation channel in the platform's metrics: the script's nine
/// services and eleven frames on the job's link, which is bound once it
/// has opened, then the controller's link, which connects and runs
/// `logcat -d` in five frames.
#[test]
fn server_job_counts_its_automation_channel() {
    let (mut platform, _wal) = Platform::durable_testbed(77);
    let spec = ExperimentSpec::measured(
        platform.j7_serial(),
        Script::browser_workload(PACKAGE, &["https://news.example"], 2),
    );
    let id = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "pinned",
            Constraints::default(),
            Payload::Experiment(spec),
        )
        .unwrap();
    assert_eq!(platform.server.tick(), Some(id));
    let report = platform.metrics();
    assert_eq!(
        ["adb.services", "adb.frames_tx", "adb.bytes_rx"].map(|name| report.counter(name)),
        [10, 16, 878]
    );
}
