//! Failure injection across the stack: flaky power sockets, lost
//! transports mid-job, declined ADB keys, stale certificates, depleted
//! batteries — each must surface as a typed error (or be absorbed by the
//! documented retry), never as a hang or a silent wrong answer.

use batterylab::adb::{AdbKey, AdbLink, HostError, TransportKind};
use batterylab::automation::Script;
use batterylab::device::{AndroidDevice, DeviceSpec};
use batterylab::platform::Platform;
use batterylab::server::{BuildState, Constraints, ExperimentSpec, Payload};
use batterylab::sim::{SimDuration, SimRng, SimTime};

#[test]
fn flaky_power_socket_is_retried() {
    // The controller retries the Meross `togglex` on LAN hiccups.
    use batterylab::faults::{FaultInjector, FaultKind, FaultPlan};
    use batterylab::power::PowerSocket;
    let mut socket = PowerSocket::new();
    let plan = FaultPlan::new().next_n(socket.fault_site(), FaultKind::SocketUnreachable, 2);
    let injector = FaultInjector::new(&plan, 500);
    let site = socket.fault_site().to_string();
    socket.set_faults(&injector, &site);
    // Two failures then success — the controller's 3-retry loop covers it.
    let mut attempts = 0;
    let state = loop {
        attempts += 1;
        match socket.togglex(SimTime::ZERO, true) {
            Ok(s) => break s,
            Err(_) if attempts < 4 => continue,
            Err(e) => panic!("retries exhausted: {e}"),
        }
    };
    assert_eq!(state, batterylab::power::SocketState::On);
    assert_eq!(attempts, 3);
}

#[test]
fn declined_adb_key_fails_cleanly() {
    // A device whose owner never tapped "always allow".
    let device = AndroidDevice::new(
        DeviceSpec::samsung_j7_duo(),
        "paranoid-dev",
        SimRng::new(501).derive("d"),
        false, // decline new keys
    );
    let mut link = AdbLink::new(device, TransportKind::WiFi, AdbKey::generate("h", 501));
    assert_eq!(link.connect().unwrap_err(), HostError::AuthRejected);
}

#[test]
fn job_on_missing_package_fails_with_record() {
    let mut platform = Platform::paper_testbed(502);
    let serial = platform.j7_serial().to_string();
    let id = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "bad-package",
            Constraints::default(),
            Payload::Experiment(ExperimentSpec::measured(
                &serial,
                Script::browser_workload("com.not.installed", &["https://x.example"], 1),
            )),
        )
        .unwrap();
    platform.server.tick().unwrap();
    let build = platform
        .server
        .build(platform.experimenter_token, id)
        .unwrap();
    match &build.state {
        BuildState::Failed(msg) => assert!(msg.contains("automation"), "{msg}"),
        other => panic!("expected failure, got {other:?}"),
    }
    // The bench is left safe: meter off, no measurement dangling.
    let vp = platform.node1();
    assert!(vp.start_monitor(&serial).is_err(), "meter should be off");
}

#[test]
fn failed_job_does_not_wedge_the_queue() {
    let mut platform = Platform::paper_testbed(503);
    let serial = platform.j7_serial().to_string();
    let bad = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "fails",
            Constraints::default(),
            Payload::Custom(Box::new(|_| Err("synthetic failure".into()))),
        )
        .unwrap();
    let good = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "succeeds",
            Constraints::default(),
            Payload::Experiment(ExperimentSpec::measured(
                &serial,
                Script::browser_workload("com.brave.browser", &["https://reuters.com"], 1),
            )),
        )
        .unwrap();
    platform.server.drain();
    assert!(matches!(
        platform
            .server
            .build(platform.experimenter_token, bad)
            .unwrap()
            .state,
        BuildState::Failed(_)
    ));
    assert_eq!(
        platform
            .server
            .build(platform.experimenter_token, good)
            .unwrap()
            .state,
        BuildState::Succeeded
    );
}

#[test]
fn usb_guard_is_enforced_by_the_controller() {
    let mut platform = Platform::paper_testbed(504);
    let serial = platform.j7_serial().to_string();
    let vp = platform.node1();
    vp.power_monitor().unwrap();
    vp.batt_switch(&serial).unwrap();
    vp.usb_port_power(&serial, true).unwrap();
    assert!(vp.start_monitor(&serial).is_err());
    vp.usb_port_power(&serial, false).unwrap();
    vp.start_monitor(&serial).unwrap();
    assert!(vp.usb_port_power(&serial, true).is_err());
}

#[test]
fn battery_depletion_is_observable_via_dumpsys() {
    let device = AndroidDevice::new(
        DeviceSpec::samsung_j7_duo(),
        "drain-dev",
        SimRng::new(505).derive("d"),
        true,
    );
    // Hammer the device on battery power for hours of virtual time.
    device.with_sim(|s| {
        s.set_screen(true);
        for _ in 0..60 {
            s.run_activity(SimDuration::from_secs(600), 0.8, 0.8);
        }
    });
    use batterylab::adb::DeviceServices;
    let mut d = device.clone();
    let out = String::from_utf8(d.exec("shell:dumpsys battery").unwrap()).unwrap();
    let level: u8 = out
        .lines()
        .find_map(|l| l.trim().strip_prefix("level: "))
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        level < 100,
        "10 virtual hours at 80% CPU must drain: {level}%"
    );
}

#[test]
fn stale_certificates_are_detected_and_healed() {
    let mut platform = Platform::paper_testbed(506);
    // Fast-forward past the renewal margin.
    let later = SimTime::from_secs(75 * 24 * 3600);
    assert!(platform
        .server
        .registry()
        .certificate()
        .needs_renewal(later));
    let report = platform.server.run_maintenance(later);
    assert!(report.cert_renewed);
    assert!(platform.server.registry().stale_cert_nodes().is_empty());
    // And the renewed cert is fresh for another 60+ days.
    assert!(!platform
        .server
        .registry()
        .certificate()
        .needs_renewal(later + SimDuration::from_secs(30 * 24 * 3600)));
}

#[test]
fn socket_retries_show_up_in_telemetry() {
    use batterylab::faults::{scoped_site, site, FaultInjector, FaultKind, FaultPlan};
    let mut platform = Platform::paper_testbed(508);
    let plan = FaultPlan::new().next_n(
        &scoped_site("node1", site::POWER_SOCKET),
        FaultKind::SocketUnreachable,
        2,
    );
    let injector = FaultInjector::new(&plan, 508);
    let vp = platform.node1();
    vp.attach_faults(&injector);
    // The controller's retry loop absorbs the hiccups…
    vp.power_monitor().unwrap();
    // …and the telemetry records how hard it had to work.
    let report = platform.metrics();
    assert_eq!(report.counter("node1.controller.socket_retries"), 2);
}

#[test]
fn transport_flap_increments_reconnect_counter() {
    use batterylab::telemetry::Registry;
    let registry = Registry::new();
    let device = AndroidDevice::new(
        DeviceSpec::samsung_j7_duo(),
        "flap-tel",
        SimRng::new(509).derive("d"),
        true,
    );
    let mut link = AdbLink::new(device, TransportKind::WiFi, AdbKey::generate("h", 509));
    link.set_telemetry(&registry);
    link.connect().unwrap();
    link.disconnect_transport();
    link.reconnect_transport();
    link.connect().unwrap();
    let report = registry.snapshot();
    assert_eq!(report.counter("adb.reconnects"), 1);
    assert_eq!(report.counter("adb.connects"), 2);
}

#[test]
fn scheduler_retries_are_counted() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    let mut platform = Platform::paper_testbed(510);
    let failures_left = Arc::new(AtomicU32::new(2));
    let counter = Arc::clone(&failures_left);
    let id = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "flaky",
            Constraints {
                max_retries: 3,
                ..Default::default()
            },
            Payload::Custom(Box::new(move |vp| {
                if counter
                    .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                    .is_ok()
                {
                    return Err("transient bench fault".into());
                }
                let now = vp
                    .device_handle("j7duo-0001")
                    .map(|d| d.with_sim(|s| s.now()))
                    .unwrap_or(SimTime::ZERO);
                Ok(batterylab::server::JobOutcome {
                    summary: serde_json::json!({"ok": true}),
                    artifacts: vec![],
                    finished_at: now,
                })
            })),
        )
        .unwrap();
    platform.server.drain();
    assert_eq!(
        platform
            .server
            .build(platform.experimenter_token, id)
            .unwrap()
            .state,
        BuildState::Succeeded
    );
    let report = platform.metrics();
    assert_eq!(report.counter("scheduler.retries"), 2);
    assert_eq!(report.counter("scheduler.jobs_succeeded"), 1);
    assert_eq!(report.counter("scheduler.jobs_failed"), 0);
}

#[test]
fn ssh_and_viewer_auth_failures_are_counted() {
    use batterylab::server::{SshClient, SshServer};
    use batterylab::telemetry::Registry;
    let registry = Registry::new();
    let mut sshd = SshServer::new("hk:node", vec!["fp:trusted".to_string()]);
    sshd.set_telemetry(&registry);
    let intruder = SshClient::new("fp:intruder");
    assert!(intruder.connect("node", &mut sshd).is_err());
    // A wrong noVNC password on a live mirror session, same registry.
    let mut platform = Platform::paper_testbed(511);
    let serial = platform.j7_serial().to_string();
    let vp = platform.node1();
    vp.device_mirroring(&serial).unwrap();
    assert!(vp.attach_viewer(&serial, "wrong-password").is_err());
    assert_eq!(registry.snapshot().counter("ssh.auth_failures"), 1);
    assert_eq!(platform.metrics().counter("mirror.auth_failures"), 1);
}

#[test]
fn transport_reconnect_requires_rehandshake_but_recovers() {
    let device = AndroidDevice::new(
        DeviceSpec::samsung_j7_duo(),
        "flap-dev",
        SimRng::new(507).derive("d"),
        true,
    );
    let mut link = AdbLink::new(device, TransportKind::WiFi, AdbKey::generate("h", 507));
    link.connect().unwrap();
    link.shell("echo before").unwrap();
    link.disconnect_transport();
    assert!(link.shell("echo during").is_err());
    link.reconnect_transport();
    // A fresh handshake is needed — then everything works again.
    link.connect().unwrap();
    assert_eq!(link.shell("echo after").unwrap(), "after\n");
}
