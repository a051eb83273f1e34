//! The §5 future-work features, exercised end to end: iOS devices
//! (XCTest + Bluetooth keyboard + AirPlay, no ADB), the credit system,
//! crowdsourced tester recruitment, and BattOr-style mobile measurement.

use batterylab::automation::{
    Action, AutomationBackend, BluetoothKeyboardBackend, Script, ScrollDir, XcTestBackend,
};
use batterylab::device::iphone_7;
use batterylab::mirror::{AirPlayConfig, AirPlayMirror};
use batterylab::platform::Platform;
use batterylab::power::{BattOr, Monsoon};
use batterylab::server::{Constraints, ExperimentSpec, Marketplace, Payload, Recruitment};
use batterylab::sim::{SimDuration, SimRng, SimTime};

#[test]
fn ios_device_full_session_without_adb() {
    let rng = SimRng::new(601);
    let iphone = iphone_7(&rng, "00008030-001A");
    iphone.install_app("com.brave.ios.browser");

    // AirPlay mirroring + BT keyboard: the §3.2 iOS combination.
    let mut mirror = AirPlayMirror::new(iphone.clone(), AirPlayConfig::default());
    mirror.start().unwrap();
    let mut keyboard = BluetoothKeyboardBackend::pair(iphone.clone());
    let script = Script::new("ios-browse")
        .then(Action::LaunchApp("com.brave.ios.browser".into()))
        .then(Action::EnterUrl("https://news.bbc.co.uk".into()))
        .then(Action::Wait(SimDuration::from_secs(6)))
        .then(Action::Scroll(ScrollDir::Down))
        .then(Action::Scroll(ScrollDir::Up));
    keyboard.run_script(&script).unwrap();

    // Measure it with the Monsoon like any other load.
    let mut monsoon = Monsoon::new(rng.derive("monsoon"));
    monsoon.set_powered(true);
    monsoon.set_voltage(4.0).unwrap();
    monsoon.enable_vout().unwrap();
    let end = iphone.with_sim(|s| s.now());
    let run = monsoon
        .sample_run_at_rate(&iphone, SimTime::ZERO, end.as_secs_f64(), 200.0)
        .unwrap();
    assert!(run.energy.mah() > 0.0);

    let streamed = mirror.stop().unwrap();
    assert!(streamed > 0, "AirPlay produced a stream");
    assert_eq!(
        iphone.foreground().as_deref(),
        Some("com.brave.ios.browser")
    );
}

#[test]
fn xctest_drives_only_its_bundle() {
    let rng = SimRng::new(602);
    let iphone = iphone_7(&rng, "00008030-002B");
    let mut xc = XcTestBackend::install(iphone.clone(), "org.mozilla.ios.Firefox", true).unwrap();
    xc.perform(&Action::LaunchApp("org.mozilla.ios.Firefox".into()))
        .unwrap();
    assert!(xc
        .perform(&Action::LaunchApp("com.other.app".into()))
        .is_err());
    assert!(xc.measurement_safe());
    assert!(!xc.supports_mirroring());
    // No-source install fails, like Android's UiTest.
    assert!(XcTestBackend::install(iphone, "com.android.chrome", false).is_err());
}

#[test]
fn credit_system_gates_and_charges() {
    let mut platform = Platform::paper_testbed(603);
    platform.server.enable_billing();
    platform.server.set_node_owner("node1", "imperial");
    let serial = platform.j7_serial().to_string();

    // Alice starts with the welcome grant.
    let _id = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "paid-run",
            Constraints::default(),
            Payload::Experiment(ExperimentSpec::measured(
                &serial,
                Script::browser_workload("com.brave.browser", &["https://reuters.com"], 2),
            )),
        )
        .expect("welcome grant covers a short job");
    platform.server.tick().unwrap();

    let balance = platform.server.ledger().unwrap().balance("alice").unwrap();
    assert!(
        balance < batterylab::server::credits::WELCOME_GRANT,
        "the run was charged: {balance}"
    );

    // The node owner accrues hosting credits at maintenance time.
    platform.server.run_maintenance(SimTime::from_secs(3600));
    let imperial = platform
        .server
        .ledger()
        .unwrap()
        .balance("imperial")
        .unwrap();
    assert!(
        imperial > batterylab::server::credits::WELCOME_GRANT,
        "an hour of hosting earned credits: {imperial}"
    );
}

#[test]
fn broke_experimenter_is_refused() {
    let mut platform = Platform::paper_testbed(604);
    platform.server.enable_billing();
    // Drain alice's account.
    platform.server.ledger_mut().unwrap().open_account("alice");
    platform
        .server
        .ledger_mut()
        .unwrap()
        .charge_experiment("alice", "sink", SimDuration::from_secs(100 * 60))
        .unwrap();
    let err = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "cannot-afford",
            Constraints::default(),
            Payload::Custom(Box::new(|_| Err("never runs".into()))),
        )
        .map(|_| ())
        .unwrap_err();
    assert!(
        matches!(err, batterylab::server::ServerError::Credits(_)),
        "{err}"
    );
}

#[test]
fn recruit_pay_tester_via_mturk() {
    let mut platform = Platform::paper_testbed(605);
    platform.server.enable_billing();
    platform.server.ledger_mut().unwrap().open_account("alice");

    let mut recruitment = Recruitment::new();
    let task_id = recruitment
        .post(
            platform.server.ledger().unwrap(),
            "alice",
            Marketplace::MechanicalTurk,
            "open the shopping app and search for three items",
            "node1",
            platform.j7_serial(),
            SimDuration::from_secs(900),
            4.0,
        )
        .unwrap();

    // A worker accepts: account + session URL.
    let url = recruitment
        .accept(platform.server.auth_mut(), task_id, "AMZN-worker-77")
        .unwrap();
    assert!(url.contains("node1.batterylab.dev"));
    // Worker can log in as a Tester (HTTPS only).
    let session = platform
        .server
        .login("AMZN-worker-77", &format!("task-{task_id}-pw"), true)
        .unwrap();
    assert_eq!(session.role, batterylab::server::Role::Tester);

    recruitment.submit(task_id).unwrap();
    recruitment
        .approve(platform.server.ledger_mut().unwrap(), task_id)
        .unwrap();
    let worker_balance = platform
        .server
        .ledger()
        .unwrap()
        .balance("AMZN-worker-77")
        .unwrap();
    assert!(worker_balance >= 4.0, "paid: {worker_balance}");
}

#[test]
fn battor_measures_a_cellular_walk() {
    // Mobility support: the device walks on cellular; BattOr rides along.
    use batterylab::device::{boot_j7_duo, DataPath};
    use batterylab::net::Direction;
    let rng = SimRng::new(606);
    let device = boot_j7_duo(&rng, "walker");
    device.with_sim(|s| {
        s.set_data_path(DataPath::Cellular);
        s.set_screen(true);
    });
    let mut battor = BattOr::new(rng.derive("battor"));
    // Walk: browse in bursts over cellular for 2 minutes.
    device.with_sim(|s| {
        for _ in 0..4 {
            s.transfer(1_500_000, Direction::Down, 0.2);
            s.run_activity(SimDuration::from_secs(10), 0.18, 0.4);
        }
    });
    let end = device.with_sim(|s| s.now());
    let log = battor
        .log_run(&device, SimTime::ZERO, end.as_secs_f64())
        .expect("a phone draws far below 6 A");
    assert!(log.truncated.is_none());
    // Cellular bursts show in the high quantiles.
    let cdf = batterylab::stats::Cdf::from_samples(log.samples.values());
    assert!(cdf.quantile(0.95) > cdf.median() + 100.0, "bursts visible");
    // The whole log fits comfortably in flash and battery budget.
    assert!(battor.buffer_left() > 0);
    assert!(battor.runtime_left_s() > 0.0);
}
