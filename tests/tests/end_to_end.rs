//! End-to-end platform tests: the full path an experimenter takes —
//! console login, job submission, queue dispatch to a vantage point,
//! execution over ADB-WiFi with power capture, artifact retrieval — plus
//! multi-node enrolment and maintenance.

use batterylab::automation::Script;
use batterylab::controller::{VantageConfig, VantagePoint};
use batterylab::device::boot_j7_duo;
use batterylab::net::VpnLocation;
use batterylab::platform::{Platform, NODE_PORTS};
use batterylab::server::{
    AuthError, BuildState, Constraints, ExperimentSpec, Payload, Role, ServerError,
};
use batterylab::sim::{SimDuration, SimRng, SimTime};

fn brave_script() -> Script {
    Script::browser_workload("com.brave.browser", &["https://news.bbc.co.uk"], 2)
}

#[test]
fn experimenter_pipeline_end_to_end() {
    let mut platform = Platform::paper_testbed(101);
    let serial = platform.j7_serial().to_string();
    let token = platform.experimenter_token;

    let id = platform
        .server
        .submit_job(
            token,
            "energy-smoke",
            Constraints {
                device: Some(serial.clone()),
                ..Default::default()
            },
            Payload::Experiment(ExperimentSpec::measured(&serial, brave_script())),
        )
        .expect("experimenter submits");

    assert_eq!(platform.server.tick(), Some(id));

    let build = platform.server.build(token, id).expect("visible to owner");
    assert_eq!(build.state, BuildState::Succeeded);
    assert_eq!(build.node.as_deref(), Some("node1"));
    let summary = build.summary.as_ref().expect("summary recorded");
    assert!(summary["discharge_mah"].as_f64().unwrap() > 0.1);
    assert!(summary["duration_s"].as_f64().unwrap() > 10.0);

    // Artifacts: power summary parses as JSON, logcat has the launch line.
    let power = build
        .artifacts
        .iter()
        .find(|a| a.name == "power_summary.json")
        .expect("power artifact");
    let parsed = serde_json::from_str_value(&power.content).expect("valid JSON");
    assert!(parsed["samples"].as_u64().unwrap() > 1000);
    let logcat = build
        .artifacts
        .iter()
        .find(|a| a.name == "logcat.txt")
        .expect("logcat artifact");
    assert!(
        logcat.content.contains("Displayed com.brave.browser"),
        "{}",
        logcat.content
    );
}

#[test]
fn unauthorized_access_is_refused_everywhere() {
    let mut platform = Platform::paper_testbed(102);
    // Tester role.
    platform
        .server
        .add_user(platform.admin_token, "turk", "pw", Role::Tester)
        .unwrap();
    let turk = platform.server.login("turk", "pw", true).unwrap().token;
    assert!(matches!(
        platform.server.submit_job(
            turk,
            "x",
            Constraints::default(),
            Payload::Custom(Box::new(|_| Err("no".into())))
        ),
        Err(ServerError::Auth(AuthError::Forbidden { .. }))
    ));
    // HTTP refused.
    assert!(matches!(
        platform.server.login("turk", "pw", false),
        Err(ServerError::Auth(AuthError::HttpsRequired))
    ));
    // Bad token.
    assert!(matches!(
        platform.server.build(999_999, batterylab::server::JobId(1)),
        Err(ServerError::Auth(AuthError::BadSession))
    ));
}

#[test]
fn second_node_scales_the_platform() {
    let mut platform = Platform::paper_testbed(103);
    let rng = SimRng::new(103).derive("node2");
    let mut node2 = VantagePoint::new(
        VantageConfig {
            name: "node2".to_string(),
            ..VantageConfig::imperial_college()
        },
        rng.derive("vp"),
    );
    let d2 = boot_j7_duo(&rng, "node2-dev");
    d2.install_package("com.brave.browser");
    node2.add_device(d2);
    platform
        .server
        .enroll_node(
            platform.admin_token,
            node2,
            "130.192.1.2",
            "hk:node2",
            &NODE_PORTS,
            SimTime::ZERO,
        )
        .expect("enrols");
    assert_eq!(platform.server.node_names(), vec!["node1", "node2"]);

    // A node-constrained job lands on node2.
    let id = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "node2-job",
            Constraints {
                node: Some("node2".to_string()),
                ..Default::default()
            },
            Payload::Experiment(ExperimentSpec::measured("node2-dev", brave_script())),
        )
        .unwrap();
    platform.server.tick().unwrap();
    let build = platform
        .server
        .build(platform.experimenter_token, id)
        .unwrap();
    assert_eq!(build.node.as_deref(), Some("node2"));
    assert_eq!(build.state, BuildState::Succeeded);
}

#[test]
fn vpn_constrained_job_runs_through_tunnel() {
    let mut platform = Platform::paper_testbed(104);
    let serial = platform.j7_serial().to_string();
    let mut spec = ExperimentSpec::measured(&serial, brave_script());
    spec.vpn = Some(VpnLocation::Japan);
    let id = platform
        .server
        .submit_job(
            platform.experimenter_token,
            "tokyo-run",
            Constraints {
                location: Some(VpnLocation::Japan),
                ..Default::default()
            },
            Payload::Experiment(spec),
        )
        .unwrap();
    platform.server.tick().unwrap();
    let build = platform
        .server
        .build(platform.experimenter_token, id)
        .unwrap();
    assert_eq!(build.state, BuildState::Succeeded);
    assert_eq!(
        build.summary.as_ref().unwrap()["vpn"],
        serde_json::json!("Japan")
    );
    // Tunnel is down again after the job.
    assert!(platform.node1().vpn_location().is_none());
}

#[test]
fn maintenance_keeps_the_fleet_safe() {
    let mut platform = Platform::paper_testbed(105);
    // Sloppy state: meter left on.
    platform.node1().power_monitor().unwrap();
    let report = platform
        .server
        .run_maintenance(SimTime::from_secs(70 * 24 * 3600));
    assert!(report.cert_renewed, "90-day cert is 70 days old");
    assert_eq!(report.meters_powered_off, vec!["node1".to_string()]);
    assert!(
        platform.server.registry().stale_cert_nodes().is_empty(),
        "new cert deployed everywhere"
    );
}

#[test]
fn mirrored_and_plain_jobs_share_a_device_sequentially() {
    let mut platform = Platform::paper_testbed(106);
    let serial = platform.j7_serial().to_string();
    let mut ids = Vec::new();
    for mirroring in [false, true] {
        let mut spec = ExperimentSpec::measured(&serial, brave_script());
        spec.mirroring = mirroring;
        ids.push(
            platform
                .server
                .submit_job(
                    platform.experimenter_token,
                    if mirroring { "mirrored" } else { "plain" },
                    Constraints::default(),
                    Payload::Experiment(spec),
                )
                .unwrap(),
        );
    }
    let ran = platform.server.drain();
    assert_eq!(ran, ids, "FIFO order");
    let plain = platform
        .server
        .build(platform.experimenter_token, ids[0])
        .unwrap()
        .summary
        .clone()
        .unwrap();
    let mirrored = platform
        .server
        .build(platform.experimenter_token, ids[1])
        .unwrap()
        .summary
        .clone()
        .unwrap();
    // Mirroring costs energy — visible even through the whole pipeline.
    assert!(mirrored["discharge_mah"].as_f64().unwrap() > plain["discharge_mah"].as_f64().unwrap());
}

#[test]
fn device_time_advances_monotonically_across_jobs() {
    let mut platform = Platform::paper_testbed(107);
    let serial = platform.j7_serial().to_string();
    let device = platform.j7();
    let t0 = device.with_sim(|s| s.now());
    for _ in 0..3 {
        platform
            .server
            .submit_job(
                platform.experimenter_token,
                "seq",
                Constraints::default(),
                Payload::Experiment(ExperimentSpec::measured(&serial, brave_script())),
            )
            .unwrap();
    }
    platform.server.drain();
    let t1 = device.with_sim(|s| s.now());
    assert!(
        t1 > t0 + SimDuration::from_secs(25),
        "three jobs of ~10 s each"
    );
}
