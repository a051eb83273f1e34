//! The platform's §1 vision made concrete: heterogeneous devices at
//! multiple vantage points, enrolled on one access server and measured
//! through its build queue.
//!
//! Three nodes — a flagship, the paper's mid-ranger, a budget phone —
//! each run the same Brave workload; the per-device energy differences
//! are exactly the kind of result a single-bench testbed can't produce.
//!
//! ```sh
//! cargo run --release --example heterogeneous_fleet
//! ```

use batterylab::automation::Script;
use batterylab::controller::{VantageConfig, VantagePoint};
use batterylab::device::{AndroidDevice, DeviceSpec, PowerModel};
use batterylab::net::LinkProfile;
use batterylab::platform::NODE_PORTS;
use batterylab::server::{AccessServer, Constraints, ExperimentSpec, Payload};
use batterylab::sim::{SimRng, SimTime};

fn main() {
    let rng = SimRng::new(77);

    // Three vantage points with three very different phones.
    let fleet_spec: [(&str, &str, PowerModel, DeviceSpec); 3] = [
        (
            "node-london",
            "j7duo-01",
            PowerModel::samsung_j7_duo(),
            DeviceSpec::samsung_j7_duo(),
        ),
        (
            "node-zurich",
            "pixel3-01",
            PowerModel::pixel_3(),
            DeviceSpec {
                model: "Pixel 3".to_string(),
                product: "blueline".to_string(),
                api_level: 28,
                battery_mah: 2915.0,
                ..DeviceSpec::samsung_j7_duo()
            },
        ),
        (
            "node-delhi",
            "galaxy-a10-01",
            PowerModel::budget_a10(),
            DeviceSpec {
                model: "Galaxy A10".to_string(),
                product: "a10".to_string(),
                api_level: 28,
                cpu_cores: 4,
                battery_mah: 3400.0,
                ..DeviceSpec::samsung_j7_duo()
            },
        ),
    ];

    let mut server = AccessServer::new("52.1.2.3", "admin", "admin-pw");
    let admin = server
        .login("admin", "admin-pw", true)
        .expect("admin")
        .token;
    for (i, (node_name, serial, model, spec)) in fleet_spec.iter().cloned().enumerate() {
        let mut vp = VantagePoint::new(
            VantageConfig {
                name: node_name.to_string(),
                uplink: LinkProfile::campus_uplink(),
                wifi_ap: LinkProfile::fast_wifi(),
                relay_channels: 2,
            },
            rng.derive(node_name),
        );
        let device = AndroidDevice::new_with_model(
            spec,
            model,
            serial,
            rng.derive(&format!("dev/{serial}")),
            true,
        );
        device.install_package("com.brave.browser");
        vp.add_device(device);
        server
            .enroll_node(
                admin,
                vp,
                &format!("10.0.0.{}", i + 1),
                &format!("hk:{node_name}"),
                &NODE_PORTS,
                SimTime::ZERO,
            )
            .expect("ports open, name free");
    }

    // One node-constrained job per vantage point, run by the dispatcher.
    let script = Script::browser_workload(
        "com.brave.browser",
        &[
            "https://news.bbc.co.uk",
            "https://reuters.com",
            "https://cnn.com",
        ],
        4,
    );
    let jobs: Vec<_> = fleet_spec
        .iter()
        .map(|(node_name, serial, _, _)| {
            let constraints = Constraints {
                node: Some(node_name.to_string()),
                ..Constraints::default()
            };
            let spec = ExperimentSpec::measured(serial, script.clone());
            server
                .submit_job(
                    admin,
                    &format!("brave-on-{serial}"),
                    constraints,
                    Payload::Experiment(spec),
                )
                .expect("admin may submit")
        })
        .collect();
    let ran = server.drain();
    println!("ran {} measured workloads across the fleet...\n", ran.len());

    println!("{:<14} {:>14} {:>12}", "node", "discharge mAh", "mean mA");
    for id in jobs {
        let build = server.build(admin, id).expect("build exists");
        let summary = build.summary.as_ref().expect("job succeeds");
        println!(
            "{:<14} {:>14.3} {:>12.1}",
            build.node.as_deref().unwrap_or("-"),
            summary["discharge_mah"].as_f64().unwrap_or(0.0),
            summary["mean_ma"].as_f64().unwrap_or(0.0),
        );
    }
    println!("\nsame workload, three devices — the heterogeneity §1 argues only a shared platform can offer.");
}
