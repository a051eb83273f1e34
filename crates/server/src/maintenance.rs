//! Maintenance jobs (§3.1): "updating BatteryLab wildcard certificates,
//! ensuring the power meter is not active when not needed (for safety
//! reasons), or factory resetting a device."

use std::collections::BTreeMap;

use batterylab_controller::VantagePoint;
use batterylab_power::SocketState;
use batterylab_sim::SimTime;

use crate::registry::NodeRegistry;

/// Outcome of one maintenance sweep.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MaintenanceReport {
    /// Nodes whose certs were (re)deployed.
    pub certs_deployed: Vec<String>,
    /// Whether the wildcard cert itself was renewed this sweep.
    pub cert_renewed: bool,
    /// Nodes whose meters were switched off.
    pub meters_powered_off: Vec<String>,
    /// Devices factory-reset.
    pub devices_reset: Vec<String>,
}

/// Renew the wildcard cert if due and deploy to every stale node.
pub fn certificate_sweep(registry: &mut NodeRegistry, now: SimTime) -> MaintenanceReport {
    let mut report = MaintenanceReport::default();
    if registry.certificate().needs_renewal(now) {
        registry.renew_certificate(now);
        report.cert_renewed = true;
    }
    for node in registry.stale_cert_nodes() {
        // A node whose last heartbeat failed is unreachable: leave it
        // stale and let a later sweep push the cert once it recovers.
        if !registry.node(&node).map(|n| n.healthy).unwrap_or(false) {
            continue;
        }
        registry
            .mark_cert_deployed(&node)
            .expect("stale node exists");
        report.certs_deployed.push(node);
    }
    report
}

/// Ensure no idle vantage point has an energised Monsoon. The socket
/// state is read without actuating; only meters found on are toggled.
pub fn power_safety_sweep(nodes: &mut BTreeMap<String, VantagePoint>) -> MaintenanceReport {
    let mut report = MaintenanceReport::default();
    for (name, vp) in nodes.iter_mut() {
        if vp.meter_socket_state() == SocketState::On {
            // On actuation fault, leave the meter for the next sweep
            // rather than guessing at its state.
            if let Ok(SocketState::Off) = vp.power_monitor() {
                report.meters_powered_off.push(name.clone());
            }
        }
    }
    report
}

/// Factory-reset a device at a node (between experimenters).
pub fn factory_reset(
    nodes: &mut BTreeMap<String, VantagePoint>,
    node: &str,
    serial: &str,
) -> Result<MaintenanceReport, String> {
    let vp = nodes
        .get_mut(node)
        .ok_or_else(|| format!("no such node {node}"))?;
    let device = vp
        .device_handle(serial)
        .map_err(|e| format!("controller: {e}"))?;
    device.factory_reset();
    Ok(MaintenanceReport {
        devices_reset: vec![format!("{node}/{serial}")],
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_controller::VantageConfig;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::SimRng;

    fn registry() -> NodeRegistry {
        let mut r = NodeRegistry::new(SimTime::ZERO);
        r.enroll(
            "node1",
            "155.198.1.10",
            "hk:aa",
            &[2222, 8080, 6081],
            "52.1.2.3",
            SimTime::ZERO,
        )
        .unwrap();
        r
    }

    fn nodes() -> BTreeMap<String, VantagePoint> {
        let rng = SimRng::new(51);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        vp.add_device(boot_j7_duo(&rng, "maint-dev"));
        let mut m = BTreeMap::new();
        m.insert("node1".to_string(), vp);
        m
    }

    #[test]
    fn cert_sweep_renews_and_deploys() {
        let mut r = registry();
        // Fresh cert: nothing to do.
        let quiet = certificate_sweep(&mut r, SimTime::ZERO);
        assert!(!quiet.cert_renewed);
        assert!(quiet.certs_deployed.is_empty());
        // 70 days in: renew + redeploy.
        let later = SimTime::from_secs(70 * 24 * 3600);
        let busy = certificate_sweep(&mut r, later);
        assert!(busy.cert_renewed);
        assert_eq!(busy.certs_deployed, vec!["node1".to_string()]);
        assert!(r.stale_cert_nodes().is_empty());
    }

    #[test]
    fn power_safety_turns_meters_off() {
        let mut nodes = nodes();
        // Leave a meter on (a buggy job would do this).
        nodes.get_mut("node1").unwrap().power_monitor().unwrap();
        let report = power_safety_sweep(&mut nodes);
        assert_eq!(report.meters_powered_off, vec!["node1".to_string()]);
        // Second sweep: nothing on.
        let report2 = power_safety_sweep(&mut nodes);
        assert!(report2.meters_powered_off.is_empty());
    }

    #[test]
    fn cert_deploy_skips_unreachable_node_until_recovery() {
        let mut r = registry();
        let later = SimTime::from_secs(70 * 24 * 3600);
        // Node is down when the renewal sweep runs.
        r.record_heartbeat("node1", later, false).unwrap();
        let sweep = certificate_sweep(&mut r, later);
        assert!(sweep.cert_renewed);
        assert!(sweep.certs_deployed.is_empty(), "down node skipped");
        assert_eq!(r.stale_cert_nodes(), vec!["node1".to_string()]);
        // Node recovers: the next sweep pushes the cert.
        r.record_heartbeat("node1", later, true).unwrap();
        let sweep2 = certificate_sweep(&mut r, later);
        assert!(!sweep2.cert_renewed);
        assert_eq!(sweep2.certs_deployed, vec!["node1".to_string()]);
        assert!(r.stale_cert_nodes().is_empty());
    }

    #[test]
    fn power_safety_sweep_leaves_tripped_socket_for_next_pass() {
        use batterylab_faults::{scoped_site, site, FaultInjector, FaultKind, FaultPlan};

        let mut nodes = nodes();
        nodes.get_mut("node1").unwrap().power_monitor().unwrap(); // meter on
                                                                  // power_monitor retries 3 times internally: 4 faults exhaust the
                                                                  // whole actuation attempt, so the sweep genuinely fails once.
        let plan = FaultPlan::new().next_n(
            &scoped_site("node1", site::POWER_SOCKET),
            FaultKind::SocketUnreachable,
            4,
        );
        let injector = FaultInjector::new(&plan, 7);
        nodes.get_mut("node1").unwrap().attach_faults(&injector);

        // The sweep sees the meter on but the actuation faults: the meter
        // stays on and is not reported as handled.
        let report = power_safety_sweep(&mut nodes);
        assert!(report.meters_powered_off.is_empty());
        assert_eq!(nodes["node1"].meter_socket_state(), SocketState::On);

        // Fault consumed: next sweep powers the meter off.
        let report2 = power_safety_sweep(&mut nodes);
        assert_eq!(report2.meters_powered_off, vec!["node1".to_string()]);
        assert_eq!(nodes["node1"].meter_socket_state(), SocketState::Off);
    }

    #[test]
    fn factory_reset_wipes_device() {
        let mut nodes = nodes();
        let device = nodes["node1"].device_handle("maint-dev").unwrap();
        device.install_package("com.brave.browser");
        let report = factory_reset(&mut nodes, "node1", "maint-dev").unwrap();
        assert_eq!(report.devices_reset, vec!["node1/maint-dev".to_string()]);
        // Brave gone after reset.
        let mut dev = device.clone();
        use batterylab_adb::DeviceServices;
        let out = String::from_utf8(dev.exec("shell:pm list packages").unwrap()).unwrap();
        assert!(!out.contains("brave"));
    }

    #[test]
    fn factory_reset_unknown_targets() {
        let mut nodes = nodes();
        assert!(factory_reset(&mut nodes, "node9", "x").is_err());
        assert!(factory_reset(&mut nodes, "node1", "ghost").is_err());
    }
}
