//! Vantage-point enrolment (§3.4): node registry with IP allow-listing and
//! pubkey exchange, the `*.batterylab.dev` DNS zone (Route 53 in the
//! paper) and the wildcard Let's Encrypt certificate whose renewal and
//! per-node deployment the access server automates.

use std::collections::BTreeMap;

use batterylab_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Ports §3.4 requires a controller to expose.
pub const REQUIRED_PORTS: [(u16, &str); 3] =
    [(2222, "ssh"), (8080, "gui-backend"), (6081, "novnc")];

/// Wildcard certificate lifetime (Let's Encrypt: 90 days).
pub const CERT_LIFETIME: SimDuration = SimDuration::from_secs(90 * 24 * 3600);
/// Renew when less than this remains.
pub const CERT_RENEW_MARGIN: SimDuration = SimDuration::from_secs(30 * 24 * 3600);

/// Registry faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RegistryError {
    /// Name already enrolled.
    DuplicateNode(String),
    /// Unknown node.
    NoSuchNode(String),
    /// A required port is not reachable.
    PortUnreachable(u16),
    /// Caller's IP is not on the node's allowlist.
    IpNotAllowed(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateNode(n) => write!(f, "node {n} already enrolled"),
            RegistryError::NoSuchNode(n) => write!(f, "no such node {n}"),
            RegistryError::PortUnreachable(p) => write!(f, "required port {p} unreachable"),
            RegistryError::IpNotAllowed(ip) => write!(f, "ip {ip} not allow-listed"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// The wildcard certificate (`*.batterylab.dev`).
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Certificate {
    /// Monotonic serial.
    pub serial: u64,
    /// Expiry instant.
    pub expires: SimTime,
}

impl Certificate {
    /// Whether the cert should be renewed at `now`.
    pub fn needs_renewal(&self, now: SimTime) -> bool {
        now + CERT_RENEW_MARGIN >= self.expires
    }
}

/// One enrolled vantage point.
#[derive(Clone, Debug, Serialize)]
pub struct NodeRecord {
    /// Human-readable identifier, e.g. `node1`.
    pub name: String,
    /// Public IP of the controller.
    pub ip: String,
    /// Controller's SSH host-key fingerprint.
    pub host_key: String,
    /// IPs allowed to open the SSH port (the access server's).
    pub allowed_ips: Vec<String>,
    /// Serial of the certificate deployed at the node.
    pub deployed_cert: Option<u64>,
    /// Enrolment instant.
    pub enrolled_at: SimTime,
    /// Last heartbeat probe instant, if any probe has run.
    pub last_heartbeat: Option<SimTime>,
    /// Outcome of the most recent health probe (healthy until probed).
    pub healthy: bool,
}

impl NodeRecord {
    /// The node's DNS name in the zone.
    pub fn fqdn(&self) -> String {
        format!("{}.batterylab.dev", self.name)
    }
}

/// The access server's node registry + DNS zone + cert authority client.
pub struct NodeRegistry {
    nodes: BTreeMap<String, NodeRecord>,
    cert: Certificate,
    next_serial: u64,
}

impl NodeRegistry {
    /// A registry with a freshly issued wildcard cert at `now`.
    pub fn new(now: SimTime) -> Self {
        NodeRegistry {
            nodes: BTreeMap::new(),
            cert: Certificate {
                serial: 1,
                expires: now + CERT_LIFETIME,
            },
            next_serial: 2,
        }
    }

    /// Enrol a node (§3.4): verify required ports, record keys and the
    /// access server's IP allowlist, publish DNS, deploy the cert.
    pub fn enroll(
        &mut self,
        name: &str,
        ip: &str,
        host_key: &str,
        open_ports: &[u16],
        server_ip: &str,
        now: SimTime,
    ) -> Result<&NodeRecord, RegistryError> {
        if self.nodes.contains_key(name) {
            return Err(RegistryError::DuplicateNode(name.to_string()));
        }
        for (port, _) in REQUIRED_PORTS {
            if !open_ports.contains(&port) {
                return Err(RegistryError::PortUnreachable(port));
            }
        }
        let record = NodeRecord {
            name: name.to_string(),
            ip: ip.to_string(),
            host_key: host_key.to_string(),
            allowed_ips: vec![server_ip.to_string()],
            deployed_cert: Some(self.cert.serial),
            enrolled_at: now,
            last_heartbeat: None,
            healthy: true,
        };
        self.nodes.insert(name.to_string(), record);
        Ok(self.nodes.get(name).expect("just inserted"))
    }

    /// Remove a node.
    pub fn remove(&mut self, name: &str) -> Result<NodeRecord, RegistryError> {
        self.nodes
            .remove(name)
            .ok_or_else(|| RegistryError::NoSuchNode(name.to_string()))
    }

    /// Look up a node.
    pub fn node(&self, name: &str) -> Result<&NodeRecord, RegistryError> {
        self.nodes
            .get(name)
            .ok_or_else(|| RegistryError::NoSuchNode(name.to_string()))
    }

    /// Enrolled node names.
    pub fn names(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    /// DNS: resolve an FQDN in the zone.
    pub fn resolve(&self, fqdn: &str) -> Option<String> {
        let name = fqdn.strip_suffix(".batterylab.dev")?;
        self.nodes.get(name).map(|n| n.ip.clone())
    }

    /// SSH gatekeeping: verify `source_ip` may connect to `name`.
    pub fn check_ip(&self, name: &str, source_ip: &str) -> Result<(), RegistryError> {
        let node = self.node(name)?;
        if node.allowed_ips.iter().any(|ip| ip == source_ip) {
            Ok(())
        } else {
            Err(RegistryError::IpNotAllowed(source_ip.to_string()))
        }
    }

    /// Current wildcard cert.
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// Renew the wildcard cert at `now`; nodes become stale until the
    /// deploy job pushes the new serial.
    pub fn renew_certificate(&mut self, now: SimTime) -> &Certificate {
        self.cert = Certificate {
            serial: self.next_serial,
            expires: now + CERT_LIFETIME,
        };
        self.next_serial += 1;
        &self.cert
    }

    /// Record a successful cert deployment to `name`.
    pub fn mark_cert_deployed(&mut self, name: &str) -> Result<(), RegistryError> {
        let serial = self.cert.serial;
        let node = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| RegistryError::NoSuchNode(name.to_string()))?;
        node.deployed_cert = Some(serial);
        Ok(())
    }

    /// Record a heartbeat probe outcome for `name`.
    pub fn record_heartbeat(
        &mut self,
        name: &str,
        now: SimTime,
        healthy: bool,
    ) -> Result<(), RegistryError> {
        let node = self
            .nodes
            .get_mut(name)
            .ok_or_else(|| RegistryError::NoSuchNode(name.to_string()))?;
        node.last_heartbeat = Some(now);
        node.healthy = healthy;
        Ok(())
    }

    /// Nodes whose most recent probe found them healthy.
    pub fn healthy_nodes(&self) -> Vec<String> {
        self.nodes
            .values()
            .filter(|n| n.healthy)
            .map(|n| n.name.clone())
            .collect()
    }

    /// Nodes whose deployed cert is stale.
    pub fn stale_cert_nodes(&self) -> Vec<String> {
        self.nodes
            .values()
            .filter(|n| n.deployed_cert != Some(self.cert.serial))
            .map(|n| n.name.clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PORTS: [u16; 3] = [2222, 8080, 6081];

    fn registry() -> NodeRegistry {
        let mut r = NodeRegistry::new(SimTime::ZERO);
        r.enroll(
            "node1",
            "155.198.1.10",
            "hk:aa",
            &PORTS,
            "52.1.2.3",
            SimTime::ZERO,
        )
        .unwrap();
        r
    }

    #[test]
    fn enroll_publishes_dns_and_cert() {
        let r = registry();
        assert_eq!(r.resolve("node1.batterylab.dev").unwrap(), "155.198.1.10");
        assert_eq!(r.resolve("nodeX.batterylab.dev"), None);
        assert_eq!(r.node("node1").unwrap().deployed_cert, Some(1));
        assert_eq!(r.node("node1").unwrap().fqdn(), "node1.batterylab.dev");
    }

    #[test]
    fn missing_port_fails_enrolment() {
        let mut r = NodeRegistry::new(SimTime::ZERO);
        let err = r
            .enroll(
                "node2",
                "1.2.3.4",
                "hk:bb",
                &[2222, 8080],
                "52.1.2.3",
                SimTime::ZERO,
            )
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, RegistryError::PortUnreachable(6081));
    }

    #[test]
    fn duplicate_enrolment_rejected() {
        let mut r = registry();
        let err = r
            .enroll(
                "node1",
                "9.9.9.9",
                "hk:cc",
                &PORTS,
                "52.1.2.3",
                SimTime::ZERO,
            )
            .map(|_| ())
            .unwrap_err();
        assert_eq!(err, RegistryError::DuplicateNode("node1".into()));
    }

    #[test]
    fn ip_allowlisting() {
        let r = registry();
        assert!(r.check_ip("node1", "52.1.2.3").is_ok());
        assert_eq!(
            r.check_ip("node1", "6.6.6.6").unwrap_err(),
            RegistryError::IpNotAllowed("6.6.6.6".into())
        );
    }

    #[test]
    fn cert_renewal_cycle() {
        let mut r = registry();
        assert!(!r.certificate().needs_renewal(SimTime::ZERO));
        // 65 days in: within the 30-day margin of the 90-day cert.
        let later = SimTime::from_secs(65 * 24 * 3600);
        assert!(r.certificate().needs_renewal(later));
        r.renew_certificate(later);
        assert_eq!(r.certificate().serial, 2);
        assert_eq!(r.stale_cert_nodes(), vec!["node1".to_string()]);
        r.mark_cert_deployed("node1").unwrap();
        assert!(r.stale_cert_nodes().is_empty());
    }

    #[test]
    fn heartbeats_track_node_health() {
        let mut r = registry();
        assert_eq!(r.node("node1").unwrap().last_heartbeat, None);
        assert!(r.node("node1").unwrap().healthy);
        assert_eq!(r.healthy_nodes(), vec!["node1".to_string()]);

        r.record_heartbeat("node1", SimTime::from_secs(30), false)
            .unwrap();
        let node = r.node("node1").unwrap();
        assert_eq!(node.last_heartbeat, Some(SimTime::from_secs(30)));
        assert!(!node.healthy);
        assert!(r.healthy_nodes().is_empty());

        r.record_heartbeat("node1", SimTime::from_secs(60), true)
            .unwrap();
        assert!(r.node("node1").unwrap().healthy);
        assert!(r.record_heartbeat("ghost", SimTime::ZERO, true).is_err());
    }

    #[test]
    fn remove_node() {
        let mut r = registry();
        r.remove("node1").unwrap();
        assert_eq!(r.resolve("node1.batterylab.dev"), None);
        assert_eq!(
            r.remove("node1").map(|_| ()).unwrap_err(),
            RegistryError::NoSuchNode("node1".into())
        );
    }
}
