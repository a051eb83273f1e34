//! VPN tunnel emulation (§4.3 of the paper).
//!
//! The paper emulates multiple vantage-point locations by tunnelling the
//! controller's traffic through ProtonVPN exits in five countries
//! (Table 2). This module provides those tunnels: each
//! [`VpnLocation`] carries a path profile calibrated to the paper's
//! SpeedTest measurements, and a [`VpnClient`] lets the controller switch
//! the active tunnel, exactly as the §4.3 automation script does.

use batterylab_faults::{site, FaultInjector, FaultKind};
use batterylab_sim::SimTime;

use crate::link::LinkProfile;

/// The five ProtonVPN exit locations of Table 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VpnLocation {
    /// Johannesburg exit.
    SouthAfrica,
    /// Hong Kong exit.
    China,
    /// Bunkyo (Tokyo) exit.
    Japan,
    /// São Paulo exit.
    Brazil,
    /// Santa Clara exit.
    California,
}

impl VpnLocation {
    /// All locations, in the paper's Table 2 order (sorted by download
    /// bandwidth, slowest first).
    pub const ALL: [VpnLocation; 5] = [
        VpnLocation::SouthAfrica,
        VpnLocation::China,
        VpnLocation::Japan,
        VpnLocation::Brazil,
        VpnLocation::California,
    ];

    /// Human-readable country label used in Table 2.
    pub fn country(self) -> &'static str {
        match self {
            VpnLocation::SouthAfrica => "South Africa",
            VpnLocation::China => "China",
            VpnLocation::Japan => "Japan",
            VpnLocation::Brazil => "Brazil",
            VpnLocation::California => "CA, USA",
        }
    }

    /// Nearest SpeedTest server city and its distance (km) from the VPN
    /// exit, as reported in Table 2.
    pub fn speedtest_server(self) -> (&'static str, f64) {
        match self {
            VpnLocation::SouthAfrica => ("Johannesburg", 3.21),
            VpnLocation::China => ("Hong Kong", 4.86),
            VpnLocation::Japan => ("Bunkyo", 2.21),
            VpnLocation::Brazil => ("Sao Paulo", 8.84),
            VpnLocation::California => ("Santa Clara", 7.99),
        }
    }

    /// The tunnel path profile from the vantage point through this exit,
    /// calibrated so a speedtest through it reproduces Table 2:
    /// download/upload in Mbps and RTT in ms.
    pub fn tunnel_profile(self) -> LinkProfile {
        // (down, up, rtt) targets from Table 2; loss grows mildly with RTT
        // as these are long international paths.
        let (d, u, l) = match self {
            VpnLocation::SouthAfrica => (6.26, 9.77, 222.04),
            VpnLocation::China => (7.64, 7.77, 286.32),
            VpnLocation::Japan => (9.68, 7.76, 239.38),
            VpnLocation::Brazil => (9.75, 8.82, 235.05),
            VpnLocation::California => (10.63, 14.87, 215.16),
        };
        LinkProfile::new(d, u, l, 0.00001)
    }
}

impl std::fmt::Display for VpnLocation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.country())
    }
}

/// Errors from the VPN client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VpnError {
    /// Asked to disconnect while no tunnel was active.
    NotConnected,
    /// Asked to connect while a tunnel was already active.
    AlreadyConnected(VpnLocation),
    /// The transport reset mid-handshake (injected by the platform fault
    /// plan); no tunnel came up.
    TunnelReset(VpnLocation),
}

impl std::fmt::Display for VpnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VpnError::NotConnected => write!(f, "no VPN tunnel active"),
            VpnError::AlreadyConnected(loc) => {
                write!(f, "VPN tunnel already active via {loc}")
            }
            VpnError::TunnelReset(loc) => {
                write!(f, "VPN transport reset while connecting via {loc}")
            }
        }
    }
}

impl std::error::Error for VpnError {}

/// The controller-side VPN client (the paper uses a ProtonVPN basic
/// subscription configured at the Raspberry Pi).
///
/// Holds the underlying uplink; [`VpnClient::effective_path`] yields the
/// path experiments actually see — the raw uplink when disconnected, or the
/// uplink chained with the tunnel (and crypto/encap overhead) when
/// connected.
#[derive(Clone, Debug)]
pub struct VpnClient {
    uplink: LinkProfile,
    active: Option<VpnLocation>,
    /// Multiplicative bandwidth cost of tunnel encapsulation.
    overhead: f64,
    connects: u32,
    /// Platform fault plan: `TransportReset` specs at `fault_site` abort
    /// a connect attempt.
    faults: FaultInjector,
    fault_site: String,
}

impl VpnClient {
    /// Client over the vantage point's physical uplink.
    pub fn new(uplink: LinkProfile) -> Self {
        VpnClient {
            uplink,
            active: None,
            overhead: 0.97,
            connects: 0,
            faults: FaultInjector::disabled(),
            fault_site: site::NET_VPN.to_string(),
        }
    }

    /// Consult `injector` for `TransportReset` faults under `site` on
    /// every timed connect.
    pub fn set_faults(&mut self, injector: &FaultInjector, site: &str) {
        self.faults = injector.clone();
        self.fault_site = site.to_string();
    }

    /// Bring up a tunnel through `location` (fault-unaware; equivalent to
    /// [`Self::connect_at`] at time zero with no plan armed).
    pub fn connect(&mut self, location: VpnLocation) -> Result<(), VpnError> {
        if let Some(active) = self.active {
            return Err(VpnError::AlreadyConnected(active));
        }
        self.active = Some(location);
        self.connects += 1;
        Ok(())
    }

    /// Bring up a tunnel through `location` at sim instant `now`,
    /// consulting the platform fault plan: an armed `TransportReset`
    /// aborts the handshake and leaves the client disconnected.
    pub fn connect_at(&mut self, location: VpnLocation, now: SimTime) -> Result<(), VpnError> {
        if let Some(active) = self.active {
            return Err(VpnError::AlreadyConnected(active));
        }
        if self
            .faults
            .check(&self.fault_site, FaultKind::TransportReset, now)
        {
            return Err(VpnError::TunnelReset(location));
        }
        self.active = Some(location);
        self.connects += 1;
        Ok(())
    }

    /// Tear down the active tunnel.
    pub fn disconnect(&mut self) -> Result<VpnLocation, VpnError> {
        self.active.take().ok_or(VpnError::NotConnected)
    }

    /// Switch tunnels (disconnect-if-needed + connect), the operation the
    /// §4.3 automation script performs between location runs.
    pub fn switch(&mut self, location: VpnLocation) {
        self.active = None;
        self.connect(location).expect("connect after clearing");
    }

    /// Currently active exit, if any.
    pub fn active(&self) -> Option<VpnLocation> {
        self.active
    }

    /// Number of successful connects (diagnostics).
    pub fn connects(&self) -> u32 {
        self.connects
    }

    /// The end-to-end path in effect for device traffic.
    pub fn effective_path(&self) -> LinkProfile {
        match self.active {
            None => self.uplink,
            Some(loc) => self
                .uplink
                .chain(&loc.tunnel_profile())
                .scaled_bandwidth(self.overhead),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_ordering_by_download() {
        // Table 2 sorts slowest-download first; verify the profiles agree.
        let downs: Vec<f64> = VpnLocation::ALL
            .iter()
            .map(|l| l.tunnel_profile().down_mbps)
            .collect();
        for w in downs.windows(2) {
            assert!(w[0] < w[1], "Table 2 order is ascending download");
        }
    }

    #[test]
    fn california_fastest_china_highest_latency() {
        assert_eq!(
            VpnLocation::ALL
                .iter()
                .max_by(|a, b| {
                    a.tunnel_profile()
                        .down_mbps
                        .partial_cmp(&b.tunnel_profile().down_mbps)
                        .unwrap()
                })
                .copied()
                .unwrap(),
            VpnLocation::California
        );
        assert_eq!(
            VpnLocation::ALL
                .iter()
                .max_by(|a, b| {
                    a.tunnel_profile()
                        .rtt_ms
                        .partial_cmp(&b.tunnel_profile().rtt_ms)
                        .unwrap()
                })
                .copied()
                .unwrap(),
            VpnLocation::China
        );
    }

    #[test]
    fn client_connect_disconnect_cycle() {
        let mut c = VpnClient::new(LinkProfile::campus_uplink());
        assert!(c.active().is_none());
        c.connect(VpnLocation::Japan).unwrap();
        assert_eq!(c.active(), Some(VpnLocation::Japan));
        assert_eq!(
            c.connect(VpnLocation::Brazil),
            Err(VpnError::AlreadyConnected(VpnLocation::Japan))
        );
        assert_eq!(c.disconnect().unwrap(), VpnLocation::Japan);
        assert_eq!(c.disconnect(), Err(VpnError::NotConnected));
    }

    #[test]
    fn effective_path_reflects_tunnel() {
        let mut c = VpnClient::new(LinkProfile::campus_uplink());
        let bare = c.effective_path();
        assert_eq!(bare.rtt_ms, LinkProfile::campus_uplink().rtt_ms);
        c.connect(VpnLocation::SouthAfrica).unwrap();
        let tunnelled = c.effective_path();
        assert!(tunnelled.rtt_ms > 220.0);
        assert!(
            tunnelled.down_mbps < 6.26,
            "tunnel bottleneck plus overhead"
        );
        assert!(tunnelled.down_mbps > 5.5);
    }

    #[test]
    fn switch_replaces_tunnel() {
        let mut c = VpnClient::new(LinkProfile::campus_uplink());
        c.switch(VpnLocation::China);
        c.switch(VpnLocation::Brazil);
        assert_eq!(c.active(), Some(VpnLocation::Brazil));
        assert_eq!(c.connects(), 2);
    }

    #[test]
    fn transport_reset_fault_aborts_connect() {
        use batterylab_faults::FaultPlan;
        let mut c = VpnClient::new(LinkProfile::campus_uplink());
        let plan = FaultPlan::new().next_n(site::NET_VPN, FaultKind::TransportReset, 1);
        c.set_faults(&FaultInjector::new(&plan, 3), site::NET_VPN);
        assert_eq!(
            c.connect_at(VpnLocation::Japan, SimTime::ZERO),
            Err(VpnError::TunnelReset(VpnLocation::Japan))
        );
        assert!(c.active().is_none());
        assert_eq!(c.connects(), 0);
        // The retry (plan exhausted) succeeds.
        c.connect_at(VpnLocation::Japan, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(c.active(), Some(VpnLocation::Japan));
    }

    #[test]
    fn display_labels_match_table2() {
        assert_eq!(VpnLocation::California.to_string(), "CA, USA");
        assert_eq!(
            VpnLocation::SouthAfrica.speedtest_server().0,
            "Johannesburg"
        );
    }
}
