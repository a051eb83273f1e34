//! Link and path models.
//!
//! A [`LinkProfile`] captures the characteristics the paper's experiments
//! depend on: asymmetric bandwidth, round-trip latency and random loss.
//! Profiles compose: a WiFi hop chained with a VPN tunnel yields the
//! end-to-end path a BatteryLab vantage point sees in §4.3.

/// Characteristics of a network link or end-to-end path.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// Downstream bandwidth, megabits per second.
    pub down_mbps: f64,
    /// Upstream bandwidth, megabits per second.
    pub up_mbps: f64,
    /// Round-trip time, milliseconds.
    pub rtt_ms: f64,
    /// Packet loss probability in `[0, 1)`.
    pub loss: f64,
}

impl LinkProfile {
    /// Construct a profile, validating ranges.
    pub fn new(down_mbps: f64, up_mbps: f64, rtt_ms: f64, loss: f64) -> Self {
        assert!(
            down_mbps > 0.0 && up_mbps > 0.0,
            "bandwidth must be positive"
        );
        assert!(rtt_ms >= 0.0, "rtt must be non-negative");
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        LinkProfile {
            down_mbps,
            up_mbps,
            rtt_ms,
            loss,
        }
    }

    /// A fast local WiFi link, the paper's "our (fast) network conditions".
    pub fn fast_wifi() -> Self {
        LinkProfile::new(90.0, 40.0, 4.0, 0.001)
    }

    /// The campus uplink of the first vantage point (Imperial College).
    pub fn campus_uplink() -> Self {
        LinkProfile::new(150.0, 100.0, 8.0, 0.00005)
    }

    /// A Bluetooth 4.x data channel (used by ADB-over-Bluetooth and the
    /// HID keyboard backend). Narrow but low-enough latency for input.
    pub fn bluetooth() -> Self {
        LinkProfile::new(1.2, 1.2, 35.0, 0.005)
    }

    /// Chain this link with a downstream `next` hop: bandwidth is the
    /// bottleneck, RTTs add, loss composes independently.
    pub fn chain(&self, next: &LinkProfile) -> LinkProfile {
        LinkProfile {
            down_mbps: self.down_mbps.min(next.down_mbps),
            up_mbps: self.up_mbps.min(next.up_mbps),
            rtt_ms: self.rtt_ms + next.rtt_ms,
            loss: 1.0 - (1.0 - self.loss) * (1.0 - next.loss),
        }
    }

    /// Apply a multiplicative bandwidth scale (e.g. VPN crypto/encap
    /// overhead), keeping latency and loss.
    pub fn scaled_bandwidth(&self, factor: f64) -> LinkProfile {
        assert!(factor > 0.0, "scale factor must be positive");
        LinkProfile {
            down_mbps: self.down_mbps * factor,
            up_mbps: self.up_mbps * factor,
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_takes_bottleneck_and_adds_rtt() {
        let wifi = LinkProfile::new(100.0, 50.0, 5.0, 0.01);
        let tunnel = LinkProfile::new(10.0, 8.0, 200.0, 0.02);
        let path = wifi.chain(&tunnel);
        assert_eq!(path.down_mbps, 10.0);
        assert_eq!(path.up_mbps, 8.0);
        assert_eq!(path.rtt_ms, 205.0);
        let expected_loss = 1.0 - 0.99 * 0.98;
        assert!((path.loss - expected_loss).abs() < 1e-12);
    }

    #[test]
    fn chain_is_commutative_on_bandwidth() {
        let a = LinkProfile::new(100.0, 50.0, 5.0, 0.0);
        let b = LinkProfile::new(10.0, 80.0, 20.0, 0.0);
        let ab = a.chain(&b);
        let ba = b.chain(&a);
        assert_eq!(ab.down_mbps, ba.down_mbps);
        assert_eq!(ab.up_mbps, ba.up_mbps);
        assert_eq!(ab.rtt_ms, ba.rtt_ms);
    }

    #[test]
    fn scaled_bandwidth() {
        let l = LinkProfile::fast_wifi().scaled_bandwidth(0.5);
        assert_eq!(l.down_mbps, 45.0);
        assert_eq!(l.rtt_ms, LinkProfile::fast_wifi().rtt_ms);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn rejects_zero_bandwidth() {
        let _ = LinkProfile::new(0.0, 1.0, 1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "loss")]
    fn rejects_certain_loss() {
        let _ = LinkProfile::new(1.0, 1.0, 1.0, 1.0);
    }
}
