//! Transfer-time model.
//!
//! BatteryLab experiments need the *duration* (and radio-activity shape) of
//! HTTP-ish transfers over a path, not a packet-level simulation. We model a
//! TCP flow with slow start and a loss/latency-derived efficiency cap — the
//! standard Mathis-style approximation — which reproduces the behaviour the
//! paper relies on: small objects are latency-bound, large objects are
//! bandwidth-bound, and long fat pipes with loss underperform their
//! nominal bandwidth.

use batterylab_sim::{SimDuration, SimRng};

use crate::link::LinkProfile;

/// Direction of a transfer relative to the device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Server → device (page loads, video segments).
    Down,
    /// Device → server (telemetry, the mirroring stream).
    Up,
}

/// TCP maximum segment size used by the slow-start model, bytes.
const MSS: f64 = 1460.0;
/// Initial congestion window, segments (RFC 6928).
const INIT_CWND: f64 = 10.0;

/// Outcome of a modelled transfer.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TransferOutcome {
    /// Total wall time from request to last byte.
    pub duration: SimDuration,
    /// Bytes moved (echoed from the request).
    pub bytes: u64,
    /// Achieved goodput, megabits per second.
    pub goodput_mbps: f64,
}

/// Deterministic transfer-time calculator over a [`LinkProfile`].
#[derive(Clone, Debug)]
pub struct TransferModel {
    path: LinkProfile,
    streams: u32,
}

impl TransferModel {
    /// Model single-flow transfers over `path`.
    pub fn new(path: LinkProfile) -> Self {
        TransferModel { path, streams: 1 }
    }

    /// Model transfers carried by `streams` parallel TCP connections
    /// (browsers open ~6 per host; speedtests use 8+). Parallelism raises
    /// the loss-limited ceiling roughly linearly.
    pub fn with_streams(path: LinkProfile, streams: u32) -> Self {
        assert!(streams >= 1, "at least one stream");
        TransferModel { path, streams }
    }

    /// The path in effect.
    pub fn path(&self) -> &LinkProfile {
        &self.path
    }

    /// Loss-limited throughput ceiling (Mathis et al.): MSS/(RTT·√loss).
    /// Returns `f64::INFINITY` for loss-free paths.
    pub fn loss_ceiling_mbps(&self) -> f64 {
        if self.path.loss <= 0.0 {
            return f64::INFINITY;
        }
        let rtt_s = (self.path.rtt_ms / 1e3).max(1e-4);
        MSS * 8.0 / 1e6 / (rtt_s * self.path.loss.sqrt())
    }

    /// Effective steady-state throughput in `dir`, Mbps.
    pub fn effective_mbps(&self, dir: Direction) -> f64 {
        let nominal = match dir {
            Direction::Down => self.path.down_mbps,
            Direction::Up => self.path.up_mbps,
        };
        nominal.min(self.loss_ceiling_mbps() * self.streams as f64)
    }

    /// Time to move `bytes` in `dir`, including one connection RTT and
    /// slow start. Deterministic — add jitter via [`Self::transfer_jittered`].
    pub fn transfer(&self, bytes: u64, dir: Direction) -> TransferOutcome {
        let rtt_s = self.path.rtt_ms / 1e3;
        let rate_bps = self.effective_mbps(dir) * 1e6;
        // Slow start: rounds of cwnd, cwnd*2, ... until the window covers
        // the remaining bytes or the pipe is full (cwnd >= BDP).
        let bdp_segments = ((rate_bps * rtt_s) / (MSS * 8.0)).max(1.0);
        let mut remaining = bytes as f64;
        let mut cwnd = INIT_CWND;
        // One RTT for connection establishment / request.
        let mut elapsed_s = rtt_s;
        while remaining > 0.0 {
            if cwnd >= bdp_segments {
                // Pipe full: stream the rest at line rate.
                elapsed_s += remaining * 8.0 / rate_bps;
                remaining = 0.0;
            } else {
                let window_bytes = cwnd * MSS;
                let sent = remaining.min(window_bytes);
                remaining -= sent;
                // Each slow-start round costs one RTT.
                elapsed_s += rtt_s.max(sent * 8.0 / rate_bps);
                cwnd *= 2.0;
            }
        }
        let duration = SimDuration::from_secs_f64(elapsed_s);
        let goodput_mbps = if elapsed_s > 0.0 {
            bytes as f64 * 8.0 / 1e6 / elapsed_s
        } else {
            0.0
        };
        TransferOutcome {
            duration,
            bytes,
            goodput_mbps,
        }
    }

    /// Like [`Self::transfer`] but with multiplicative log-normal jitter on
    /// the duration, representing server think time and cross traffic.
    pub fn transfer_jittered(
        &self,
        bytes: u64,
        dir: Direction,
        rng: &mut SimRng,
        sigma: f64,
    ) -> TransferOutcome {
        let base = self.transfer(bytes, dir);
        let factor = rng.log_normal(1.0, sigma).clamp(0.5, 4.0);
        TransferOutcome {
            duration: base.duration * factor,
            ..base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> TransferModel {
        TransferModel::new(LinkProfile::new(100.0, 50.0, 10.0, 0.0))
    }

    #[test]
    fn small_objects_are_latency_bound() {
        let m = fast();
        let tiny = m.transfer(1_000, Direction::Down);
        // ~1 RTT for connect + negligible serialisation.
        assert!(tiny.duration.as_millis_f64() >= 10.0);
        assert!(tiny.duration.as_millis_f64() < 25.0, "{:?}", tiny.duration);
    }

    #[test]
    fn large_objects_are_bandwidth_bound() {
        let m = fast();
        let big = m.transfer(100_000_000, Direction::Down); // 100 MB
        let ideal_s = 100_000_000.0 * 8.0 / (100.0 * 1e6);
        let got_s = big.duration.as_secs_f64();
        assert!(got_s >= ideal_s);
        assert!(
            got_s < ideal_s * 1.15,
            "slow start overhead too large: {got_s} vs {ideal_s}"
        );
        assert!(big.goodput_mbps > 85.0);
    }

    #[test]
    fn duration_monotonic_in_bytes() {
        let m = fast();
        let mut last = SimDuration::ZERO;
        for &b in &[1_000u64, 10_000, 100_000, 1_000_000, 10_000_000] {
            let d = m.transfer(b, Direction::Down).duration;
            assert!(d >= last, "transfer time must grow with size");
            last = d;
        }
    }

    #[test]
    fn upload_uses_up_bandwidth() {
        let m = fast();
        let down = m.transfer(50_000_000, Direction::Down).duration;
        let up = m.transfer(50_000_000, Direction::Up).duration;
        assert!(up > down, "upstream is half the rate, must take longer");
    }

    #[test]
    fn loss_caps_throughput_on_long_paths() {
        // A lossy, high-latency path like the paper's VPN tunnels.
        let vpn = TransferModel::new(LinkProfile::new(10.0, 10.0, 250.0, 0.01));
        assert!(vpn.loss_ceiling_mbps() < 10.0);
        assert!(vpn.effective_mbps(Direction::Down) < 10.0);
        // Loss-free short path is not capped.
        assert_eq!(fast().effective_mbps(Direction::Down), 100.0);
    }

    #[test]
    fn zero_bytes_costs_one_rtt() {
        let m = fast();
        let d = m.transfer(0, Direction::Down).duration;
        assert!((d.as_millis_f64() - 10.0).abs() < 0.5);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        let m = fast();
        let mut a = SimRng::new(1).derive("net");
        let mut b = SimRng::new(1).derive("net");
        let x = m.transfer_jittered(1_000_000, Direction::Down, &mut a, 0.2);
        let y = m.transfer_jittered(1_000_000, Direction::Down, &mut b, 0.2);
        assert_eq!(x.duration, y.duration);
        let base = m.transfer(1_000_000, Direction::Down).duration;
        assert!(x.duration.as_secs_f64() >= base.as_secs_f64() * 0.5);
        assert!(x.duration.as_secs_f64() <= base.as_secs_f64() * 4.0);
    }
}
