//! Byte transports carrying ADB traffic.
//!
//! §3.3 of the paper: ADB commands can travel over USB, WiFi or Bluetooth,
//! and the choice matters —
//!
//! * **USB** is the most reliable but *powers the device*, corrupting any
//!   concurrent battery measurement;
//! * **WiFi** leaves the battery path clean but occupies the network under
//!   test;
//! * **Bluetooth** works alongside cellular experiments but requires a
//!   rooted device.
//!
//! A [`TransportEnd`] is one side of an in-memory duplex pipe with the
//! metadata each medium carries (kind, link profile, byte counters,
//! connected state). Higher layers read those to apply timing and energy
//! costs.

use std::collections::VecDeque;
use std::sync::Arc;

use batterylab_net::LinkProfile;
use parking_lot::Mutex;
use serde::Serialize;

/// The medium a transport runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize)]
pub enum TransportKind {
    /// USB cable to the controller hub (powers the device!).
    Usb,
    /// TCP over the vantage point's WiFi AP.
    WiFi,
    /// RFCOMM over Bluetooth (requires a rooted device for adbd).
    Bluetooth,
}

impl TransportKind {
    /// Whether this medium delivers bus power to the device — the §3.3
    /// interference that forbids USB automation during measurements.
    pub fn powers_device(self) -> bool {
        matches!(self, TransportKind::Usb)
    }

    /// Representative link characteristics of the medium.
    pub fn default_profile(self) -> LinkProfile {
        match self {
            // USB 2.0 high-speed, effectively instant for control traffic.
            TransportKind::Usb => LinkProfile::new(280.0, 280.0, 0.5, 0.0),
            TransportKind::WiFi => LinkProfile::fast_wifi(),
            TransportKind::Bluetooth => LinkProfile::bluetooth(),
        }
    }
}

/// Transport failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer (or the USB hub port) went away.
    Disconnected,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "transport disconnected"),
        }
    }
}

impl std::error::Error for TransportError {}

struct Shared {
    a_to_b: VecDeque<u8>,
    b_to_a: VecDeque<u8>,
    connected: bool,
    a_sent: u64,
    b_sent: u64,
}

/// One end of a duplex transport.
pub struct TransportEnd {
    shared: Arc<Mutex<Shared>>,
    kind: TransportKind,
    profile: LinkProfile,
    is_a: bool,
}

/// Create a connected pair of transport ends over `kind`'s default link.
pub fn duplex(kind: TransportKind) -> (TransportEnd, TransportEnd) {
    duplex_with_profile(kind, kind.default_profile())
}

/// Create a connected pair with an explicit link profile (e.g. WiFi behind
/// a VPN tunnel).
pub fn duplex_with_profile(
    kind: TransportKind,
    profile: LinkProfile,
) -> (TransportEnd, TransportEnd) {
    let shared = Arc::new(Mutex::new(Shared {
        a_to_b: VecDeque::new(),
        b_to_a: VecDeque::new(),
        connected: true,
        a_sent: 0,
        b_sent: 0,
    }));
    (
        TransportEnd {
            shared: Arc::clone(&shared),
            kind,
            profile,
            is_a: true,
        },
        TransportEnd {
            shared,
            kind,
            profile,
            is_a: false,
        },
    )
}

impl TransportEnd {
    /// The medium.
    pub fn kind(&self) -> TransportKind {
        self.kind
    }

    /// Link characteristics of this transport.
    pub fn profile(&self) -> &LinkProfile {
        &self.profile
    }

    /// Queue bytes toward the peer.
    pub fn send(&self, data: &[u8]) -> Result<(), TransportError> {
        let mut s = self.shared.lock();
        if !s.connected {
            return Err(TransportError::Disconnected);
        }
        if self.is_a {
            s.a_to_b.extend(data);
            s.a_sent += data.len() as u64;
        } else {
            s.b_to_a.extend(data);
            s.b_sent += data.len() as u64;
        }
        Ok(())
    }

    /// Drain everything the peer has sent so far. Empty vec when nothing
    /// is pending. Receiving still works after disconnection (bytes in
    /// flight are delivered), matching socket semantics.
    pub fn recv(&self) -> Vec<u8> {
        let mut s = self.shared.lock();
        let q = if self.is_a {
            &mut s.b_to_a
        } else {
            &mut s.a_to_b
        };
        q.drain(..).collect()
    }

    /// Bytes this end has sent.
    pub fn bytes_sent(&self) -> u64 {
        let s = self.shared.lock();
        if self.is_a {
            s.a_sent
        } else {
            s.b_sent
        }
    }

    /// Bytes the peer has sent (delivered or in flight).
    pub fn bytes_received_total(&self) -> u64 {
        let s = self.shared.lock();
        if self.is_a {
            s.b_sent
        } else {
            s.a_sent
        }
    }

    /// Whether the pipe is up.
    pub fn is_connected(&self) -> bool {
        self.shared.lock().connected
    }

    /// Tear the pipe down (USB port powered off, WiFi dropped…). Both
    /// ends observe it.
    pub fn disconnect(&self) {
        self.shared.lock().connected = false;
    }

    /// Re-establish the pipe (USB port re-powered). In-flight queues were
    /// preserved; real reconnects re-handshake at the protocol layer.
    pub fn reconnect(&self) {
        self.shared.lock().connected = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_flow_both_ways() {
        let (a, b) = duplex(TransportKind::WiFi);
        a.send(b"ping").unwrap();
        assert_eq!(b.recv(), b"ping");
        b.send(b"pong").unwrap();
        assert_eq!(a.recv(), b"pong");
        assert_eq!(a.recv(), Vec::<u8>::new());
    }

    #[test]
    fn counters_track_traffic() {
        let (a, b) = duplex(TransportKind::Usb);
        a.send(&[0u8; 100]).unwrap();
        a.send(&[0u8; 50]).unwrap();
        b.send(&[0u8; 7]).unwrap();
        assert_eq!(a.bytes_sent(), 150);
        assert_eq!(b.bytes_sent(), 7);
        assert_eq!(a.bytes_received_total(), 7);
        assert_eq!(b.bytes_received_total(), 150);
    }

    #[test]
    fn disconnect_fails_sends_only() {
        let (a, b) = duplex(TransportKind::WiFi);
        a.send(b"in flight").unwrap();
        b.disconnect();
        assert_eq!(a.send(b"more"), Err(TransportError::Disconnected));
        // In-flight data still drains.
        assert_eq!(b.recv(), b"in flight");
        assert!(!a.is_connected());
        a.reconnect();
        assert!(a.send(b"back").is_ok());
    }

    #[test]
    fn only_usb_powers_device() {
        assert!(TransportKind::Usb.powers_device());
        assert!(!TransportKind::WiFi.powers_device());
        assert!(!TransportKind::Bluetooth.powers_device());
    }

    #[test]
    fn medium_profiles_rank_sensibly() {
        let usb = TransportKind::Usb.default_profile();
        let wifi = TransportKind::WiFi.default_profile();
        let bt = TransportKind::Bluetooth.default_profile();
        assert!(usb.down_mbps > wifi.down_mbps);
        assert!(wifi.down_mbps > bt.down_mbps);
        assert!(bt.rtt_ms > wifi.rtt_ms);
    }
}
