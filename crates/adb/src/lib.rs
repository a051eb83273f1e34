//! # batterylab-adb
//!
//! A from-scratch Android Debug Bridge implementation: the 24-byte-header
//! wire protocol ([`wire`]), token/signature/public-key authentication
//! ([`auth`]), duplex transports over USB, WiFi and Bluetooth
//! ([`transport`]), the device-side daemon ([`daemon`]) and the host
//! client ([`host`]).
//!
//! §3.3 of the paper turns on transport choice: USB is reliable but powers
//! the device (corrupting measurements), WiFi is clean but occupies the
//! network under test, Bluetooth needs root. All three are first-class
//! here, with the power/root constraints encoded in the types.

#![warn(missing_docs)]

pub mod auth;
pub mod daemon;
pub mod host;
pub mod services;
pub mod transport;
pub mod wire;

pub use auth::{AdbKey, PublicKey};
pub use daemon::{AdbDaemon, DaemonError};
pub use host::{AdbHostClient, AdbLink, HostError};
pub use services::{DeviceServices, MockServices};
pub use transport::{duplex, duplex_with_profile, TransportEnd, TransportError, TransportKind};
pub use wire::{Packet, WireError};

#[cfg(test)]
mod proptests {
    use super::wire::*;
    use proptest::prelude::*;

    fn arb_command() -> impl Strategy<Value = u32> {
        prop::sample::select(vec![A_CNXN, A_AUTH, A_OPEN, A_OKAY, A_WRTE, A_CLSE, A_SYNC])
    }

    proptest! {
        #[test]
        fn encode_decode_round_trip(cmd in arb_command(), a0: u32, a1: u32,
                                    payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
            let p = Packet::new(cmd, a0, a1, payload);
            let mut buf = p.encode();
            let q = Packet::decode(&mut buf).unwrap().unwrap();
            prop_assert_eq!(p, q);
            prop_assert!(buf.is_empty());
        }

        #[test]
        fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let mut buf = bytes;
            // Any result is fine — Ok(None), Ok(Some), or a WireError — as
            // long as it does not panic.
            let _ = Packet::decode(&mut buf);
        }

        #[test]
        fn single_bitflip_is_detected(a0: u32, a1: u32,
                                      payload in proptest::collection::vec(any::<u8>(), 1..128),
                                      flip_bit in 0usize..64) {
            let p = Packet::new(A_WRTE, a0, a1, payload);
            let encoded = p.encode();
            let mut corrupted = encoded.to_vec();
            let bit = flip_bit % (corrupted.len() * 8);
            corrupted[bit / 8] ^= 1 << (bit % 8);
            let mut buf = corrupted.clone();
            match Packet::decode(&mut buf) {
                // Header corruption in args changes arg0/arg1 but can't be
                // detected without magic coverage — decoding may succeed
                // with different args; it must never return the *original*
                // packet unless the flip hit padding-free equality.
                Ok(Some(q)) => prop_assert!(q != p || corrupted == encoded.to_vec()),
                Ok(None) => {} // truncated-looking: acceptable
                Err(_) => {}   // detected: ideal
            }
        }
    }
}
