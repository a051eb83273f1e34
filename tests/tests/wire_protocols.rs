//! Fuzz-flavoured property tests of every wire protocol in the stack:
//! ADB packets reassembled from arbitrary fragmentation, SSH frames, VNC
//! websocket wrapping — the incremental-decoder paths that only break
//! under hostile byte boundaries.

use batterylab::adb::wire::{checksum, Packet, A_CLSE, A_CNXN, A_OKAY, A_OPEN, A_WRTE};
use batterylab::mirror::{framebuffer_update, websocket_wrap};
use batterylab::server::ssh::{decode_frame, encode_frame};
use proptest::prelude::*;

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        prop::sample::select(vec![A_CNXN, A_OPEN, A_OKAY, A_WRTE, A_CLSE]),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(|(cmd, a0, a1, payload)| Packet::new(cmd, a0, a1, payload))
}

proptest! {
    /// A stream of packets, chopped at arbitrary byte boundaries, decodes
    /// to exactly the original sequence.
    #[test]
    fn adb_reassembles_any_fragmentation(
        packets in proptest::collection::vec(arb_packet(), 1..6),
        cuts in proptest::collection::vec(1usize..64, 0..32),
    ) {
        let mut wire = Vec::new();
        for p in &packets {
            wire.extend_from_slice(&p.encode());
        }
        // Feed the decoder in fragments sized by `cuts` (cycled).
        let mut rx = Vec::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut cut_idx = 0;
        while offset < wire.len() {
            let step = if cuts.is_empty() {
                wire.len()
            } else {
                cuts[cut_idx % cuts.len()]
            };
            cut_idx += 1;
            let end = (offset + step).min(wire.len());
            rx.extend_from_slice(&wire[offset..end]);
            offset = end;
            while let Some(p) = Packet::decode(&mut rx).unwrap() {
                decoded.push(p);
            }
        }
        prop_assert_eq!(decoded, packets);
        prop_assert!(rx.is_empty(), "no residue");
    }

    /// Checksum detects any single corrupted payload byte.
    #[test]
    fn adb_checksum_catches_payload_corruption(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        victim in any::<prop::sample::Index>(),
        delta in 1u8..=255,
    ) {
        let p = Packet::new(A_WRTE, 0, 0, payload.clone());
        let mut wire = p.encode();
        let idx = 24 + victim.index(payload.len());
        wire[idx] = wire[idx].wrapping_add(delta);
        let mut buf = wire;
        // Either checksum error, or — if the sum happens to collide
        // (wrapping add of a multiple of 256 across bytes can't happen for
        // a single byte) — never the original packet.
        match Packet::decode(&mut buf) {
            Err(_) => {}
            Ok(Some(q)) => prop_assert_ne!(q, p),
            Ok(None) => {}
        }
    }

    /// SSH frames survive concatenation and arbitrary split points.
    #[test]
    fn ssh_frames_reassemble(payloads in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..512), 1..8)) {
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&encode_frame(p));
        }
        let mut buf = wire;
        let mut decoded = Vec::new();
        while let Some(f) = decode_frame(&mut buf).unwrap() {
            decoded.push(f);
        }
        prop_assert_eq!(decoded, payloads);
    }

    /// The VNC framebuffer header always carries the payload length, and
    /// websocket wrapping always produces a parseable length field.
    #[test]
    fn vnc_framing_lengths(payload in proptest::collection::vec(any::<u8>(), 0..100_000)) {
        let fb = framebuffer_update(1080, 1920, &payload);
        prop_assert_eq!(fb.len(), 16 + 4 + payload.len());
        let declared = u32::from_be_bytes([fb[16], fb[17], fb[18], fb[19]]) as usize;
        prop_assert_eq!(declared, payload.len());

        let ws = websocket_wrap(&payload);
        prop_assert_eq!(ws[0], 0x82);
        let body_len = match ws[1] {
            126 => u16::from_be_bytes([ws[2], ws[3]]) as usize,
            127 => u64::from_be_bytes([ws[2], ws[3], ws[4], ws[5], ws[6], ws[7], ws[8], ws[9]]) as usize,
            n => n as usize,
        };
        let header = match ws[1] {
            126 => 4,
            127 => 10,
            _ => 2,
        };
        prop_assert_eq!(ws.len(), header + body_len);
    }

    /// The ADB byte-sum is order-independent and additive — the properties
    /// the daemon's streaming writer relies on when chunking.
    #[test]
    fn adb_checksum_is_additive(a in proptest::collection::vec(any::<u8>(), 0..256),
                                b in proptest::collection::vec(any::<u8>(), 0..256)) {
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(
            checksum(&joined),
            checksum(&a).wrapping_add(checksum(&b))
        );
    }
}
