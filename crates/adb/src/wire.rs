//! ADB wire protocol framing.
//!
//! Every ADB message is a 24-byte little-endian header optionally followed
//! by a payload:
//!
//! ```text
//! struct message {
//!     command     u32   // command identifier
//!     arg0        u32   // first argument
//!     arg1        u32   // second argument
//!     data_length u32   // payload length
//!     data_check  u32   // byte-sum of the payload
//!     magic       u32   // command ^ 0xffffffff
//! }
//! ```
//!
//! This module encodes/decodes that framing exactly (including the check
//! that `magic` matches and the payload byte-sum verifies), following the
//! smoltcp school: parse defensively, never panic on wire input.

use std::borrow::Cow;

/// `CNXN` — connection handshake.
pub const A_CNXN: u32 = 0x4e58_4e43;
/// `AUTH` — authentication exchange.
pub const A_AUTH: u32 = 0x4854_5541;
/// `OPEN` — open a stream to a service.
pub const A_OPEN: u32 = 0x4e45_504f;
/// `OKAY` — stream ready / ack.
pub const A_OKAY: u32 = 0x5941_4b4f;
/// `WRTE` — stream payload.
pub const A_WRTE: u32 = 0x4554_5257;
/// `CLSE` — stream close.
pub const A_CLSE: u32 = 0x4553_4c43;
/// `SYNC` — legacy sync (unused by modern stacks but part of the protocol).
pub const A_SYNC: u32 = 0x434e_5953;

/// Protocol version exchanged in `CNXN`.
pub const ADB_VERSION: u32 = 0x0100_0000;
/// Maximum payload either side accepts, exchanged in `CNXN`.
pub const MAX_PAYLOAD: u32 = 256 * 1024;

/// AUTH subtype: device → host challenge token.
pub const AUTH_TOKEN: u32 = 1;
/// AUTH subtype: host → device signed token.
pub const AUTH_SIGNATURE: u32 = 2;
/// AUTH subtype: host → device public key (first contact).
pub const AUTH_RSAPUBLICKEY: u32 = 3;

/// Size of the fixed header.
pub const HEADER_LEN: usize = 24;

/// Framing/validation errors. These indicate a corrupt or hostile peer,
/// never a recoverable condition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// `magic` was not `command ^ 0xffffffff`.
    BadMagic {
        /// Received command word.
        command: u32,
        /// Received magic word.
        magic: u32,
    },
    /// Unknown command word.
    UnknownCommand(u32),
    /// Payload byte-sum mismatch.
    BadChecksum {
        /// Checksum declared in the header.
        expected: u32,
        /// Checksum computed over the payload.
        actual: u32,
    },
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { command, magic } => {
                write!(f, "bad magic {magic:#x} for command {command:#x}")
            }
            WireError::UnknownCommand(c) => write!(f, "unknown command {c:#x}"),
            WireError::BadChecksum { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: header {expected:#x}, payload {actual:#x}"
                )
            }
            WireError::Oversized(n) => write!(f, "payload of {n} bytes exceeds MAX_PAYLOAD"),
        }
    }
}

impl std::error::Error for WireError {}

/// One ADB message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Command word (one of the `A_*` constants).
    pub command: u32,
    /// First argument (meaning depends on command).
    pub arg0: u32,
    /// Second argument.
    pub arg1: u32,
    /// Payload.
    pub payload: Vec<u8>,
}

/// ADB's "checksum": the wrapping byte-sum of the payload.
pub fn checksum(payload: &[u8]) -> u32 {
    payload
        .iter()
        .fold(0u32, |acc, &b| acc.wrapping_add(b as u32))
}

fn known_command(c: u32) -> bool {
    matches!(
        c,
        A_CNXN | A_AUTH | A_OPEN | A_OKAY | A_WRTE | A_CLSE | A_SYNC
    )
}

/// Append one frame (header + `payload`) to `out`.
///
/// # Panics
///
/// If `payload` exceeds [`MAX_PAYLOAD`], as [`Packet::new`] does.
pub fn encode_frame(out: &mut Vec<u8>, command: u32, arg0: u32, arg1: u32, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_PAYLOAD as usize,
        "payload exceeds MAX_PAYLOAD"
    );
    out.reserve(HEADER_LEN + payload.len());
    for word in [
        command,
        arg0,
        arg1,
        payload.len() as u32,
        checksum(payload),
        command ^ 0xffff_ffff,
    ] {
        out.extend_from_slice(&word.to_le_bytes());
    }
    out.extend_from_slice(payload);
}

impl Packet {
    /// Build a packet.
    pub fn new(command: u32, arg0: u32, arg1: u32, payload: impl Into<Vec<u8>>) -> Self {
        let payload = payload.into();
        assert!(
            payload.len() <= MAX_PAYLOAD as usize,
            "payload exceeds MAX_PAYLOAD"
        );
        Packet {
            command,
            arg0,
            arg1,
            payload,
        }
    }

    /// Payload as UTF-8 without a trailing NUL if present — handy for
    /// the ASCII bodies of CNXN/OPEN. Borrows the payload unless it is
    /// invalid UTF-8, which is replaced lossily.
    pub fn text(&self) -> Cow<'_, str> {
        let raw: &[u8] = match self.payload.split_last() {
            Some((0, rest)) => rest,
            _ => &self.payload,
        };
        String::from_utf8_lossy(raw)
    }

    /// Serialise to fresh wire bytes (tests and one-off frames; the host
    /// and daemon encode through [`encode_frame`] into reused buffers).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload.len());
        encode_frame(&mut out, self.command, self.arg0, self.arg1, &self.payload);
        out
    }

    /// Try to decode one packet from the front of `buf`.
    ///
    /// Returns `Ok(None)` when more bytes are needed (partial frame) and
    /// a header error without consuming anything; a whole frame, even one
    /// whose checksum fails, is consumed from `buf`.
    pub fn decode(buf: &mut Vec<u8>) -> Result<Option<Packet>, WireError> {
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        // Peek the header without consuming.
        let word = |i: usize| u32::from_le_bytes([buf[i], buf[i + 1], buf[i + 2], buf[i + 3]]);
        let command = word(0);
        let arg0 = word(4);
        let arg1 = word(8);
        let data_length = word(12);
        let data_check = word(16);
        let magic = word(20);

        if magic != command ^ 0xffff_ffff {
            return Err(WireError::BadMagic { command, magic });
        }
        if !known_command(command) {
            return Err(WireError::UnknownCommand(command));
        }
        if data_length > MAX_PAYLOAD {
            return Err(WireError::Oversized(data_length));
        }
        let total = HEADER_LEN + data_length as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let payload = buf[HEADER_LEN..total].to_vec();
        buf.drain(..total);
        let actual = checksum(&payload);
        if actual != data_check {
            return Err(WireError::BadChecksum {
                expected: data_check,
                actual,
            });
        }
        Ok(Some(Packet {
            command,
            arg0,
            arg1,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Six little-endian header words, as a peer would put them on the wire.
    fn header(words: &[u32; 6]) -> Vec<u8> {
        words.iter().flat_map(|w| w.to_le_bytes()).collect()
    }

    #[test]
    fn command_words_are_ascii() {
        assert_eq!(&A_CNXN.to_le_bytes(), b"CNXN");
        assert_eq!(&A_AUTH.to_le_bytes(), b"AUTH");
        assert_eq!(&A_OPEN.to_le_bytes(), b"OPEN");
        assert_eq!(&A_OKAY.to_le_bytes(), b"OKAY");
        assert_eq!(&A_WRTE.to_le_bytes(), b"WRTE");
        assert_eq!(&A_CLSE.to_le_bytes(), b"CLSE");
        assert_eq!(&A_SYNC.to_le_bytes(), b"SYNC");
    }

    #[test]
    fn round_trip() {
        let p = Packet::new(A_WRTE, 7, 9, &b"hello adb"[..]);
        let mut buf = p.encode();
        let q = Packet::decode(&mut buf).unwrap().unwrap();
        assert_eq!(p, q);
        assert!(buf.is_empty());
    }

    #[test]
    fn encode_layout_is_pinned() {
        assert_eq!(
            Packet::new(A_OPEN, 1, 0, b"shell:ls\0").encode(),
            b"OPEN\x01\0\0\0\0\0\0\0\x09\0\0\0\x31\x03\0\0\xb0\xaf\xba\xb1shell:ls\0"
        );
    }

    #[test]
    fn encode_frame_appends() {
        let a = Packet::new(A_OKAY, 1, 2, Vec::new());
        let b = Packet::new(A_WRTE, 1, 2, &b"data"[..]);
        let mut out = a.encode();
        encode_frame(&mut out, b.command, b.arg0, b.arg1, &b.payload);
        assert_eq!(out, [a.encode(), b.encode()].concat());
    }

    #[test]
    fn text_borrows_valid_utf8() {
        let p = Packet::new(A_OPEN, 0, 0, &b"shell:id\0"[..]);
        assert!(matches!(p.text(), Cow::Borrowed("shell:id")));
        let q = Packet::new(A_OPEN, 0, 0, &b"bad\xff\0"[..]);
        assert_eq!(q.text(), "bad\u{fffd}");
    }

    #[test]
    fn errors_consume_only_whole_frames() {
        let wire = Packet::new(A_WRTE, 0, 0, &b"payload"[..]).encode();
        // A header error leaves the buffer as it was.
        let mut bad_magic = wire.clone();
        bad_magic[20] ^= 0xff;
        let before = bad_magic.clone();
        assert!(Packet::decode(&mut bad_magic).is_err());
        assert_eq!(bad_magic, before);
        // A checksum error consumes its frame, so the next one decodes.
        let mut corrupt = wire.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        corrupt.extend_from_slice(&wire);
        assert!(matches!(
            Packet::decode(&mut corrupt),
            Err(WireError::BadChecksum { .. })
        ));
        assert_eq!(corrupt, wire);
    }

    #[test]
    fn partial_frames_wait_for_more() {
        let p = Packet::new(A_OPEN, 1, 0, &b"shell:ls"[..]);
        let encoded = p.encode();
        for cut in [0, 5, HEADER_LEN - 1, HEADER_LEN, encoded.len() - 1] {
            let mut buf = encoded[..cut].to_vec();
            assert_eq!(Packet::decode(&mut buf), Ok(None), "cut at {cut}");
            assert_eq!(buf.len(), cut, "partial decode must not consume");
        }
    }

    #[test]
    fn two_packets_back_to_back() {
        let a = Packet::new(A_OKAY, 1, 2, Vec::new());
        let b = Packet::new(A_WRTE, 1, 2, &b"data"[..]);
        let mut buf = Vec::new();
        buf.extend_from_slice(&a.encode());
        buf.extend_from_slice(&b.encode());
        assert_eq!(Packet::decode(&mut buf).unwrap().unwrap(), a);
        assert_eq!(Packet::decode(&mut buf).unwrap().unwrap(), b);
        assert_eq!(Packet::decode(&mut buf), Ok(None));
    }

    #[test]
    fn bad_magic_rejected() {
        let p = Packet::new(A_WRTE, 0, 0, &b"x"[..]);
        let mut bytes = p.encode();
        bytes[20] ^= 0xff; // corrupt magic
        let err = Packet::decode(&mut bytes).unwrap_err();
        assert!(matches!(err, WireError::BadMagic { .. }));
    }

    #[test]
    fn corrupt_payload_rejected() {
        let p = Packet::new(A_WRTE, 0, 0, &b"payload"[..]);
        let mut bytes = p.encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let err = Packet::decode(&mut bytes).unwrap_err();
        assert!(matches!(err, WireError::BadChecksum { .. }));
    }

    #[test]
    fn unknown_command_rejected() {
        let cmd = 0xdead_beefu32;
        let mut raw = header(&[cmd, 0, 0, 0, 0, cmd ^ 0xffff_ffff]);
        assert_eq!(
            Packet::decode(&mut raw).unwrap_err(),
            WireError::UnknownCommand(cmd)
        );
    }

    #[test]
    fn oversized_rejected_before_buffering() {
        let mut raw = header(&[A_WRTE, 0, 0, MAX_PAYLOAD + 1, 0, A_WRTE ^ 0xffff_ffff]);
        assert_eq!(
            Packet::decode(&mut raw).unwrap_err(),
            WireError::Oversized(MAX_PAYLOAD + 1)
        );
    }

    #[test]
    fn text_strips_trailing_nul() {
        let p = Packet::new(A_OPEN, 0, 0, &b"shell:id\0"[..]);
        assert_eq!(p.text(), "shell:id");
        let q = Packet::new(A_OPEN, 0, 0, &b"no-nul"[..]);
        assert_eq!(q.text(), "no-nul");
    }

    #[test]
    fn checksum_is_byte_sum() {
        assert_eq!(checksum(b""), 0);
        assert_eq!(checksum(b"\x01\x02\x03"), 6);
        assert_eq!(checksum(&[0xff; 4]), 0xff * 4);
    }
}
