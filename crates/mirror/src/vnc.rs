//! VNC / noVNC remote-access stack on the controller.
//!
//! The controller runs a tigervnc server scoped to the mirrored device
//! surface and exposes it through noVNC (VNC-over-WebSocket) so an
//! experimenter or tester needs nothing but a browser (§3.2). We keep the
//! protocol's observable structure: the RFB version/security handshake,
//! framebuffer-update framing, and the WebSocket wrapper with its
//! compression — which is what turns scrcpy's ~50 MB cap into the ~32 MB
//! the paper measured.

/// The RFB protocol version BatteryLab's tigervnc speaks.
pub const RFB_VERSION: &[u8; 12] = b"RFB 003.008\n";

/// noVNC's effective extra compression on the H.264-in-framebuffer stream.
pub const NOVNC_COMPRESSION: f64 = 0.82;

/// Security types offered in the RFB handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RfbSecurity {
    /// No authentication (never offered by BatteryLab).
    None,
    /// VNC password authentication.
    VncAuth,
}

/// Handshake failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VncError {
    /// Peer version string malformed or too old.
    BadVersion(String),
    /// Password rejected.
    AuthFailed,
    /// Session already has a viewer and sharing is off.
    Busy,
    /// No session established.
    NotConnected,
}

impl std::fmt::Display for VncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VncError::BadVersion(v) => write!(f, "bad RFB version {v:?}"),
            VncError::AuthFailed => write!(f, "VNC authentication failed"),
            VncError::Busy => write!(f, "session busy (non-shared viewer connected)"),
            VncError::NotConnected => write!(f, "no VNC session"),
        }
    }
}

impl std::error::Error for VncError {}

/// A VNC server scoped to one mirrored device surface.
pub struct VncServer {
    password: String,
    /// Allow multiple simultaneous viewers (experimenter + tester).
    shared: bool,
    viewers: Vec<ViewerId>,
    next_viewer: u32,
    frames_sent: u64,
    bytes_sent: u64,
}

/// Opaque viewer identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewerId(u32);

impl VncServer {
    /// A server protected by `password`; `shared` allows >1 viewer.
    pub fn new(password: &str, shared: bool) -> Self {
        VncServer {
            password: password.to_string(),
            shared,
            viewers: Vec::new(),
            next_viewer: 1,
            frames_sent: 0,
            bytes_sent: 0,
        }
    }

    /// Run the RFB handshake for a connecting viewer.
    pub fn handshake(
        &mut self,
        client_version: &[u8],
        password: &str,
    ) -> Result<ViewerId, VncError> {
        if client_version != RFB_VERSION {
            return Err(VncError::BadVersion(
                String::from_utf8_lossy(client_version).into_owned(),
            ));
        }
        if password != self.password {
            return Err(VncError::AuthFailed);
        }
        if !self.viewers.is_empty() && !self.shared {
            return Err(VncError::Busy);
        }
        let id = ViewerId(self.next_viewer);
        self.next_viewer += 1;
        self.viewers.push(id);
        Ok(id)
    }

    /// Disconnect a viewer.
    pub fn disconnect(&mut self, viewer: ViewerId) {
        self.viewers.retain(|v| *v != viewer);
    }

    /// Connected viewer count.
    pub fn viewer_count(&self) -> usize {
        self.viewers.len()
    }

    /// Account `payload_len` encoded screen bytes, sent as one RFB
    /// FramebufferUpdate, to every connected viewer. Returns the
    /// on-the-wire size per viewer (after noVNC websocket wrapping +
    /// compression): the length of `websocket_wrap(&framebuffer_update(..))`,
    /// worked out from the header rules without building the frame.
    pub fn send_frame(&mut self, payload_len: usize) -> Result<usize, VncError> {
        if self.viewers.is_empty() {
            return Err(VncError::NotConnected);
        }
        let body_len = novnc_compressed_len(RFB_UPDATE_HEADER_LEN + payload_len);
        let wire = websocket_header_len(body_len) + body_len;
        self.frames_sent += 1;
        self.bytes_sent += wire as u64 * self.viewers.len() as u64;
        Ok(wire)
    }

    /// Total frames pushed.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Total wire bytes pushed to all viewers.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }
}

/// Bytes an RFB FramebufferUpdate carries ahead of its one rect's
/// payload: message header (4), rect header (12), payload length (4).
const RFB_UPDATE_HEADER_LEN: usize = 20;

/// noVNC's compressed size of a `message_len`-byte message.
fn novnc_compressed_len(message_len: usize) -> usize {
    (message_len as f64 * NOVNC_COMPRESSION).ceil() as usize
}

/// WebSocket frame header size for a `body_len`-byte body: the 7-bit
/// length fits below 126; above that a 16-bit or a 64-bit length follows.
fn websocket_header_len(body_len: usize) -> usize {
    if body_len < 126 {
        2
    } else if body_len < 65_536 {
        4
    } else {
        10
    }
}

/// Build an RFB FramebufferUpdate message carrying one encoded rect.
pub fn framebuffer_update(width: u16, height: u16, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(RFB_UPDATE_HEADER_LEN + payload.len());
    buf.push(0); // message-type: FramebufferUpdate
    buf.push(0); // padding
    buf.extend_from_slice(&1u16.to_be_bytes()); // number-of-rectangles
    buf.extend_from_slice(&0u16.to_be_bytes()); // x
    buf.extend_from_slice(&0u16.to_be_bytes()); // y
    buf.extend_from_slice(&width.to_be_bytes());
    buf.extend_from_slice(&height.to_be_bytes());
    buf.extend_from_slice(&7i32.to_be_bytes()); // encoding: Tight(ish) carrying our H.264 payload
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    debug_assert_eq!(buf.len(), RFB_UPDATE_HEADER_LEN);
    buf.extend_from_slice(payload);
    buf
}

/// Wrap a message in a (binary) WebSocket frame as noVNC does, modelling
/// its permessage-deflate with [`NOVNC_COMPRESSION`].
pub fn websocket_wrap(message: &[u8]) -> Vec<u8> {
    let compressed_len = novnc_compressed_len(message.len());
    let header_len = websocket_header_len(compressed_len);
    let mut frame = Vec::with_capacity(header_len + compressed_len);
    frame.push(0x82); // FIN + binary opcode
    match header_len {
        2 => frame.push(compressed_len as u8),
        4 => {
            frame.push(126);
            frame.extend_from_slice(&(compressed_len as u16).to_be_bytes());
        }
        _ => {
            frame.push(127);
            frame.extend_from_slice(&(compressed_len as u64).to_be_bytes());
        }
    }
    frame.resize(header_len + compressed_len, 0xCD); // compressed body stand-in
    frame
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_happy_path() {
        let mut s = VncServer::new("hunter2", true);
        let v = s.handshake(RFB_VERSION, "hunter2").unwrap();
        assert_eq!(s.viewer_count(), 1);
        s.disconnect(v);
        assert_eq!(s.viewer_count(), 0);
    }

    #[test]
    fn wrong_password_rejected() {
        let mut s = VncServer::new("hunter2", true);
        assert_eq!(s.handshake(RFB_VERSION, "wrong"), Err(VncError::AuthFailed));
    }

    #[test]
    fn bad_version_rejected() {
        let mut s = VncServer::new("p", true);
        assert!(matches!(
            s.handshake(b"RFB 003.003\n", "p"),
            Err(VncError::BadVersion(_))
        ));
    }

    #[test]
    fn non_shared_allows_one_viewer() {
        let mut s = VncServer::new("p", false);
        s.handshake(RFB_VERSION, "p").unwrap();
        assert_eq!(s.handshake(RFB_VERSION, "p"), Err(VncError::Busy));
    }

    #[test]
    fn shared_allows_experimenter_plus_tester() {
        let mut s = VncServer::new("p", true);
        s.handshake(RFB_VERSION, "p").unwrap();
        s.handshake(RFB_VERSION, "p").unwrap();
        assert_eq!(s.viewer_count(), 2);
    }

    #[test]
    fn frame_requires_viewer() {
        let mut s = VncServer::new("p", true);
        assert_eq!(s.send_frame(4), Err(VncError::NotConnected));
        s.handshake(RFB_VERSION, "p").unwrap();
        assert!(s.send_frame(4).is_ok());
        assert_eq!(s.frames_sent(), 1);
    }

    #[test]
    fn novnc_compresses() {
        let payload = vec![0u8; 100_000];
        let mut s = VncServer::new("p", true);
        s.handshake(RFB_VERSION, "p").unwrap();
        let wire = s.send_frame(payload.len()).unwrap();
        assert!(wire < payload.len(), "noVNC should shrink the stream");
        assert!(wire > payload.len() / 2, "but not implausibly");
    }

    /// Payload lengths whose compressed message sits either side of the
    /// WebSocket 7-bit/16-bit (125/126) and 16-bit/64-bit (65 535/65 536)
    /// length boundaries, plus a 16 MiB pump, each with its wire size per
    /// viewer. Recorded from the frame-building implementation.
    const PINNED_WIRE: [(usize, usize); 6] = [
        (0, 19),
        (132, 127),
        (133, 130),
        (79_900, 65_539),
        (79_901, 65_546),
        (16 * 1024 * 1024, 13_757_344),
    ];

    #[test]
    fn send_frame_matches_the_built_frame() {
        for (n, _) in PINNED_WIRE {
            let mut s = VncServer::new("p", true);
            s.handshake(RFB_VERSION, "p").unwrap();
            let built = websocket_wrap(&framebuffer_update(1920, 1080, &vec![0; n])).len();
            assert_eq!(s.send_frame(n), Ok(built), "payload {n}");
        }
    }

    #[test]
    fn send_frame_accounting_is_pinned() {
        for (viewers, frames, bytes) in [(0, 0, 0), (1, 6, 13_888_705), (2, 6, 27_777_410)] {
            let mut s = VncServer::new("p", true);
            for _ in 0..viewers {
                s.handshake(RFB_VERSION, "p").unwrap();
            }
            for (n, wire) in PINNED_WIRE {
                let sent = s.send_frame(n);
                if viewers == 0 {
                    assert_eq!(sent, Err(VncError::NotConnected));
                } else {
                    assert_eq!(sent, Ok(wire), "payload {n}");
                }
            }
            assert_eq!(s.frames_sent(), frames, "{viewers} viewers");
            assert_eq!(s.bytes_sent(), bytes, "{viewers} viewers");
        }
    }

    #[test]
    fn framebuffer_update_layout() {
        let msg = framebuffer_update(100, 50, b"xyz");
        assert_eq!(msg[0], 0); // FramebufferUpdate
        assert_eq!(&msg[2..4], &1u16.to_be_bytes()); // one rect
        assert_eq!(msg.len(), 16 + 4 + 3);
    }

    #[test]
    fn framebuffer_update_bytes_are_pinned() {
        assert_eq!(
            framebuffer_update(2, 3, b"ab"),
            b"\0\0\0\x01\0\0\0\0\0\x02\0\x03\0\0\0\x07\0\0\0\x02ab"
        );
    }

    #[test]
    fn websocket_length_encodings() {
        assert_eq!(websocket_wrap(&[0u8; 10])[1], 9); // 10*0.82 ceil = 9 < 126
        let mid = websocket_wrap(&vec![0u8; 1000]);
        assert_eq!(mid[1], 126);
        let big = websocket_wrap(&vec![0u8; 100_000]);
        assert_eq!(big[1], 127);
    }
}
