//! VNC / noVNC remote-access stack on the controller.
//!
//! The controller runs a tigervnc server scoped to the mirrored device
//! surface and exposes it through noVNC (VNC-over-WebSocket) so an
//! experimenter or tester needs nothing but a browser (§3.2). We keep the
//! protocol's observable structure: the RFB version/security handshake,
//! framebuffer-update framing, and the WebSocket wrapper with its
//! compression — which is what turns scrcpy's ~50 MB cap into the ~32 MB
//! the paper measured.

use bytes::{BufMut, BytesMut};
use serde::Serialize;

/// The RFB protocol version BatteryLab's tigervnc speaks.
pub const RFB_VERSION: &[u8; 12] = b"RFB 003.008\n";

/// noVNC's effective extra compression on the H.264-in-framebuffer stream.
pub const NOVNC_COMPRESSION: f64 = 0.82;

/// Security types offered in the RFB handshake.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
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
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
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

    /// Frame the encoded screen bytes as one RFB FramebufferUpdate and
    /// account it to every connected viewer. Returns the on-the-wire size
    /// per viewer (after noVNC websocket wrapping + compression).
    pub fn send_frame(&mut self, encoded: &[u8]) -> Result<usize, VncError> {
        if self.viewers.is_empty() {
            return Err(VncError::NotConnected);
        }
        let framed = framebuffer_update(1920, 1080, encoded);
        let wire = websocket_wrap(&framed);
        self.frames_sent += 1;
        self.bytes_sent += wire.len() as u64 * self.viewers.len() as u64;
        Ok(wire.len())
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

/// Build an RFB FramebufferUpdate message carrying one encoded rect.
pub fn framebuffer_update(width: u16, height: u16, payload: &[u8]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(16 + payload.len());
    buf.put_u8(0); // message-type: FramebufferUpdate
    buf.put_u8(0); // padding
    buf.put_u16(1); // number-of-rectangles
    buf.put_u16(0); // x
    buf.put_u16(0); // y
    buf.put_u16(width);
    buf.put_u16(height);
    buf.put_i32(7); // encoding: Tight(ish) carrying our H.264 payload
    buf.put_u32(payload.len() as u32);
    buf.put_slice(payload);
    buf
}

/// Wrap a message in a (binary) WebSocket frame as noVNC does, modelling
/// its permessage-deflate with [`NOVNC_COMPRESSION`].
pub fn websocket_wrap(message: &[u8]) -> Vec<u8> {
    let compressed_len = (message.len() as f64 * NOVNC_COMPRESSION).ceil() as usize;
    let mut frame = Vec::with_capacity(compressed_len + 10);
    frame.push(0x82); // FIN + binary opcode
    if compressed_len < 126 {
        frame.push(compressed_len as u8);
    } else if compressed_len < 65_536 {
        frame.push(126);
        frame.extend_from_slice(&(compressed_len as u16).to_be_bytes());
    } else {
        frame.push(127);
        frame.extend_from_slice(&(compressed_len as u64).to_be_bytes());
    }
    frame.resize(frame.len() + compressed_len, 0xCD); // compressed body stand-in
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
        assert_eq!(s.send_frame(b"data"), Err(VncError::NotConnected));
        s.handshake(RFB_VERSION, "p").unwrap();
        assert!(s.send_frame(b"data").is_ok());
        assert_eq!(s.frames_sent(), 1);
    }

    #[test]
    fn novnc_compresses() {
        let payload = vec![0u8; 100_000];
        let mut s = VncServer::new("p", true);
        s.handshake(RFB_VERSION, "p").unwrap();
        let wire = s.send_frame(&payload).unwrap();
        assert!(wire < payload.len(), "noVNC should shrink the stream");
        assert!(wire > payload.len() / 2, "but not implausibly");
    }

    #[test]
    fn framebuffer_update_layout() {
        let msg = framebuffer_update(100, 50, b"xyz");
        assert_eq!(msg[0], 0); // FramebufferUpdate
        assert_eq!(&msg[2..4], &1u16.to_be_bytes()); // one rect
        assert_eq!(msg.len(), 16 + 4 + 3);
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
