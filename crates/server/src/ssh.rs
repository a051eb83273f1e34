//! The SSH channel between access server and controllers (§3.1, §3.4).
//!
//! "The access server communicates with the vantage points via SSH. New
//! members grant SSH access from the server to the controller via public
//! key and IP white-listing."
//!
//! We keep SSH's observable structure — host-key verification against a
//! `known_hosts` store, public-key client authentication against the
//! node's `authorized_keys`, and a framed exec request/response channel
//! (length-prefixed, like SSH's binary packet protocol) — over the
//! simulated network.

use std::collections::BTreeMap;

use batterylab_faults::{site, FaultInjector, FaultKind};
use batterylab_sim::SimTime;
use batterylab_telemetry::{Counter, Histogram, Registry};

/// SSH faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SshError {
    /// Server host key did not match `known_hosts` (possible MITM).
    HostKeyMismatch {
        /// What the server presented.
        presented: String,
        /// What we had pinned.
        pinned: String,
    },
    /// Client key not in `authorized_keys`.
    AuthFailed(String),
    /// Malformed frame on the wire.
    Framing(String),
    /// Remote command failed.
    ExitNonZero {
        /// Exit status.
        code: i32,
        /// Stderr-ish output.
        stderr: String,
    },
    /// The session dropped mid-exchange (injected by the platform fault
    /// plan); reconnect to continue.
    SessionDropped,
}

impl std::fmt::Display for SshError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SshError::HostKeyMismatch { presented, pinned } => {
                write!(f, "host key {presented} does not match pinned {pinned}")
            }
            SshError::AuthFailed(fp) => write!(f, "key {fp} not authorized"),
            SshError::Framing(m) => write!(f, "framing: {m}"),
            SshError::ExitNonZero { code, stderr } => {
                write!(f, "remote command exited {code}: {stderr}")
            }
            SshError::SessionDropped => write!(f, "ssh session dropped"),
        }
    }
}

impl std::error::Error for SshError {}

/// Length-prefixed frame encode (the channel's packet protocol).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Decode one frame from the front of `buf`; `None` when incomplete.
pub fn decode_frame(buf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, SshError> {
    if buf.len() < 4 {
        return Ok(None);
    }
    let len = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > 16 * 1024 * 1024 {
        return Err(SshError::Framing(format!("frame of {len} bytes")));
    }
    if buf.len() < 4 + len {
        return Ok(None);
    }
    let frame = buf[4..4 + len].to_vec();
    buf.drain(..4 + len);
    Ok(Some(frame))
}

/// What a controller does with an exec request.
pub trait CommandHandler {
    /// Run `cmd`; `Err` becomes a non-zero exit.
    fn handle(&mut self, cmd: &str) -> Result<String, String>;
}

impl<F: FnMut(&str) -> Result<String, String>> CommandHandler for F {
    fn handle(&mut self, cmd: &str) -> Result<String, String> {
        self(cmd)
    }
}

/// Pre-resolved telemetry handles for the SSH substrate (`ssh.*`),
/// unregistered until [`SshServer::set_telemetry`] binds them.
#[derive(Default)]
struct SshTelemetry {
    sessions: Counter,
    auth_failures: Counter,
    host_key_mismatches: Counter,
    execs: Counter,
    exec_failures: Counter,
    session_drops: Counter,
    exec_bytes: Histogram,
}

impl SshTelemetry {
    fn bind(registry: &Registry) -> Self {
        SshTelemetry {
            sessions: registry.counter("ssh.sessions"),
            auth_failures: registry.counter("ssh.auth_failures"),
            host_key_mismatches: registry.counter("ssh.host_key_mismatches"),
            execs: registry.counter("ssh.execs"),
            exec_failures: registry.counter("ssh.exec_failures"),
            session_drops: registry.counter("ssh.session_drops"),
            exec_bytes: registry.histogram("ssh.exec_bytes"),
        }
    }
}

/// The sshd on a controller.
pub struct SshServer {
    host_key: String,
    authorized_keys: Vec<String>,
    sessions_served: u32,
    telemetry: SshTelemetry,
    /// Platform fault plan: `SshSessionDrop` specs at `fault_site` tear
    /// down the exec channel mid-exchange.
    faults: FaultInjector,
    fault_site: String,
    /// sshd has no clock of its own; callers with sim time push it here.
    fault_clock: SimTime,
}

impl SshServer {
    /// An sshd presenting `host_key`, trusting `authorized_keys`.
    pub fn new(host_key: &str, authorized_keys: Vec<String>) -> Self {
        SshServer {
            host_key: host_key.to_string(),
            authorized_keys,
            sessions_served: 0,
            telemetry: SshTelemetry::default(),
            faults: FaultInjector::disabled(),
            fault_site: site::SSH_SESSION.to_string(),
            fault_clock: SimTime::ZERO,
        }
    }

    /// Consult `injector` for `SshSessionDrop` faults under `site` on
    /// every exec.
    pub fn set_faults(&mut self, injector: &FaultInjector, site: &str) {
        self.faults = injector.clone();
        self.fault_site = site.to_string();
    }

    /// Advance the fault clock to `now` (monotone; sshd itself has no sim
    /// clock, so the owner feeds it vantage-point time).
    pub fn sync_fault_clock(&mut self, now: SimTime) {
        self.fault_clock = self.fault_clock.max(now);
    }

    /// Bind telemetry to a shared registry (`ssh.*` metrics).
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = SshTelemetry::bind(registry);
    }

    /// The host key presented during key exchange.
    pub fn host_key(&self) -> &str {
        &self.host_key
    }

    /// Grant another key (§3.4 enrolment step).
    pub fn authorize_key(&mut self, fingerprint: &str) {
        if !self.authorized_keys.iter().any(|k| k == fingerprint) {
            self.authorized_keys.push(fingerprint.to_string());
        }
    }

    /// Sessions accepted so far.
    pub fn sessions_served(&self) -> u32 {
        self.sessions_served
    }

    fn authenticate(&mut self, client_key: &str) -> Result<(), SshError> {
        if self.authorized_keys.iter().any(|k| k == client_key) {
            self.sessions_served += 1;
            self.telemetry.sessions.inc();
            Ok(())
        } else {
            self.telemetry.auth_failures.inc();
            Err(SshError::AuthFailed(client_key.to_string()))
        }
    }
}

/// The access server's SSH client with its pinned `known_hosts`.
pub struct SshClient {
    key_fingerprint: String,
    known_hosts: BTreeMap<String, String>,
}

impl SshClient {
    /// A client identified by `key_fingerprint`.
    pub fn new(key_fingerprint: &str) -> Self {
        SshClient {
            key_fingerprint: key_fingerprint.to_string(),
            known_hosts: BTreeMap::new(),
        }
    }

    /// Pin a host key for `host` (learned at enrolment).
    pub fn pin_host(&mut self, host: &str, host_key: &str) {
        self.known_hosts
            .insert(host.to_string(), host_key.to_string());
    }

    /// Open a session to `host` via `server` and return it.
    pub fn connect<'s>(
        &self,
        host: &str,
        server: &'s mut SshServer,
    ) -> Result<SshSession<'s>, SshError> {
        if let Some(pinned) = self.known_hosts.get(host) {
            if pinned != &server.host_key {
                server.telemetry.host_key_mismatches.inc();
                return Err(SshError::HostKeyMismatch {
                    presented: server.host_key.clone(),
                    pinned: pinned.clone(),
                });
            }
        }
        server.authenticate(&self.key_fingerprint)?;
        Ok(SshSession { server })
    }
}

/// An authenticated exec channel.
pub struct SshSession<'s> {
    server: &'s mut SshServer,
}

impl SshSession<'_> {
    /// Execute `cmd` on the remote handler, round-tripping through the
    /// framed packet protocol (so framing bugs would surface here).
    pub fn exec<H: CommandHandler>(
        &mut self,
        handler: &mut H,
        cmd: &str,
    ) -> Result<String, SshError> {
        let now = self.server.fault_clock;
        if self
            .server
            .faults
            .check(&self.server.fault_site, FaultKind::SshSessionDrop, now)
        {
            self.server.telemetry.session_drops.inc();
            return Err(SshError::SessionDropped);
        }
        self.server.telemetry.execs.inc();
        // Client → server.
        let mut rx = encode_frame(cmd.as_bytes());
        let wire_len = rx.len();
        let frame = decode_frame(&mut rx)?
            .ok_or_else(|| SshError::Framing("truncated request".to_string()))?;
        let request =
            String::from_utf8(frame).map_err(|_| SshError::Framing("non-utf8".to_string()))?;
        // Server executes.
        let (code, body) = match handler.handle(&request) {
            Ok(out) => (0i32, out),
            Err(err) => (1i32, err),
        };
        // Server → client: status frame + body frame.
        let mut reply = encode_frame(&code.to_be_bytes());
        reply.extend_from_slice(&encode_frame(body.as_bytes()));
        let status_frame = decode_frame(&mut reply)?
            .ok_or_else(|| SshError::Framing("missing status".to_string()))?;
        let body_frame = decode_frame(&mut reply)?
            .ok_or_else(|| SshError::Framing("missing body".to_string()))?;
        let code = i32::from_be_bytes(
            status_frame
                .as_slice()
                .try_into()
                .map_err(|_| SshError::Framing("bad status".to_string()))?,
        );
        let body = String::from_utf8_lossy(&body_frame).into_owned();
        self.server
            .telemetry
            .exec_bytes
            .record((wire_len + body.len()) as u64);
        if code != 0 {
            self.server.telemetry.exec_failures.inc();
            return Err(SshError::ExitNonZero { code, stderr: body });
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = encode_frame(b"hello");
        assert_eq!(decode_frame(&mut buf).unwrap().unwrap(), b"hello");
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn frame_layout_is_pinned() {
        assert_eq!(encode_frame(b"hi"), b"\0\0\0\x02hi");
    }

    #[test]
    fn partial_frame_waits() {
        let wire = encode_frame(b"abcdef");
        let mut buf = wire[..5].to_vec();
        assert_eq!(decode_frame(&mut buf).unwrap(), None);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut buf = (64u32 * 1024 * 1024).to_be_bytes().to_vec();
        assert!(matches!(decode_frame(&mut buf), Err(SshError::Framing(_))));
    }

    #[test]
    fn pubkey_auth_gate() {
        let mut server = SshServer::new("hk:node1", vec!["fp:server".to_string()]);
        let good = SshClient::new("fp:server");
        let bad = SshClient::new("fp:intruder");
        assert!(good.connect("node1", &mut server).is_ok());
        assert!(matches!(
            bad.connect("node1", &mut server).map(|_| ()),
            Err(SshError::AuthFailed(_))
        ));
        assert_eq!(server.sessions_served(), 1);
    }

    #[test]
    fn host_key_pinning_detects_mitm() {
        let mut server = SshServer::new("hk:evil", vec!["fp:server".to_string()]);
        let mut client = SshClient::new("fp:server");
        client.pin_host("node1", "hk:node1");
        assert!(matches!(
            client.connect("node1", &mut server).map(|_| ()),
            Err(SshError::HostKeyMismatch { .. })
        ));
    }

    #[test]
    fn exec_round_trip_and_errors() {
        let mut server = SshServer::new("hk:n", vec!["fp:s".to_string()]);
        let client = SshClient::new("fp:s");
        let mut session = client.connect("n", &mut server).unwrap();
        let mut handler = |cmd: &str| -> Result<String, String> {
            match cmd {
                "uptime" => Ok("up 3 days".to_string()),
                other => Err(format!("sh: {other}: not found")),
            }
        };
        assert_eq!(session.exec(&mut handler, "uptime").unwrap(), "up 3 days");
        assert!(matches!(
            session.exec(&mut handler, "bogus").unwrap_err(),
            SshError::ExitNonZero { code: 1, .. }
        ));
    }

    #[test]
    fn telemetry_counts_sessions_and_failures() {
        let registry = Registry::new();
        let mut server = SshServer::new("hk:n", vec!["fp:s".to_string()]);
        server.set_telemetry(&registry);
        let good = SshClient::new("fp:s");
        let bad = SshClient::new("fp:intruder");
        let mut mitm = SshClient::new("fp:s");
        mitm.pin_host("n", "hk:other");
        assert!(bad.connect("n", &mut server).is_err());
        assert!(mitm.connect("n", &mut server).is_err());
        let mut session = good.connect("n", &mut server).unwrap();
        let mut handler = |cmd: &str| -> Result<String, String> {
            if cmd == "ok" {
                Ok("fine".to_string())
            } else {
                Err("nope".to_string())
            }
        };
        session.exec(&mut handler, "ok").unwrap();
        let _ = session.exec(&mut handler, "bad");
        let report = registry.snapshot();
        assert_eq!(report.counter("ssh.sessions"), 1);
        assert_eq!(report.counter("ssh.auth_failures"), 1);
        assert_eq!(report.counter("ssh.host_key_mismatches"), 1);
        assert_eq!(report.counter("ssh.execs"), 2);
        assert_eq!(report.counter("ssh.exec_failures"), 1);
        assert_eq!(report.histogram("ssh.exec_bytes").unwrap().count, 2);
    }

    #[test]
    fn injected_session_drop_fails_one_exec() {
        use batterylab_faults::FaultPlan;
        let registry = Registry::new();
        let mut server = SshServer::new("hk:n", vec!["fp:s".to_string()]);
        server.set_telemetry(&registry);
        let plan = FaultPlan::new().next_n(site::SSH_SESSION, FaultKind::SshSessionDrop, 1);
        server.set_faults(&FaultInjector::new(&plan, 11), site::SSH_SESSION);
        server.sync_fault_clock(SimTime::from_secs(5));
        let client = SshClient::new("fp:s");
        let mut session = client.connect("n", &mut server).unwrap();
        let mut handler = |_: &str| -> Result<String, String> { Ok("ok".to_string()) };
        assert_eq!(
            session.exec(&mut handler, "uptime").unwrap_err(),
            SshError::SessionDropped
        );
        // The retried exec (plan exhausted) goes through.
        assert_eq!(session.exec(&mut handler, "uptime").unwrap(), "ok");
        let report = registry.snapshot();
        assert_eq!(report.counter("ssh.session_drops"), 1);
        assert_eq!(report.counter("ssh.execs"), 1, "dropped exec not counted");
    }

    #[test]
    fn authorize_key_is_idempotent() {
        let mut server = SshServer::new("hk", vec![]);
        server.authorize_key("fp:a");
        server.authorize_key("fp:a");
        let client = SshClient::new("fp:a");
        assert!(client.connect("h", &mut server).is_ok());
    }
}
