//! A device-mirroring session: scrcpy capture on the device, VNC/noVNC
//! fan-out on the controller, byte accounting for the §4.2 system-
//! performance numbers.

use batterylab_device::AndroidDevice;
use batterylab_faults::{site, FaultInjector, FaultKind};
use batterylab_sim::SimTime;
use batterylab_telemetry::{Counter, Histogram, Registry};

use crate::encoder::{EncoderConfig, EncoderError, ScrcpyCapture};
use crate::vnc::{ViewerId, VncError, VncServer, RFB_VERSION};

/// Errors from session orchestration.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// Encoder-side failure.
    Encoder(EncoderError),
    /// VNC-side failure.
    Vnc(VncError),
}

impl From<EncoderError> for SessionError {
    fn from(e: EncoderError) -> Self {
        SessionError::Encoder(e)
    }
}

impl From<VncError> for SessionError {
    fn from(e: VncError) -> Self {
        SessionError::Vnc(e)
    }
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::Encoder(e) => write!(f, "encoder: {e}"),
            SessionError::Vnc(e) => write!(f, "vnc: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Pre-resolved telemetry handles (`mirror.*` metrics), unregistered
/// until [`MirrorSession::set_telemetry`] binds them.
#[derive(Default)]
struct MirrorTelemetry {
    registry: Registry,
    sessions_started: Counter,
    sessions_stopped: Counter,
    viewers_attached: Counter,
    auth_failures: Counter,
    encoded_bytes: Counter,
    upload_bytes: Counter,
    encoder_stalls: Counter,
    pump_bytes: Histogram,
}

impl MirrorTelemetry {
    fn bind(registry: &Registry) -> Self {
        MirrorTelemetry {
            sessions_started: registry.counter("mirror.sessions_started"),
            sessions_stopped: registry.counter("mirror.sessions_stopped"),
            viewers_attached: registry.counter("mirror.viewers_attached"),
            auth_failures: registry.counter("mirror.auth_failures"),
            encoded_bytes: registry.counter("mirror.encoded_bytes"),
            upload_bytes: registry.counter("mirror.upload_bytes"),
            encoder_stalls: registry.counter("mirror.encoder_stalls"),
            pump_bytes: registry.histogram("mirror.pump_bytes"),
            registry: registry.clone(),
        }
    }
}

/// A full mirroring session for one device.
pub struct MirrorSession {
    capture: ScrcpyCapture,
    vnc: VncServer,
    device: AndroidDevice,
    /// Wire bytes pushed to viewers (the vantage point's upload traffic).
    uploaded: u64,
    started_at: Option<SimTime>,
    telemetry: MirrorTelemetry,
    /// Platform fault plan: `EncoderStall` specs at `fault_site` stall
    /// the encoder for one pump interval; the session degrades its frame
    /// rate instead of dropping.
    faults: FaultInjector,
    fault_site: String,
}

/// Graceful-degradation floor: the session halves its frame rate on each
/// encoder stall but never below this (a barely-watchable mirror beats a
/// dropped session).
const MIN_DEGRADED_FPS: f64 = 7.5;

impl MirrorSession {
    /// Create a (stopped) session for `device`; viewers authenticate with
    /// `password`. Sessions are shared: experimenter + tester (§3).
    pub fn new(device: AndroidDevice, config: EncoderConfig, password: &str) -> Self {
        MirrorSession {
            capture: ScrcpyCapture::new(device.clone(), config),
            vnc: VncServer::new(password, true),
            device,
            uploaded: 0,
            started_at: None,
            telemetry: MirrorTelemetry::default(),
            faults: FaultInjector::disabled(),
            fault_site: site::MIRROR_ENCODER.to_string(),
        }
    }

    /// Consult `injector` for `EncoderStall` faults under `site` on every
    /// pump.
    pub fn set_faults(&mut self, injector: &FaultInjector, site: &str) {
        self.faults = injector.clone();
        self.fault_site = site.to_string();
    }

    /// Current capture frame rate (drops under injected encoder stalls).
    pub fn current_fps(&self) -> f64 {
        self.capture.config().fps
    }

    /// Bind telemetry to a shared registry (`mirror.*` metrics).
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = MirrorTelemetry::bind(registry);
    }

    /// Start capturing (arms the device-side encoder).
    pub fn start(&mut self) -> Result<(), SessionError> {
        self.capture.start()?;
        let now = self.device.with_sim(|s| s.now());
        self.started_at = Some(now);
        self.telemetry.sessions_started.inc();
        self.telemetry.registry.clock().advance_to(now.as_micros());
        self.telemetry
            .registry
            .event("mirror.session_started", self.device.serial());
        Ok(())
    }

    /// Stop capturing. Returns the raw encoded bytes produced.
    pub fn stop(&mut self) -> Result<u64, SessionError> {
        let total = self.capture.stop()?;
        self.started_at = None;
        self.telemetry.sessions_stopped.inc();
        self.telemetry
            .registry
            .event("mirror.session_stopped", self.device.serial());
        Ok(total)
    }

    /// Whether the session is live.
    pub fn is_active(&self) -> bool {
        self.started_at.is_some()
    }

    /// Connect a viewer (noVNC browser tab).
    pub fn attach_viewer(&mut self, password: &str) -> Result<ViewerId, SessionError> {
        match self.vnc.handshake(RFB_VERSION, password) {
            Ok(id) => {
                self.telemetry.viewers_attached.inc();
                Ok(id)
            }
            Err(e) => {
                if matches!(e, VncError::AuthFailed) {
                    self.telemetry.auth_failures.inc();
                }
                Err(e.into())
            }
        }
    }

    /// Disconnect a viewer.
    pub fn detach_viewer(&mut self, viewer: ViewerId) {
        self.vnc.disconnect(viewer);
    }

    /// Number of connected viewers.
    pub fn viewer_count(&self) -> usize {
        self.vnc.viewer_count()
    }

    /// Pump encoded bytes up to the device's current instant and push them
    /// to viewers. Call periodically while a workload runs. Returns the
    /// raw encoder bytes moved this pump.
    pub fn pump(&mut self) -> Result<u64, SessionError> {
        let now = self.device.with_sim(|s| s.now());
        if self
            .faults
            .check(&self.fault_site, FaultKind::EncoderStall, now)
        {
            // Degradation rule: a stall drops frame rate, never the
            // session. The stalled interval produces no bytes.
            self.capture.discard_until(now)?;
            self.telemetry.encoder_stalls.inc();
            let fps = self.capture.config().fps;
            if fps > MIN_DEGRADED_FPS {
                self.capture.throttle(0.5);
                self.telemetry.registry.clock().advance_to(now.as_micros());
                self.telemetry.registry.event(
                    "mirror.degraded",
                    format!(
                        "{} encoder stall: {:.1} fps -> {:.1} fps",
                        self.device.serial(),
                        fps,
                        self.capture.config().fps
                    ),
                );
            }
            return Ok(0);
        }
        let produced = self.capture.produce_until(now)?;
        self.telemetry.registry.clock().advance_to(now.as_micros());
        self.telemetry.encoded_bytes.add(produced);
        self.telemetry.pump_bytes.record(produced);
        if produced > 0 && self.vnc.viewer_count() > 0 {
            let before = self.vnc.bytes_sent();
            // One frame batch per pump, capped at 16 MiB; VNC framing +
            // noVNC compression, sized without building the bytes.
            self.vnc
                .send_frame((produced as usize).min(16 * 1024 * 1024))?;
            let wire = self.vnc.bytes_sent() - before;
            self.uploaded += wire;
            self.telemetry.upload_bytes.add(wire);
        }
        Ok(produced)
    }

    /// The earliest device instant the session still reads: its next
    /// pump reads the frame-change trace from here.
    pub fn read_from(&self) -> SimTime {
        self.capture.produced_until()
    }

    /// Raw encoder bytes since session start.
    pub fn encoded_bytes(&self) -> u64 {
        self.capture.total_bytes()
    }

    /// Wire bytes uploaded to viewers (post noVNC compression).
    pub fn uploaded_bytes(&self) -> u64 {
        self.uploaded
    }

    /// Controller CPU load contribution of this session at frame-change
    /// level `change` (0–1): stream handling + VNC re-framing + websocket
    /// compression scale with how much screen content moves.
    pub fn controller_load(change: f64) -> f64 {
        (0.31 + 0.54 * change.clamp(0.0, 1.0)).min(1.0)
    }

    /// The mirrored device.
    pub fn device(&self) -> &AndroidDevice {
        &self.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::{SimDuration, SimRng};

    fn session() -> (AndroidDevice, MirrorSession) {
        let d = boot_j7_duo(&SimRng::new(3), "mirror-dev");
        let s = MirrorSession::new(d.clone(), EncoderConfig::default(), "blab");
        (d, s)
    }

    #[test]
    fn full_session_lifecycle() {
        let (d, mut s) = session();
        s.start().unwrap();
        assert!(s.is_active());
        let viewer = s.attach_viewer("blab").unwrap();
        d.with_sim(|sim| {
            sim.set_screen(true);
            sim.play_video(SimDuration::from_secs(30));
        });
        let produced = s.pump().unwrap();
        assert!(produced > 0);
        assert!(s.uploaded_bytes() > 0);
        // noVNC compression: wire < raw + framing.
        assert!(s.uploaded_bytes() < produced + 1024);
        s.detach_viewer(viewer);
        let total = s.stop().unwrap();
        assert!(total >= produced);
        assert!(!s.is_active());
    }

    #[test]
    fn wrong_viewer_password() {
        let (_, mut s) = session();
        assert!(matches!(
            s.attach_viewer("nope"),
            Err(SessionError::Vnc(VncError::AuthFailed))
        ));
    }

    #[test]
    fn pump_without_viewers_still_encodes() {
        let (d, mut s) = session();
        s.start().unwrap();
        d.with_sim(|sim| {
            sim.set_screen(true);
            sim.play_video(SimDuration::from_secs(5));
        });
        let produced = s.pump().unwrap();
        assert!(produced > 0);
        assert_eq!(s.uploaded_bytes(), 0, "no viewer, nothing on the wire");
    }

    #[test]
    fn controller_load_scales_with_change() {
        let idle = MirrorSession::controller_load(0.05);
        let busy = MirrorSession::controller_load(0.8);
        assert!(busy > idle + 0.3);
        assert!(busy <= 1.0);
        assert!(MirrorSession::controller_load(5.0) <= 1.0);
    }

    #[test]
    fn telemetry_accounts_for_the_stream() {
        let registry = Registry::new();
        let d = boot_j7_duo(&SimRng::new(4), "mirror-tel");
        let mut s = MirrorSession::new(d.clone(), EncoderConfig::default(), "blab");
        s.set_telemetry(&registry);
        s.start().unwrap();
        s.attach_viewer("blab").unwrap();
        assert!(s.attach_viewer("wrong").is_err());
        d.with_sim(|sim| {
            sim.set_screen(true);
            sim.play_video(SimDuration::from_secs(10));
        });
        s.pump().unwrap();
        s.stop().unwrap();
        let report = registry.snapshot();
        assert_eq!(report.counter("mirror.sessions_started"), 1);
        assert_eq!(report.counter("mirror.sessions_stopped"), 1);
        assert_eq!(report.counter("mirror.viewers_attached"), 1);
        assert_eq!(report.counter("mirror.auth_failures"), 1);
        assert!(report.counter("mirror.encoded_bytes") > 0);
        assert!(report.counter("mirror.upload_bytes") > 0);
        assert_eq!(report.counter("mirror.upload_bytes"), s.uploaded_bytes());
        assert!(report
            .events
            .iter()
            .any(|e| e.label == "mirror.session_started"));
    }

    #[test]
    fn encoder_stall_degrades_frame_rate_but_keeps_session() {
        use batterylab_faults::FaultPlan;
        let registry = Registry::new();
        let d = boot_j7_duo(&SimRng::new(9), "mirror-stall");
        let mut s = MirrorSession::new(d.clone(), EncoderConfig::default(), "blab");
        s.set_telemetry(&registry);
        let plan = FaultPlan::new().next_n(site::MIRROR_ENCODER, FaultKind::EncoderStall, 2);
        s.set_faults(&FaultInjector::new(&plan, 5), site::MIRROR_ENCODER);
        s.start().unwrap();
        assert_eq!(s.current_fps(), 60.0);
        d.with_sim(|sim| {
            sim.set_screen(true);
            sim.play_video(SimDuration::from_secs(5));
        });
        // Two stalled pumps: no bytes, frame rate halves each time, but
        // the session never drops.
        assert_eq!(s.pump().unwrap(), 0);
        assert_eq!(s.current_fps(), 30.0);
        d.with_sim(|sim| sim.play_video(SimDuration::from_secs(5)));
        assert_eq!(s.pump().unwrap(), 0);
        assert_eq!(s.current_fps(), 15.0);
        assert!(s.is_active());
        // The plan is exhausted: the next pump produces at the reduced rate.
        d.with_sim(|sim| sim.play_video(SimDuration::from_secs(5)));
        let produced = s.pump().unwrap();
        assert!(produced > 0);
        let report = registry.snapshot();
        assert_eq!(report.counter("mirror.encoder_stalls"), 2);
        assert_eq!(
            report
                .events
                .iter()
                .filter(|e| e.label == "mirror.degraded")
                .count(),
            2
        );
    }

    /// Two pumps, one small and one past the 16 MiB frame cap, with 0, 1
    /// and 2 viewers: the upload is the capped frame's wire size times the
    /// viewers. Recorded from the frame-building implementation.
    #[test]
    fn pump_accounting_is_pinned() {
        let config = EncoderConfig {
            bitrate_bps: 8_000_000.0,
            fps: 60.0,
        };
        for (viewers, uploaded) in [(0, 0), (1, 14_575_213), (2, 29_150_426)] {
            let registry = Registry::new();
            let d = boot_j7_duo(&SimRng::new(5), "mirror-pin");
            let mut s = MirrorSession::new(d.clone(), config, "blab");
            s.set_telemetry(&registry);
            s.start().unwrap();
            for _ in 0..viewers {
                s.attach_viewer("blab").unwrap();
            }
            d.with_sim(|sim| {
                sim.set_screen(true);
                sim.play_video(SimDuration::from_secs(1));
            });
            assert_eq!(s.pump().unwrap(), 997_369);
            d.with_sim(|sim| sim.play_video(SimDuration::from_secs(30)));
            assert_eq!(s.pump().unwrap(), 28_554_814, "past the 16 MiB cap");
            assert_eq!(s.uploaded_bytes(), uploaded, "{viewers} viewers");
            let report = registry.snapshot();
            assert_eq!(report.counter("mirror.upload_bytes"), uploaded);
            assert_eq!(report.counter("mirror.encoded_bytes"), 29_552_183);
            let pumps = report.histogram("mirror.pump_bytes").unwrap();
            assert_eq!(
                (pumps.count, pumps.sum, pumps.min, pumps.max),
                (2, 29_552_183, 997_369, 28_554_814)
            );
        }
    }

    #[test]
    fn experimenter_and_tester_can_share() {
        let (_, mut s) = session();
        s.start().unwrap();
        s.attach_viewer("blab").unwrap();
        s.attach_viewer("blab").unwrap();
        assert_eq!(s.viewer_count(), 2);
    }
}
