//! scrcpy-style screen capture + H.264 encoder model.
//!
//! scrcpy runs a server on the device (over ADB) that captures the screen
//! at up to 60 fps and H.264-encodes it under a rate cap — the paper
//! configures 1 Mbps, noting this bounds a ~7-minute test at ≈50 MB,
//! with the observed 32 MB explained by content-dependent encoder output
//! and noVNC's extra compression.
//!
//! The encoder's two observable effects are modelled and measured, not
//! hardcoded: device CPU/power cost (in `batterylab-device`, driven by the
//! frame-change trace) and output bitrate (here, also driven by the
//! frame-change trace).

use batterylab_device::AndroidDevice;
use batterylab_sim::SimTime;
use serde::Serialize;

/// Encoder configuration (scrcpy command-line equivalents).
#[derive(Clone, Copy, Debug, Serialize)]
pub struct EncoderConfig {
    /// Rate-control cap, bits per second. The paper uses 1 Mbps.
    pub bitrate_bps: f64,
    /// Capture rate, frames per second.
    pub fps: f64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        EncoderConfig {
            bitrate_bps: 1_000_000.0,
            fps: 60.0,
        }
    }
}

/// Errors starting a capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EncoderError {
    /// Device API level below 21 (§3.2: mirroring needs Android ≥ 5.0).
    UnsupportedDevice,
    /// Capture already running.
    AlreadyRunning,
    /// No capture running.
    NotRunning,
}

impl std::fmt::Display for EncoderError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncoderError::UnsupportedDevice => {
                write!(f, "device does not support mirroring (needs API >= 21)")
            }
            EncoderError::AlreadyRunning => write!(f, "capture already running"),
            EncoderError::NotRunning => write!(f, "no capture running"),
        }
    }
}

impl std::error::Error for EncoderError {}

/// A running (or stopped) scrcpy capture bound to a device.
pub struct ScrcpyCapture {
    device: AndroidDevice,
    config: EncoderConfig,
    started_at: Option<SimTime>,
    /// Cursor for incremental byte production.
    produced_until: SimTime,
    total_bytes: u64,
}

impl ScrcpyCapture {
    /// Bind a capture to `device` (does not start it).
    pub fn new(device: AndroidDevice, config: EncoderConfig) -> Self {
        ScrcpyCapture {
            device,
            config,
            started_at: None,
            produced_until: SimTime::ZERO,
            total_bytes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> EncoderConfig {
        self.config
    }

    /// Whether capture is running.
    pub fn is_running(&self) -> bool {
        self.started_at.is_some()
    }

    /// Total encoded bytes produced so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Start capturing: arms the device encoder (which begins costing
    /// power/CPU) from the device's current instant.
    pub fn start(&mut self) -> Result<(), EncoderError> {
        if self.is_running() {
            return Err(EncoderError::AlreadyRunning);
        }
        let ok = self.device.with_sim(|sim| sim.start_mirroring());
        if !ok {
            return Err(EncoderError::UnsupportedDevice);
        }
        let now = self.device.with_sim(|sim| sim.now());
        self.started_at = Some(now);
        self.produced_until = now;
        Ok(())
    }

    /// Stop capturing and disarm the device encoder. Returns total bytes.
    pub fn stop(&mut self) -> Result<u64, EncoderError> {
        if !self.is_running() {
            return Err(EncoderError::NotRunning);
        }
        // Produce any remaining bytes up to the device clock.
        let now = self.device.with_sim(|sim| sim.now());
        let _ = self.produce_until(now);
        self.device.with_sim(|sim| sim.stop_mirroring());
        self.started_at = None;
        Ok(self.total_bytes)
    }

    /// Throttle the capture by `factor`: frame rate and rate cap scale
    /// together, as scrcpy's rate control follows the frame clock. The
    /// mirror session uses this for graceful degradation under encoder
    /// stalls — fewer frames, fewer bytes, session intact.
    pub fn throttle(&mut self, factor: f64) {
        let factor = factor.clamp(0.01, 1.0);
        self.config.fps *= factor;
        self.config.bitrate_bps *= factor;
    }

    /// Discard the un-produced interval up to `until` without emitting
    /// bytes (an encoder stall ate those frames).
    pub fn discard_until(&mut self, until: SimTime) -> Result<(), EncoderError> {
        if !self.is_running() {
            return Err(EncoderError::NotRunning);
        }
        if until > self.produced_until {
            self.produced_until = until;
        }
        Ok(())
    }

    /// Encoded bytes generated between the last call and `until`, based on
    /// the device's frame-change trace: a static screen emits key-frame
    /// heartbeats only; a busy screen pushes the rate cap.
    pub fn produce_until(&mut self, until: SimTime) -> Result<u64, EncoderError> {
        if !self.is_running() {
            return Err(EncoderError::NotRunning);
        }
        if until <= self.produced_until {
            return Ok(0);
        }
        let (from, to) = (self.produced_until, until);
        let mean_change = self
            .device
            .with_sim(|sim| sim.frame_change_trace().mean(from, to));
        // Rate-control model: utilisation of the cap grows with frame
        // change and saturates; an all-static screen still emits ~5 % for
        // keyframes/heartbeat plus protocol overhead.
        let utilisation = (0.15 + 1.0 * mean_change).min(1.0);
        let secs = (to - from).as_secs_f64();
        let bytes = (self.config.bitrate_bps * utilisation * secs / 8.0) as u64;
        self.produced_until = until;
        self.total_bytes += bytes;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_device::{boot_j7_duo, AndroidDevice, DeviceSpec};
    use batterylab_sim::{SimDuration, SimRng};

    fn device() -> AndroidDevice {
        boot_j7_duo(&SimRng::new(7), "ser1")
    }

    #[test]
    fn start_arms_device_encoder() {
        let d = device();
        let mut cap = ScrcpyCapture::new(d.clone(), EncoderConfig::default());
        assert!(!d.with_sim(|s| s.is_mirroring()));
        cap.start().unwrap();
        assert!(d.with_sim(|s| s.is_mirroring()));
        cap.stop().unwrap();
        assert!(!d.with_sim(|s| s.is_mirroring()));
    }

    #[test]
    fn double_start_rejected() {
        let mut cap = ScrcpyCapture::new(device(), EncoderConfig::default());
        cap.start().unwrap();
        assert_eq!(cap.start(), Err(EncoderError::AlreadyRunning));
    }

    #[test]
    fn unsupported_device_rejected() {
        let legacy = AndroidDevice::new(
            DeviceSpec::legacy_kitkat(),
            "old1",
            SimRng::new(1).derive("old"),
            true,
        );
        let mut cap = ScrcpyCapture::new(legacy, EncoderConfig::default());
        assert_eq!(cap.start(), Err(EncoderError::UnsupportedDevice));
    }

    #[test]
    fn busy_screen_emits_more_than_static() {
        let d = device();
        let mut cap = ScrcpyCapture::new(d.clone(), EncoderConfig::default());
        cap.start().unwrap();
        // Static screen for 10 s.
        d.with_sim(|s| s.idle(SimDuration::from_secs(10)));
        let static_bytes = cap.produce_until(d.with_sim(|s| s.now())).unwrap();
        // Video playback for 10 s.
        d.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(10));
        });
        let video_bytes = cap.produce_until(d.with_sim(|s| s.now())).unwrap();
        assert!(
            video_bytes > static_bytes * 5,
            "video {video_bytes} vs static {static_bytes}"
        );
    }

    #[test]
    fn bitrate_cap_holds() {
        let d = device();
        let mut cap = ScrcpyCapture::new(d.clone(), EncoderConfig::default());
        cap.start().unwrap();
        d.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(60));
        });
        let bytes = cap.produce_until(d.with_sim(|s| s.now())).unwrap();
        let cap_bytes = (1_000_000.0 * 60.0 / 8.0) as u64;
        assert!(bytes <= cap_bytes, "{bytes} exceeds rate cap {cap_bytes}");
        assert!(bytes > cap_bytes / 2, "video should approach the cap");
    }

    #[test]
    fn seven_minute_browser_test_shape() {
        // §4.2: ~32 MB upload for a ~7 minute browser test at 1 Mbps.
        let d = device();
        let mut cap = ScrcpyCapture::new(d.clone(), EncoderConfig::default());
        cap.start().unwrap();
        d.with_sim(|s| {
            s.set_screen(true);
            // Browser-like alternation: bursts of change, pauses between.
            // 10 sites × ~40 s each: page load, dwell with ads animating,
            // scroll bursts — screen content rarely fully static.
            for _ in 0..42 {
                s.run_activity(SimDuration::from_secs(8), 0.25, 0.55);
                s.idle(SimDuration::from_secs(2));
            }
        });
        let bytes = cap.produce_until(d.with_sim(|s| s.now())).unwrap();
        let mb = bytes as f64 / 1e6;
        assert!(
            (18.0..45.0).contains(&mb),
            "upload {mb:.1} MB, paper reports ≈32 MB"
        );
    }

    #[test]
    fn produce_is_incremental() {
        let d = device();
        let mut cap = ScrcpyCapture::new(d.clone(), EncoderConfig::default());
        cap.start().unwrap();
        d.with_sim(|s| s.play_video(SimDuration::from_secs(4)));
        let t_mid = d.with_sim(|s| s.now());
        let first = cap.produce_until(t_mid).unwrap();
        assert_eq!(cap.produce_until(t_mid).unwrap(), 0, "no double counting");
        d.with_sim(|s| s.play_video(SimDuration::from_secs(4)));
        let second = cap.produce_until(d.with_sim(|s| s.now())).unwrap();
        assert!(first > 0 && second > 0);
        assert_eq!(cap.total_bytes(), first + second);
    }
}
