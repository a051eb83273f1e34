//! AirPlay screen mirroring for iOS devices (§3.2: "No equivalent
//! software [to scrcpy] exists for iOS, but a similar functionality can
//! be achieved combining AirPlay Screen Mirroring with (virtual)
//! keyboard keys").
//!
//! Differences from the scrcpy path that matter to measurements:
//!
//! * AirPlay streams over **WiFi** to a receiver on the controller — so
//!   it occupies the network under test *and* keeps the WiFi radio hot,
//!   where scrcpy rides the (measurement-unsafe) USB ADB channel or the
//!   same WiFi;
//! * the sender encodes at a higher default bitrate than the paper's
//!   1 Mbps scrcpy cap;
//! * input cannot come back over AirPlay (it is one-way): remote control
//!   needs the Bluetooth keyboard, which is why the paper pairs them.

use batterylab_device::IosDevice;
use batterylab_sim::SimTime;

/// AirPlay sender configuration.
#[derive(Clone, Copy, Debug)]
pub struct AirPlayConfig {
    /// Video bitrate, bits/s (AirPlay mirrors at several Mbps by default;
    /// receivers can negotiate down).
    pub bitrate_bps: f64,
    /// Frames per second.
    pub fps: f64,
}

impl Default for AirPlayConfig {
    fn default() -> Self {
        AirPlayConfig {
            bitrate_bps: 4_000_000.0,
            fps: 30.0,
        }
    }
}

/// AirPlay session errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AirPlayError {
    /// Already mirroring.
    AlreadyStreaming,
    /// No session active.
    NotStreaming,
}

impl std::fmt::Display for AirPlayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AirPlayError::AlreadyStreaming => write!(f, "AirPlay session already active"),
            AirPlayError::NotStreaming => write!(f, "no AirPlay session"),
        }
    }
}

impl std::error::Error for AirPlayError {}

/// An AirPlay mirroring session from an iOS device to the controller's
/// receiver.
pub struct AirPlayMirror {
    device: IosDevice,
    config: AirPlayConfig,
    streaming: bool,
    produced_until: SimTime,
    total_bytes: u64,
}

impl AirPlayMirror {
    /// Bind (not start) a session.
    pub fn new(device: IosDevice, config: AirPlayConfig) -> Self {
        AirPlayMirror {
            device,
            config,
            streaming: false,
            produced_until: SimTime::ZERO,
            total_bytes: 0,
        }
    }

    /// Total bytes streamed.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Start mirroring: arms the device-side encoder (same power hook as
    /// scrcpy — the encoder block doesn't care who asked).
    pub fn start(&mut self) -> Result<(), AirPlayError> {
        if self.streaming {
            return Err(AirPlayError::AlreadyStreaming);
        }
        self.device.with_sim(|s| {
            s.start_mirroring();
        });
        self.produced_until = self.device.with_sim(|s| s.now());
        self.streaming = true;
        Ok(())
    }

    /// Stop mirroring.
    pub fn stop(&mut self) -> Result<u64, AirPlayError> {
        if !self.streaming {
            return Err(AirPlayError::NotStreaming);
        }
        let now = self.device.with_sim(|s| s.now());
        let _ = self.produce_until(now);
        self.device.with_sim(|s| s.stop_mirroring());
        self.streaming = false;
        Ok(self.total_bytes)
    }

    /// Bytes streamed between the last call and `until`. AirPlay's
    /// rate control floors higher than scrcpy's (it keeps a smooth
    /// stream even on static content).
    pub fn produce_until(&mut self, until: SimTime) -> Result<u64, AirPlayError> {
        if !self.streaming {
            return Err(AirPlayError::NotStreaming);
        }
        if until <= self.produced_until {
            return Ok(0);
        }
        let (from, to) = (self.produced_until, until);
        let change = self
            .device
            .with_sim(|s| s.frame_change_trace().mean(from, to));
        let utilisation = (0.25 + 0.85 * change).min(1.0);
        let bytes =
            (self.config.bitrate_bps * utilisation * (to - from).as_secs_f64() / 8.0) as u64;
        self.produced_until = until;
        self.total_bytes += bytes;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_device::iphone_7;
    use batterylab_sim::{SimDuration, SimRng};

    fn mirror() -> (IosDevice, AirPlayMirror) {
        let d = iphone_7(&SimRng::new(11), "udid-1");
        let m = AirPlayMirror::new(d.clone(), AirPlayConfig::default());
        (d, m)
    }

    #[test]
    fn lifecycle_and_device_encoder() {
        let (d, mut m) = mirror();
        m.start().unwrap();
        assert!(d.with_sim(|s| s.is_mirroring()));
        assert_eq!(m.start(), Err(AirPlayError::AlreadyStreaming));
        d.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(10));
        });
        let total = m.stop().unwrap();
        assert!(total > 0);
        assert!(!d.with_sim(|s| s.is_mirroring()));
    }

    #[test]
    fn streams_more_than_scrcpy_for_same_content() {
        // AirPlay's 4 Mbps default vs scrcpy's 1 Mbps cap.
        let (d, mut m) = mirror();
        m.start().unwrap();
        d.with_sim(|s| {
            s.set_screen(true);
            s.play_video(SimDuration::from_secs(10));
        });
        let airplay_bytes = m.stop().unwrap();
        let scrcpy_cap_bytes = (1_000_000.0 * 10.0 / 8.0) as u64;
        assert!(airplay_bytes > scrcpy_cap_bytes, "{airplay_bytes}");
    }

    #[test]
    fn mirroring_costs_ios_battery_too() {
        let (d, mut m) = mirror();
        d.with_sim(|s| s.set_screen(true));
        let t0 = d.with_sim(|s| s.now());
        d.with_sim(|s| s.play_video(SimDuration::from_secs(10)));
        let plain = d.with_sim(|s| s.current_trace().mean(t0, s.now()));
        m.start().unwrap();
        let t1 = d.with_sim(|s| s.now());
        d.with_sim(|s| s.play_video(SimDuration::from_secs(10)));
        let mirrored = d.with_sim(|s| s.current_trace().mean(t1, s.now()));
        assert!(mirrored > plain + 30.0, "{mirrored} vs {plain}");
    }
}
