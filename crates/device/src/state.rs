//! Component state of a simulated Android device.
//!
//! The power model maps this state to an instantaneous current; the
//! device simulator evolves it over virtual time as workloads run.

use batterylab_sim::{SimDuration, SimTime};
use serde::Serialize;

/// Activity state of a network radio, with the tail-energy behaviour that
/// dominates mobile radio power: after a transfer the radio lingers in a
/// high-power state before dropping back to idle.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub enum RadioState {
    /// Low-power idle / paging.
    Idle,
    /// Actively moving bits.
    Active {
        /// True when the dominant direction is uplink (tx costs more).
        uplink: bool,
    },
    /// Post-transfer tail, decays to idle at `until`.
    Tail {
        /// When the tail expires.
        until: SimTime,
    },
}

impl RadioState {
    /// Resolve the tail against the clock: a tail past its deadline is
    /// idle.
    pub fn resolved(self, now: SimTime) -> RadioState {
        match self {
            RadioState::Tail { until } if now >= until => RadioState::Idle,
            other => other,
        }
    }
}

/// Which interface carries the device's data traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum DataPath {
    /// The vantage point's WiFi AP.
    WiFi,
    /// The mobile network (needs Bluetooth automation per §3.3).
    Cellular,
}

/// What powers the device right now.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum PowerSource {
    /// Its own battery (relay in the Battery position).
    Battery,
    /// The Monsoon via the battery bypass.
    MonsoonBypass,
}

/// Full component state at an instant.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct ComponentState {
    /// Screen powered?
    pub screen_on: bool,
    /// Backlight level 0–100.
    pub brightness: u8,
    /// Total CPU utilisation across cores, 0.0–1.0.
    pub cpu_util: f64,
    /// WiFi radio.
    pub wifi: RadioState,
    /// Cellular radio.
    pub cellular: RadioState,
    /// Bluetooth link active (HID keyboard / ADB-over-BT).
    pub bluetooth_active: bool,
    /// Hardware video decoder running (mp4 playback).
    pub video_decoding: bool,
    /// Hardware H.264 encoder running for screen mirroring, with the
    /// current frame-change rate 0.0–1.0 (how much of the screen updates).
    pub encoding_change_rate: Option<f64>,
    /// USB cable attached and bus-powered (corrupts measurements, §3.3).
    pub usb_connected: bool,
    /// Power source selection (relay position).
    pub power_source: PowerSource,
}

impl Default for ComponentState {
    fn default() -> Self {
        ComponentState {
            screen_on: false,
            brightness: 60,
            cpu_util: 0.02,
            wifi: RadioState::Idle,
            cellular: RadioState::Idle,
            bluetooth_active: false,
            video_decoding: false,
            encoding_change_rate: None,
            usb_connected: false,
            power_source: PowerSource::Battery,
        }
    }
}

/// Static description of a device model.
#[derive(Clone, Debug, Serialize)]
pub struct DeviceSpec {
    /// Marketing model, e.g. "Samsung J7 Duo".
    pub model: String,
    /// `ro.product.name`.
    pub product: String,
    /// Android API level (mirroring needs ≥ 21 per §3.2).
    pub api_level: u32,
    /// Rooted? (gates ADB-over-Bluetooth, §3.3).
    pub rooted: bool,
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// Battery capacity, mAh.
    pub battery_mah: f64,
    /// WiFi radio tail time.
    pub wifi_tail: SimDuration,
    /// Cellular radio tail time (RRC DCH→idle).
    pub cellular_tail: SimDuration,
}

impl DeviceSpec {
    /// The paper's first test device: Samsung J7 Duo, Android 8.0 (API 26),
    /// not rooted, removable 3000 mAh battery.
    pub fn samsung_j7_duo() -> Self {
        DeviceSpec {
            model: "Samsung J7 Duo".to_string(),
            product: "j7duolte".to_string(),
            api_level: 26,
            rooted: false,
            cpu_cores: 8,
            battery_mah: 3000.0,
            wifi_tail: SimDuration::from_millis(220),
            cellular_tail: SimDuration::from_secs(4),
        }
    }

    /// A rooted variant (Bluetooth-ADB experiments).
    pub fn rooted(mut self) -> Self {
        self.rooted = true;
        self
    }

    /// An older device that cannot mirror (API < 21) — used to test the
    /// §3.2 constraint.
    pub fn legacy_kitkat() -> Self {
        DeviceSpec {
            model: "Galaxy S4".to_string(),
            product: "jfltexx".to_string(),
            api_level: 19,
            rooted: false,
            cpu_cores: 4,
            battery_mah: 2600.0,
            wifi_tail: SimDuration::from_millis(250),
            cellular_tail: SimDuration::from_secs(5),
        }
    }

    /// Whether scrcpy-style mirroring is supported (§3.2: Android ≥ 5.0).
    pub fn supports_mirroring(&self) -> bool {
        self.api_level >= 21
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_resolves_after_deadline() {
        let tail = RadioState::Tail {
            until: SimTime::from_secs(10),
        };
        assert_eq!(tail.resolved(SimTime::from_secs(5)), tail);
        assert_eq!(tail.resolved(SimTime::from_secs(10)), RadioState::Idle);
        assert_eq!(tail.resolved(SimTime::from_secs(11)), RadioState::Idle);
    }

    #[test]
    fn j7_supports_mirroring_kitkat_does_not() {
        assert!(DeviceSpec::samsung_j7_duo().supports_mirroring());
        assert!(!DeviceSpec::legacy_kitkat().supports_mirroring());
    }

    #[test]
    fn default_state_is_quiescent() {
        let s = ComponentState::default();
        assert!(!s.screen_on);
        assert_eq!(s.wifi, RadioState::Idle);
        assert!(s.encoding_change_rate.is_none());
        assert_eq!(s.power_source, PowerSource::Battery);
    }

    #[test]
    fn rooted_builder() {
        assert!(!DeviceSpec::samsung_j7_duo().rooted);
        assert!(DeviceSpec::samsung_j7_duo().rooted().rooted);
    }
}
