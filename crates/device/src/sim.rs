//! The device simulator: evolves component state over virtual time and
//! records the current and CPU traces every other subsystem consumes.
//!
//! The simulator is a *trace builder* with a monotonic time cursor.
//! Workload drivers (automation scripts, the mirroring stack, adbd
//! commands) call activity methods that advance the cursor; each segment
//! writes the component state's current draw into a piecewise-constant
//! trace the Monsoon later samples. Radio tail expiry splits segments so
//! the trace is exact, not sampled.

use std::collections::VecDeque;

use batterylab_net::{Direction, LinkProfile, TransferModel};
use batterylab_power::Battery;
use batterylab_sim::{SimDuration, SimRng, SimTime, StepSignal};

use crate::power_model::PowerModel;
use crate::state::{ComponentState, DataPath, DeviceSpec, PowerSource, RadioState};

/// Segment length for activity jitter: short enough to give CDFs their
/// spread, long enough to keep traces compact.
const SEGMENT: SimDuration = SimDuration::from_millis(200);

/// Multiplicative CPU jitter within an activity (log-normal sigma).
const UTIL_JITTER_SIGMA: f64 = 0.22;

/// CPU overhead of the mirroring encoder: fixed + change-rate-driven
/// (the paper measures ≈ +5 % during browser automation).
const ENCODER_UTIL_BASE: f64 = 0.018;
const ENCODER_UTIL_PER_CHANGE: f64 = 0.050;

/// Background OS activity, fraction of CPU.
const BACKGROUND_UTIL: f64 = 0.02;

/// Capacity of the log ring in rendered bytes: Android's default logcat
/// buffer size (256 KiB). The oldest lines are evicted first.
const LOG_CAPACITY: usize = 256 * 1024;

/// A network transfer's bookkeeping result.
#[derive(Clone, Copy, Debug)]
pub struct DeviceTransfer {
    /// Wall (virtual) time the transfer took.
    pub duration: SimDuration,
    /// Bytes moved.
    pub bytes: u64,
}

/// The simulated Android device.
pub struct DeviceSim {
    spec: DeviceSpec,
    model: PowerModel,
    state: ComponentState,
    now: SimTime,
    current: StepSignal,
    cpu: StepSignal,
    frame_change: StepSignal,
    battery: Battery,
    rng: SimRng,
    /// Rendered `logcat -d` lines, oldest first, at most
    /// [`LOG_CAPACITY`] bytes in total.
    logs: VecDeque<String>,
    log_bytes: usize,
    rx_bytes: u64,
    tx_bytes: u64,
    data_path: DataPath,
    network: LinkProfile,
    mirroring: bool,
    /// Base foreground utilisation while no activity runs.
    idle_util: f64,
}

impl DeviceSim {
    /// A device at `t = 0`, screen off, battery full, on fast WiFi.
    pub fn new(spec: DeviceSpec, rng: SimRng) -> Self {
        let model = PowerModel::samsung_j7_duo();
        let battery = Battery::new(spec.battery_mah);
        let state = ComponentState::default();
        let initial = model.current_ma(&state, SimTime::ZERO);
        DeviceSim {
            spec,
            model,
            state,
            now: SimTime::ZERO,
            current: StepSignal::new(initial),
            cpu: StepSignal::new(BACKGROUND_UTIL),
            frame_change: StepSignal::new(0.0),
            battery,
            rng,
            logs: VecDeque::new(),
            log_bytes: 0,
            rx_bytes: 0,
            tx_bytes: 0,
            data_path: DataPath::WiFi,
            network: LinkProfile::fast_wifi(),
            mirroring: false,
            idle_util: BACKGROUND_UTIL,
        }
    }

    /// Swap the power model (heterogeneous device fleets). Must be called
    /// at `t = 0`, before the trace has history.
    pub fn with_power_model(mut self, model: PowerModel) -> Self {
        assert_eq!(self.now, SimTime::ZERO, "set the model before running");
        self.model = model;
        let initial = self.model.current_ma(&self.state, SimTime::ZERO);
        self.current = StepSignal::new(initial);
        self
    }

    // -- accessors -----------------------------------------------------------

    /// Static description.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The power model in effect.
    pub fn power_model(&self) -> &PowerModel {
        &self.model
    }

    /// Time cursor.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The current-draw trace (mA at nominal volts).
    pub fn current_trace(&self) -> &StepSignal {
        &self.current
    }

    /// The CPU-utilisation trace (0–1).
    pub fn cpu_trace(&self) -> &StepSignal {
        &self.cpu
    }

    /// The screen frame-change trace (0–1), which drives the encoder.
    pub fn frame_change_trace(&self) -> &StepSignal {
        &self.frame_change
    }

    /// Battery state.
    pub fn battery(&self) -> &Battery {
        &self.battery
    }

    /// Component state snapshot.
    pub fn state(&self) -> &ComponentState {
        &self.state
    }

    /// Whether mirroring is active.
    pub fn is_mirroring(&self) -> bool {
        self.mirroring
    }

    /// Total network bytes received / sent by the device.
    pub fn net_bytes(&self) -> (u64, u64) {
        (self.rx_bytes, self.tx_bytes)
    }

    /// Nominal voltage of the power model.
    pub fn nominal_v(&self) -> f64 {
        self.model.nominal_v
    }

    // -- configuration -------------------------------------------------------

    /// Point the device's data traffic at `path` (WiFi AP, possibly behind
    /// a VPN) — set by the controller.
    pub fn set_network(&mut self, path: LinkProfile) {
        self.network = path;
    }

    /// The network path in effect.
    pub fn network(&self) -> &LinkProfile {
        &self.network
    }

    /// Choose WiFi or cellular for data.
    pub fn set_data_path(&mut self, path: DataPath) {
        self.data_path = path;
        self.refresh();
    }

    /// Current data path.
    pub fn data_path(&self) -> DataPath {
        self.data_path
    }

    /// Screen power.
    pub fn set_screen(&mut self, on: bool) {
        self.state.screen_on = on;
        if !on {
            self.frame_change.set(self.now, 0.0);
        }
        self.refresh();
    }

    /// Backlight level.
    pub fn set_brightness(&mut self, pct: u8) {
        self.state.brightness = pct.min(100);
        self.refresh();
    }

    /// Attach/detach USB bus power (§3.3: corrupts measurements).
    pub fn set_usb_connected(&mut self, connected: bool) {
        self.state.usb_connected = connected;
        self.refresh();
    }

    /// Relay position: battery or Monsoon bypass.
    pub fn set_power_source(&mut self, source: PowerSource) {
        self.state.power_source = source;
        self.refresh();
    }

    /// Bluetooth link (HID keyboard / ADB-over-BT).
    pub fn set_bluetooth_active(&mut self, active: bool) {
        self.state.bluetooth_active = active;
        self.refresh();
    }

    /// Arm the mirroring encoder. Fails (returns false) on devices below
    /// API 21, per §3.2.
    pub fn start_mirroring(&mut self) -> bool {
        if !self.spec.supports_mirroring() {
            return false;
        }
        self.mirroring = true;
        self.apply_encoder();
        self.refresh();
        true
    }

    /// Disarm the mirroring encoder.
    pub fn stop_mirroring(&mut self) {
        self.mirroring = false;
        self.state.encoding_change_rate = None;
        self.refresh();
    }

    // -- time evolution ------------------------------------------------------

    /// Idle for `dur` (screen state unchanged, background load only).
    pub fn idle(&mut self, dur: SimDuration) {
        self.set_util(self.idle_util);
        self.step(dur);
    }

    /// Run a foreground activity: CPU at ≈`util`, screen updating at
    /// ≈`frame_change`, for `dur`. Utilisation jitters per 200 ms segment,
    /// which is what gives the paper's CDFs their spread.
    pub fn run_activity(&mut self, dur: SimDuration, util: f64, frame_change: f64) {
        let mut remaining = dur;
        while !remaining.is_zero() {
            let d = SEGMENT.min(remaining);
            let jitter = self.rng.log_normal(1.0, UTIL_JITTER_SIGMA).clamp(0.5, 2.0);
            let u = (util * jitter).clamp(0.0, 0.97);
            let fc = (frame_change * self.rng.uniform(0.7, 1.25)).clamp(0.0, 1.0);
            self.frame_change.set(self.now, fc);
            self.set_util(u);
            self.step(d);
            remaining -= d;
        }
        self.frame_change.set(self.now, 0.02);
        self.set_util(self.idle_util);
    }

    /// Play hardware-decoded video for `dur` (the Fig. 2 workload).
    pub fn play_video(&mut self, dur: SimDuration) {
        self.state.video_decoding = true;
        let mut remaining = dur;
        while !remaining.is_zero() {
            let d = SEGMENT.min(remaining);
            // Decode pipeline keeps a small, scene-dependent CPU load and
            // a high frame-change rate.
            let u = self.rng.normal_clamped(0.055, 0.012, 0.02, 0.12);
            let fc = self.rng.normal_clamped(0.8, 0.08, 0.4, 1.0);
            self.frame_change.set(self.now, fc);
            self.set_util(u);
            self.step(d);
            remaining -= d;
        }
        self.state.video_decoding = false;
        self.frame_change.set(self.now, 0.02);
        self.set_util(self.idle_util);
    }

    /// Move `bytes` over the active data path while the CPU runs at
    /// `cpu_util` (page parsing happens concurrently with fetching).
    /// Advances time by the transfer duration and applies the radio tail.
    pub fn transfer(&mut self, bytes: u64, dir: Direction, cpu_util: f64) -> DeviceTransfer {
        // Browsers fetch over several connections.
        let model = TransferModel::with_streams(self.network, 6);
        let outcome = model.transfer_jittered(bytes, dir, &mut self.rng, 0.15);
        let uplink = dir == Direction::Up;
        match self.data_path {
            DataPath::WiFi => self.state.wifi = RadioState::Active { uplink },
            DataPath::Cellular => self.state.cellular = RadioState::Active { uplink },
        }
        self.set_util(cpu_util.max(0.06)); // network stack floor
        self.step(outcome.duration);
        // Tail, then idle (step() resolves the expiry).
        let tail = match self.data_path {
            DataPath::WiFi => self.spec.wifi_tail,
            DataPath::Cellular => self.spec.cellular_tail,
        };
        let until = self.now + tail;
        match self.data_path {
            DataPath::WiFi => self.state.wifi = RadioState::Tail { until },
            DataPath::Cellular => self.state.cellular = RadioState::Tail { until },
        }
        self.set_util(self.idle_util);
        match dir {
            Direction::Down => self.rx_bytes += bytes,
            Direction::Up => self.tx_bytes += bytes,
        }
        DeviceTransfer {
            duration: outcome.duration,
            bytes,
        }
    }

    /// Append a logcat line, evicting the oldest lines once the ring
    /// holds more than `LOG_CAPACITY` bytes.
    pub fn log(&mut self, tag: &str, msg: &str) {
        let line = format!("{:.3} I/{}: {}\n", self.now.as_secs_f64(), tag, msg);
        self.log_bytes += line.len();
        self.logs.push_back(line);
        while self.log_bytes > LOG_CAPACITY {
            let evicted = self.logs.pop_front().expect("bytes imply a line");
            self.log_bytes -= evicted.len();
        }
    }

    /// Render the log ring like `logcat -d`.
    pub fn logcat_dump(&self) -> String {
        let mut out = String::with_capacity(self.log_bytes);
        for line in &self.logs {
            out.push_str(line);
        }
        out
    }

    /// Clear the log ring (`logcat -c`).
    pub fn logcat_clear(&mut self) {
        self.logs.clear();
        self.log_bytes = 0;
    }

    // -- internals -----------------------------------------------------------

    fn apply_encoder(&mut self) {
        if self.mirroring {
            self.state.encoding_change_rate = Some(self.frame_change.last());
        }
    }

    fn set_util(&mut self, foreground: f64) {
        let encoder = if self.mirroring {
            ENCODER_UTIL_BASE + ENCODER_UTIL_PER_CHANGE * self.frame_change.last()
        } else {
            0.0
        };
        self.state.cpu_util = (BACKGROUND_UTIL + foreground + encoder).clamp(0.0, 1.0);
        self.refresh();
    }

    /// Recompute the instantaneous current and write the traces at `now`.
    fn refresh(&mut self) {
        self.apply_encoder();
        let ma = self.model.current_ma(&self.state, self.now);
        self.current.set(self.now, ma);
        self.cpu.set(self.now, self.state.cpu_util);
    }

    /// Advance the cursor, splitting at radio-tail expiries so the trace
    /// reflects tails dropping to idle, and discharging the battery when
    /// it is the power source.
    fn step(&mut self, dur: SimDuration) {
        let end = self.now + dur;
        loop {
            let next_expiry = [self.state.wifi, self.state.cellular]
                .iter()
                .filter_map(|r| match r {
                    RadioState::Tail { until } if *until > self.now && *until < end => Some(*until),
                    _ => None,
                })
                .min();
            let seg_end = next_expiry.unwrap_or(end);
            self.account_battery(self.now, seg_end);
            self.now = seg_end;
            if next_expiry.is_some() {
                self.state.wifi = self.state.wifi.resolved(self.now);
                self.state.cellular = self.state.cellular.resolved(self.now);
                self.refresh();
            } else {
                break;
            }
        }
    }

    fn account_battery(&mut self, from: SimTime, to: SimTime) {
        if self.state.power_source == PowerSource::Battery {
            let mah = self.current.integral(from, to) / 3600.0;
            self.battery.discharge(mah, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_stats::Cdf;

    fn device(seed: u64) -> DeviceSim {
        DeviceSim::new(
            DeviceSpec::samsung_j7_duo(),
            SimRng::new(seed).derive("device"),
        )
    }

    fn sample_trace(sig: &StepSignal, from: SimTime, to: SimTime, hz: f64) -> Vec<f64> {
        let n = ((to - from).as_secs_f64() * hz) as u64;
        (0..n)
            .map(|i| sig.at(from + SimDuration::from_secs_f64(i as f64 / hz)))
            .collect()
    }

    #[test]
    fn video_playback_median_near_160ma() {
        let mut d = device(1);
        d.set_screen(true);
        let start = d.now();
        d.play_video(SimDuration::from_secs(60));
        let samples = sample_trace(d.current_trace(), start, d.now(), 100.0);
        let cdf = Cdf::from_samples(&samples);
        let median = cdf.median();
        assert!((150.0..175.0).contains(&median), "median {median} mA");
    }

    #[test]
    fn mirrored_video_median_near_220ma() {
        let mut d = device(2);
        d.set_screen(true);
        assert!(d.start_mirroring());
        let start = d.now();
        d.play_video(SimDuration::from_secs(60));
        let samples = sample_trace(d.current_trace(), start, d.now(), 100.0);
        let median = Cdf::from_samples(&samples).median();
        assert!((205.0..245.0).contains(&median), "median {median} mA");
    }

    #[test]
    fn legacy_device_cannot_mirror() {
        let mut d = DeviceSim::new(DeviceSpec::legacy_kitkat(), SimRng::new(3).derive("device"));
        assert!(!d.start_mirroring());
        assert!(!d.is_mirroring());
    }

    #[test]
    fn transfer_activates_radio_then_tail_then_idle() {
        let mut d = device(4);
        let before = d.current_trace().last();
        let t0 = d.now();
        let tr = d.transfer(2_000_000, Direction::Down, 0.1);
        assert!(tr.duration > SimDuration::ZERO);
        // During the transfer the current must exceed the idle level.
        let mid = t0 + tr.duration / 2;
        assert!(
            d.current_trace().at(mid) > before + 30.0,
            "radio active current"
        );
        // Walk past the tail: current returns near idle.
        d.idle(SimDuration::from_secs(5));
        let after = d.current_trace().last();
        assert!(
            (after - before).abs() < 20.0,
            "radio failed to go idle: {after} vs {before}"
        );
        assert_eq!(d.net_bytes().0, 2_000_000);
    }

    #[test]
    fn tail_expiry_is_visible_in_trace() {
        let mut d = device(5);
        d.transfer(500_000, Direction::Down, 0.08);
        let tail_start = d.now();
        // Idle long past the WiFi tail (220 ms).
        d.idle(SimDuration::from_secs(3));
        let during_tail = d
            .current_trace()
            .at(tail_start + SimDuration::from_millis(100));
        let after_tail = d.current_trace().at(tail_start + SimDuration::from_secs(1));
        assert!(
            during_tail > after_tail,
            "tail should decay: {during_tail} vs {after_tail}"
        );
    }

    #[test]
    fn battery_discharges_on_battery_power_only() {
        let mut d = device(6);
        let full = d.battery().charge_mah();
        d.set_screen(true);
        d.run_activity(SimDuration::from_secs(60), 0.4, 0.5);
        let after_battery = d.battery().charge_mah();
        assert!(after_battery < full, "battery must drain");
        // Switch to bypass: no further battery drain.
        d.set_power_source(PowerSource::MonsoonBypass);
        let snapshot = d.battery().charge_mah();
        d.run_activity(SimDuration::from_secs(60), 0.4, 0.5);
        assert_eq!(d.battery().charge_mah(), snapshot);
    }

    #[test]
    fn cpu_trace_reflects_activity_and_mirroring() {
        let mut d = device(7);
        d.set_screen(true);
        let t0 = d.now();
        d.run_activity(SimDuration::from_secs(30), 0.18, 0.4);
        let plain: Vec<f64> = sample_trace(d.cpu_trace(), t0, d.now(), 10.0);
        d.start_mirroring();
        let t1 = d.now();
        d.run_activity(SimDuration::from_secs(30), 0.18, 0.4);
        let mirrored: Vec<f64> = sample_trace(d.cpu_trace(), t1, d.now(), 10.0);
        let m0 = Cdf::from_samples(&plain).median();
        let m1 = Cdf::from_samples(&mirrored).median();
        let delta = m1 - m0;
        assert!(
            (0.015..0.10).contains(&delta),
            "mirroring CPU delta {delta}, paper ≈ +5%"
        );
    }

    #[test]
    fn activity_jitter_gives_cdf_spread() {
        let mut d = device(8);
        d.set_screen(true);
        let t0 = d.now();
        d.run_activity(SimDuration::from_secs(120), 0.2, 0.5);
        let samples = sample_trace(d.cpu_trace(), t0, d.now(), 5.0);
        let cdf = Cdf::from_samples(&samples);
        assert!(
            cdf.quantile(0.9) > cdf.quantile(0.1) * 1.3,
            "CDF should have spread"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut d = device(seed);
            d.set_screen(true);
            d.play_video(SimDuration::from_secs(10));
            d.current_trace().integral(SimTime::ZERO, d.now())
        };
        assert_eq!(run(9).to_bits(), run(9).to_bits());
        assert_ne!(run(9).to_bits(), run(10).to_bits());
    }

    #[test]
    fn logcat_round_trip() {
        let mut d = device(11);
        d.log("BatteryLab", "test started");
        d.idle(SimDuration::from_secs(1));
        d.log("BatteryLab", "test finished");
        let dump = d.logcat_dump();
        assert!(dump.contains("test started"));
        assert!(dump.contains("test finished"));
        d.logcat_clear();
        assert!(d.logcat_dump().is_empty());
    }

    #[test]
    fn log_ring_evicts_oldest_lines_first() {
        let mut d = device(13);
        let lines = 2 * LOG_CAPACITY / 32;
        for i in 0..lines {
            d.log("BatteryLab", &format!("line {i:08}"));
        }
        let dump = d.logcat_dump();
        assert!(
            dump.len() <= LOG_CAPACITY,
            "ring holds {} bytes",
            dump.len()
        );
        assert!(
            dump.len() > LOG_CAPACITY - 64,
            "ring kept {} bytes",
            dump.len()
        );
        assert!(!dump.contains("line 00000000"), "oldest line evicted");
        assert!(dump.ends_with(&format!("line {:08}\n", lines - 1)));
        // What is kept is the newest lines, contiguous and in order.
        let kept: Vec<usize> = dump
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(kept.windows(2).all(|w| w[1] == w[0] + 1));
        assert_eq!(*kept.last().unwrap(), lines - 1);
    }

    #[test]
    fn cellular_transfer_uses_cellular_radio() {
        let mut d = device(12);
        d.set_data_path(DataPath::Cellular);
        let t0 = d.now();
        let tr = d.transfer(1_000_000, Direction::Down, 0.08);
        let mid = t0 + tr.duration / 2;
        // Cellular active is much pricier than WiFi active.
        assert!(d.current_trace().at(mid) > 240.0);
    }
}
