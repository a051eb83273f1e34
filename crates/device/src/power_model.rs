//! Component power model.
//!
//! Maps a [`ComponentState`] to an instantaneous current draw in mA at the
//! nominal battery voltage. Coefficients are calibrated to the operating
//! points the paper reports for the Samsung J7 Duo vantage point:
//!
//! * mp4 playback, no mirroring → ≈ 160 mA median (Fig. 2);
//! * mp4 playback with scrcpy mirroring → ≈ 220 mA median (Fig. 2);
//! * mirroring ≈ constant extra cost regardless of foreground app (Fig. 3);
//! * deep idle, screen off → ≈ 20 mA.
//!
//! The model is additive per component — the standard approach of the
//! smartphone power-modelling literature the paper builds on (Chen et al.,
//! SIGMETRICS '15).

use crate::state::{ComponentState, RadioState};
use batterylab_sim::SimTime;

/// Additive per-component current model (all values mA at nominal volts).
#[derive(Clone, Copy, Debug)]
pub struct PowerModel {
    /// Everything-off floor (SoC retention, PMIC).
    pub base_idle_ma: f64,
    /// Screen panel fixed cost when lit.
    pub screen_base_ma: f64,
    /// Additional screen cost per brightness percent.
    pub screen_per_brightness_ma: f64,
    /// CPU cost at 100 % utilisation of all cores at max frequency.
    pub cpu_full_ma: f64,
    /// CPU exponent: current ∝ util^exp (DVFS makes low load cheap).
    pub cpu_exponent: f64,
    /// WiFi idle/associated cost.
    pub wifi_idle_ma: f64,
    /// WiFi receive-active cost.
    pub wifi_rx_ma: f64,
    /// WiFi transmit-active cost.
    pub wifi_tx_ma: f64,
    /// WiFi post-transfer tail cost.
    pub wifi_tail_ma: f64,
    /// Cellular idle cost.
    pub cell_idle_ma: f64,
    /// Cellular active cost (either direction; uplink adds `cell_tx_extra_ma`).
    pub cell_active_ma: f64,
    /// Extra for cellular uplink.
    pub cell_tx_extra_ma: f64,
    /// Cellular tail (RRC) cost.
    pub cell_tail_ma: f64,
    /// Bluetooth link active cost.
    pub bt_active_ma: f64,
    /// Hardware video decoder cost.
    pub video_decode_ma: f64,
    /// Mirroring encoder fixed cost while armed.
    pub encoder_base_ma: f64,
    /// Mirroring encoder cost at 100 % frame change.
    pub encoder_per_change_ma: f64,
    /// Nominal supply voltage the coefficients are referenced to.
    pub nominal_v: f64,
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::samsung_j7_duo()
    }
}

impl PowerModel {
    /// Calibrated for the paper's Samsung J7 Duo.
    pub fn samsung_j7_duo() -> Self {
        PowerModel {
            base_idle_ma: 15.0,
            screen_base_ma: 55.0,
            screen_per_brightness_ma: 0.30,
            cpu_full_ma: 800.0,
            cpu_exponent: 1.25,
            wifi_idle_ma: 4.0,
            wifi_rx_ma: 72.0,
            wifi_tx_ma: 95.0,
            wifi_tail_ma: 28.0,
            cell_idle_ma: 7.0,
            cell_active_ma: 230.0,
            cell_tx_extra_ma: 60.0,
            cell_tail_ma: 110.0,
            bt_active_ma: 9.0,
            video_decode_ma: 30.0,
            encoder_base_ma: 18.0,
            encoder_per_change_ma: 15.0,
            nominal_v: 4.0,
        }
    }

    /// A flagship-class SoC: brighter OLED, hungrier CPU cluster, more
    /// efficient radios (heterogeneous vantage points, §1's "different
    /// devices are popular at different locations").
    pub fn pixel_3() -> Self {
        PowerModel {
            base_idle_ma: 13.0,
            screen_base_ma: 62.0,
            screen_per_brightness_ma: 0.38,
            cpu_full_ma: 1050.0,
            cpu_exponent: 1.3,
            wifi_idle_ma: 3.5,
            wifi_rx_ma: 64.0,
            wifi_tx_ma: 86.0,
            wifi_tail_ma: 24.0,
            cell_idle_ma: 6.0,
            cell_active_ma: 210.0,
            cell_tx_extra_ma: 55.0,
            cell_tail_ma: 95.0,
            bt_active_ma: 7.0,
            video_decode_ma: 24.0,
            encoder_base_ma: 14.0,
            encoder_per_change_ma: 12.0,
            nominal_v: 4.0,
        }
    }

    /// A budget-class device: dim LCD, small in-order cores that work
    /// harder (and longer) per unit of work.
    pub fn budget_a10() -> Self {
        PowerModel {
            base_idle_ma: 18.0,
            screen_base_ma: 48.0,
            screen_per_brightness_ma: 0.26,
            cpu_full_ma: 560.0,
            cpu_exponent: 1.15,
            wifi_idle_ma: 5.0,
            wifi_rx_ma: 80.0,
            wifi_tx_ma: 104.0,
            wifi_tail_ma: 32.0,
            cell_idle_ma: 8.0,
            cell_active_ma: 255.0,
            cell_tx_extra_ma: 70.0,
            cell_tail_ma: 125.0,
            bt_active_ma: 11.0,
            video_decode_ma: 38.0,
            encoder_base_ma: 24.0,
            encoder_per_change_ma: 20.0,
            nominal_v: 4.0,
        }
    }

    /// Instantaneous current for `state`, mA at [`PowerModel::nominal_v`].
    ///
    /// `now` resolves radio tails.
    pub fn current_ma(&self, state: &ComponentState, now: SimTime) -> f64 {
        let mut ma = self.base_idle_ma;

        if state.screen_on {
            ma += self.screen_base_ma + self.screen_per_brightness_ma * state.brightness as f64;
        }

        // DVFS: sub-linear growth at low utilisation, calibrated so 100 %
        // of all cores at max clock costs `cpu_full_ma`.
        let util = state.cpu_util.clamp(0.0, 1.0);
        ma += self.cpu_full_ma * util.powf(self.cpu_exponent);

        ma += match state.wifi.resolved(now) {
            RadioState::Idle => self.wifi_idle_ma,
            RadioState::Active { uplink: false } => self.wifi_rx_ma,
            RadioState::Active { uplink: true } => self.wifi_tx_ma,
            RadioState::Tail { .. } => self.wifi_tail_ma,
        };

        ma += match state.cellular.resolved(now) {
            RadioState::Idle => self.cell_idle_ma,
            RadioState::Active { uplink } => {
                self.cell_active_ma + if uplink { self.cell_tx_extra_ma } else { 0.0 }
            }
            RadioState::Tail { .. } => self.cell_tail_ma,
        };

        if state.bluetooth_active {
            ma += self.bt_active_ma;
        }
        if state.video_decoding {
            ma += self.video_decode_ma;
        }
        if let Some(change) = state.encoding_change_rate {
            ma += self.encoder_base_ma + self.encoder_per_change_ma * change.clamp(0.0, 1.0);
        }
        ma
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PowerSource;

    fn video_state(mirroring: bool) -> ComponentState {
        ComponentState {
            screen_on: true,
            brightness: 60,
            cpu_util: if mirroring { 0.133 } else { 0.075 },
            wifi: RadioState::Idle,
            cellular: RadioState::Idle,
            bluetooth_active: false,
            video_decoding: true,
            encoding_change_rate: if mirroring { Some(0.8) } else { None },
            usb_connected: false,
            power_source: PowerSource::MonsoonBypass,
        }
    }

    #[test]
    fn video_playback_hits_fig2_operating_point() {
        let m = PowerModel::samsung_j7_duo();
        let ma = m.current_ma(&video_state(false), SimTime::ZERO);
        assert!(
            (150.0..175.0).contains(&ma),
            "video playback {ma} mA, expected ≈160"
        );
    }

    #[test]
    fn mirroring_adds_fig2_gap() {
        let m = PowerModel::samsung_j7_duo();
        let plain = m.current_ma(&video_state(false), SimTime::ZERO);
        let mirrored = m.current_ma(&video_state(true), SimTime::ZERO);
        let gap = mirrored - plain;
        assert!(
            (45.0..80.0).contains(&gap),
            "mirroring gap {gap} mA, paper shows ≈60"
        );
        assert!(
            (205.0..240.0).contains(&mirrored),
            "mirrored total {mirrored}"
        );
    }

    #[test]
    fn deep_idle_is_tens_of_ma() {
        let m = PowerModel::samsung_j7_duo();
        let idle = ComponentState::default();
        let ma = m.current_ma(&idle, SimTime::ZERO);
        assert!((15.0..40.0).contains(&ma), "deep idle {ma} mA");
    }

    #[test]
    fn cpu_cost_is_sublinear_then_full() {
        let m = PowerModel::samsung_j7_duo();
        let mut s = ComponentState {
            cpu_util: 1.0,
            ..Default::default()
        };
        let full = m.current_ma(&s, SimTime::ZERO);
        s.cpu_util = 0.5;
        let half = m.current_ma(&s, SimTime::ZERO);
        // Sub-linear: half utilisation costs less than half the full CPU power
        // but more than a quarter.
        let idle = {
            s.cpu_util = 0.0;
            m.current_ma(&s, SimTime::ZERO)
        };
        let cpu_full = full - idle;
        let cpu_half = half - idle;
        assert!(cpu_half < cpu_full * 0.5);
        assert!(cpu_half > cpu_full * 0.25);
    }

    #[test]
    fn radio_ordering_tx_gt_rx_gt_tail_gt_idle() {
        let m = PowerModel::samsung_j7_duo();
        let mut s = ComponentState::default();
        let now = SimTime::from_secs(1);
        let read = |s: &ComponentState| m.current_ma(s, now);
        s.wifi = RadioState::Idle;
        let idle = read(&s);
        s.wifi = RadioState::Tail {
            until: SimTime::from_secs(10),
        };
        let tail = read(&s);
        s.wifi = RadioState::Active { uplink: false };
        let rx = read(&s);
        s.wifi = RadioState::Active { uplink: true };
        let tx = read(&s);
        assert!(tx > rx && rx > tail && tail > idle);
    }

    #[test]
    fn expired_tail_reads_as_idle() {
        let m = PowerModel::samsung_j7_duo();
        let s = ComponentState {
            wifi: RadioState::Tail {
                until: SimTime::from_secs(1),
            },
            ..Default::default()
        };
        let during = m.current_ma(&s, SimTime::from_millis(500));
        let after = m.current_ma(&s, SimTime::from_secs(2));
        assert!(during > after);
    }

    #[test]
    fn cellular_costs_more_than_wifi() {
        let m = PowerModel::samsung_j7_duo();
        let mut s = ComponentState {
            wifi: RadioState::Active { uplink: false },
            ..Default::default()
        };
        let wifi = m.current_ma(&s, SimTime::ZERO);
        s.wifi = RadioState::Idle;
        s.cellular = RadioState::Active { uplink: false };
        let cell = m.current_ma(&s, SimTime::ZERO);
        assert!(cell > wifi, "cellular radio dominates WiFi power");
    }

    #[test]
    fn encoder_cost_scales_with_change_rate() {
        let m = PowerModel::samsung_j7_duo();
        let mut s = ComponentState {
            encoding_change_rate: Some(0.0),
            ..Default::default()
        };
        let static_screen = m.current_ma(&s, SimTime::ZERO);
        s.encoding_change_rate = Some(1.0);
        let busy_screen = m.current_ma(&s, SimTime::ZERO);
        assert!(busy_screen > static_screen);
        assert!((busy_screen - static_screen - 15.0).abs() < 1e-9);
    }
}
