//! BattOr-style portable power monitor (§2: "In the near future, we will
//! explore solutions like BattOr to potentially enhance BatteryLab with
//! mobility support").
//!
//! BattOr (Schulman et al., MobiCom '11) sits inline with the phone's
//! battery and logs to local flash while running from its own cell —
//! which is exactly what makes *mobile* (walk-around, cellular)
//! measurements possible, and exactly what the mains-tethered Monsoon
//! cannot do. The trade-offs it brings are modelled:
//!
//! * lower sampling rate (1 kHz vs the Monsoon's 5 kHz);
//! * finite buffer: the logger stops when flash fills;
//! * finite runtime: the logger stops when its own battery dies;
//! * no programmable supply — it *observes* the phone's battery rail
//!   rather than replacing it, so no battery-bypass relay is involved.
//!
//! The readings come from the same sampling engine as the Monsoon's, set
//! to BattOr's calibration and rail voltage; BattOr adds only the budgets.

use batterylab_sim::{SimDuration, SimRng, SimTime, UniformSeries};
use batterylab_stats::EnergyAccumulator;

use crate::monsoon::{Calibration, Monsoon, MonsoonError};
use crate::source::CurrentSource;

/// BattOr's sampling rate, Hz.
pub const BATTOR_RATE_HZ: f64 = 1000.0;
/// Flash buffer, in samples (enough for ~2.2 hours at 1 kHz).
pub const BATTOR_BUFFER_SAMPLES: u64 = 8_000_000;
/// The logger's own battery life, seconds of continuous logging.
pub const BATTOR_RUNTIME_S: f64 = 4.0 * 3600.0;
/// The phone's battery rail, volts, at which BattOr observes the load.
const RAIL_V: f64 = 3.85;

/// BattOr faults.
#[derive(Clone, Debug, PartialEq)]
pub enum BattOrError {
    /// The logger's own battery is exhausted.
    LoggerBatteryDead {
        /// Seconds of logging that were captured before death.
        captured_s: f64,
    },
    /// Flash is full.
    BufferFull {
        /// Samples captured before the buffer filled.
        captured: u64,
    },
}

impl std::fmt::Display for BattOrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BattOrError::LoggerBatteryDead { captured_s } => {
                write!(f, "BattOr battery died after {captured_s:.0}s of logging")
            }
            BattOrError::BufferFull { captured } => {
                write!(f, "BattOr flash full after {captured} samples")
            }
        }
    }
}

impl std::error::Error for BattOrError {}

/// A logging run's result (downloaded over USB after the walk).
#[derive(Clone, Debug)]
pub struct BattOrLog {
    /// The samples (mA), one per sample period from the run's start.
    pub samples: UniformSeries,
    /// Aggregates.
    pub energy: EnergyAccumulator,
    /// Whether the run ended early (battery/buffer) rather than by
    /// request.
    pub truncated: Option<BattOrError>,
}

/// The portable monitor.
pub struct BattOr {
    /// The sampling engine, at BattOr's calibration and rail voltage.
    meter: Monsoon,
    /// Seconds of logging left in the logger's own battery.
    runtime_left_s: f64,
    /// Samples of flash left.
    buffer_left: u64,
}

impl BattOr {
    /// A charged BattOr with empty flash. BattOr's front-end is noisier
    /// than the bench Monsoon.
    pub fn new(rng: SimRng) -> Self {
        let mut meter = Monsoon::new(rng).with_calibration(Calibration {
            gain: 1.002,
            offset_ma: 0.2,
            noise_ma: 1.1,
            lsb_ma: 0.1,
        });
        meter.set_powered(true);
        meter
            .set_voltage(RAIL_V)
            .expect("the rail is in the engine's range");
        meter.enable_vout().expect("the engine is powered");
        BattOr {
            meter,
            runtime_left_s: BATTOR_RUNTIME_S,
            buffer_left: BATTOR_BUFFER_SAMPLES,
        }
    }

    /// Seconds of logging remaining in the logger's battery.
    pub fn runtime_left_s(&self) -> f64 {
        self.runtime_left_s
    }

    /// Samples of flash remaining.
    pub fn buffer_left(&self) -> u64 {
        self.buffer_left
    }

    /// Recharge and wipe (back at the bench).
    pub fn recharge_and_wipe(&mut self) {
        self.runtime_left_s = BATTOR_RUNTIME_S;
        self.buffer_left = BATTOR_BUFFER_SAMPLES;
    }

    /// Log `load` from `start` for `duration_s`. A dead logger battery or
    /// full flash truncates the log, as in the field; when both cut it
    /// short, the battery is the reason given. The one failure is the
    /// engine's 6 A protection trip, which debits neither budget.
    pub fn log_run(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
    ) -> Result<BattOrLog, MonsoonError> {
        assert!(duration_s > 0.0);
        let requested = (duration_s * BATTOR_RATE_HZ).round() as u64;
        // A spent battery saturates to no samples.
        let by_battery = (self.runtime_left_s * BATTOR_RATE_HZ).ceil() as u64;
        let captured = requested.min(self.buffer_left).min(by_battery);
        let truncated = if captured == requested {
            None
        } else if captured == by_battery {
            Some(BattOrError::LoggerBatteryDead {
                captured_s: captured as f64 / BATTOR_RATE_HZ,
            })
        } else {
            Some(BattOrError::BufferFull { captured })
        };
        let (samples, energy) = if captured == 0 {
            let period = SimDuration::from_micros((1e6 / BATTOR_RATE_HZ) as u64);
            (
                UniformSeries::new(start, period, Vec::new()),
                EnergyAccumulator::new(BATTOR_RATE_HZ),
            )
        } else {
            let run = self.meter.sample_run_at_rate(
                load,
                start,
                captured as f64 / BATTOR_RATE_HZ,
                BATTOR_RATE_HZ,
            )?;
            (run.samples, run.energy)
        };
        self.runtime_left_s -= captured as f64 / BATTOR_RATE_HZ;
        self.buffer_left -= captured;
        Ok(BattOrLog {
            samples,
            energy,
            truncated,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ConstantLoad;

    fn battor(seed: u64) -> BattOr {
        BattOr::new(SimRng::new(seed).derive("battor"))
    }

    #[test]
    fn logs_at_1khz() {
        let mut b = battor(1);
        let log = b
            .log_run(&ConstantLoad::new(200.0, 3.85), SimTime::ZERO, 2.0)
            .unwrap();
        assert_eq!(log.samples.len(), 2000);
        assert!(log.truncated.is_none());
        assert!((log.energy.mean_ma() - 200.0).abs() < 2.0);
    }

    #[test]
    fn noisier_than_the_monsoon() {
        use batterylab_stats::Summary;
        let mut b = battor(2);
        let log = b
            .log_run(&ConstantLoad::new(150.0, 3.85), SimTime::ZERO, 5.0)
            .unwrap();
        let s = Summary::of(log.samples.values());
        assert!(s.std_dev > 0.5, "field instrument noise: {}", s.std_dev);
        assert!(s.std_dev < 3.0);
    }

    #[test]
    fn logger_battery_truncates() {
        let mut b = battor(3);
        b.runtime_left_s = 1.0; // nearly dead
        let log = b
            .log_run(&ConstantLoad::new(100.0, 3.85), SimTime::ZERO, 10.0)
            .unwrap();
        assert!(matches!(
            log.truncated,
            Some(BattOrError::LoggerBatteryDead { .. })
        ));
        assert!((log.samples.len() as f64 - 1000.0).abs() <= 1.0);
    }

    #[test]
    fn flash_truncates() {
        let mut b = battor(4);
        b.buffer_left = 500;
        let log = b
            .log_run(&ConstantLoad::new(100.0, 3.85), SimTime::ZERO, 10.0)
            .unwrap();
        assert!(matches!(
            log.truncated,
            Some(BattOrError::BufferFull { captured: 500 })
        ));
        assert_eq!(log.samples.len(), 500);
    }

    #[test]
    fn recharge_resets() {
        let mut b = battor(5);
        b.log_run(&ConstantLoad::new(100.0, 3.85), SimTime::ZERO, 60.0)
            .unwrap();
        assert!(b.runtime_left_s() < BATTOR_RUNTIME_S);
        assert!(b.buffer_left() < BATTOR_BUFFER_SAMPLES);
        b.recharge_and_wipe();
        assert_eq!(b.runtime_left_s(), BATTOR_RUNTIME_S);
        assert_eq!(b.buffer_left(), BATTOR_BUFFER_SAMPLES);
    }

    #[test]
    fn mobile_cellular_session_works_untethered() {
        // The point of BattOr: measure a device on the move (cellular),
        // with no mains, no relay, no bypass.
        let rng = SimRng::new(6);
        // A device on cellular doing a transfer mid-walk.
        let device = crate::source::TraceLoad::new(
            {
                let mut sig = batterylab_sim::StepSignal::new(180.0);
                sig.set(SimTime::from_secs(10), 420.0); // cellular burst
                sig.set(SimTime::from_secs(30), 190.0);
                sig
            },
            4.0,
        );
        let mut b = BattOr::new(rng.derive("battor"));
        let log = b.log_run(&device, SimTime::ZERO, 60.0).unwrap();
        assert!(log.truncated.is_none());
        // The burst is visible in the log.
        let cdf = batterylab_stats::Cdf::from_samples(log.samples.values());
        assert!(cdf.quantile(0.95) > 380.0, "{}", cdf.quantile(0.95));
        assert!(cdf.median() < 250.0);
    }

    #[test]
    fn readings_land_on_the_lsb_and_never_go_negative() {
        // Near 0 mA, BattOr's noise floor would read below zero.
        let mut b = battor(7);
        let log = b
            .log_run(&ConstantLoad::new(0.5, 3.85), SimTime::ZERO, 2.0)
            .unwrap();
        let values = log.samples.values();
        assert!(values.contains(&0.0), "some readings clamp to 0 mA");
        for &ma in values {
            assert!(ma >= 0.0, "{ma}");
            assert_eq!(ma, (ma / 0.1).round() * 0.1, "{ma} is off the 0.1 mA LSB");
        }
    }

    #[test]
    fn budgets_carry_across_runs() {
        let load = ConstantLoad::new(100.0, 3.85);
        let mut b = battor(8);
        b.buffer_left = 2_500;
        let first = b.log_run(&load, SimTime::ZERO, 2.0).unwrap();
        assert!(first.truncated.is_none());
        assert_eq!(b.buffer_left(), 500);
        assert_eq!(b.runtime_left_s(), BATTOR_RUNTIME_S - 2.0);
        let second = b.log_run(&load, SimTime::from_secs(2), 1.0).unwrap();
        assert_eq!(
            second.truncated,
            Some(BattOrError::BufferFull { captured: 500 })
        );
        assert_eq!(second.samples.len(), 500);
        assert_eq!(second.samples.start(), SimTime::from_secs(2));
        assert_eq!(b.buffer_left(), 0);

        let mut b = battor(9);
        b.runtime_left_s = 3.0;
        b.log_run(&load, SimTime::ZERO, 2.0).unwrap();
        let second = b.log_run(&load, SimTime::from_secs(2), 5.0).unwrap();
        assert_eq!(
            second.truncated,
            Some(BattOrError::LoggerBatteryDead { captured_s: 1.0 })
        );
        assert_eq!(second.samples.len(), 1_000);
        assert_eq!(b.buffer_left(), BATTOR_BUFFER_SAMPLES - 3_000);
        let third = b.log_run(&load, SimTime::from_secs(3), 1.0).unwrap();
        assert_eq!(
            third.truncated,
            Some(BattOrError::LoggerBatteryDead { captured_s: 0.0 })
        );
        assert!(third.samples.is_empty());
        assert_eq!(third.energy.samples(), 0);
    }

    #[test]
    fn battery_is_the_reason_when_both_budgets_bind() {
        let mut b = battor(10);
        b.runtime_left_s = 1.0;
        b.buffer_left = 1_000;
        let log = b
            .log_run(&ConstantLoad::new(100.0, 3.85), SimTime::ZERO, 2.0)
            .unwrap();
        assert_eq!(
            log.truncated,
            Some(BattOrError::LoggerBatteryDead { captured_s: 1.0 })
        );
        assert_eq!(log.samples.len(), 1_000);
    }

    #[test]
    fn over_current_fails_and_debits_no_budget() {
        let mut b = battor(11);
        let err = b
            .log_run(&ConstantLoad::new(7_000.0, 3.85), SimTime::ZERO, 1.0)
            .unwrap_err();
        assert!(matches!(err, MonsoonError::OverCurrent { .. }), "{err}");
        assert_eq!(b.buffer_left(), BATTOR_BUFFER_SAMPLES);
        assert_eq!(b.runtime_left_s(), BATTOR_RUNTIME_S);
    }
}
