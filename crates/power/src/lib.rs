//! # batterylab-power
//!
//! The power-measurement substrate: the [`Battery`] model for test devices,
//! the [`CurrentSource`] abstraction between meter and load, the
//! [`Monsoon`] HV power-monitor simulator (5 kHz, 0.8–13.5 V, 6 A), and the
//! Meross-style WiFi [`PowerSocket`] the controller uses to energise the
//! meter only while experiments run.

#![warn(missing_docs)]

mod battery;
mod battor;
mod monsoon;
mod socket;
mod source;

pub use battery::Battery;
pub use batterylab_durable::{CheckpointStream, GapKind, GapReport, SealedSegment};
pub use battor::{
    BattOr, BattOrError, BattOrLog, BATTOR_BUFFER_SAMPLES, BATTOR_RATE_HZ, BATTOR_RUNTIME_S,
};
pub use monsoon::{
    sampler_instance, Calibration, Monsoon, MonsoonError, SampleRun, MAX_CONTINUOUS_MA,
    MONSOON_RATE_HZ, VOLTAGE_RANGE,
};
pub use socket::{PowerSocket, SocketError, SocketState};
pub use source::{
    step_signal_segments, ConstantLoad, CurrentSource, OpenCircuit, Segment, TraceLoad,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use batterylab_sim::{SimRng, SimTime};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn monsoon_mean_tracks_load(ma in 0.0f64..5000.0, seed in 0u64..100) {
            let mut m = Monsoon::new(SimRng::new(seed).derive("monsoon"));
            m.set_powered(true);
            m.set_voltage(4.0).unwrap();
            m.enable_vout().unwrap();
            let run = m.sample_run_at_rate(&ConstantLoad::new(ma, 4.0), SimTime::ZERO, 0.2, 1000.0).unwrap();
            let mean = run.samples.mean().unwrap();
            // Within calibration error + noise-of-the-mean.
            prop_assert!((mean - ma).abs() < ma * 0.002 + 0.2, "mean {mean} vs true {ma}");
        }

        #[test]
        fn battery_discharge_never_negative(steps in proptest::collection::vec((0.0f64..2000.0, 0.0f64..0.5), 0..50)) {
            let mut b = Battery::new(3000.0);
            for (ma, h) in steps {
                b.discharge(ma, h);
                prop_assert!(b.charge_mah() >= 0.0);
                prop_assert!(b.soc() >= 0.0 && b.soc() <= 1.0);
                let v = b.ocv();
                prop_assert!((3.3..=4.2).contains(&v), "OCV {v} out of Li-ion range");
            }
        }

        #[test]
        fn voltage_scaling_preserves_power(ma in 1.0f64..1000.0, v in 1.0f64..13.0) {
            let load = ConstantLoad::new(ma, 4.0);
            let i = load.current_ma(SimTime::ZERO, v);
            prop_assert!((i * v - ma * 4.0).abs() < 1e-6, "constant power violated");
        }
    }
}
