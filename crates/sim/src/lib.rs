//! # batterylab-sim
//!
//! Deterministic simulation kernel underpinning the whole BatteryLab
//! reproduction: virtual time ([`SimTime`], [`SimDuration`]), labelled
//! deterministic random streams ([`SimRng`]) and signal recording
//! ([`StepSignal`], [`UniformSeries`]).
//!
//! Nothing in the workspace reads the wall clock or an unseeded RNG; two
//! runs of an experiment with the same seed produce bit-identical sample
//! streams.

#![warn(missing_docs)]

mod rng;
mod series;
mod time;

pub use rng::SimRng;
pub use series::{StepCursor, StepSignal, UniformSeries};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod tests {
    use super::SimRng;

    #[test]
    fn unit_floats_in_range() {
        let mut rng = SimRng::new(1);
        for _ in 0..10_000 {
            let x = rng.unit();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn mean_of_unit_draws_is_half() {
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.unit()).sum();
        assert!((sum / n as f64 - 0.5).abs() < 0.005);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn step_integral_equals_sum_of_segments(changes in proptest::collection::vec((1u64..1_000, 0.0f64..100.0), 1..20)) {
            let mut sig = StepSignal::new(0.0);
            let mut t = 0u64;
            let mut segments: Vec<(u64, u64, f64)> = Vec::new(); // (from, to, value)
            let mut prev_v = 0.0;
            for (dt, v) in changes {
                let nt = t + dt;
                segments.push((t, nt, prev_v));
                sig.set(SimTime::from_micros(nt), v);
                t = nt;
                prev_v = v;
            }
            let end = t + 1_000;
            segments.push((t, end, prev_v));
            let expected: f64 = segments.iter().map(|&(a, b, v)| v * (b - a) as f64 / 1e6).sum();
            let got = sig.integral(SimTime::ZERO, SimTime::from_micros(end));
            prop_assert!((got - expected).abs() < 1e-9 * (1.0 + expected.abs()));
        }

        #[test]
        fn step_at_matches_last_set_before(points in proptest::collection::vec((1u64..10_000, -5.0f64..5.0), 1..30), query in 0u64..20_000) {
            let mut sig = StepSignal::new(1.5);
            let mut t = 0u64;
            let mut trace = vec![(0u64, 1.5)];
            for (dt, v) in points {
                t += dt;
                sig.set(SimTime::from_micros(t), v);
                trace.push((t, v));
            }
            let expected = trace.iter().rev().find(|&&(pt, _)| pt <= query).map(|&(_, v)| v).unwrap_or(1.5);
            prop_assert_eq!(sig.at(SimTime::from_micros(query)), expected);
        }
    }
}
