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

        /// Random `set`/`release_before` sequences against an unreleased
        /// copy: after every step, each read at or after the floor is
        /// bit-identical to the copy's. (Reads below it panic; the
        /// `series` unit tests pin that.)
        #[test]
        fn released_reads_match_the_unreleased_copy(
            ops in proptest::collection::vec((0u64..5, 0u64..400, 0usize..4), 1..60),
            probes in proptest::collection::vec(0u64..1_500, 4..12),
        ) {
            const VALUES: [f64; 4] = [0.0, 1.5, -2.25, 1.5e-3];
            let mut released = StepSignal::new(1.0);
            let mut copy = StepSignal::new(1.0);
            let mut now = 0u64;
            for (kind, dt, v) in ops {
                if kind == 0 {
                    // Release up to a few steps back, as a job's window
                    // lies behind the device's clock.
                    released.release_before(SimTime::from_micros(now.saturating_sub(3 * dt)));
                } else {
                    // A set at the previous instant overwrites it; equal
                    // values dedupe.
                    let at = if kind == 1 { now } else { now + dt };
                    released.set(SimTime::from_micros(at), VALUES[v]);
                    copy.set(SimTime::from_micros(at), VALUES[v]);
                    now = at;
                }
                let floor = released.floor().as_micros();
                let mut cursor = released.cursor_at(released.floor());
                let mut reference = copy.cursor_at(released.floor());
                let mut queries: Vec<u64> = probes.iter().map(|p| floor + p).collect();
                queries.sort_unstable();
                for &q in &queries {
                    let q = SimTime::from_micros(q);
                    prop_assert_eq!(released.at(q).to_bits(), copy.at(q).to_bits());
                    let (a, b) = (released.segment_at(q), copy.segment_at(q));
                    prop_assert_eq!((a.0.to_bits(), a.1), (b.0.to_bits(), b.1));
                    let (a, b) = (cursor.segment(q), reference.segment(q));
                    prop_assert_eq!((a.0.to_bits(), a.1), (b.0.to_bits(), b.1));
                    let from = released.floor();
                    prop_assert_eq!(
                        released.integral(from, q).to_bits(),
                        copy.integral(from, q).to_bits()
                    );
                    prop_assert_eq!(released.mean(from, q).to_bits(), copy.mean(from, q).to_bits());
                }
                prop_assert_eq!(released.last().to_bits(), copy.last().to_bits());
            }
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
