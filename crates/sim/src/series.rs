//! Time-series recording utilities.
//!
//! Two shapes cover everything the simulators log:
//!
//! * [`UniformSeries`] — samples on a fixed grid `start + k·period`, as
//!   the Monsoon produces them; the instants are implied, not stored.
//! * [`StepSignal`] — a piecewise-constant signal (component power states,
//!   CPU load contributed by a process) with exact integration.

use crate::time::{SimDuration, SimTime};

/// Samples on a uniform grid: value `k` was taken at `start + k·period`.
///
/// A fixed-rate meter's trace needs no stored timestamps, so only the
/// values are kept.
#[derive(Clone, Debug, Default)]
pub struct UniformSeries {
    start: SimTime,
    period: SimDuration,
    values: Vec<f64>,
}

impl UniformSeries {
    /// A series of `values` taken every `period` from `start`.
    pub fn new(start: SimTime, period: SimDuration, values: Vec<f64>) -> Self {
        assert!(!period.is_zero(), "sample period must be positive");
        UniformSeries {
            start,
            period,
            values,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no samples are recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample values, in time order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Instant of the first sample (of the grid, when empty).
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Spacing between consecutive samples.
    pub fn period(&self) -> SimDuration {
        self.period
    }

    /// Instant of sample `k`.
    pub fn time(&self, k: usize) -> SimTime {
        self.start + self.period * k as u64
    }

    /// Arithmetic mean of values; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
        }
    }
}

/// A piecewise-constant signal: holds a value until explicitly changed.
///
/// Integration is exact, which is what makes the power accounting in
/// `batterylab-power` trustworthy regardless of the sampling rate.
#[derive(Clone, Debug)]
pub struct StepSignal {
    // (since, value); `points` is non-empty and time-ordered.
    points: Vec<(SimTime, f64)>,
}

impl StepSignal {
    /// A signal holding `initial` from t = 0.
    pub fn new(initial: f64) -> Self {
        StepSignal {
            points: vec![(SimTime::ZERO, initial)],
        }
    }

    /// Set the value from instant `t` on. `t` must not precede the last
    /// change. Setting the same value is a no-op (keeps the trace compact).
    pub fn set(&mut self, t: SimTime, value: f64) {
        let (last_t, last_v) = *self.points.last().expect("StepSignal is never empty");
        assert!(
            t >= last_t,
            "StepSignal::set out of order: {t:?} < {last_t:?}"
        );
        if value == last_v {
            return;
        }
        if t == last_t {
            // Overwrite an update at the same instant.
            self.points.last_mut().expect("non-empty").1 = value;
            // Collapse if it now equals the previous point.
            if self.points.len() >= 2 && self.points[self.points.len() - 2].1 == value {
                self.points.pop();
            }
        } else {
            self.points.push((t, value));
        }
    }

    /// Index of the step in effect at `t`.
    fn index_at(&self, t: SimTime) -> usize {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Value at instant `t` (the step in effect at `t`).
    pub fn at(&self, t: SimTime) -> f64 {
        self.points[self.index_at(t)].1
    }

    /// The constant segment containing `t`: its value and its exclusive
    /// end (the instant of the next change, [`SimTime::MAX`] on the
    /// final step). The value is bit-identical to [`Self::at`].
    pub fn segment_at(&self, t: SimTime) -> (f64, SimTime) {
        let i = self.index_at(t);
        let end = self
            .points
            .get(i + 1)
            .map(|&(pt, _)| pt)
            .unwrap_or(SimTime::MAX);
        (self.points[i].1, end)
    }

    /// A monotone segment cursor positioned at the start of the signal.
    ///
    /// Sampling loops that walk the signal in time order should prefer
    /// the cursor over per-query [`Self::at`]: a full pass over `n`
    /// queries against a signal with `m` change points costs `O(n + m)`
    /// instead of `O(n log m)`.
    pub fn cursor(&self) -> StepCursor<'_> {
        self.cursor_at(SimTime::ZERO)
    }

    /// A monotone segment cursor seated, by binary search, on the step in
    /// effect at `from`. A sweep that starts late in a long signal then
    /// costs `O(log m)` to seat instead of a scan over every earlier
    /// change point.
    pub fn cursor_at(&self, from: SimTime) -> StepCursor<'_> {
        StepCursor {
            signal: self,
            index: self.index_at(from),
        }
    }

    /// Current (latest) value.
    pub fn last(&self) -> f64 {
        self.points.last().expect("non-empty").1
    }

    /// Exact integral over `[from, to)` in `value·seconds`.
    pub fn integral(&self, from: SimTime, to: SimTime) -> f64 {
        if to <= from {
            return 0.0;
        }
        let mut acc = 0.0;
        let mut cursor = from;
        // Index of the step in effect at `from`.
        let mut i = self.index_at(from);
        while cursor < to {
            let value = self.points[i].1;
            let next_change = self
                .points
                .get(i + 1)
                .map(|&(pt, _)| pt)
                .unwrap_or(SimTime::MAX);
            let seg_end = next_change.min(to);
            acc += value * (seg_end - cursor).as_secs_f64();
            cursor = seg_end;
            i += 1;
        }
        acc
    }

    /// Mean value over `[from, to)`.
    pub fn mean(&self, from: SimTime, to: SimTime) -> f64 {
        let span = (to - from).as_secs_f64();
        if span <= 0.0 {
            return self.at(from);
        }
        self.integral(from, to) / span
    }

    /// Number of recorded change points (including the initial value).
    pub fn changes(&self) -> usize {
        self.points.len()
    }
}

/// A cursor over a [`StepSignal`]'s constant segments.
///
/// Queries that move forward in time advance the cursor by scanning from
/// its last position, so a monotone sweep over the whole signal is linear
/// in change points. A query that moves backwards re-seats the cursor
/// with a binary search, so results always agree with [`StepSignal::at`].
pub struct StepCursor<'a> {
    signal: &'a StepSignal,
    index: usize,
}

impl StepCursor<'_> {
    /// The segment containing `t`: `(value, exclusive_end)`, exactly as
    /// [`StepSignal::segment_at`] returns it.
    pub fn segment(&mut self, t: SimTime) -> (f64, SimTime) {
        let points = &self.signal.points;
        if points[self.index].0 > t {
            // Backwards query: re-seat (monotone callers never hit this).
            self.index = self.signal.index_at(t);
        }
        while self
            .index
            .checked_add(1)
            .and_then(|next| points.get(next))
            .is_some_and(|&(pt, _)| pt <= t)
        {
            self.index += 1;
        }
        let end = points
            .get(self.index + 1)
            .map(|&(pt, _)| pt)
            .unwrap_or(SimTime::MAX);
        (points[self.index].1, end)
    }

    /// Value at instant `t`; agrees with [`StepSignal::at`] bit-for-bit.
    pub fn at(&mut self, t: SimTime) -> f64 {
        self.segment(t).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_series_implies_its_instants() {
        let s = UniformSeries::new(
            SimTime::from_millis(5),
            SimDuration::from_micros(200),
            vec![1.0, 2.0, 6.0],
        );
        assert_eq!(s.len(), 3);
        assert_eq!(s.time(0), SimTime::from_millis(5));
        assert_eq!(s.time(2), SimTime::from_micros(5_400));
        assert_eq!(s.mean(), Some(3.0));
        assert_eq!(UniformSeries::default().mean(), None);
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn step_signal_at_and_integral() {
        let mut s = StepSignal::new(1.0);
        s.set(t(10), 3.0);
        s.set(t(20), 0.0);
        assert_eq!(s.at(t(0)), 1.0);
        assert_eq!(s.at(t(10)), 3.0);
        assert_eq!(s.at(t(15)), 3.0);
        assert_eq!(s.at(t(25)), 0.0);
        // integral over [0, 30): 10*1 + 10*3 + 10*0 = 40
        assert!((s.integral(t(0), t(30)) - 40.0).abs() < 1e-9);
        // partial window [5, 12): 5*1 + 2*3 = 11
        assert!((s.integral(t(5), t(12)) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn step_signal_dedupes_equal_values() {
        let mut s = StepSignal::new(2.0);
        s.set(t(1), 2.0);
        s.set(t(2), 2.0);
        assert_eq!(s.changes(), 1);
        s.set(t(3), 4.0);
        s.set(t(3), 2.0); // overwrite at same instant back to 2.0 → collapses
        assert_eq!(s.changes(), 1);
        assert_eq!(s.last(), 2.0);
    }

    #[test]
    fn step_signal_mean() {
        let mut s = StepSignal::new(0.0);
        s.set(t(5), 10.0);
        assert!((s.mean(t(0), t(10)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn step_signal_segment_at_reports_bounds() {
        let mut s = StepSignal::new(1.0);
        s.set(t(10), 3.0);
        s.set(t(20), 0.5);
        assert_eq!(s.segment_at(t(0)), (1.0, t(10)));
        assert_eq!(s.segment_at(t(10)), (3.0, t(20)));
        assert_eq!(s.segment_at(t(15)), (3.0, t(20)));
        assert_eq!(s.segment_at(t(25)), (0.5, SimTime::MAX));
    }

    #[test]
    fn cursor_matches_at_on_monotone_sweep() {
        let mut s = StepSignal::new(0.0);
        for k in 1..40u64 {
            s.set(SimTime::from_millis(k * 137), (k % 5) as f64);
        }
        let mut cursor = s.cursor();
        for us in (0..6_000_000u64).step_by(13_331) {
            let q = SimTime::from_micros(us);
            assert_eq!(cursor.at(q).to_bits(), s.at(q).to_bits(), "at {q:?}");
            let (v, end) = s.segment_at(q);
            assert_eq!(cursor.segment(q), (v, end));
        }
    }

    #[test]
    fn cursor_at_matches_segment_at_from_its_seat_on() {
        let mut s = StepSignal::new(0.5);
        for k in 1..60u64 {
            s.set(SimTime::from_millis(k * 97), (k % 7) as f64);
        }
        let queries: Vec<SimTime> = (0..7_000_000u64)
            .step_by(9_973)
            .map(SimTime::from_micros)
            .collect();
        for (i, &seat) in queries.iter().enumerate() {
            let mut cursor = s.cursor_at(seat);
            for &q in &queries[i..] {
                assert_eq!(
                    cursor.segment(q),
                    s.segment_at(q),
                    "seat {seat:?}, at {q:?}"
                );
            }
        }
    }

    #[test]
    fn cursor_recovers_from_backwards_query() {
        let mut s = StepSignal::new(1.0);
        s.set(t(5), 2.0);
        s.set(t(9), 3.0);
        let mut cursor = s.cursor();
        assert_eq!(cursor.at(t(10)), 3.0);
        assert_eq!(cursor.at(t(1)), 1.0);
        assert_eq!(cursor.segment(t(6)), (2.0, t(9)));
    }
}
