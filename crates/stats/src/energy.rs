//! Energy integration: from current sample streams to the discharge (mAh)
//! and energy (mWh) numbers the paper reports.
//!
//! The Monsoon reports instantaneous current at a fixed sampling rate; the
//! battery discharge over a test is the time integral of that current.

use serde::Serialize;

/// Streaming accumulator used by the Monsoon client on the controller: it
/// never stores the full 5 kHz trace, only running aggregates, mirroring
/// how long-running tests keep memory bounded on a Raspberry Pi.
#[derive(Clone, Debug, Default, Serialize)]
pub struct EnergyAccumulator {
    samples: u64,
    sum_ma: f64,
    sum_mw: f64,
    min_ma: f64,
    max_ma: f64,
    rate_hz: f64,
}

impl EnergyAccumulator {
    /// New accumulator for a stream at `rate_hz`.
    pub fn new(rate_hz: f64) -> Self {
        assert!(rate_hz > 0.0, "sampling rate must be positive");
        EnergyAccumulator {
            samples: 0,
            sum_ma: 0.0,
            sum_mw: 0.0,
            min_ma: f64::INFINITY,
            max_ma: f64::NEG_INFINITY,
            rate_hz,
        }
    }

    /// Feed one sample.
    pub fn push(&mut self, current_ma: f64, voltage_v: f64) {
        self.samples += 1;
        self.sum_ma += current_ma;
        self.sum_mw += current_ma * voltage_v;
        self.min_ma = self.min_ma.min(current_ma);
        self.max_ma = self.max_ma.max(current_ma);
    }

    /// Feed a block of samples at one voltage.
    ///
    /// Bit-identical to calling [`Self::push`] once per sample in order
    /// (the accumulation runs in the same sequence, just through
    /// registers instead of one memory round-trip per sample) — the
    /// Monsoon's segment-batched path relies on that equivalence.
    pub fn push_slice(&mut self, currents_ma: &[f64], voltage_v: f64) {
        let mut sum_ma = self.sum_ma;
        let mut sum_mw = self.sum_mw;
        let mut min_ma = self.min_ma;
        let mut max_ma = self.max_ma;
        for &ma in currents_ma {
            sum_ma += ma;
            sum_mw += ma * voltage_v;
            min_ma = min_ma.min(ma);
            max_ma = max_ma.max(ma);
        }
        self.samples += currents_ma.len() as u64;
        self.sum_ma = sum_ma;
        self.sum_mw = sum_mw;
        self.min_ma = min_ma;
        self.max_ma = max_ma;
    }

    /// Number of samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Elapsed stream time in seconds.
    pub fn elapsed_secs(&self) -> f64 {
        self.samples as f64 / self.rate_hz
    }

    /// Mean current in mA (0 when empty).
    pub fn mean_ma(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_ma / self.samples as f64
        }
    }

    /// Total charge drawn, mAh: a Riemann sum over the samples, which
    /// at meter rates differs from the trapezoid rule far below the
    /// meter's own accuracy.
    pub fn mah(&self) -> f64 {
        self.sum_ma / self.rate_hz / 3600.0
    }

    /// Total energy drawn, mWh.
    pub fn mwh(&self) -> f64 {
        self.sum_mw / self.rate_hz / 3600.0
    }

    /// Smallest current seen (0 when empty).
    pub fn min_ma(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.min_ma
        }
    }

    /// Largest current seen (0 when empty).
    pub fn max_ma(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.max_ma
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_current_integrates_exactly() {
        // 100 mA for one hour at 10 Hz → 100 mAh.
        let mut acc = EnergyAccumulator::new(10.0);
        acc.push_slice(&vec![100.0; 36_000], 4.0);
        assert!((acc.mah() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn five_minute_video_example() {
        // 160 mA for 5 minutes ≈ 13.33 mAh — the Fig. 2 operating point.
        let mut acc = EnergyAccumulator::new(5000.0);
        acc.push_slice(&vec![160.0; 5 * 60 * 5000], 4.0);
        assert!((acc.mah() - 160.0 * 5.0 / 60.0).abs() < 1e-6);
    }

    #[test]
    fn mwh_uses_voltage() {
        let mut acc = EnergyAccumulator::new(1.0);
        acc.push_slice(&vec![100.0; 3600], 4.0);
        // 100 mA * 4 V = 400 mW for 1 h at 1 Hz → 400 mWh.
        assert!((acc.mwh() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn accumulator_matches_batch() {
        let rate = 100.0;
        let stream: Vec<f64> = (0..1000).map(|i| 100.0 + (i % 7) as f64).collect();
        let mut acc = EnergyAccumulator::new(rate);
        for &ma in &stream {
            acc.push(ma, 3.8);
        }
        assert_eq!(acc.samples(), 1000);
        let mah = stream.iter().sum::<f64>() / rate / 3600.0;
        assert!((acc.mah() - mah).abs() < 1e-12);
        let mean = stream.iter().sum::<f64>() / stream.len() as f64;
        assert!((acc.mean_ma() - mean).abs() < 1e-12);
        assert_eq!(acc.min_ma(), 100.0);
        assert_eq!(acc.max_ma(), 106.0);
        assert!((acc.elapsed_secs() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn push_slice_is_bit_identical_to_pushes() {
        let stream: Vec<f64> = (0..2000)
            .map(|i| 100.0 + ((i * 37) % 113) as f64 * 0.37)
            .collect();
        let mut one_by_one = EnergyAccumulator::new(500.0);
        let mut sliced = EnergyAccumulator::new(500.0);
        for &ma in &stream {
            one_by_one.push(ma, 4.0);
        }
        for block in stream.chunks(333) {
            sliced.push_slice(block, 4.0);
        }
        sliced.push_slice(&[], 4.0);
        assert_eq!(one_by_one.samples(), sliced.samples());
        assert_eq!(one_by_one.mah().to_bits(), sliced.mah().to_bits());
        assert_eq!(one_by_one.mwh().to_bits(), sliced.mwh().to_bits());
        assert_eq!(one_by_one.min_ma().to_bits(), sliced.min_ma().to_bits());
        assert_eq!(one_by_one.max_ma().to_bits(), sliced.max_ma().to_bits());
    }

    #[test]
    fn empty_accumulator_is_zero() {
        let acc = EnergyAccumulator::new(5000.0);
        assert_eq!(acc.mean_ma(), 0.0);
        assert_eq!(acc.mah(), 0.0);
        assert_eq!(acc.min_ma(), 0.0);
        assert_eq!(acc.max_ma(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = EnergyAccumulator::new(0.0);
    }
}
