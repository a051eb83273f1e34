//! Energy integration: from current sample streams to the discharge (mAh)
//! and energy (mWh) numbers the paper reports.
//!
//! The Monsoon reports instantaneous current at a fixed sampling rate; the
//! battery discharge over a test is the time integral of that current.

/// Streaming accumulator used by the Monsoon client on the controller: it
/// never stores the full 5 kHz trace, only running aggregates, mirroring
/// how long-running tests keep memory bounded on a Raspberry Pi.
#[derive(Clone, Debug, Default)]
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
        self.min_ma = lower(self.min_ma, current_ma);
        self.max_ma = higher(self.max_ma, current_ma);
    }

    /// Feed a block of samples at one voltage.
    ///
    /// Bit-identical to calling [`Self::push`] once per sample in order —
    /// the Monsoon's segment-batched path relies on that equivalence. The
    /// two sums are one sequential chain each, as in `push`. The extremes
    /// run in two independent lanes, even and odd samples, combined at
    /// the end: a minimum or maximum is one value whatever order it is
    /// found in, except for a tie between `-0.0` and `+0.0`, where `push`
    /// keeps the zero it saw first. When the lanes end on zeros of
    /// opposite sign, that extreme is redone in order. Always inlined, so
    /// the loop compiles with its caller's target features.
    #[inline(always)]
    pub fn push_slice(&mut self, currents_ma: &[f64], voltage_v: f64) {
        let mut sum_ma = self.sum_ma;
        let mut sum_mw = self.sum_mw;
        let (mut min_even, mut min_odd) = (self.min_ma, f64::INFINITY);
        let (mut max_even, mut max_odd) = (self.max_ma, f64::NEG_INFINITY);
        let mut pairs = currents_ma.chunks_exact(2);
        for pair in &mut pairs {
            let (even, odd) = (pair[0], pair[1]);
            sum_ma += even;
            sum_mw += even * voltage_v;
            sum_ma += odd;
            sum_mw += odd * voltage_v;
            min_even = lower(min_even, even);
            min_odd = lower(min_odd, odd);
            max_even = higher(max_even, even);
            max_odd = higher(max_odd, odd);
        }
        if let [last] = *pairs.remainder() {
            sum_ma += last;
            sum_mw += last * voltage_v;
            min_even = lower(min_even, last);
            max_even = higher(max_even, last);
        }
        let signed_zeros = |a: f64, b: f64| a == 0.0 && b == 0.0 && a.to_bits() != b.to_bits();
        let in_order = |pick: fn(f64, f64) -> f64, from: f64| {
            currents_ma.iter().fold(from, |acc, &ma| pick(acc, ma))
        };
        self.min_ma = if signed_zeros(min_even, min_odd) {
            in_order(lower, self.min_ma)
        } else {
            lower(min_even, min_odd)
        };
        self.max_ma = if signed_zeros(max_even, max_odd) {
            in_order(higher, self.max_ma)
        } else {
            higher(max_even, max_odd)
        };
        self.samples += currents_ma.len() as u64;
        self.sum_ma = sum_ma;
        self.sum_mw = sum_mw;
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

/// The running minimum after seeing `x`: one compare-select, which keeps
/// `acc` when `x` is NaN (as `f64::min` does) and on a tie.
#[inline(always)]
fn lower(acc: f64, x: f64) -> f64 {
    if x < acc {
        x
    } else {
        acc
    }
}

/// The running maximum after seeing `x`; see [`lower`].
#[inline(always)]
fn higher(acc: f64, x: f64) -> f64 {
    if x > acc {
        x
    } else {
        acc
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

    /// `push_slice` of `block` after `prefill` pushes, against one `push`
    /// per sample: every field, bit for bit. A NaN sum is compared as
    /// NaN only: Rust leaves the sign and payload of a NaN that
    /// arithmetic produces unspecified (const-folded `-inf + inf` and the
    /// hardware's differ in sign), and the extremes never take a NaN.
    fn assert_slice_equals_pushes(prefill: &[f64], block: &[f64]) {
        let mut pushed = EnergyAccumulator::new(500.0);
        for &ma in prefill {
            pushed.push(ma, 3.7);
        }
        let mut sliced = pushed.clone();
        for &ma in block {
            pushed.push(ma, 3.7);
        }
        sliced.push_slice(block, 3.7);
        let canonical = |x: f64| if x.is_nan() { f64::NAN } else { x }.to_bits();
        let bits = |a: &EnergyAccumulator| {
            [
                a.samples,
                canonical(a.sum_ma),
                canonical(a.sum_mw),
                a.min_ma.to_bits(),
                a.max_ma.to_bits(),
            ]
        };
        assert_eq!(
            bits(&pushed),
            bits(&sliced),
            "prefill {prefill:?}, block {block:?}"
        );
    }

    /// Every block of length 0–5 over a palette holding NaN, both
    /// infinities and both zeros (so mixed-sign zeros tie as the minimum
    /// and as the maximum, in every order and lane), on a fresh
    /// accumulator and on pre-filled ones; then 1023-sample blocks.
    #[test]
    fn push_slice_equals_pushes_on_special_values() {
        const PALETTE: [f64; 8] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.5,
            -2.25,
            7.0,
        ];
        let prefills: [&[f64]; 5] = [&[], &[0.0], &[-0.0], &[3.0, f64::NAN], &[-0.0, 0.0]];
        for len in 0..=5u32 {
            for code in 0..PALETTE.len().pow(len) {
                let block: Vec<f64> = (0..len)
                    .map(|k| PALETTE[code / PALETTE.len().pow(k) % PALETTE.len()])
                    .collect();
                for prefill in prefills {
                    assert_slice_equals_pushes(prefill, &block);
                }
            }
        }
        // Long blocks: drawn from the palette, and zeros of both signs as
        // the extremes of otherwise positive or negative readings.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut draw = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize % n
        };
        for _ in 0..64 {
            let mixed: Vec<f64> = (0..1023).map(|_| PALETTE[draw(PALETTE.len())]).collect();
            let nonneg: Vec<f64> = (0..1023)
                .map(|_| [0.0, -0.0, 0.02, 160.0][draw(4)])
                .collect();
            let nonpos: Vec<f64> = nonneg.iter().map(|v| -v).collect();
            for block in [&mixed, &nonneg, &nonpos] {
                for prefill in prefills {
                    assert_slice_equals_pushes(prefill, block);
                }
            }
        }
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
