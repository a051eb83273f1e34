//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
///
/// Non-finite samples are rejected at construction; quantiles use linear
/// interpolation between order statistics (type-7, the numpy default), so
/// medians of even-length samples behave as users expect.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples. Panics if any sample is NaN/±inf or if the
    /// slice is empty — an empty CDF has no meaningful quantiles and
    /// constructing one is always a harness bug.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "Cdf from empty sample set");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "Cdf requires finite samples"
        );
        let mut sorted = sorted_by_counting(samples).unwrap_or_else(|| {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            sorted
        });
        // `total_cmp` puts -0.0 before +0.0, where a stable sort by value
        // keeps zeros in input order. Every other tie has identical bits,
        // so writing the input's zeros back in input order makes the
        // result bit-identical to the stable sort.
        let zeros = sorted.partition_point(|&x| x < 0.0)..sorted.partition_point(|&x| x <= 0.0);
        let run = &mut sorted[zeros];
        if run.first().is_some_and(|z| z.is_sign_negative())
            && run.last().is_some_and(|z| z.is_sign_positive())
        {
            for (slot, &z) in run.iter_mut().zip(samples.iter().filter(|&&x| x == 0.0)) {
                *slot = z;
            }
        }
        Cdf { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false: construction rejects empty sample sets.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Empirical CDF value `P(X <= x)`.
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Fraction of samples strictly above `x` — e.g. the paper's
    /// "in 10% of the measurements the load is over 95%".
    pub fn fraction_above(&self, x: f64) -> f64 {
        1.0 - self.fraction_at_or_below(x)
    }

    /// Quantile `q ∈ [0, 1]` with linear interpolation.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = pos - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Mean of the samples.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Evenly spaced `(x, P(X <= x))` points for plotting, always including
    /// the extremes. `points >= 2`.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two curve points");
        (0..points)
            .map(|i| {
                let q = i as f64 / (points - 1) as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// Sorted access to the underlying samples.
    pub fn sorted_samples(&self) -> &[f64] {
        &self.sorted
    }
}

/// Inputs at least this long try [`sorted_by_counting`] first.
const COUNTING_MIN_LEN: usize = 8192;

/// Most distinct values [`sorted_by_counting`] takes on; more fall back
/// to the sort.
const COUNTING_MAX_DISTINCT: usize = 4096;

/// Open-addressing slots: twice the distinct cap keeps the table at most
/// half full. A power of two, so probing wraps with a mask.
const COUNTING_SLOTS: usize = 2 * COUNTING_MAX_DISTINCT;

/// `samples` ordered by `total_cmp`, built by counting: each distinct bit
/// pattern is counted in a small open-addressing table, only the distinct
/// values are sorted, and each is repeated by its count. A quantised
/// meter's readings take few distinct values (fig. 2's 150 000 readings
/// take about 2 000), so this is exact and far cheaper than sorting them
/// all. `None` when `samples` is short or takes too many distinct values.
///
/// `total_cmp` orders distinct bit patterns strictly and equal ones are
/// the same value, so the result is bit-identical to the sort's.
fn sorted_by_counting(samples: &[f64]) -> Option<Vec<f64>> {
    if samples.len() < COUNTING_MIN_LEN {
        return None;
    }
    let shift = 64 - COUNTING_SLOTS.trailing_zeros();
    // (bits, count); a zero count marks an empty slot.
    let mut table = vec![(0u64, 0usize); COUNTING_SLOTS];
    let mut distinct = 0;
    for &x in samples {
        let bits = x.to_bits();
        // Fibonacci hashing: the top bits of the product mix every bit.
        let mut slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let (key, count) = &mut table[slot];
            if *count == 0 {
                if distinct == COUNTING_MAX_DISTINCT {
                    return None;
                }
                distinct += 1;
                (*key, *count) = (bits, 1);
                break;
            }
            if *key == bits {
                *count += 1;
                break;
            }
            slot = (slot + 1) & (COUNTING_SLOTS - 1);
        }
    }
    table.retain(|&(_, count)| count > 0);
    table.sort_unstable_by(|a, b| f64::from_bits(a.0).total_cmp(&f64::from_bits(b.0)));
    let mut sorted = Vec::with_capacity(samples.len());
    for (bits, count) in table {
        sorted.resize(sorted.len() + count, f64::from_bits(bits));
    }
    Some(sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        let odd = Cdf::from_samples(&[3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), 2.0);
        let even = Cdf::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.median(), 2.5);
    }

    #[test]
    fn quantile_extremes() {
        let c = Cdf::from_samples(&[5.0, 1.0, 9.0]);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.quantile(1.0), 9.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 9.0);
    }

    #[test]
    fn fraction_at_or_below_counts_ties() {
        let c = Cdf::from_samples(&[1.0, 2.0, 2.0, 3.0]);
        assert_eq!(c.fraction_at_or_below(2.0), 0.75);
        assert_eq!(c.fraction_at_or_below(0.5), 0.0);
        assert_eq!(c.fraction_at_or_below(3.0), 1.0);
        assert!((c.fraction_above(2.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn curve_is_monotonic() {
        let samples: Vec<f64> = (0..100).map(|i| (i * 7 % 13) as f64).collect();
        let c = Cdf::from_samples(&samples);
        let curve = c.curve(21);
        assert_eq!(curve.len(), 21);
        for w in curve.windows(2) {
            assert!(w[1].0 >= w[0].0);
            assert!(w[1].1 >= w[0].1);
        }
        assert_eq!(curve[0].1, 0.0);
        assert_eq!(curve[20].1, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = Cdf::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = Cdf::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    fn sort_matches_the_stable_reference_bit_for_bit() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut shuffled = Vec::new();
        for _ in 0..2_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.push(match state % 5 {
                0 => 0.0,
                1 => -0.0,
                k => (state >> 40) as f64 / 64.0 - (k as f64) * 1000.0,
            });
        }
        let cases: [&[f64]; 9] = [
            &[3.5],
            &[-0.0],
            &[2.0, -1.5, 2.0, 7.25, -1.5, 0.5, 2.0, -1.5],
            &[0.0, -0.0, 0.0, 1.0, -2.0, 3.0],
            &[1.0, 0.0, -3.0, -0.0, -4.0, 0.0, 2.0, -0.0],
            &[5.0, -1.0, 2.0, -0.0, 0.0, -0.0],
            &[-0.0, 0.0, -0.0, 0.0],
            &[4.0, -0.0, -0.0, 1.0],
            &shuffled,
        ];
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for case in cases {
            let mut reference = case.to_vec();
            reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let cdf = Cdf::from_samples(case);
            assert_eq!(bits(cdf.sorted_samples()), bits(&reference), "{case:?}");
        }
    }

    #[test]
    fn singleton() {
        let c = Cdf::from_samples(&[4.2]);
        assert_eq!(c.median(), 4.2);
        assert_eq!(c.quantile(0.25), 4.2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Sample `raw` from a palette of `palette` values: both signed zeros
    /// and multiples of a 0.02 mA LSB on either side of zero.
    fn value(raw: u64, palette: u64) -> f64 {
        match raw % palette {
            0 => 0.0,
            1 => -0.0,
            k => (k as f64 - (palette / 2) as f64) * 0.02,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Lengths span the counting threshold and palettes span the
        /// distinct cap, so the sort, the counting construction and the
        /// fallback after a full table all run.
        #[test]
        fn counting_matches_the_stable_sort_bit_for_bit(
            palette in 2u64..6_000,
            raw in prop::collection::vec(0u64..u64::MAX, 1..20_000),
        ) {
            let samples: Vec<f64> = raw.iter().map(|&r| value(r, palette)).collect();
            let mut reference = samples.clone();
            reference.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(Cdf::from_samples(&samples).sorted_samples()),
                bits(&reference)
            );
        }
    }
}
