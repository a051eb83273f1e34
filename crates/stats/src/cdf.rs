//! Empirical cumulative distribution functions.

use serde::Serialize;

/// An empirical CDF over `f64` samples.
///
/// Non-finite samples are rejected at construction; quantiles use linear
/// interpolation between order statistics (type-7, the numpy default), so
/// medians of even-length samples behave as users expect.
#[derive(Clone, Debug, Serialize)]
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
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
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
    fn singleton() {
        let c = Cdf::from_samples(&[4.2]);
        assert_eq!(c.median(), 4.2);
        assert_eq!(c.quantile(0.25), 4.2);
    }
}
