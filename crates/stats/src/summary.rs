//! Summary statistics (mean ± standard deviation), the form the paper
//! reports in Figures 3 and 6 ("average battery discharge, standard
//! deviation as errorbars").

use serde::Serialize;

/// Mean / standard deviation / extremes of a sample set.
#[derive(Clone, Copy, Debug, PartialEq, Serialize)]
pub struct Summary {
    /// Number of samples aggregated.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected); 0 for n < 2.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarise a sample set. Panics on empty or non-finite input.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "Summary of empty sample set");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "Summary requires finite samples"
        );
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std_dev = if n < 2 {
            0.0
        } else {
            let ss: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum();
            (ss / (n - 1) as f64).sqrt()
        };
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Summary {
            n,
            mean,
            std_dev,
            min,
            max,
        }
    }

    /// True when `other`'s mean lies within one standard deviation of this
    /// summary's mean (the paper's "variation stays between standard
    /// deviation bounds" criterion in §4.3).
    pub fn within_one_sigma_of(&self, other: &Summary) -> bool {
        (self.mean - other.mean).abs() <= self.std_dev
    }

    /// Relative difference of this mean vs a baseline mean.
    pub fn relative_to(&self, baseline: &Summary) -> f64 {
        if baseline.mean == 0.0 {
            return 0.0;
        }
        (self.mean - baseline.mean) / baseline.mean
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2} (n={})", self.mean, self.std_dev, self.n)
    }
}

/// Half-width of a normal-approximation 95 % confidence interval for the
/// mean of `summary` (1.96 · s/√n).
pub fn ci95_half_width(summary: &Summary) -> f64 {
    if summary.n == 0 {
        return 0.0;
    }
    1.96 * summary.std_dev / (summary.n as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_values() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std-dev with Bessel correction: sqrt(32/7).
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn single_sample_zero_std() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 3.5);
    }

    #[test]
    fn sigma_comparison() {
        let a = Summary::of(&[10.0, 12.0, 14.0]); // mean 12, std 2
        let b = Summary::of(&[13.0, 13.0, 13.0]); // mean 13
        assert!(a.within_one_sigma_of(&b));
        let c = Summary::of(&[20.0, 20.0, 20.0]);
        assert!(!a.within_one_sigma_of(&c));
    }

    #[test]
    fn relative_change() {
        let base = Summary::of(&[10.0, 10.0]);
        let plus = Summary::of(&[12.0, 12.0]);
        assert!((plus.relative_to(&base) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ci_shrinks_with_n() {
        let few = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        let many_vec: Vec<f64> = (0..400).map(|i| 1.0 + (i % 4) as f64).collect();
        let many = Summary::of(&many_vec);
        assert!(ci95_half_width(&many) < ci95_half_width(&few));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_rejected() {
        let _ = Summary::of(&[]);
    }

    #[test]
    fn display_format() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(format!("{s}"), "2.00 ± 1.41 (n=2)");
    }
}
