//! Metric primitives: counters, gauges and histograms.
//!
//! All handles are cheap `Arc` clones of shared cores; the recording
//! operations are single relaxed atomic RMWs so they are safe (and
//! cheap) on the 5 kHz sampling path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Serialize, Value};

/// Number of log2 histogram buckets; bucket `i > 0` covers values in
/// `[2^(i-1), 2^i)` and bucket 0 covers exactly zero. The last bucket
/// absorbs everything ≥ 2^62.
pub const HISTOGRAM_BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically-increasing event counter.
#[derive(Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A point-in-time signed value (queue depth, active sessions, ...).
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicI64>,
}

impl Gauge {
    /// Set to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

pub(crate) struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log2-bucketed histogram of `u64` samples (latencies in
/// microseconds, sizes in bytes).
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            core: Arc::new(HistogramCore::default()),
        }
    }
}

/// The bucket `value` lands in: 0 for zero, `i` for `[2^(i-1), 2^i)`,
/// and the last bucket for everything from 2^62 up.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Samples folded in a local, for one [`Histogram::record_block`] merge,
/// so a hot loop touches no shared atomic per value. Fill it through
/// [`Self::record`], or directly: a run of values known to share a
/// bucket adds its length to that bucket and to `count` at once.
#[derive(Debug, PartialEq)]
pub struct HistogramBlock {
    /// Per-bucket counts, bucketed by [`bucket_index`].
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Number of samples.
    pub count: u64,
    /// Sum of the samples, wrapping as the shared histogram's does.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramBlock {
    fn default() -> Self {
        HistogramBlock {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl HistogramBlock {
    /// Fold one sample, as [`Histogram::record`] would.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let core = &self.core;
        core.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        core.count.fetch_add(1, Ordering::Relaxed);
        core.sum.fetch_add(value, Ordering::Relaxed);
        core.min.fetch_min(value, Ordering::Relaxed);
        core.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Record a locally folded block with one shared-state merge: one
    /// atomic add per non-empty bucket plus four for the scalars, instead
    /// of five per sample. Equivalent to calling [`Self::record`] once per
    /// sample the block holds; an empty block changes nothing. The
    /// Monsoon folds a whole sampling run into one block and records it
    /// here once.
    pub fn record_block(&self, block: &HistogramBlock) {
        if block.count == 0 {
            return;
        }
        let core = &self.core;
        for (shared, &local) in core.buckets.iter().zip(block.buckets.iter()) {
            if local > 0 {
                shared.fetch_add(local, Ordering::Relaxed);
            }
        }
        core.count.fetch_add(block.count, Ordering::Relaxed);
        core.sum.fetch_add(block.sum, Ordering::Relaxed);
        core.min.fetch_min(block.min, Ordering::Relaxed);
        core.max.fetch_max(block.max, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Fold another histogram's samples into this one: bucket counts,
    /// count and sum add; min/max widen. `other` is left untouched, so a
    /// per-worker histogram can be merged into a fleet-wide one while the
    /// worker's own snapshot stays valid.
    pub fn merge_from(&self, other: &Histogram) {
        let ours = &self.core;
        let theirs = &other.core;
        for (mine, theirs) in ours.buckets.iter().zip(theirs.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        let count = theirs.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        ours.count.fetch_add(count, Ordering::Relaxed);
        ours.sum
            .fetch_add(theirs.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        ours.min
            .fetch_min(theirs.min.load(Ordering::Relaxed), Ordering::Relaxed);
        ours.max
            .fetch_max(theirs.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// A consistent-enough copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.core;
        let buckets: Vec<u64> = core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = core.count.load(Ordering::Relaxed);
        let min = core.min.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: core.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: core.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen histogram state with derived statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket counts; bucket `i > 0` covers `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
}

impl Serialize for HistogramSnapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_string(), self.count.to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("min".to_string(), self.min.to_value()),
            ("max".to_string(), self.max.to_value()),
            ("buckets".to_string(), self.buckets.to_value()),
        ])
    }
}

impl HistogramSnapshot {
    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`,
    /// clamped to the observed min/max.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= target {
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return upper.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_handles() {
        let c = Counter::default();
        let c2 = c.clone();
        c.inc();
        c2.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_last_value() {
        let g = Gauge::default();
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_stats() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 106);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 100);
        assert!((snap.mean() - 26.5).abs() < 1e-9);
        assert!(snap.percentile(0.5) <= 3);
        assert_eq!(snap.percentile(1.0), 100);
    }

    /// A block folded from `values` one [`HistogramBlock::record`] at a
    /// time.
    fn folded(values: &[u64]) -> HistogramBlock {
        let mut block = HistogramBlock::default();
        for &v in values {
            block.record(v);
        }
        block
    }

    #[test]
    fn record_block_matches_per_sample_records() {
        let per_sample = Histogram::default();
        let blocked = Histogram::default();
        let values: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        for &v in &values {
            per_sample.record(v);
        }
        for block in values.chunks(1024) {
            blocked.record_block(&folded(block));
        }
        blocked.record_block(&HistogramBlock::default());
        assert_eq!(per_sample.snapshot(), blocked.snapshot());
    }

    /// `record_block` lands each shape of block exactly as per-value
    /// `record` calls do: across a bucket edge, inside one bucket, all
    /// zeros, and at `u64::MAX`, whose bucket is clamped to the last. A
    /// block filled the one-bucket way (the bucket and `count` bumped by
    /// the run's length, its sum and extremes set at once) is the same
    /// block as one folded value by value.
    #[test]
    fn record_block_one_bucket_path_matches_records() {
        let blocks: [&[u64]; 5] = [
            &[131_071, 131_072, 131_071, 131_072, 131_071],
            &[131_072, 200_000, 262_143, 131_072],
            &[0, 0, 0],
            &[u64::MAX, u64::MAX],
            &[1 << 62, u64::MAX, 1 << 63],
        ];
        for block in blocks {
            let per_value = Histogram::default();
            let blocked = Histogram::default();
            per_value.record(7);
            blocked.record(7);
            for &v in block {
                per_value.record(v);
            }
            blocked.record_block(&folded(block));
            assert_eq!(per_value.snapshot(), blocked.snapshot(), "{block:?}");

            let (lo, hi) = (*block.iter().min().unwrap(), *block.iter().max().unwrap());
            if bucket_index(lo) == bucket_index(hi) {
                let mut one_bucket = HistogramBlock::default();
                one_bucket.buckets[bucket_index(lo)] += block.len() as u64;
                one_bucket.count += block.len() as u64;
                one_bucket.sum = block.iter().fold(0, |s: u64, &v| s.wrapping_add(v));
                (one_bucket.min, one_bucket.max) = (lo, hi);
                assert_eq!(one_bucket, folded(block), "{block:?}");
            }
        }
        let h = Histogram::default();
        h.record_block(&folded(&[u64::MAX, u64::MAX]));
        assert_eq!(h.snapshot().buckets[HISTOGRAM_BUCKETS - 1], 2);
    }

    #[test]
    fn empty_histogram_is_inert() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.percentile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }
}
