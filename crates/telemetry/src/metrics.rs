//! Metric primitives: counters, gauges, histograms and span timers.
//!
//! All handles are cheap `Arc` clones of shared cores; the recording
//! operations are single relaxed atomic RMWs so they are safe (and
//! cheap) on the 5 kHz sampling path.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use serde::Serialize;

use crate::clock::Clock;

/// Number of counter shards. A small power of two: enough to keep the
/// handful of worker threads a vantage point runs off each other's
/// cache lines without bloating snapshots.
const COUNTER_SHARDS: usize = 8;

/// Number of log2 histogram buckets; bucket `i > 0` covers values in
/// `[2^(i-1), 2^i)` and bucket 0 covers exactly zero. The last bucket
/// absorbs everything ≥ 2^62.
pub const HISTOGRAM_BUCKETS: usize = 64;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

thread_local! {
    static SHARD: usize = {
        use std::sync::atomic::AtomicUsize;
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS
    };
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

#[derive(Default)]
pub(crate) struct CounterCore {
    shards: [PaddedU64; COUNTER_SHARDS],
}

/// A monotonically-increasing event counter, sharded across cache
/// lines so concurrent writers do not contend.
#[derive(Clone, Default)]
pub struct Counter {
    core: Arc<CounterCore>,
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
        let shard = SHARD.with(|s| *s);
        self.core.shards[shard].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total across all shards.
    pub fn get(&self) -> u64 {
        self.core
            .shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
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

fn bucket_index(value: u64) -> usize {
    ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
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

    /// Record a block of samples with one shared-state merge.
    ///
    /// Buckets, sum and min/max accumulate in locals first, then land in
    /// the shared core with one atomic RMW per *touched bucket* plus four
    /// for the scalars — instead of five per sample. Equivalent to
    /// calling [`Self::record`] per value; hot sampling loops (the
    /// Monsoon's segment-batched path) call this once per chunk.
    pub fn record_slice(&self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for &v in values {
            buckets[bucket_index(v)] += 1;
            sum = sum.wrapping_add(v);
            min = min.min(v);
            max = max.max(v);
        }
        let core = &self.core;
        for (shared, &local) in core.buckets.iter().zip(buckets.iter()) {
            if local > 0 {
                shared.fetch_add(local, Ordering::Relaxed);
            }
        }
        core.count.fetch_add(values.len() as u64, Ordering::Relaxed);
        core.sum.fetch_add(sum, Ordering::Relaxed);
        core.min.fetch_min(min, Ordering::Relaxed);
        core.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Start an RAII span: the elapsed virtual time between now and the
    /// guard's drop is recorded as one sample, in microseconds.
    pub fn time<'h>(&'h self, clock: &'h dyn Clock) -> SpanGuard<'h> {
        SpanGuard {
            histogram: self,
            clock,
            start: clock.now_micros(),
        }
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
#[derive(Clone, Debug, PartialEq, Serialize)]
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

// ---------------------------------------------------------------------------
// Span timer
// ---------------------------------------------------------------------------

/// RAII timer: records elapsed virtual microseconds into its histogram
/// when dropped.
pub struct SpanGuard<'h> {
    histogram: &'h Histogram,
    clock: &'h dyn Clock,
    start: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.clock.now_micros();
        self.histogram.record(end.saturating_sub(self.start));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;

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

    #[test]
    fn record_slice_matches_per_sample_records() {
        let per_sample = Histogram::default();
        let sliced = Histogram::default();
        let values: Vec<u64> = (0..5000u64).map(|i| (i * 2654435761) % 1_000_000).collect();
        for &v in &values {
            per_sample.record(v);
        }
        for block in values.chunks(1024) {
            sliced.record_slice(block);
        }
        sliced.record_slice(&[]);
        assert_eq!(per_sample.snapshot(), sliced.snapshot());
    }

    #[test]
    fn empty_histogram_is_inert() {
        let snap = Histogram::default().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.percentile(0.99), 0);
        assert_eq!(snap.mean(), 0.0);
    }

    #[test]
    fn span_records_virtual_elapsed() {
        let clock = VirtualClock::new();
        let h = Histogram::default();
        clock.advance_to(1_000);
        {
            let _span = h.time(&clock);
            clock.advance_to(1_250);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 250);
    }
}
