//! The time source for telemetry timestamps.
//!
//! Everything in BatteryLab runs on simulated time, so telemetry must
//! too: a wall-clock timestamp would differ between two same-seed runs
//! and break report determinism. Components advance a [`VirtualClock`]
//! from their sim time as they do work; journal entries and report
//! snapshots read it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, atomically-advanced virtual clock.
///
/// Cloning shares the underlying instant; `advance_to` is monotonic
/// (stale writers cannot move time backwards), which makes it safe to
/// publish sim time from several components racing on the same run.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    micros: Arc<AtomicU64>,
}

impl VirtualClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance to `micros` if that is later than the current instant.
    pub fn advance_to(&self, micros: u64) {
        self.micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Current time in microseconds since the epoch of the run.
    pub fn now_micros(&self) -> u64 {
        self.micros.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_clock_is_monotonic() {
        let clock = VirtualClock::new();
        clock.advance_to(100);
        clock.advance_to(50); // stale writer
        assert_eq!(clock.now_micros(), 100);
        clock.advance_to(250);
        assert_eq!(clock.now_micros(), 250);
    }

    #[test]
    fn clones_share_the_instant() {
        let a = VirtualClock::new();
        let b = a.clone();
        a.advance_to(7);
        assert_eq!(b.now_micros(), 7);
    }
}
