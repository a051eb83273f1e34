//! Deterministic parallel execution of independent evaluation runs.
//!
//! Every measurement in the paper's §4 — a scenario of Fig. 2, one
//! browser repetition of Fig. 3, a VPN exit of Table 2 — is an
//! independent run on its own simulated vantage point, exactly as the
//! runs on BatteryLab's distributed nodes are independent of each
//! other. This module fans those runs out across a worker pool while
//! keeping the output *byte-identical regardless of the job count*:
//!
//! 1. The caller enumerates **run descriptors** up front, in the order
//!    the figure reports them.
//! 2. Each run derives its own seed from `(EvalConfig::seed, run
//!    index)` via [`run_seed`] (or re-derives the figure's historical
//!    per-run streams), so nothing a run computes depends on which
//!    worker executed it or what ran before it.
//! 3. Results land in a slot per descriptor and are merged back **in
//!    descriptor order** — workers race on wall-clock only, never on
//!    output order.
//!
//! Per-run telemetry follows the same scheme: each run's platform gets
//! its own `Registry`, and the figure merges them in descriptor order
//! with `Registry::merge` (the per-node registry + merge story from the
//! roadmap).

use batterylab_sim::SimRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count to use when the caller asks for "all of the machine":
/// the host's available parallelism, 1 when it cannot be determined.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The seed for run `index` of the sweep labelled `label`, derived from
/// the experiment seed the same way subsystem RNG streams are derived:
/// a stable hash, so the mapping is independent of job count, execution
/// order and every other run.
pub fn run_seed(seed: u64, label: &str, index: usize) -> u64 {
    SimRng::new(seed)
        .derive(&format!("{label}/run{index}"))
        .seed()
}

/// Execute `run` once per descriptor across `jobs` workers and return
/// the results in descriptor order.
///
/// `jobs == 1` (or a single descriptor) short-circuits to a plain
/// serial loop on the caller's thread — no pool, no overhead. With more
/// jobs, the caller's thread itself works as one of the pool (only
/// `jobs - 1` threads are spawned), but starting even one thread costs
/// tens of microseconds, so a sweep whose runs finish faster than that
/// should not come here: Table 2's five VPN runs (about 10 µs together)
/// read 0.13× at 2 workers until they moved to a plain loop. Workers pull
/// the next unclaimed index from a shared cursor, so long runs and
/// short runs pack tightly; results are written into a slot per index
/// and stitched back in order at the end. A panicking run propagates
/// out of the scope, like the serial loop would.
pub fn run_ordered<D, T, F>(jobs: usize, descriptors: &[D], run: F) -> Vec<T>
where
    D: Sync,
    T: Send,
    F: Fn(usize, &D) -> T + Sync,
{
    let jobs = jobs.max(1).min(descriptors.len().max(1));
    if jobs == 1 || descriptors.len() <= 1 {
        return descriptors
            .iter()
            .enumerate()
            .map(|(index, d)| run(index, d))
            .collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = descriptors.iter().map(|_| Mutex::new(None)).collect();
    let work = |next: &AtomicUsize| loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(descriptor) = descriptors.get(index) else {
            break;
        };
        let result = run(index, descriptor);
        *slots[index].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(|| work(&next));
        }
        work(&next);
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(index, slot)| {
            slot.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .unwrap_or_else(|| panic!("run {index} produced no result"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_descriptor_order() {
        let descriptors: Vec<usize> = (0..32).collect();
        for jobs in [1, 2, 4, 7] {
            let out = run_ordered(jobs, &descriptors, |index, &d| {
                assert_eq!(index, d);
                d * 10
            });
            assert_eq!(out, (0..32).map(|d| d * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn job_count_does_not_change_derived_seeds() {
        let serial: Vec<u64> = (0..8).map(|i| run_seed(42, "figX", i)).collect();
        let parallel = run_ordered(4, &(0..8).collect::<Vec<usize>>(), |index, _| {
            run_seed(42, "figX", index)
        });
        assert_eq!(serial, parallel);
        // Distinct runs get distinct streams.
        let mut dedup = serial.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), serial.len());
    }

    #[test]
    fn run_seed_is_label_scoped() {
        assert_ne!(run_seed(1, "fig3", 0), run_seed(1, "fig6", 0));
        assert_eq!(run_seed(1, "fig3", 0), run_seed(1, "fig3", 0));
    }

    #[test]
    fn oversized_job_count_is_clamped() {
        let out = run_ordered(64, &[1, 2, 3], |_, &d| d);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_descriptor_set_is_fine() {
        let out: Vec<u32> = run_ordered(4, &[], |_, d: &u32| *d);
        assert!(out.is_empty());
    }
}
