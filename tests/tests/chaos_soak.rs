//! Chaos soak: full experiment pipelines under randomized-but-seeded
//! fault schedules. The harness itself (`batterylab::chaos`) asserts the
//! robustness invariants per run — no lost or duplicated jobs, credit
//! accounting conserved across retries, every injected fault journaled.
//! This test drives it across seeds and checks the cross-run properties:
//! determinism at any worker count and fault/fault-free accounting parity.

use batterylab::chaos::{run_chaos, ChaosConfig};

/// A small seed sweep at full intensity: the invariants must hold on
/// every schedule the plan generator can produce.
#[test]
fn soak_holds_invariants_across_seeds() {
    for seed in [1, 17, 42] {
        let report = run_chaos(&ChaosConfig {
            seed,
            runs: 2,
            intensity: 1.0,
            jobs: 1,
        });
        assert!(report.passed(), "seed {seed}: {:?}", report.violations);
        assert_eq!(report.jobs_submitted, 6, "seed {seed}");
        assert_eq!(
            report.jobs_succeeded + report.jobs_failed,
            report.jobs_submitted,
            "seed {seed}: every job terminal exactly once"
        );
    }
}

/// Same (seed, plan) ⇒ byte-identical merged telemetry at any `--jobs`
/// count: the chaos schedule, retries and supervision must all derive
/// from the sim clock and seeded streams, never from worker scheduling.
#[test]
fn soak_is_deterministic_at_any_job_count() {
    let base = ChaosConfig {
        seed: 23,
        runs: 3,
        intensity: 0.9,
        jobs: 1,
    };
    let serial = run_chaos(&base);
    let parallel = run_chaos(&ChaosConfig { jobs: 4, ..base });
    assert!(serial.passed(), "{:?}", serial.violations);
    assert!(parallel.passed(), "{:?}", parallel.violations);
    assert_eq!(serial.faults_injected, parallel.faults_injected);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "merged report must be byte-identical regardless of worker count"
    );
}

/// Server crashes drawn by the chaos schedule kill the access server
/// mid-drain and rebuild it from the write-ahead log; every invariant
/// (no lost/duplicated jobs, conserved ledger, journaled faults) must
/// keep holding, and the merged report must stay byte-identical at any
/// worker count.
#[test]
fn server_crashes_hold_invariants_at_any_job_count() {
    let base = ChaosConfig {
        seed: 13,
        runs: 3,
        intensity: 1.0,
        jobs: 1,
    };
    let serial = run_chaos(&base);
    assert!(serial.passed(), "{:?}", serial.violations);
    assert!(
        serial.server_crashes > 0,
        "chaos schedule never drew a server crash"
    );
    assert_eq!(
        serial.jobs_succeeded + serial.jobs_failed,
        serial.jobs_submitted,
        "every job terminal exactly once across crashes"
    );
    let parallel = run_chaos(&ChaosConfig { jobs: 4, ..base });
    assert!(parallel.passed(), "{:?}", parallel.violations);
    assert_eq!(serial.server_crashes, parallel.server_crashes);
    assert_eq!(
        serial.to_json(),
        parallel.to_json(),
        "crash/recovery cycles must not break worker-count determinism"
    );
}

/// An injected fault schedule must not change what a job is billed:
/// failed attempts are never charged, so the fault-free and faulted runs
/// both charge exactly the successful device time they report.
#[test]
fn faults_do_not_corrupt_energy_accounting() {
    let quiet = run_chaos(&ChaosConfig {
        seed: 5,
        runs: 1,
        intensity: 0.0,
        jobs: 1,
    });
    let noisy = run_chaos(&ChaosConfig {
        seed: 5,
        runs: 1,
        intensity: 1.0,
        jobs: 1,
    });
    // The per-run billing invariant (charges == successful device time)
    // is checked inside the harness for both; here we confirm the quiet
    // run saw no faults and everything succeeded.
    assert!(quiet.passed(), "{:?}", quiet.violations);
    assert!(noisy.passed(), "{:?}", noisy.violations);
    assert_eq!(quiet.faults_injected, 0);
    assert_eq!(quiet.jobs_succeeded, quiet.jobs_submitted);
}

/// FNV-1a over `bytes`: a stable 64-bit digest for pinning output.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The soak `blab chaos --seed 42 --runs 4 --intensity 1.0` runs, pinned
/// to literals: its merged report's digest and length, and its fault,
/// crash and job counts. Any change to the order of RNG draws, fault
/// checks, device idling, journal events or WAL records moves them, and
/// so does any change to a WAL record's size (`durable.wal_bytes`).
#[test]
fn seed_42_soak_is_pinned() {
    let report = run_chaos(&ChaosConfig {
        seed: 42,
        runs: 4,
        intensity: 1.0,
        jobs: 1,
    });
    assert!(report.passed(), "{:?}", report.violations);
    let json = report.to_json();
    assert_eq!(
        (fnv1a(json.as_bytes()), json.len()),
        (0xd82b_a216_724c_3018, 18_286)
    );
    assert_eq!(
        (
            report.faults_injected,
            report.server_crashes,
            report.jobs_submitted,
            report.jobs_succeeded,
            report.jobs_failed
        ),
        (10, 1, 12, 12, 0)
    );
}
