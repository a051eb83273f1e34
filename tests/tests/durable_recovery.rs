//! Durability properties: checkpointed sample runs resume bit-identically
//! from any crash instant, damaged checkpoints are rejected with a gap
//! report instead of being integrated, and the access server recovers
//! exactly from its write-ahead log — including a torn tail.

use batterylab::crashpoint::{compaction_sweep, sweep, CrashPointConfig};
use batterylab::durable::{CheckpointStream, GapKind};
use batterylab::platform::Platform;
use batterylab::power::{ConstantLoad, Monsoon};
use batterylab::sim::{SimRng, SimTime};
use batterylab::telemetry::Registry;
use proptest::prelude::*;

const RATE_HZ: f64 = 1000.0;
const DURATION_S: f64 = 2.0;
const INTERVAL: u64 = 200;

fn armed_monsoon(seed: u64) -> Monsoon {
    let mut m = Monsoon::new(SimRng::new(seed).derive("monsoon"));
    m.set_powered(true);
    m.set_voltage(4.0).unwrap();
    m.enable_vout().unwrap();
    m
}

fn checkpointed_run(seed: u64, stream: &mut CheckpointStream) -> batterylab::power::SampleRun {
    let load = ConstantLoad::new(300.0, 4.0);
    armed_monsoon(seed)
        .sample_run_checkpointed(&load, SimTime::ZERO, DURATION_S, RATE_HZ, stream)
        .expect("fault-free checkpointed run")
}

/// Histogram aggregate of a run's samples, for bit-level comparison.
fn sample_histogram(values: &[f64]) -> batterylab::telemetry::HistogramSnapshot {
    let registry = Registry::new();
    let h = registry.histogram("test.sample_ua");
    for &v in values {
        h.record((v * 1000.0).round() as u64);
    }
    h.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Crash a checkpointed sample run after a randomized number of
    /// sealed segments; the resumed run's samples, mAh, sample count
    /// and histogram must be bit-identical to the uninterrupted run.
    #[test]
    fn resumed_run_matches_uninterrupted_bit_for_bit(
        seed in 0u64..100,
        keep_frac in 0.0f64..1.0,
    ) {
        let mut full_stream = CheckpointStream::new(INTERVAL);
        let full = checkpointed_run(seed, &mut full_stream);

        let mut partial = CheckpointStream::new(INTERVAL);
        let _ = checkpointed_run(seed, &mut partial);
        let keep = (partial.segments.len() as f64 * keep_frac) as usize;
        partial.segments.truncate(keep);
        let resumed = checkpointed_run(seed, &mut partial);

        prop_assert_eq!(full.samples.values(), resumed.samples.values());
        prop_assert_eq!(full.energy.mah().to_bits(), resumed.energy.mah().to_bits());
        prop_assert_eq!(full.energy.samples(), resumed.energy.samples());
        prop_assert_eq!(
            sample_histogram(full.samples.values()),
            sample_histogram(resumed.samples.values())
        );
    }

    /// A damaged salvage — corrupted samples, a truncated tail segment,
    /// a missing middle segment, or a tampered cumulative aggregate —
    /// must be rejected with a gap report naming the offending segment,
    /// never silently integrated into the mAh totals.
    #[test]
    fn damaged_checkpoints_are_rejected_with_a_gap_report(
        seed in 0u64..50,
        victim in 0usize..8,
        mode in 0u8..4,
    ) {
        let mut stream = CheckpointStream::new(INTERVAL);
        let _ = checkpointed_run(seed, &mut stream);
        let mut victim = victim % stream.segments.len();

        let expected_kind = match mode {
            0 => {
                stream.segments[victim].samples[0] += 1.0;
                GapKind::Corrupt
            }
            1 => {
                stream.segments[victim].samples.pop();
                GapKind::Corrupt
            }
            2 => {
                // Removing the last segment is a clean truncation (a
                // valid resume point), so always take a middle one.
                victim = victim.min(stream.segments.len() - 2);
                stream.segments.remove(victim);
                GapKind::Gap
            }
            _ => {
                stream.segments[victim].cumulative.push(1.0, 4.0);
                GapKind::Inconsistent
            }
        };

        let load = ConstantLoad::new(300.0, 4.0);
        let err = armed_monsoon(seed)
            .sample_run_checkpointed(&load, SimTime::ZERO, DURATION_S, RATE_HZ, &mut stream)
            .expect_err("damaged checkpoint must not resume");
        match err {
            batterylab::power::MonsoonError::Checkpoint(report) => {
                prop_assert_eq!(report.kind, expected_kind);
                prop_assert_eq!(report.segment, victim as u64);
            }
            other => prop_assert!(false, "expected checkpoint rejection, got {other:?}"),
        }
    }

    /// Recovering the access server from any WAL prefix succeeds and
    /// yields a server that still serves requests — a crash after any
    /// fsync barrier loses only the unsynced suffix.
    #[test]
    fn any_wal_prefix_recovers_into_a_live_server(seed in 0u64..30, cut in 0u64..64) {
        let (mut platform, wal) = Platform::durable_testbed(seed);
        platform.server.enable_billing();
        platform.server.set_node_owner("node1", "alice");
        let total = wal.record_count();
        let k = 1 + cut % total;
        let recovered = batterylab::server::AccessServer::recover(&wal.prefix(k), &Registry::new());
        prop_assert!(recovered.is_ok(), "prefix {k}/{total}: {:?}", recovered.err());
    }
}

/// One engine: on a fresh stream, a checkpointed run is the plain run
/// plus sealing — same samples, aggregates, histogram and counters.
#[test]
fn plain_run_matches_checkpointed_run_on_a_fresh_stream() {
    let load = ConstantLoad::new(300.0, 4.0);
    let run = |stream: Option<&mut CheckpointStream>| {
        let registry = Registry::new();
        let mut meter = armed_monsoon(5);
        meter.set_telemetry(&registry);
        let run = match stream {
            Some(stream) => {
                meter.sample_run_checkpointed(&load, SimTime::ZERO, DURATION_S, RATE_HZ, stream)
            }
            None => meter.sample_run_at_rate(&load, SimTime::ZERO, DURATION_S, RATE_HZ),
        };
        (run.expect("fault-free run"), registry.snapshot())
    };
    let (plain, plain_report) = run(None);
    let mut stream = CheckpointStream::new(INTERVAL);
    let (sealed, sealed_report) = run(Some(&mut stream));

    assert_eq!(plain.samples.values(), sealed.samples.values());
    assert_eq!(plain.energy.mah().to_bits(), sealed.energy.mah().to_bits());
    assert_eq!(plain.energy.mwh().to_bits(), sealed.energy.mwh().to_bits());
    assert_eq!(plain.energy.samples(), sealed.energy.samples());
    assert_eq!(
        sample_histogram(plain.samples.values()),
        sample_histogram(sealed.samples.values())
    );
    for counter in [
        "power.samples",
        "power.sample_runs",
        "power.overcurrent_trips",
    ] {
        assert_eq!(
            plain_report.counter(counter),
            sealed_report.counter(counter),
            "{counter}"
        );
    }
    assert_eq!(
        plain_report.histogram("power.sample_ua"),
        sealed_report.histogram("power.sample_ua")
    );
    assert_eq!(
        plain_report.histogram("power.run_us"),
        sealed_report.histogram("power.run_us")
    );
    assert_eq!(sealed_report.counter("durable.checkpoints_sealed"), 10);
}

/// A torn tail — a record that never reached its fsync barrier — is
/// truncated on recovery, surfaced in the recovery telemetry, and the
/// recovered server keeps working from the durable prefix.
#[test]
fn torn_wal_tail_is_truncated_and_counted() {
    let (mut platform, wal) = Platform::durable_testbed(91);
    platform.server.enable_billing();
    let durable_records = wal.record_count();

    // Half-written frame: the crash interrupts the disk write mid-record.
    wal.append_unsynced(b"{\"Submitted\":{\"id\":999,\"name\":\"ghost\"}}");
    wal.crash_disk(11);

    let recovery = Registry::new();
    platform
        .crash_and_recover(&wal, &recovery)
        .expect("recovery tolerates a torn tail");
    let report = recovery.snapshot();
    assert_eq!(report.counter("durable.recoveries"), 1);
    assert_eq!(report.counter("durable.replayed_records"), durable_records);
    assert!(
        report.counter("durable.torn_bytes") > 0,
        "torn tail must be surfaced, not silently dropped"
    );

    // The recovered server accepts and completes new work.
    let token = platform.experimenter_token;
    let serial = platform.j7_serial().to_string();
    let id = platform
        .server
        .submit_job(
            token,
            "post-recovery",
            batterylab::server::Constraints::default(),
            batterylab::server::Payload::Experiment(batterylab::server::ExperimentSpec::measured(
                &serial,
                batterylab::automation::Script::browser_workload(
                    "com.android.chrome",
                    &["https://reuters.com"],
                    1,
                ),
            )),
        )
        .expect("recovered server accepts jobs");
    platform.server.drain();
    let build = platform.server.build(token, id).expect("job visible");
    assert!(
        matches!(build.state, batterylab::server::BuildState::Succeeded),
        "post-recovery job must run: {:?}",
        build.state
    );
}

/// The sweep `blab recover --seed 42 --intensity 0.8` runs, pinned to
/// literals: the records its scenario writes, the prefixes it recovers
/// and the crash/continue cycles of its continuation run.
#[test]
fn seed_42_sweep_is_pinned() {
    let report = sweep(&CrashPointConfig {
        seed: 42,
        intensity: 0.8,
    });
    assert!(report.passed(), "{:#?}", report.violations);
    assert_eq!(
        (
            report.wal_records,
            report.prefixes_checked,
            report.continuation_crashes
        ),
        (13, 14, 4)
    );
}

/// The sweep's scenario with the log compacted at every operation
/// boundary, crashing with the new generation half-written, just after
/// the swap and after a torn append to it: every compacted prefix from
/// the end of its snapshot on recovers what the matching uncompacted
/// prefix does, and the run ends byte-identical to the uninterrupted,
/// non-compacting one (builds, ledger history, platform telemetry).
#[test]
fn compaction_recovers_at_every_step_and_prefix() {
    let report = compaction_sweep(&CrashPointConfig {
        seed: 42,
        intensity: 0.8,
    });
    assert!(report.passed(), "{:#?}", report.violations);
    assert!(report.compactions >= 4, "{report:?}");
    assert_eq!(report.crashes, 3 * report.compactions);
    assert!(
        report.prefixes_checked > report.compactions,
        "every compaction's snapshot and the records after them: {report:?}"
    );
    eprintln!("{report:?}");
}
