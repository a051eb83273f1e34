//! Equivalence of the segment-batched sampling fast path against the
//! retained per-sample reference path, across the whole meter chain.
//!
//! The contract under test (DESIGN.md §3e): for any piecewise-constant
//! load, `Monsoon::sample_run_at_rate` (segment-batched),
//! `Monsoon::sample_run_reference_at_rate` (per-sample) and
//! `Monsoon::sample_run_checkpointed` (segment-batched with a sealing
//! sink) produce **bit-identical** output — samples, aggregates,
//! counters and trip errors — given the same RNG seed. Noise does not
//! weaken this: every path takes sample k's noise from the block stream
//! keyed by (run key, k / 1024), wherever segments and seals fall.
//!
//! The paths agreeing with one another does not show that the output
//! stayed put; `meter_output_is_pinned` holds four runs' output bits to
//! recorded literals.

use batterylab::device::boot_j7_duo;
use batterylab::durable::CheckpointStream;
use batterylab::power::{
    Calibration, ConstantLoad, Monsoon, MonsoonError, OpenCircuit, SampleRun, TraceLoad,
};
use batterylab::sim::{SimDuration, SimRng, SimTime, StepSignal};
use batterylab::telemetry::{Histogram, HistogramSnapshot, Registry, Report};
use proptest::prelude::*;

fn powered(seed: u64, cal: Calibration) -> Monsoon {
    let mut m = Monsoon::new(SimRng::new(seed).derive("monsoon")).with_calibration(cal);
    m.set_powered(true);
    m.set_voltage(4.0).unwrap();
    m.enable_vout().unwrap();
    m
}

/// As [`powered`] with default calibration, reporting into `registry`.
fn bound(seed: u64, registry: &Registry) -> Monsoon {
    let mut m = powered(seed, Calibration::default());
    m.set_telemetry(registry);
    m
}

fn noise_free() -> Calibration {
    Calibration {
        gain: 1.0005,
        offset_ma: 0.03,
        noise_ma: 0.0,
        lsb_ma: 0.02,
    }
}

/// Build a step trace from `(gap_us, value_ma)` deltas.
fn trace_from_steps(initial: f64, steps: &[(u64, f64)]) -> StepSignal {
    let mut signal = StepSignal::new(initial);
    let mut t = 0u64;
    for &(gap_us, value) in steps {
        t += gap_us;
        signal.set(SimTime::from_micros(t), value);
    }
    signal
}

fn assert_runs_bit_identical(fast: &SampleRun, reference: &SampleRun) {
    assert_eq!(fast.samples.len(), reference.samples.len());
    assert_eq!(fast.samples.start(), reference.samples.start());
    assert_eq!(fast.samples.period(), reference.samples.period());
    for (a, b) in fast.samples.values().iter().zip(reference.samples.values()) {
        assert_eq!(a.to_bits(), b.to_bits(), "sample mismatch: {a} vs {b}");
    }
    assert_eq!(fast.energy.samples(), reference.energy.samples());
    assert_eq!(
        fast.energy.mah().to_bits(),
        reference.energy.mah().to_bits()
    );
    assert_eq!(
        fast.energy.mwh().to_bits(),
        reference.energy.mwh().to_bits()
    );
    assert_eq!(
        fast.energy.min_ma().to_bits(),
        reference.energy.min_ma().to_bits()
    );
    assert_eq!(
        fast.energy.max_ma().to_bits(),
        reference.energy.max_ma().to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Noise-free: the fast path is bit-for-bit the reference path over
    /// randomised step traces, durations and (decimated) rates.
    #[test]
    fn segmented_matches_reference_bit_for_bit_noise_free(
        seed in 0u64..1000,
        initial in 0.0f64..1500.0,
        steps in proptest::collection::vec((1u64..40_000, 0.0f64..1500.0), 0..12),
        duration_ms in 20u64..300,
        rate_pick in 0usize..3,
    ) {
        let rate = [5000.0f64, 1000.0, 137.0][rate_pick];
        let load = TraceLoad::new(trace_from_steps(initial, &steps), 4.0);
        let duration_s = duration_ms as f64 / 1000.0;
        let fast = powered(seed, noise_free())
            .sample_run_at_rate(&load, SimTime::ZERO, duration_s, rate)
            .unwrap();
        let reference = powered(seed, noise_free())
            .sample_run_reference_at_rate(&load, SimTime::ZERO, duration_s, rate)
            .unwrap();
        assert_runs_bit_identical(&fast, &reference);
    }

    /// Noisy: still bit-for-bit — both paths draw one standard normal
    /// per emitted sample from the same stream, in time order — and the
    /// noise actually lands (the trace is not constant-quantised).
    #[test]
    fn segmented_matches_reference_bit_for_bit_noisy(
        seed in 0u64..1000,
        initial in 50.0f64..1500.0,
        steps in proptest::collection::vec((1u64..40_000, 0.0f64..1500.0), 0..12),
    ) {
        let load = TraceLoad::new(trace_from_steps(initial, &steps), 4.0);
        let fast = powered(seed, Calibration::default())
            .sample_run_at_rate(&load, SimTime::ZERO, 0.2, 5000.0)
            .unwrap();
        let reference = powered(seed, Calibration::default())
            .sample_run_reference_at_rate(&load, SimTime::ZERO, 0.2, 5000.0)
            .unwrap();
        assert_runs_bit_identical(&fast, &reference);
        // Statistical sanity: with a 0.25 mA RMS floor the 1000-sample
        // trace cannot collapse to a single quantised reading.
        let distinct: std::collections::BTreeSet<u64> =
            fast.samples.values().iter().map(|v| v.to_bits()).collect();
        prop_assert!(distinct.len() > 3, "noise missing: {} distinct readings", distinct.len());
    }

    /// Noise blocks straddle segment boundaries and checkpoint seals that
    /// do not divide the block: the plain, reference and checkpointed
    /// runs still agree bit for bit, and so does a resume from any
    /// sealed prefix on a meter in the same state.
    #[test]
    fn noise_blocks_are_independent_of_segments_and_seals(
        seed in 0u64..1000,
        initial in 50.0f64..1500.0,
        steps in proptest::collection::vec((1u64..200_000, 0.0f64..1500.0), 0..12),
        interval in 1u64..3000,
        keep_frac in 0.0f64..1.0,
    ) {
        let load = TraceLoad::new(trace_from_steps(initial, &steps), 4.0);
        let (duration_s, rate) = (0.9, 5000.0);
        let fast = powered(seed, Calibration::default())
            .sample_run_at_rate(&load, SimTime::ZERO, duration_s, rate)
            .unwrap();
        let reference = powered(seed, Calibration::default())
            .sample_run_reference_at_rate(&load, SimTime::ZERO, duration_s, rate)
            .unwrap();
        assert_runs_bit_identical(&fast, &reference);
        let mut stream = CheckpointStream::new(interval);
        let sealed = powered(seed, Calibration::default())
            .sample_run_checkpointed(&load, SimTime::ZERO, duration_s, rate, &mut stream)
            .unwrap();
        assert_runs_bit_identical(&fast, &sealed);
        let keep = (stream.segments.len() as f64 * keep_frac) as usize;
        stream.segments.truncate(keep);
        let resumed = powered(seed, Calibration::default())
            .sample_run_checkpointed(&load, SimTime::ZERO, duration_s, rate, &mut stream)
            .unwrap();
        assert_runs_bit_identical(&fast, &resumed);
    }

    /// A monotone cursor walk over a random trace reads exactly what
    /// binary-searched `at()` reads, at every sample instant.
    #[test]
    fn cursor_agrees_with_binary_search_at(
        initial in 0.0f64..100.0,
        steps in proptest::collection::vec((1u64..5_000, 0.0f64..100.0), 0..20),
        period_us in 1u64..700,
    ) {
        let signal = trace_from_steps(initial, &steps);
        let mut cursor = signal.cursor();
        for k in 0..200u64 {
            let t = SimTime::from_micros(k * period_us);
            prop_assert_eq!(cursor.at(t).to_bits(), signal.at(t).to_bits());
        }
    }
}

/// Over-current mid-run: the segmented path trips at the same sample
/// instant, with the same current, the same error and the same sample
/// accounting as the reference path.
#[test]
fn over_current_trip_is_path_invariant() {
    // Healthy for 61.3 ms (boundary off the sample grid), then over the
    // 6 A limit.
    let mut trace = StepSignal::new(150.0);
    trace.set(SimTime::from_micros(61_300), 6900.0);
    let load = TraceLoad::new(trace, 4.0);

    let mut fast_meter = powered(77, Calibration::default());
    let fast = fast_meter
        .sample_run_at_rate(&load, SimTime::ZERO, 0.2, 5000.0)
        .unwrap_err();
    let mut ref_meter = powered(77, Calibration::default());
    let reference = ref_meter
        .sample_run_reference_at_rate(&load, SimTime::ZERO, 0.2, 5000.0)
        .unwrap_err();

    assert_eq!(fast, reference);
    let MonsoonError::OverCurrent { at, current_ma } = fast else {
        panic!("expected an over-current trip, got {fast:?}");
    };
    // First sample instant inside the over-limit segment: 61.4 ms.
    assert_eq!(at, SimTime::from_micros(61_400));
    assert!((current_ma - 6900.0).abs() < 1e-9);
    assert_eq!(fast_meter.total_samples(), ref_meter.total_samples());
    assert_eq!(fast_meter.total_samples(), 307);
}

/// The full meter chain — simulated Android device behind the relay's
/// measurement path — batches through `CurrentSource::segments` with
/// output bit-identical to the per-sample reference.
#[test]
fn device_chain_is_bit_identical_across_paths() {
    let rng = SimRng::new(4242);
    let device = boot_j7_duo(&rng, "fastpath-dev");
    device.with_sim(|s| {
        s.set_screen(true);
        s.run_activity(SimDuration::from_secs(2), 0.4, 0.6);
        s.idle(SimDuration::from_secs(1));
    });
    let fast = powered(4242, Calibration::default())
        .sample_run_at_rate(&device, SimTime::ZERO, 3.0, 5000.0)
        .unwrap();
    let reference = powered(4242, Calibration::default())
        .sample_run_reference_at_rate(&device, SimTime::ZERO, 3.0, 5000.0)
        .unwrap();
    assert_runs_bit_identical(&fast, &reference);
    assert_eq!(fast.samples.len(), 15_000);
}

/// A run reduced to exact bits: an FNV-1a digest of the samples'
/// little-endian bit patterns, the aggregates' bit patterns and the
/// `power.sample_ua` histogram as it stands after the run.
#[derive(Debug, PartialEq)]
struct Pinned {
    digest: u64,
    mah: u64,
    mwh: u64,
    min_ma: u64,
    max_ma: u64,
    /// `power.sample_ua`: count, sum, min, max and the non-empty buckets.
    sample_ua: (u64, u64, u64, u64, Vec<(usize, u64)>),
}

fn pinned(run: &SampleRun, registry: &Registry) -> Pinned {
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for v in run.samples.values() {
        for b in v.to_bits().to_le_bytes() {
            digest ^= b as u64;
            digest = digest.wrapping_mul(0x0100_0000_01b3);
        }
    }
    Pinned {
        digest,
        mah: run.energy.mah().to_bits(),
        mwh: run.energy.mwh().to_bits(),
        min_ma: run.energy.min_ma().to_bits(),
        max_ma: run.energy.max_ma().to_bits(),
        sample_ua: sample_ua(&registry.snapshot()),
    }
}

/// `power.sample_ua`'s count, sum, min, max and non-empty buckets.
fn sample_ua(report: &Report) -> (u64, u64, u64, u64, Vec<(usize, u64)>) {
    let h = report.histogram("power.sample_ua").unwrap().clone();
    let buckets = h
        .buckets
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, n)| n > 0);
    (h.count, h.sum, h.min, h.max, buckets.collect())
}

/// What `power.sample_ua` holds after a run that drew exactly `samples`:
/// one per-value `record` of each sample's µA reading.
fn recorded_ua(samples: &[f64]) -> HistogramSnapshot {
    let h = Histogram::default();
    for &ma in samples {
        h.record((ma * 1000.0).round() as u64);
    }
    h.snapshot()
}

/// The sparse step trace of the `sampling` microbench: 10 s, a step
/// every 230 ms.
fn sparse_step_trace() -> TraceLoad {
    let mut trace = StepSignal::new(120.0);
    let mut level = 120.0;
    for step in 1..44u64 {
        level = if level > 400.0 { 130.0 } else { level + 95.0 };
        trace.set(SimTime::from_micros(step * 230_000), level);
    }
    TraceLoad::new(trace, 4.0)
}

/// The meter's output bits, recorded literally: any change to the
/// sampling kernel (rounding, the zero clamp, noise, aggregation or the
/// histogram merge) must leave every one of them where it is.
#[test]
fn meter_output_is_pinned() {
    // One meter, open circuit then a constant load: the open-circuit run
    // quantises readings at or below zero, and the clamp must make every
    // one of them +0.0, never -0.0.
    let registry = Registry::new();
    let mut meter = Monsoon::new(SimRng::new(10).derive("monsoon"));
    meter.set_telemetry(&registry);
    meter.set_powered(true);
    meter.set_voltage(4.0).unwrap();
    meter.enable_vout().unwrap();
    let open = meter
        .sample_run_at_rate(&OpenCircuit, SimTime::ZERO, 2.0, 5000.0)
        .unwrap();
    let zeros = |bits: u64| {
        open.samples
            .values()
            .iter()
            .filter(|v| v.to_bits() == bits)
            .count()
    };
    assert_eq!(zeros(0.0f64.to_bits()), 4633);
    assert_eq!(zeros((-0.0f64).to_bits()), 0);
    let open_pin = pinned(&open, &registry);
    let constant = meter
        .sample_run_at_rate(&ConstantLoad::new(160.0, 4.0), SimTime::ZERO, 2.0, 5000.0)
        .unwrap();
    let constant_pin = pinned(&constant, &registry);

    let registry = Registry::new();
    let sparse = bound(1, &registry)
        .sample_run_at_rate(&sparse_step_trace(), SimTime::ZERO, 10.0, 500.0)
        .unwrap();
    let sparse_pin = pinned(&sparse, &registry);

    // Seals every 700 samples, which fall inside the 1024-sample noise
    // blocks.
    let registry = Registry::new();
    let mut stream = CheckpointStream::new(700);
    let sealed = bound(3, &registry)
        .sample_run_checkpointed(
            &sparse_step_trace(),
            SimTime::ZERO,
            2.0,
            5000.0,
            &mut stream,
        )
        .unwrap();
    assert_eq!(stream.segments.len(), 15);
    let sealed_pin = pinned(&sealed, &registry);

    let open_buckets = [
        (0, 0x1219),
        (5, 0x141),
        (6, 0x2a5),
        (7, 0x3bd),
        (8, 0x5d3),
        (9, 0x657),
        (10, 0x12a),
    ];
    assert_eq!(
        open_pin,
        Pinned {
            digest: 0xa16a31e560a46d74,
            mah: 0x3f10f9e53d573b13,
            mwh: 0x3f30f9e53d573b13,
            min_ma: 0,
            max_ma: 0x3ff0000000000000,
            sample_ua: (0x2710, 0x11c95c, 0, 0x3e8, open_buckets.to_vec()),
        }
    );
    assert_eq!(
        constant_pin,
        Pinned {
            digest: 0x9a4c42ff1d519e30,
            mah: 0x3fb6c540916aa118,
            mwh: 0x3fd6c540916aa118,
            min_ma: 0x4063e47ae147ae15,
            max_ma: 0x406428f5c28f5c29,
            sample_ua: (
                0x4e20,
                0x5f7fe680,
                0,
                0x27600,
                [&open_buckets[..], &[(18, 0x2710)]].concat(),
            ),
        }
    );
    assert_eq!(
        sparse_pin,
        Pinned {
            digest: 0xe37136122c7ab142,
            mah: 0x3fe800c0cc551f63,
            mwh: 0x400800c0cc551f63,
            min_ma: 0x405de66666666667,
            max_ma: 0x407a00f5c28f5c29,
            sample_ua: (
                0x1388,
                0x5079e3e8,
                0x1d330,
                0x6593c,
                vec![(17, 0x4f1), (18, 0x4f1), (19, 0x9a6)],
            ),
        }
    );
    assert_eq!(
        sealed_pin,
        Pinned {
            digest: 0x107cffe6f79dc402,
            mah: 0x3fc24051b34c3510,
            mwh: 0x3fe24051b34c3510,
            min_ma: 0x405dce147ae147ae,
            max_ma: 0x407a0147ae147ae1,
            sample_ua: (
                0x2710,
                0x98faed38,
                0x1d1b4,
                0x65950,
                vec![(17, 0xc1b), (18, 0x8fd), (19, 0x11f8)],
            ),
        }
    );
}

/// A noisy constant load calibrated to ~131.07 mA: its readings fall on
/// both sides of the 131 072 µA edge between buckets 17 and 18, so every
/// stretch is counted value by value, and `power.sample_ua` still holds
/// exactly the per-value records, at the literals recorded before the
/// histogram was folded per run.
#[test]
fn straddling_readings_are_pinned() {
    let registry = Registry::new();
    let run = bound(5, &registry)
        .sample_run_at_rate(
            &ConstantLoad::new(130.9765, 4.0),
            SimTime::ZERO,
            1.0,
            5000.0,
        )
        .unwrap();
    let report = registry.snapshot();
    assert_eq!(
        report.histogram("power.sample_ua"),
        Some(&recorded_ua(run.samples.values()))
    );
    assert_eq!(
        pinned(&run, &registry),
        Pinned {
            digest: 0xec75446662ef05f7,
            mah: 0x3fa2a41954220c95,
            mwh: 0x3fc2a41954220c95,
            min_ma: 0x4060447ae147ae15,
            max_ma: 0x406085c28f5c28f6,
            sample_ua: (
                0x1388,
                0x270fd15c,
                0x1fc5c,
                0x20454,
                vec![(17, 0x9c1), (18, 0x9c7)],
            ),
        }
    );
}

/// A resumed checkpointed run records only the samples it drew itself:
/// its histogram's extremes are those of the refilled stretch, not of the
/// whole run its cumulative energy covers.
#[test]
fn resumed_run_records_only_its_drawn_samples() {
    let load = sparse_step_trace();
    let mut stream = CheckpointStream::new(700);
    powered(3, Calibration::default())
        .sample_run_checkpointed(&load, SimTime::ZERO, 2.0, 5000.0, &mut stream)
        .unwrap();
    stream.segments.truncate(6);
    let registry = Registry::new();
    let resumed = bound(3, &registry)
        .sample_run_checkpointed(&load, SimTime::ZERO, 2.0, 5000.0, &mut stream)
        .unwrap();
    let drawn = &resumed.samples.values()[4200..];
    let report = registry.snapshot();
    assert_eq!(report.counter("durable.samples_salvaged"), 4200);
    assert_eq!(
        report.histogram("power.sample_ua"),
        Some(&recorded_ua(drawn))
    );
    assert!(resumed.energy.min_ma() < drawn.iter().copied().fold(f64::MAX, f64::min));
    assert_eq!(
        sample_ua(&report),
        (
            0x16a8,
            0x5a9ff4c0,
            0x1f8ec,
            0x65950,
            vec![(17, 0x79d), (18, 0x47f), (19, 0xa8c)],
        )
    );
}

/// An over-current trip mid-run leaves in `power.sample_ua` exactly the
/// samples drawn before it: those of a run on the same meter state that
/// stops at the last healthy sample instant.
#[test]
fn tripped_run_records_the_samples_before_the_trip() {
    let mut trace = StepSignal::new(120.0);
    trace.set(SimTime::from_micros(30_000), 215.0);
    trace.set(SimTime::from_micros(61_300), 6900.0);
    let load = TraceLoad::new(trace, 4.0);
    let registry = Registry::new();
    let err = bound(77, &registry)
        .sample_run_at_rate(&load, SimTime::ZERO, 0.2, 5000.0)
        .unwrap_err();
    assert!(matches!(err, MonsoonError::OverCurrent { .. }), "{err:?}");
    let before = powered(77, Calibration::default())
        .sample_run_at_rate(&load, SimTime::ZERO, 307.0 / 5000.0, 5000.0)
        .unwrap();
    assert_eq!(before.samples.len(), 307);
    let report = registry.snapshot();
    assert_eq!(
        report.histogram("power.sample_ua"),
        Some(&recorded_ua(before.samples.values()))
    );
    assert_eq!(
        sample_ua(&report),
        (
            0x133,
            0x3163afc,
            0x1d22c,
            0x34b48,
            vec![(17, 0x96), (18, 0x9d)],
        )
    );
}
