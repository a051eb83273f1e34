//! Microbenches of the platform's hot paths: ADB wire framing, Monsoon
//! sampling, relay switching, device-trace building and the access
//! server's WAL codec. These are the costs a vantage point actually pays
//! per measurement second, and the server per job.
//!
//! The `*_instrumented` variants run the same work with telemetry bound
//! to a shared registry. Budget: instrumentation must stay within 5 % of
//! the uninstrumented cost on the 5 kHz sampling and ADB framing paths.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use batterylab::adb::{AdbKey, AdbLink, MockServices, Packet, TransportKind};
use batterylab::automation::Script;
use batterylab::device::boot_j7_duo;
use batterylab::platform::Platform;
use batterylab::power::{ConstantLoad, Monsoon, TraceLoad};
use batterylab::relay::CircuitSwitch;
use batterylab::server::{Constraints, ExperimentSpec, Payload, Role, WalRecord};
use batterylab::sim::{SimDuration, SimRng, SimTime, StepSignal};
use batterylab::telemetry::Registry;
use bytes::BytesMut;

fn bench_adb_framing(c: &mut Criterion) {
    let mut group = c.benchmark_group("adb");
    let payload = vec![0xA5u8; 4096];
    let packet = Packet::new(batterylab::adb::wire::A_WRTE, 1, 2, payload);
    let encoded = packet.encode();
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_4k", |b| b.iter(|| black_box(packet.encode())));
    group.bench_function("decode_4k", |b| {
        b.iter(|| {
            let mut buf = BytesMut::from(&encoded[..]);
            black_box(Packet::decode(&mut buf).unwrap().unwrap())
        })
    });
    group.bench_function("shell_round_trip", |b| {
        let mut link = AdbLink::new(
            MockServices::default(),
            TransportKind::WiFi,
            AdbKey::generate("bench", 1),
        );
        link.connect().unwrap();
        b.iter(|| black_box(link.shell("echo bench").unwrap()))
    });
    group.bench_function("shell_round_trip_instrumented", |b| {
        let registry = Registry::new();
        let mut link = AdbLink::new(
            MockServices::default(),
            TransportKind::WiFi,
            AdbKey::generate("bench", 1),
        )
        .with_telemetry(&registry);
        link.connect().unwrap();
        b.iter(|| black_box(link.shell("echo bench").unwrap()))
    });
    group.finish();
}

/// The two WAL records one measured browser job commits: its `Submitted`
/// (spec and script) and its `Completed` (summary, power summary and
/// logcat artifacts, charge), taken from a real run on a durable server.
fn one_jobs_wal_records() -> Vec<(&'static str, WalRecord)> {
    let (mut platform, wal) = Platform::durable_testbed(1);
    platform.server.enable_billing();
    platform
        .server
        .add_user(platform.admin_token, "bench", "pw", Role::Experimenter)
        .unwrap();
    let token = platform.server.login("bench", "pw", true).unwrap().token;
    let spec = ExperimentSpec::measured(
        platform.j7_serial(),
        Script::browser_workload("com.brave.browser", &["https://news.example"], 2),
    );
    platform
        .server
        .submit_job(
            token,
            "bench",
            Constraints::default(),
            Payload::Experiment(spec),
        )
        .unwrap();
    platform.server.tick().expect("the job runs");
    wal.replay()
        .0
        .iter()
        .filter_map(|payload| match WalRecord::decode(payload).unwrap() {
            r @ WalRecord::Submitted { .. } => Some(("submitted", r)),
            r @ WalRecord::Completed { .. } => Some(("completed", r)),
            _ => None,
        })
        .collect()
}

fn bench_wal_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wal_codec");
    for (name, record) in one_jobs_wal_records() {
        let encoded = record.encode();
        group.throughput(Throughput::Bytes(encoded.len() as u64));
        group.bench_function(&format!("encode_{name}"), |b| {
            b.iter(|| black_box(record.encode()))
        });
        group.bench_function(&format!("decode_{name}"), |b| {
            b.iter(|| black_box(WalRecord::decode(&encoded).unwrap()))
        });
    }
    group.finish();
}

fn bench_monsoon(c: &mut Criterion) {
    let mut group = c.benchmark_group("monsoon");
    // One virtual second at the native 5 kHz.
    group.throughput(Throughput::Elements(5000));
    group.bench_function("sample_1s_at_5khz", |b| {
        b.iter(|| {
            let mut m = Monsoon::new(SimRng::new(1).derive("m"));
            m.set_powered(true);
            m.set_voltage(4.0).unwrap();
            m.enable_vout().unwrap();
            black_box(
                m.sample_run(&ConstantLoad::new(160.0, 4.0), SimTime::ZERO, 1.0)
                    .unwrap(),
            )
        })
    });
    group.bench_function("sample_1s_at_5khz_instrumented", |b| {
        let registry = Registry::new();
        b.iter(|| {
            let mut m = Monsoon::new(SimRng::new(1).derive("m")).with_telemetry(&registry);
            m.set_powered(true);
            m.set_voltage(4.0).unwrap();
            m.enable_vout().unwrap();
            black_box(
                m.sample_run(&ConstantLoad::new(160.0, 4.0), SimTime::ZERO, 1.0)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// A step trace from 120 mA that climbs by 95 mA per step and falls
/// back to 130 mA past 400 mA, stepping every `gap_us` for `steps` steps.
fn sawtooth_steps(steps: u64, gap_us: u64) -> TraceLoad {
    let mut trace = StepSignal::new(120.0);
    let mut level = 120.0;
    for step in 1..=steps {
        level = if level > 400.0 { 130.0 } else { level + 95.0 };
        trace.set(SimTime::from_micros(step * gap_us), level);
    }
    TraceLoad::new(trace, 4.0)
}

/// Segment-batched vs per-sample sampling over a sparse step trace —
/// the tentpole comparison behind `BENCH_eval.json`'s sampler target,
/// under Criterion's statistics. 10 virtual seconds at 5 kHz, a step
/// every ~230 ms; then a run shaped like one fig3/fig6 browser run: 106 s
/// at the decimated 500 Hz (53 000 samples), four steps a second.
fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    group.sample_size(20);
    let load = sawtooth_steps(43, 230_000);
    let fresh = || {
        let mut m = Monsoon::new(SimRng::new(1).derive("m"));
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        m
    };
    group.throughput(Throughput::Elements(50_000));
    group.bench_function("segmented_10s_sparse_trace", |b| {
        b.iter(|| {
            let mut m = fresh();
            black_box(
                m.sample_run_at_rate(&load, SimTime::ZERO, 10.0, 5000.0)
                    .unwrap(),
            )
        })
    });
    group.bench_function("per_sample_10s_sparse_trace", |b| {
        b.iter(|| {
            let mut m = fresh();
            black_box(
                m.sample_run_reference_at_rate(&load, SimTime::ZERO, 10.0, 5000.0)
                    .unwrap(),
            )
        })
    });
    let page_load = sawtooth_steps(423, 250_000);
    group.throughput(Throughput::Elements(53_000));
    group.bench_function("segmented_106s_at_500hz", |b| {
        b.iter(|| {
            let mut m = fresh();
            black_box(
                m.sample_run_at_rate(&page_load, SimTime::ZERO, 106.0, 500.0)
                    .unwrap(),
            )
        })
    });
    group.finish();
}

fn bench_relay(c: &mut Criterion) {
    c.bench_function("relay/switch_cycle", |b| {
        let switch = CircuitSwitch::new(4);
        switch
            .attach(0, Arc::new(ConstantLoad::new(100.0, 4.0)))
            .unwrap();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            switch.engage_bypass(0, SimTime::from_millis(t)).unwrap();
            switch.release_bypass(0, SimTime::from_millis(t)).unwrap();
        })
    });
}

fn bench_device(c: &mut Criterion) {
    let mut group = c.benchmark_group("device");
    group.sample_size(20);
    group.bench_function("video_60s_trace", |b| {
        b.iter(|| {
            let d = boot_j7_duo(&SimRng::new(2), "bench-dev");
            d.with_sim(|s| {
                s.set_screen(true);
                s.play_video(SimDuration::from_secs(60));
            });
            black_box(d)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_adb_framing,
    bench_wal_codec,
    bench_monsoon,
    bench_sampling,
    bench_relay,
    bench_device
);
criterion_main!(benches);
