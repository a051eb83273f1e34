//! End-to-end and per-layer benchmark of the BatteryLab platform.
//!
//! Three workloads, each a loop of repetitions on fresh deployments,
//! driven only through the platform's public API:
//!
//! - `paper_eval`: paper-scale `eval all`, each one submitted as a job;
//! - `node_lifetime`: one durable, billed node running a long stream of
//!   measured browser jobs;
//! - `fleet_faults`: two nodes × two devices under injected faults, with
//!   the access server crashed and recovered every few jobs.
//!
//! The timed run ([`run`] with `trace: false`) reports end-to-end
//! metrics; the traced run repeats the same repetitions with spans
//! around each layer call and reports the per-layer split. See
//! `README.md` for what every metric means.

pub mod cpu;
pub mod deploy;
pub mod exec;
pub mod fleet_faults;
pub mod node_lifetime;
pub mod paper_eval;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use batterylab::sim::SimRng;

use crate::cpu::CpuInstant;
use crate::exec::TraceSink;
use crate::stats::{median, quantile};
use crate::trace::Tracer;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Repeated paper-scale `eval all`.
    PaperEval,
    /// A long-lived node's job stream.
    NodeLifetime,
    /// A faulted fleet with crash recovery.
    FleetFaults,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperEval,
        Workload::NodeLifetime,
        Workload::FleetFaults,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper_eval",
            Workload::NodeLifetime => "node_lifetime",
            Workload::FleetFaults => "fleet_faults",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Tiny` is for the smoke test only.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// A few jobs per repetition, for a quick check of the output.
    Tiny,
}

/// One invocation.
#[derive(Clone, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed: every repetition derives its own from it.
    pub seed: u64,
    /// Measuring budget, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

/// Everything one pass over the repetitions measured.
#[derive(Default)]
pub struct Run {
    /// Repetitions completed.
    pub reps: usize,
    /// Host seconds to build each repetition's deployment.
    pub setup_s: Vec<f64>,
    /// Host seconds of each workload unit: one `eval all`, one node
    /// lifetime, one fleet run.
    pub unit_s: Vec<f64>,
    /// Host seconds the job streams ran, crash recoveries included.
    pub stream_s: f64,
    /// Submit-to-terminal host time of every job, ms.
    pub job_ms: Vec<f64>,
    /// The same for the last decile of each repetition's stream.
    pub late_job_ms: Vec<f64>,
    /// Each repetition's p99 job time, ms.
    pub job_p99_ms: Vec<f64>,
    /// WAL bytes per job, one value per repetition.
    pub wal_bytes_per_job: Vec<f64>,
    /// Host time of each `AccessServer::recover`, ms.
    pub recover_ms: Vec<f64>,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs seen terminal.
    pub terminal: u64,
    /// Submissions the server refused.
    pub refused: u64,
    /// Builds that ended `Failed`.
    pub failed_builds: u64,
    /// Failed checks and failed jobs, described.
    pub failures: Vec<String>,
    /// Keep `builds`: the traced run compares its two passes' builds.
    pub keep_builds: bool,
    /// Per terminal build: id, state, finish time, full summary and a
    /// digest of its artifacts.
    pub builds: Vec<String>,
    /// Simulated device seconds, summed over successful jobs.
    pub device_s: f64,
    /// Simulated discharge, summed over successful jobs.
    pub mah: f64,
    /// Exact counts of the first repetition (fingerprint and counters).
    pub counts: BTreeMap<&'static str, f64>,
    /// Logcat artifact bytes over the last decile of each stream.
    pub logcat_late_bytes: Vec<f64>,
    /// Layer timings: `submit_job` host time, ms.
    pub submit_ms: Vec<f64>,
    /// Traced: `tick` minus the payload run it wrapped, ms.
    pub tick_self_ms: Vec<f64>,
    /// Layer timings: `Wal::replay` host time at each recovery, ms.
    pub replay_ms: Vec<f64>,
    /// Layer timings: decoding every replayed record, ms.
    pub decode_ms: Vec<f64>,
    /// Layer timings: recovery minus replay and decode, ms.
    pub apply_ms: Vec<f64>,
    /// Layer timings: µs per append when re-appending the WAL to a
    /// fresh log.
    pub append_us: Vec<f64>,
    /// What each `fleet_faults` repetition exercised.
    pub coverage: Vec<fleet_faults::Coverage>,
    /// Calibration kernel CPU seconds, one per repetition.
    pub kernel_s: Vec<f64>,
    /// Peak resident set size of each repetition, MB.
    pub peak_rss_mb: Vec<f64>,
}

impl Run {
    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            eprintln!("check failed: {what}");
        }
        self.failures.push(what);
    }

    /// Close a repetition's job stream whose first job is
    /// `job_ms[first_job]`.
    pub fn end_stream(&mut self, first_job: usize) {
        self.job_p99_ms
            .push(quantile(&self.job_ms[first_job..], 0.99));
    }

    /// Failures: failed builds, refused submissions and failed checks
    /// (the first two are also listed in `failures`).
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// One repetition's context.
pub struct Rep<'a> {
    /// Input size.
    pub scale: Scale,
    /// This repetition's seed.
    pub seed: u64,
    /// Whether this is the first repetition (whose counts are kept).
    pub first: bool,
    /// Span sink, in the traced run.
    pub trace: Option<&'a TraceSink>,
    /// Time the server and WAL layer calls (see
    /// [`deploy::Deployment::time_layers`]).
    pub layers: bool,
}

/// Deployments built per repetition; `setup_s` is the median build time.
const SETUPS: usize = 5;

/// Build a repetition's deployment `SETUPS` times, timing each build,
/// and keep the last one.
pub fn set_up<T>(run: &mut Run, mut build: impl FnMut() -> T) -> T {
    let mut built = None;
    for _ in 0..SETUPS {
        let start = CpuInstant::now();
        let deployment = build();
        run.setup_s.push(start.elapsed_s());
        built = Some(deployment);
    }
    built.expect("at least one set-up")
}

fn rep_seed(seed: u64, workload: Workload, rep: usize) -> u64 {
    SimRng::new(seed)
        .derive(&format!("perfbench/{}/{rep}", workload.name()))
        .seed()
}

enum Stop {
    /// Keep starting repetitions while they fit in this many seconds.
    Budget(f64),
    /// Run exactly this many.
    Count(usize),
}

fn pass(opts: &Options, trace: Option<&TraceSink>, layers: bool, stop: Stop) -> Run {
    let mut run = Run {
        keep_builds: opts.trace,
        ..Run::default()
    };
    let start = Instant::now();
    loop {
        match stop {
            Stop::Count(n) if run.reps >= n => break,
            Stop::Budget(budget) if run.reps > 0 => {
                let spent = start.elapsed().as_secs_f64();
                if spent + spent / run.reps as f64 > budget {
                    break;
                }
            }
            _ => {}
        }
        let rep = Rep {
            scale: opts.scale,
            seed: rep_seed(opts.seed, opts.workload, run.reps),
            first: run.reps == 0,
            trace,
            layers,
        };
        let threads = paper_eval::workers(opts.workload);
        run.kernel_s.push(
            (0..3)
                .map(|_| cpu::kernel_s(threads))
                .fold(f64::INFINITY, f64::min),
        );
        reset_peak_rss();
        match opts.workload {
            Workload::PaperEval => paper_eval::rep(&rep, &mut run),
            Workload::NodeLifetime => node_lifetime::rep(&rep, &mut run),
            Workload::FleetFaults => fleet_faults::rep(&rep, &mut run),
        }
        run.peak_rss_mb.push(peak_rss_mb());
        run.reps += 1;
    }
    run
}

/// A reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result line plus the lines printed before it.
pub struct Outcome {
    /// Every check passed and nothing failed.
    pub correct: bool,
    /// Jobs submitted.
    pub attempted: u64,
    /// Failed builds, refused submissions and failed checks.
    pub failed: u64,
    /// End-to-end metrics (timed run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Human-readable report lines: host record, sample counts, failures.
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result as one JSON line.
    pub fn to_json(&self) -> String {
        let metrics: serde_json::Map = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    serde_json::json!({"value": m.value, "unit": m.unit}),
                )
            })
            .collect();
        serde_json::json!({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": serde_json::Value::Object(metrics),
        })
        .to_string()
    }
}

/// Host threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(PathBuf::from(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn host_record(opts: &Options) -> String {
    let workers = paper_eval::workers(opts.workload);
    serde_json::json!({
        "nproc": nproc(),
        "build_profile": if cfg!(debug_assertions) { "debug" } else { "release" },
        "seed": opts.seed,
        "commit": commit(),
        "workload": opts.workload.name(),
        "trace": opts.trace,
        "eval_workers": workers,
        "parallel": nproc() > 1 && workers > 1,
    })
    .to_string()
}

/// Reset this process's peak resident set size to its current one
/// (Linux `clear_refs`), so each repetition's peak is read on its own.
/// Where that is refused the peak simply carries over.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The calibration kernel's CPU time on the reference host (2-vCPU
/// Xeon VM at 2.1 GHz), in its usual, slower state.
const REFERENCE_KERNEL_S: f64 = 0.0072;

/// The factor that brings this run's timings to the reference host's
/// speed. The host is shared, and its per-core speed shifts by up to
/// 40% for minutes at a time; the kernel, timed before every
/// repetition, shifts with it.
fn host_scale(kernel_s: &[f64]) -> f64 {
    REFERENCE_KERNEL_S / median(kernel_s)
}

fn end_to_end(run: &Run) -> Vec<Metric> {
    let scale = host_scale(&run.kernel_s);
    vec![
        metric("setup_s", median(&run.setup_s) * scale, "s"),
        metric("eval_s", median(&run.unit_s) * scale, "s"),
        metric(
            "jobs_per_s",
            run.terminal as f64 / run.stream_s.max(1e-9) / scale,
            "1/s",
        ),
        metric("job_p50_ms", median(&run.job_ms) * scale, "ms"),
        metric("job_p99_ms", median(&run.job_p99_ms) * scale, "ms"),
        metric("job_late_p50_ms", median(&run.late_job_ms) * scale, "ms"),
        metric("wal_bytes_per_job", median(&run.wal_bytes_per_job), "bytes"),
        metric("recover_ms", median(&run.recover_ms) * scale, "ms"),
        // The smallest repetition peak: allocator arenas and free lists a
        // repetition leaves resident raise the peaks of later ones.
        metric(
            "peak_rss_mb",
            run.peak_rss_mb
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min),
            "MB",
        ),
    ]
}

/// The per-layer metrics: the job-path split from the traced pass, the
/// server and WAL layer timings from the untraced pass (`plain`).
fn per_layer(
    opts: &Options,
    traced: &Run,
    plain: &Run,
    sink: &TraceSink,
    overhead_s: f64,
) -> Vec<Metric> {
    let scale = host_scale(&traced.kernel_s);
    let plain_scale = host_scale(&plain.kernel_s);
    let per_dispatch = |name: &str| median(&sink.tracer.per_dispatch_ms(name)) * scale;
    let layer = |values: &[f64]| median(values) * plain_scale;
    let count = |name: &str| traced.counts.get(name).copied().unwrap_or(0.0);
    let (runs, _) = sink.tracer.last(exec::EXEC_RUN);
    let (ok, _) = sink.tracer.last(exec::EXEC_OK);
    vec![
        metric("eval.fig2_ms", per_dispatch("eval.fig2"), "ms"),
        metric("eval.fig3_ms", per_dispatch("eval.fig3"), "ms"),
        metric("eval.fig4_ms", per_dispatch("eval.fig4"), "ms"),
        metric("eval.fig5_ms", per_dispatch("eval.fig5"), "ms"),
        metric("eval.table2_ms", per_dispatch("eval.table2"), "ms"),
        metric("eval.fig6_ms", per_dispatch("eval.fig6"), "ms"),
        metric("eval.sysperf_ms", per_dispatch("eval.sysperf"), "ms"),
        metric("server.submit_ms", layer(&plain.submit_ms), "ms"),
        metric(
            "server.tick_self_ms",
            median(&traced.tick_self_ms) * scale,
            "ms",
        ),
        metric(
            "server.useful_ratio",
            ok as f64 / runs.max(1) as f64,
            "ratio",
        ),
        metric("server.apply_ms", layer(&plain.apply_ms), "ms"),
        metric("exec.run_ms", per_dispatch(exec::EXEC_RUN), "ms"),
        metric(
            "controller.stop_monitor_ms",
            per_dispatch("controller.stop_monitor"),
            "ms",
        ),
        metric("power.samples", count("power.samples"), "count"),
        metric(
            "controller.logcat_ms",
            per_dispatch("controller.logcat"),
            "ms",
        ),
        metric(
            "artifact.logcat_bytes_late",
            median(&traced.logcat_late_bytes),
            "bytes",
        ),
        metric(
            "automation.run_script_ms",
            per_dispatch("automation.run_script"),
            "ms",
        ),
        metric("adb.frames_tx", count("adb.frames_tx"), "count"),
        metric("adb.bytes_rx", count("adb.bytes_rx"), "bytes"),
        metric(
            "controller.mirror_ms",
            per_dispatch("controller.mirror"),
            "ms",
        ),
        metric(
            "mirror.encoded_bytes",
            count("mirror.encoded_bytes"),
            "bytes",
        ),
        metric("controller.vpn_ms", per_dispatch("controller.vpn"), "ms"),
        metric("durable.append_us", layer(&plain.append_us), "us"),
        metric("durable.replay_ms", layer(&plain.replay_ms), "ms"),
        metric("wal.decode_ms", layer(&plain.decode_ms), "ms"),
        metric("durable.wal_records", count("durable.wal_records"), "count"),
        metric("durable.wal_fsyncs", count("durable.wal_fsyncs"), "count"),
        metric("faults.injected", count("faults.injected"), "count"),
        metric("scheduler.retries", count("scheduler.retries"), "count"),
        metric(
            "supervisor.breaker_trips",
            count("supervisor.breaker_trips"),
            "count",
        ),
        metric(
            "supervisor.breaker_blocks",
            count("supervisor.breaker_blocks"),
            "count",
        ),
        metric("sim.device_s", count("sim.device_s"), "s"),
        metric("sim.mah", count("sim.mah"), "mAh"),
        metric("sim.figures_digest", count("sim.figures_digest"), "digest"),
        metric(
            "failed_ratio",
            traced.failed() as f64 / traced.submitted.max(1) as f64,
            "ratio",
        ),
        metric("trace.overhead_s", overhead_s * scale, "s"),
        metric("job.samples", traced.job_ms.len() as f64, "count"),
        metric("host.kernel_ms", median(&traced.kernel_s) * 1e3, "ms"),
        metric("host.nproc", nproc() as f64, "count"),
        metric(
            "host.eval_workers",
            paper_eval::workers(opts.workload) as f64,
            "count",
        ),
    ]
}

/// Per-repetition spread of what `fleet_faults` exercised, as
/// `min/median/max`.
fn coverage_note(coverage: &[fleet_faults::Coverage]) -> Option<String> {
    if coverage.is_empty() {
        return None;
    }
    let spread = |f: &dyn Fn(&fleet_faults::Coverage) -> f64| {
        let values: Vec<f64> = coverage.iter().map(f).collect();
        format!(
            "{:.3}/{:.3}/{:.3}",
            values.iter().copied().fold(f64::INFINITY, f64::min),
            median(&values),
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        )
    };
    let jobs = |c: &fleet_faults::Coverage| c.jobs.max(1) as f64;
    Some(format!(
        "fleet coverage per repetition (min/median/max over {}): mirrored share {}, \
         VPN share {}, retried attempts per job {}, breaker trips {}, faults injected {}",
        coverage.len(),
        spread(&|c| c.mirrored as f64 / jobs(c)),
        spread(&|c| c.vpn as f64 / jobs(c)),
        spread(&|c| c.retries as f64 / jobs(c)),
        spread(&|c| c.breaker_trips as f64),
        spread(&|c| c.faults as f64),
    ))
}

/// Where the traced run writes its spans.
fn spans_path(opts: &Options) -> PathBuf {
    PathBuf::from(".perfbench-out").join(format!(
        "spans-{}-{}.jsonl",
        opts.workload.name(),
        opts.seed
    ))
}

/// Run the benchmark as `opts` describes.
pub fn run(opts: &Options) -> Outcome {
    let mut notes = vec![format!("host {}", host_record(opts))];
    if !opts.trace {
        let run = pass(opts, None, false, Stop::Budget(opts.seconds));
        notes.push(format!(
            "{} repetitions; job_p50_ms over {} jobs, job_p99_ms the median of {} \
             per-repetition p99s, job_late_p50_ms over {}, recover_ms over {} recoveries, \
             setup_s over {} set-ups",
            run.reps,
            run.job_ms.len(),
            run.job_p99_ms.len(),
            run.late_job_ms.len(),
            run.recover_ms.len(),
            run.setup_s.len()
        ));
        notes.push(format!(
            "{} jobs submitted, {} refused, {} builds failed",
            run.submitted, run.refused, run.failed_builds
        ));
        notes.push(format!("fingerprint {:?}", run.counts));
        notes.push(format!("peak_rss_mb per repetition {:?}", run.peak_rss_mb));
        if let Some(coverage) = coverage_note(&run.coverage) {
            notes.push(coverage);
        }
        notes.push(format!(
            "host speed: calibration kernel {:.3} ms (reference {:.3} ms), timings scaled by \
             {:.4}; unscaled setup_s {:.9}, eval_s {:.6}, job_p50_ms {:.6}, recover_ms {:.6}",
            median(&run.kernel_s) * 1e3,
            REFERENCE_KERNEL_S * 1e3,
            host_scale(&run.kernel_s),
            median(&run.setup_s),
            median(&run.unit_s),
            median(&run.job_ms),
            median(&run.recover_ms),
        ));
        notes.extend(run.failures.iter().take(20).map(|f| format!("failed: {f}")));
        return Outcome {
            correct: run.failures.is_empty(),
            attempted: run.submitted.max(1),
            failed: run.failed(),
            metrics: end_to_end(&run),
            notes,
        };
    }

    // Traced: spend half the budget on traced repetitions, then repeat
    // exactly those untraced, timing the server and WAL layers there;
    // per-job results must agree.
    let sink = TraceSink {
        tracer: Tracer::new(),
        automation: batterylab::telemetry::Registry::new(),
    };
    let traced = pass(opts, Some(&sink), false, Stop::Budget(opts.seconds / 2.0));
    let plain = pass(opts, None, true, Stop::Count(traced.reps));
    let overhead_s = traced.unit_s.iter().sum::<f64>() - plain.unit_s.iter().sum::<f64>();
    let mut traced = traced;
    if traced.builds != plain.builds {
        traced.fail("traced builds differ from the untraced pass's".to_string());
    }
    // The traced run also counts the automation channel's ADB traffic,
    // which the untraced job path leaves uncounted.
    let differs = traced
        .counts
        .iter()
        .filter(|(k, _)| !k.starts_with("adb."))
        .any(|(k, v)| plain.counts.get(k) != Some(v));
    if differs {
        traced.fail("traced fingerprint differs from the untraced run's".to_string());
    }
    let path = spans_path(opts);
    match sink.tracer.write_jsonl(&path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    notes.push(format!(
        "{} traced repetitions; tracing overhead {overhead_s:.4} s",
        traced.reps
    ));
    notes.extend(
        traced
            .failures
            .iter()
            .take(20)
            .map(|f| format!("failed: {f}")),
    );
    let failed = traced.failed() + plain.failed();
    Outcome {
        correct: failed == 0,
        attempted: (traced.submitted + plain.submitted).max(1),
        failed,
        metrics: per_layer(opts, &traced, &plain, &sink, overhead_s),
        notes,
    }
}
