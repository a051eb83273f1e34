//! `paper_eval`: the reproduction user's path. Each repetition builds a
//! fresh durable paper testbed and submits a batch of paper-scale
//! `eval all` runs to it as jobs, one outstanding at a time; every run
//! gets its own seed and fans out over `nproc` workers through
//! `eval::par`.
//!
//! `eval_s` and the job times here are wall-clock time, so a change in
//! how well `eval all` uses its workers shows. The per-figure spans stay
//! CPU time summed over the workers: their sum against `eval_s` is the
//! parallel efficiency.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use batterylab::eval::{fig2, fig3, fig4, fig5, fig6, sysperf, table2, EvalConfig};
use batterylab::server::{Constraints, JobOutcome, Payload};
use batterylab::sim::SimTime;
use batterylab::telemetry::Report;

use crate::cpu::CpuInstant;
use crate::deploy::{counter_sum, digest, Deployment};
use crate::exec::{TraceSink, EXEC_OK, EXEC_RUN};
use crate::trace::Tracer;
use crate::{set_up, Rep, Run, Scale, Workload};

/// `eval all` runs per repetition.
fn batch(scale: Scale) -> usize {
    match scale {
        Scale::Full => 5,
        Scale::Tiny => 1,
    }
}

/// Worker threads `eval all` uses: one per host core (none for the
/// other workloads, which run on the calling thread).
pub fn workers(workload: Workload) -> usize {
    match workload {
        Workload::PaperEval => crate::nproc(),
        _ => 0,
    }
}

/// What one `eval all` job hands back to the benchmark.
struct EvalResult {
    eval_s: f64,
    digest: u64,
    mah: f64,
    device_s: f64,
    power_samples: u64,
    ordering: Result<(), String>,
}

fn histogram_sum(report: &Report, suffix: &str) -> u64 {
    report
        .histograms
        .iter()
        .filter(|(name, _)| name.ends_with(suffix))
        .map(|(_, h)| h.sum)
        .sum()
}

/// Every figure and table of §4, in `eval all` order; traced, each
/// figure is a span of `dispatch`.
fn eval_all(config: &EvalConfig, trace: Option<(&Tracer, u64)>) -> EvalResult {
    fn figure<R>(trace: Option<(&Tracer, u64)>, name: &'static str, run: impl FnOnce() -> R) -> R {
        match trace {
            Some((tracer, dispatch)) => tracer.time(dispatch, name, EXEC_RUN, run),
            None => run(),
        }
    }
    let all = Instant::now();
    let f2 = figure(trace, "eval.fig2", || fig2::run(config));
    let f3 = figure(trace, "eval.fig3", || fig3::run(config));
    let f4 = figure(trace, "eval.fig4", || fig4::run(config));
    let f5 = figure(trace, "eval.fig5", || fig5::run(config));
    let t2 = figure(trace, "eval.table2", || table2::run(config));
    let f6 = figure(trace, "eval.fig6", || fig6::run(config));
    let sp = figure(trace, "eval.sysperf", || sysperf::run(config));
    let eval_s = all.elapsed().as_secs_f64();

    let rendered = [
        f2.render(),
        f3.render(),
        f4.render(),
        f5.render(),
        t2.render(),
        f6.render(),
        sp.render(),
    ]
    .concat();
    let ranking = f3.ranking();
    let ordering = if ranking.first().map(String::as_str) != Some("Brave") {
        Err(format!("Brave is not the lowest-mAh browser: {ranking:?}"))
    } else if let Some(bar) = f3
        .bars
        .iter()
        .filter(|b| !b.mirroring)
        .find(|b| f3.bar(&b.browser, true).discharge_mah.mean <= b.discharge_mah.mean)
    {
        Err(format!("mirroring does not cost more for {}", bar.browser))
    } else {
        Ok(())
    };
    let mah = f3
        .bars
        .iter()
        .map(|b| b.discharge_mah.mean)
        .chain(f6.bars.iter().map(|b| b.discharge_mah.mean))
        .sum();
    EvalResult {
        eval_s,
        digest: digest([rendered.as_bytes()]),
        mah,
        device_s: histogram_sum(&f3.metrics, "controller.measurement_us") as f64 / 1e6,
        power_samples: counter_sum(&f3.metrics, "power.samples") + sp.telemetry.power_samples,
        ordering,
    }
}

/// The job: `eval all` at `config`, its result left in `out`.
fn eval_job(
    config: EvalConfig,
    out: Arc<Mutex<Option<EvalResult>>>,
    trace: Option<TraceSink>,
) -> Payload {
    Payload::Custom(Box::new(move |_vp| {
        let start = CpuInstant::now();
        let traced = trace
            .as_ref()
            .map(|sink| (&sink.tracer, sink.tracer.dispatch()));
        let result = eval_all(&config, traced);
        let summary = serde_json::json!({
            "job": "eval-all",
            "seed": config.seed,
            "figures_digest": format!("{:013x}", result.digest),
        });
        if let Some((tracer, dispatch)) = traced {
            tracer.record(dispatch, EXEC_RUN, "server.tick", start);
            tracer.record(dispatch, EXEC_OK, EXEC_RUN, CpuInstant::now());
        }
        *out.lock().expect("eval job does not panic") = Some(result);
        Ok(JobOutcome {
            summary,
            artifacts: Vec::new(),
            finished_at: SimTime::ZERO,
        })
    }))
}

/// One repetition.
pub fn rep(rep: &Rep, run: &mut Run) {
    let mut dep = set_up(run, || Deployment::paper_testbed(rep.seed, 1, false));
    dep.trace = rep.trace.cloned();
    dep.time_layers = rep.layers;

    let n = batch(rep.scale);
    let mut fingerprint = None;
    let first_job = run.job_ms.len();
    let stream = Instant::now();
    for i in 0..n {
        let mut config = match rep.scale {
            Scale::Full => EvalConfig::default(),
            Scale::Tiny => EvalConfig::quick(0),
        };
        config.seed = batterylab::eval::par::run_seed(rep.seed, "perfbench/eval", i);
        config.jobs = workers(Workload::PaperEval);
        let seed = config.seed;
        let out = Arc::new(Mutex::new(None));
        let submitted = Instant::now();
        let payload = eval_job(config, Arc::clone(&out), rep.trace.cloned());
        let Some(id) = dep.submit(
            run,
            0,
            &format!("eval-all-{i}"),
            Constraints::default(),
            payload,
        ) else {
            continue;
        };
        let Some(build) = dep.drive(run, id).cloned() else {
            continue;
        };
        let job_ms = submitted.elapsed().as_secs_f64() * 1e3;
        run.job_ms.push(job_ms);
        if i >= n - n.div_ceil(10) {
            run.late_job_ms.push(job_ms);
        }
        dep.account(run, &build);
        let Some(result) = out.lock().expect("eval job does not panic").take() else {
            run.fail(format!("eval job {i} left no result"));
            continue;
        };
        if let Err(e) = &result.ordering {
            run.fail(format!("eval seed {seed}: {e}"));
        }
        run.unit_s.push(result.eval_s);
        fingerprint.get_or_insert(result);
    }
    run.stream_s += stream.elapsed().as_secs_f64();
    run.end_stream(first_job);
    run.wal_bytes_per_job
        .push(dep.wal.durable_len() as f64 / dep.jobs().max(1) as f64);
    dep.crash_and_recover(run);
    dep.final_checks(run);
    if rep.layers {
        run.append_us.push(dep.reappend_us());
    }
    if rep.first {
        // The jobs here are `eval all` runs on platforms of their own, so
        // the simulated behaviour is the first run's figures.
        dep.record_counts(run);
        if let Some(first) = fingerprint {
            run.counts.insert("sim.figures_digest", first.digest as f64);
            run.counts.insert("sim.mah", first.mah);
            run.counts.insert("sim.device_s", first.device_s);
            run.counts
                .insert("power.samples", first.power_samples as f64);
        }
    }
}
