//! `node_lifetime`: one durable, billed paper-testbed node that has just
//! booted runs a closed-loop stream of measured 2-scroll browser jobs
//! (logcat on) from many experimenter accounts, one job outstanding at a
//! time. Per-job cost depends on how many jobs the node has already run,
//! so a repetition is a fixed number of jobs, not a time budget.

use batterylab::automation::Script;
use batterylab::server::{Constraints, ExperimentSpec};
use batterylab::sim::SimRng;
use batterylab::workloads::{news_sites, BrowserProfile};

use crate::cpu::CpuInstant;
use crate::deploy::Deployment;
use crate::exec::payload;
use crate::{set_up, Rep, Run, Scale};

/// Jobs in one node lifetime.
fn jobs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 1000,
        Scale::Tiny => 12,
    }
}

/// Jobs per account. A 2-scroll job takes about 10 device-seconds, so 40
/// jobs spend under 8 of an account's 30 welcome credits and the
/// 10-credit affordability gate never refuses a submission.
const JOBS_PER_ACCOUNT: usize = 40;

/// One repetition: a node's lifetime.
pub fn rep(rep: &Rep, run: &mut Run) {
    let n = jobs(rep.scale);
    let accounts = n.div_ceil(JOBS_PER_ACCOUNT);
    let mut dep = set_up(run, || Deployment::paper_testbed(rep.seed, accounts, true));
    dep.trace = rep.trace.cloned();
    dep.time_layers = rep.layers;

    let serial = "j7duo-0001";
    let browsers = BrowserProfile::all_four();
    let sites = news_sites();
    let mut rng = SimRng::new(rep.seed).derive("jobs");
    let late_from = n - n.div_ceil(10);
    let first_job = run.job_ms.len();
    let stream = CpuInstant::now();
    for i in 0..n {
        let browser = &browsers[rng.index(browsers.len())];
        let site = &sites[rng.index(sites.len())];
        let url = format!("https://{}", site.domain);
        let spec = ExperimentSpec::measured(
            serial,
            Script::browser_workload(&browser.package, &[url.as_str()], 2),
        );
        let submitted = CpuInstant::now();
        let Some(id) = dep.submit(
            run,
            i,
            &format!("job-{i}"),
            Constraints::default(),
            payload(spec, rep.trace),
        ) else {
            continue;
        };
        let Some(build) = dep.drive(run, id).cloned() else {
            continue;
        };
        let job_ms = submitted.elapsed_ms();
        run.job_ms.push(job_ms);
        if i >= late_from {
            run.late_job_ms.push(job_ms);
            if let Some(logcat) = build.artifacts.iter().find(|a| a.name == "logcat.txt") {
                run.logcat_late_bytes.push(logcat.content.len() as f64);
            }
        }
        dep.account(run, &build);
    }
    let stream_s = stream.elapsed_s();
    run.stream_s += stream_s;
    run.end_stream(first_job);
    run.unit_s.push(stream_s);
    run.wal_bytes_per_job
        .push(dep.wal.durable_len() as f64 / dep.jobs().max(1) as f64);
    dep.crash_and_recover(run);
    dep.final_checks(run);
    if rep.layers {
        run.append_us.push(dep.reappend_us());
    }
    if rep.first {
        dep.record_counts(run);
    }
}
