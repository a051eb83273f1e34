//! `fleet_faults`: two nodes × two devices under a seeded per-operation
//! fault plan. A closed loop keeps one job outstanding per device; the
//! jobs mix plain, mirrored and VPN measured runs with a retry budget.
//! Every few jobs the loop lets the outstanding jobs finish, crashes the
//! access server and rebuilds it from the WAL, and re-adopts the nodes.
//!
//! The traffic is synthetic coverage, not measured traffic: nothing in
//! the paper gives a job mix or fault rates for a shared deployment. The
//! mix is the chaos soak's batch (one plain, one mirrored and one VPN
//! job; `batterylab::chaos`), drawn at random. The fault rates are set
//! so that every repetition retries jobs, trips the node breakers and
//! runs every recovery path; [`Coverage`] reports what each repetition
//! exercised.

use batterylab::automation::Script;
use batterylab::faults::{scoped_site, site, FaultInjector, FaultKind, FaultPlan};
use batterylab::net::VpnLocation;
use batterylab::server::{Constraints, ExperimentSpec, JobId};
use batterylab::sim::SimRng;
use batterylab::workloads::{news_sites, BrowserProfile};

use crate::cpu::CpuInstant;
use crate::deploy::{counter_sum, Deployment};
use crate::exec::payload;
use crate::{set_up, Rep, Run, Scale};

/// The fleet's devices, by node.
const DEVICES: [(&str, &str); 4] = [
    ("node1", "j7duo-0001"),
    ("node1", "pixel3-0001"),
    ("node2", "a10-0001"),
    ("node2", "j7duo-0002"),
];

/// Retries per job. Under [`fault_plan`] about three attempts in ten
/// fail; sixteen failures in a row (about 4e-9 per job) do not occur, so
/// no build fails.
const MAX_RETRIES: u32 = 15;

/// Jobs per account: 1-scroll jobs take under 10 device-seconds, so no
/// account nears the 10-credit affordability gate.
const JOBS_PER_ACCOUNT: usize = 40;

/// Jobs per fleet run, and jobs between crash points.
fn sizes(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (400, 50),
        Scale::Tiny => (12, 6),
    }
}

/// Socket flaps, encoder stalls and over-current trips on both nodes,
/// each drawn per operation. The rates are a coverage target, not
/// measured ones: about three dispatch attempts in ten fail, so every
/// repetition retries jobs and trips each node's breaker (three failures
/// in a row) several times, and mirrored jobs run degraded.
fn fault_plan() -> FaultPlan {
    let mut plan = FaultPlan::new();
    for node in ["node1", "node2"] {
        plan = plan
            .probability(
                &scoped_site(node, site::POWER_SOCKET),
                FaultKind::SocketUnreachable,
                0.1,
            )
            .probability(
                &scoped_site(node, site::MIRROR_ENCODER),
                FaultKind::EncoderStall,
                0.15,
            )
            .probability(
                &scoped_site(node, site::POWER_METER),
                FaultKind::OverCurrent,
                0.3,
            );
    }
    plan
}

/// What one fleet repetition exercised.
#[derive(Clone, Copy, Debug, Default)]
pub struct Coverage {
    /// Jobs submitted.
    pub jobs: u64,
    /// Of them, mirrored.
    pub mirrored: u64,
    /// Of them, through a VPN exit.
    pub vpn: u64,
    /// Failed attempts the scheduler retried.
    pub retries: u64,
    /// Node breakers tripped open.
    pub breaker_trips: u64,
    /// Faults injected.
    pub faults: u64,
}

/// A 1-scroll browser job on `serial`: plain, mirrored or through a VPN
/// exit, one chance in three each.
fn job_spec(rng: &mut SimRng, serial: &str) -> ExperimentSpec {
    let browsers = BrowserProfile::all_four();
    let sites = news_sites();
    let browser = &browsers[rng.index(browsers.len())];
    let url = format!("https://{}", sites[rng.index(sites.len())].domain);
    let mut spec = ExperimentSpec::measured(
        serial,
        Script::browser_workload(&browser.package, &[url.as_str()], 1),
    );
    match rng.index(3) {
        1 => spec.mirroring = true,
        2 => spec.vpn = Some(VpnLocation::ALL[rng.index(VpnLocation::ALL.len())]),
        _ => {}
    }
    spec
}

/// Submit job number `index` to device `d`; returns it with its
/// submission instant.
fn submit(
    dep: &mut Deployment,
    run: &mut Run,
    rep: &Rep,
    rng: &mut SimRng,
    d: usize,
    index: usize,
) -> Option<(JobId, CpuInstant)> {
    let (node, serial) = DEVICES[d];
    let constraints = Constraints {
        node: Some(node.to_string()),
        device: Some(serial.to_string()),
        max_retries: MAX_RETRIES,
        ..Constraints::default()
    };
    let spec = job_spec(rng, serial);
    let coverage = run.coverage.last_mut().expect("the repetition's coverage");
    coverage.jobs += 1;
    coverage.mirrored += u64::from(spec.mirroring);
    coverage.vpn += u64::from(spec.vpn.is_some());
    let at = CpuInstant::now();
    let name = format!("fleet-job-{index}");
    let id = dep.submit(run, index, &name, constraints, payload(spec, rep.trace))?;
    Some((id, at))
}

/// One repetition: a fleet run.
pub fn rep(rep: &Rep, run: &mut Run) {
    let (total, crash_every) = sizes(rep.scale);
    let mut dep = set_up(run, || {
        let faults = FaultInjector::new(&fault_plan(), rep.seed);
        Deployment::fleet(rep.seed, total.div_ceil(JOBS_PER_ACCOUNT), faults)
    });
    dep.trace = rep.trace.cloned();
    dep.time_layers = rep.layers;
    run.coverage.push(Coverage::default());

    let mut rng = SimRng::new(rep.seed).derive("jobs");
    let mut outstanding: [Option<(JobId, CpuInstant)>; 4] = [None; 4];
    let (mut submitted, mut completed, mut next_crash) = (0, 0, crash_every);
    let late_from = total - total.div_ceil(10);
    let mut excluded_s = 0.0;
    let mut idle_passes = 0;
    let first_job = run.job_ms.len();
    let stream = CpuInstant::now();
    loop {
        if outstanding.iter().all(Option::is_none) {
            if completed >= next_crash || submitted >= total {
                excluded_s += dep.crash_and_recover(run);
                next_crash = completed + crash_every;
            }
            if submitted >= total {
                break;
            }
            for (d, slot) in outstanding.iter_mut().enumerate() {
                if submitted < total {
                    *slot = submit(&mut dep, run, rep, &mut rng, d, submitted);
                    submitted += 1;
                }
            }
            continue;
        }
        let Some(id) = dep.tick(run) else {
            idle_passes += 1;
            if idle_passes > 50 || !dep.unstick() {
                run.fail("the fleet's queue stopped making progress".to_string());
                break;
            }
            continue;
        };
        idle_passes = 0;
        let Some(build) = dep.terminal(id).cloned() else {
            continue; // requeued for a retry
        };
        let Some(d) = outstanding
            .iter()
            .position(|o| o.is_some_and(|(j, _)| j == id))
        else {
            run.fail(format!("job {} finished but was not outstanding", id.0));
            continue;
        };
        let (_, at) = outstanding[d].take().expect("position found it");
        let job_ms = at.elapsed_ms();
        run.job_ms.push(job_ms);
        if completed >= late_from {
            run.late_job_ms.push(job_ms);
            if let Some(logcat) = build.artifacts.iter().find(|a| a.name == "logcat.txt") {
                run.logcat_late_bytes.push(logcat.content.len() as f64);
            }
        }
        dep.account(run, &build);
        completed += 1;
        if completed < next_crash && submitted < total {
            outstanding[d] = submit(&mut dep, run, rep, &mut rng, d, submitted);
            submitted += 1;
        }
    }
    let stream_s = stream.elapsed_s() - excluded_s;
    run.stream_s += stream_s;
    run.end_stream(first_job);
    run.unit_s.push(stream_s);
    run.wal_bytes_per_job
        .push(dep.wal.durable_len() as f64 / dep.jobs().max(1) as f64);
    dep.final_checks(run);
    let report = dep.registry.snapshot();
    let coverage = run.coverage.last_mut().expect("the repetition's coverage");
    coverage.retries = counter_sum(&report, "scheduler.retries");
    coverage.breaker_trips = counter_sum(&report, "supervisor.breaker_trips");
    coverage.faults = counter_sum(&report, "faults.injected");
    let missed = [
        ("mirrored jobs", coverage.mirrored),
        ("VPN jobs", coverage.vpn),
        ("retries", coverage.retries),
        ("breaker trips", coverage.breaker_trips),
    ]
    .into_iter()
    .filter(|(_, n)| *n == 0)
    .map(|(what, _)| what)
    .collect::<Vec<_>>();
    if rep.scale == Scale::Full && !missed.is_empty() {
        run.fail(format!(
            "fleet repetition exercised no {}",
            missed.join(", no ")
        ));
    }
    if rep.layers {
        run.append_us.push(dep.reappend_us());
    }
    if rep.first {
        dep.record_counts(run);
    }
}
