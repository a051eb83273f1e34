//! Chaos soak harness: drive full experiment pipelines under
//! randomized-but-seeded fault schedules and check the platform's
//! robustness invariants.
//!
//! Each soak run assembles its own [`Platform`], arms a
//! [`FaultPlan::chaos`](batterylab_faults::FaultPlan::chaos) schedule
//! derived from `(seed, run index)`, and drains a small batch of
//! experiment jobs through the supervised scheduler (the scenario
//! `crate::scenario` builds and drives for both robustness gates).
//! Afterwards the harness asserts:
//!
//! 1. **No lost or duplicated jobs** — every submitted job reaches a
//!    terminal build state exactly once and the queue is empty.
//! 2. **Energy/credit accounting is conserved across retries** — the
//!    ledger's experiment charges equal the cost of the device time the
//!    successful builds actually report; failed attempts are never
//!    billed twice.
//! 3. **Every injected fault is visible in the telemetry journal** —
//!    the `faults.injected` counter equals the number of
//!    `fault.injected` journal events.
//! 4. **Determinism** — the merged report is byte-identical for a given
//!    `(seed, intensity, runs)` at any worker count (checked by the
//!    soak test and `scripts/ci.sh` by comparing two executions).
//!
//! Every soak runs on the durable testbed: the server keeps a
//! write-ahead log, and when the chaos schedule draws a
//! [`FaultKind::ServerCrash`](batterylab_faults::FaultKind::ServerCrash)
//! the harness kills the access server between drain rounds and rebuilds
//! it from the WAL ([`Platform::crash_and_recover`]) — the invariants
//! above must keep holding across the crash.
//!
//! `blab chaos --seed 42 --runs 4` runs the same harness from the CLI.

use batterylab_faults::FaultInjector;
use batterylab_server::{BuildState, CreditLedger, JobId};
use batterylab_sim::SimDuration;
use batterylab_telemetry::{Registry, Report};

use crate::eval::par;
use crate::platform::Platform;
use crate::scenario::Scenario;

/// Parameters of one chaos soak.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Root seed; every run derives its own stream from it.
    pub seed: u64,
    /// Independent soak runs (each on a fresh platform).
    pub runs: usize,
    /// Fault-schedule intensity in `[0, 1]`.
    pub intensity: f64,
    /// Worker threads (results are byte-identical at any count).
    pub jobs: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 42,
            runs: 4,
            intensity: 0.8,
            jobs: 1,
        }
    }
}

/// Outcome of a whole soak.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Runs executed.
    pub runs: usize,
    /// Total faults injected across all runs.
    pub faults_injected: u64,
    /// Jobs submitted across all runs.
    pub jobs_submitted: u64,
    /// Jobs that finished `Succeeded`.
    pub jobs_succeeded: u64,
    /// Jobs that finished `Failed` (after their retry budget).
    pub jobs_failed: u64,
    /// Server crash/recovery cycles performed across all runs.
    pub server_crashes: u64,
    /// Invariant violations (empty on a passing soak).
    pub violations: Vec<String>,
    /// The merged telemetry report, stitched in run order.
    pub report: Report,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Stable JSON of the merged telemetry (the determinism artifact).
    pub fn to_json(&self) -> String {
        self.report.to_json()
    }
}

/// Per-run result carried back to the merge step.
struct RunOutcome {
    registry: Registry,
    injected: u64,
    submitted: u64,
    succeeded: u64,
    failed: u64,
    crashes: u64,
    violations: Vec<String>,
}

/// Run the chaos soak described by `config`.
pub fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let descriptors: Vec<usize> = (0..config.runs.max(1)).collect();
    let outcomes = par::run_ordered(config.jobs, &descriptors, |index, _| {
        soak_one(config, index)
    });

    let merged = Registry::new();
    let mut report = ChaosReport {
        runs: descriptors.len(),
        faults_injected: 0,
        jobs_submitted: 0,
        jobs_succeeded: 0,
        jobs_failed: 0,
        server_crashes: 0,
        violations: Vec::new(),
        report: merged.snapshot(),
    };
    for (index, outcome) in outcomes.into_iter().enumerate() {
        merged.merge(&outcome.registry);
        report.faults_injected += outcome.injected;
        report.jobs_submitted += outcome.submitted;
        report.jobs_succeeded += outcome.succeeded;
        report.jobs_failed += outcome.failed;
        report.server_crashes += outcome.crashes;
        report.violations.extend(
            outcome
                .violations
                .into_iter()
                .map(|v| format!("run {index}: {v}")),
        );
    }
    report.report = merged.snapshot();
    report
}

/// One soak run: fresh platform, seeded fault schedule, a batch of
/// experiment pipelines, invariant checks.
///
/// If the chaos schedule drew `ServerCrash` faults, the access server is
/// killed and rebuilt from the write-ahead log that many times: once
/// before any job has run (every submission is still queued, so recovery
/// must requeue all of them verbatim), then at the start of drain rounds
/// until the budget is spent. Each crash is journaled as
/// `fault.server_crash`.
fn soak_one(config: &ChaosConfig, index: usize) -> RunOutcome {
    let seed = par::run_seed(config.seed, "chaos", index);
    let mut scenario = Scenario::new(seed, "chaos-plan", config.intensity);
    let ids = scenario.submit_batch();

    let budget = u64::from(scenario.server_crashes);
    let mut crashes = 0u64;
    let mut server_crash = |scenario: &mut Scenario| {
        if crashes < budget {
            crashes += 1;
            scenario.platform.registry.event(
                "fault.server_crash",
                format!("wal records {}", scenario.wal.record_count()),
            );
            scenario.crash();
        }
    };
    server_crash(&mut scenario);
    scenario.drive(&mut server_crash);

    let Scenario {
        mut platform,
        injector,
        ..
    } = scenario;
    let mut violations = Vec::new();
    let (succeeded, failed) = check_jobs(&mut platform, &ids, &mut violations);
    check_billing(&platform, &ids, &mut violations);
    let report = platform.metrics();
    check_fault_visibility(&report, &injector, &mut violations);

    RunOutcome {
        registry: platform.registry.clone(),
        injected: injector.injected(),
        submitted: ids.len() as u64,
        succeeded,
        failed,
        crashes,
        violations,
    }
}

/// Invariant 1: every job terminal exactly once, queue empty.
fn check_jobs(platform: &mut Platform, ids: &[JobId], violations: &mut Vec<String>) -> (u64, u64) {
    let token = platform.experimenter_token;
    let mut succeeded = 0;
    let mut failed = 0;
    for id in ids {
        match platform.server.build(token, *id) {
            Ok(build) => match build.state {
                BuildState::Succeeded => succeeded += 1,
                BuildState::Failed(_) => failed += 1,
                BuildState::Queued => {
                    violations.push(format!("job {} never reached a terminal state", id.0))
                }
            },
            Err(e) => violations.push(format!("job {} lost: {e}", id.0)),
        }
    }
    if platform.server.queue_len() > 0 {
        violations.push(format!(
            "{} job(s) abandoned in the queue",
            platform.server.queue_len()
        ));
    }
    let report = platform.metrics();
    let counted =
        report.counter("scheduler.jobs_succeeded") + report.counter("scheduler.jobs_failed");
    if counted != ids.len() as u64 {
        violations.push(format!(
            "scheduler completed {counted} jobs for {} submissions (lost or duplicated)",
            ids.len()
        ));
    }
    (succeeded, failed)
}

/// Invariant 2: ledger charges equal the device time successful builds
/// report — retries never double-bill.
fn check_billing(platform: &Platform, ids: &[JobId], violations: &mut Vec<String>) {
    let Some(ledger) = platform.server.ledger() else {
        violations.push("billing vanished mid-soak".to_string());
        return;
    };
    let charged = ledger.debited();
    let mut expected = 0.0;
    for id in ids {
        if let Ok(build) = platform.server.build(platform.experimenter_token, *id) {
            if build.state != BuildState::Succeeded {
                continue;
            }
            if let Some(secs) = build
                .summary
                .as_ref()
                .and_then(|s| s["duration_s"].as_f64())
            {
                if secs > 0.0 {
                    expected += CreditLedger::cost_of(SimDuration::from_secs_f64(secs));
                }
            }
        }
    }
    if (charged - expected).abs() > 1e-9 {
        violations.push(format!(
            "ledger charged {charged:.9} credits but successful builds account for {expected:.9}"
        ));
    }
}

/// Invariant 3: every injected fault shows up in the journal.
fn check_fault_visibility(report: &Report, injector: &FaultInjector, violations: &mut Vec<String>) {
    let counter = report.counter("faults.injected");
    let events = report
        .events
        .iter()
        .filter(|e| e.label == "fault.injected")
        .count() as u64;
    if counter != injector.injected() {
        violations.push(format!(
            "injector fired {} faults but the counter reads {counter}",
            injector.injected()
        ));
    }
    if events != counter {
        violations.push(format!(
            "{counter} faults counted but only {events} journal event(s)"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_soak_passes() {
        let report = run_chaos(&ChaosConfig {
            seed: 7,
            runs: 1,
            intensity: 0.0,
            jobs: 1,
        });
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.faults_injected, 0);
        assert_eq!(report.jobs_submitted, 3);
        assert_eq!(report.jobs_succeeded, 3);
    }

    #[test]
    fn chaotic_soak_holds_invariants() {
        let report = run_chaos(&ChaosConfig {
            seed: 11,
            runs: 2,
            intensity: 1.0,
            jobs: 1,
        });
        assert!(report.passed(), "{:?}", report.violations);
        assert_eq!(report.jobs_submitted, 6);
        assert_eq!(report.jobs_succeeded + report.jobs_failed, 6);
    }

    #[test]
    fn server_crashes_preserve_invariants() {
        let report = run_chaos(&ChaosConfig {
            seed: 13,
            runs: 3,
            intensity: 1.0,
            jobs: 1,
        });
        assert!(report.passed(), "{:?}", report.violations);
        assert!(
            report.server_crashes > 0,
            "chaos schedule never drew a server crash"
        );
        assert_eq!(report.jobs_submitted, 9);
        assert_eq!(report.jobs_succeeded + report.jobs_failed, 9);
    }
}
