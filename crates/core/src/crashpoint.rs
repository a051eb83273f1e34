//! Crash-point sweep: kill the access server at **every** write-ahead
//! log record boundary of a chaos schedule and prove recovery is exact.
//!
//! The sweep has two tiers:
//!
//! 1. **Prefix recovery** — run one chaos scenario to quiescence on the
//!    durable testbed, then for every `k` in `0..=record_count` rebuild
//!    a server from the first `k` WAL records ([`Wal::prefix`]). This
//!    models a crash after *any* fsync barrier, including mid-operation
//!    for multi-record operations. At every prefix the recovered server
//!    must hold the platform invariants: every logged submission is
//!    present exactly once (terminal iff its completion record made it
//!    to disk, requeued otherwise), and the credit ledger's experiment
//!    charges equal — bit for bit — the charges bundled into the
//!    completion records that survived.
//! 2. **Crash-continuation byte-identity** — run the same scenario
//!    again, but kill and recover the server at every operation
//!    boundary (after enrolment snapshotting, after submission, before
//!    every drain round, before maintenance). The surviving vantage
//!    points are re-adopted and the run continues; at the end the
//!    platform-wide telemetry report, the build table and the ledger
//!    history must be **byte-identical** to the uninterrupted run.
//!
//! `blab recover --seed 42` runs the sweep from the CLI and exits
//! non-zero on any violation; `scripts/ci.sh` gates on it.

use std::collections::BTreeMap;

use batterylab_durable::Wal;
use batterylab_server::{AccessServer, BuildState, CreditLedger, JobId, WalRecord};
use batterylab_sim::SimDuration;
use batterylab_telemetry::Registry;

use crate::scenario::Scenario;

/// Parameters of one crash-point sweep.
#[derive(Clone, Debug)]
pub struct CrashPointConfig {
    /// Root seed for the scenario and its fault schedule.
    pub seed: u64,
    /// Fault-schedule intensity in `[0, 1]`.
    pub intensity: f64,
}

impl Default for CrashPointConfig {
    fn default() -> Self {
        CrashPointConfig {
            seed: 42,
            intensity: 0.8,
        }
    }
}

/// Outcome of a sweep.
#[derive(Clone, Debug)]
pub struct CrashPointReport {
    /// Records the uninterrupted scenario wrote to the WAL.
    pub wal_records: u64,
    /// Prefix recoveries performed (one per boundary, plus the empty
    /// prefix which must be rejected).
    pub prefixes_checked: u64,
    /// Crash/recover cycles performed by the continuation run.
    pub continuation_crashes: u64,
    /// Invariant violations (empty on a passing sweep).
    pub violations: Vec<String>,
}

impl CrashPointReport {
    /// Whether every boundary recovered exactly.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Everything the comparison needs from one scenario execution.
struct ScenarioOutcome {
    report_json: String,
    builds: Vec<String>,
    ledger: String,
    wal: Wal,
    crashes: u64,
}

/// Run the crash-point sweep described by `config`.
pub fn sweep(config: &CrashPointConfig) -> CrashPointReport {
    let mut violations = Vec::new();

    // Tier 0+1: uninterrupted baseline, then recover from every prefix.
    let baseline = run_scenario(config, false);
    let total = baseline.wal.record_count();
    let (raw, _) = baseline.wal.replay();
    let records: Vec<WalRecord> = raw
        .iter()
        .map(|bytes| WalRecord::decode(bytes).expect("own WAL decodes"))
        .collect();

    if AccessServer::recover(&baseline.wal.prefix(0), &Registry::new()).is_ok() {
        violations.push("empty WAL prefix recovered into a server".to_string());
    }
    for k in 1..=total {
        check_prefix(&baseline.wal, &records[..k as usize], k, &mut violations);
    }

    // Tier 2: crash at every operation boundary and keep going.
    let crashed = run_scenario(config, true);
    if crashed.report_json != baseline.report_json {
        violations
            .push("telemetry report diverged between crashed and uninterrupted runs".to_string());
    }
    if crashed.builds != baseline.builds {
        violations.push(format!(
            "build table diverged: {:?} vs {:?}",
            crashed.builds, baseline.builds
        ));
    }
    if crashed.ledger != baseline.ledger {
        violations.push(format!(
            "ledger history diverged: {} vs {}",
            crashed.ledger, baseline.ledger
        ));
    }

    CrashPointReport {
        wal_records: total,
        prefixes_checked: total + 1,
        continuation_crashes: crashed.crashes,
        violations,
    }
}

/// One chaos scenario on the durable testbed. With `crash` set, the
/// server is killed and rebuilt from the WAL at every operation
/// boundary; the final state must not depend on it.
fn run_scenario(config: &CrashPointConfig, crash: bool) -> ScenarioOutcome {
    let mut scenario = Scenario::new(config.seed, "crashpoint-plan", config.intensity);
    let mut crashes = 0u64;
    // Unlike the chaos soak this emits no journal event: the whole point
    // is that the crashed run's telemetry stays byte-identical to the
    // uninterrupted one.
    let mut boundary = |scenario: &mut Scenario| {
        if crash {
            crashes += 1;
            scenario.crash();
        }
    };

    scenario.platform.server.set_node_owner("node1", "alice");
    boundary(&mut scenario);
    let ids = scenario.submit_batch();
    boundary(&mut scenario);
    let latest = scenario.drive(&mut boundary);
    boundary(&mut scenario);
    scenario
        .platform
        .server
        .run_maintenance(latest + SimDuration::from_secs(3600));
    boundary(&mut scenario);

    let Scenario { platform, wal, .. } = scenario;
    let token = platform.experimenter_token;
    let builds = ids
        .iter()
        .map(|id| match platform.server.build(token, *id) {
            Ok(build) => format!("{build:?}"),
            Err(e) => format!("lost: {e}"),
        })
        .collect();
    let ledger = format!("{:?}", platform.server.ledger().map(CreditLedger::history));

    ScenarioOutcome {
        report_json: platform.metrics().to_json(),
        builds,
        ledger,
        wal,
        crashes,
    }
}

/// Recover from the first `k` records and hold the job/ledger
/// invariants implied by exactly those records.
fn check_prefix(wal: &Wal, records: &[WalRecord], k: u64, violations: &mut Vec<String>) {
    let recovery = Registry::new();
    let mut server = match AccessServer::recover(&wal.prefix(k), &recovery) {
        Ok(server) => server,
        Err(e) => {
            violations.push(format!("prefix {k}: recovery failed: {e}"));
            return;
        }
    };

    let mut submitted: Vec<u64> = Vec::new();
    let mut completed: BTreeMap<u64, BuildState> = BTreeMap::new();
    let mut charges: Vec<SimDuration> = Vec::new();
    for record in records {
        match record {
            WalRecord::Submitted { id, .. } => submitted.push(*id),
            WalRecord::Completed { record, charge } => {
                completed.insert(record.id.0, record.state.clone());
                if let Some(charge) = charge {
                    charges.push(charge.device_time);
                }
            }
            _ => {}
        }
    }

    // A prefix that ends before alice's `UserAdded` record legitimately
    // has no such account yet — but every submission is hers, so once
    // any `Submitted` record is on disk her login must replay too.
    let token = match server.login("alice", "alice-pw", true) {
        Ok(session) => Some(session.token),
        Err(_) if submitted.is_empty() => None,
        Err(e) => {
            violations.push(format!("prefix {k}: replayed directory rejects alice: {e}"));
            None
        }
    };

    for id in token.map(|_| &submitted[..]).unwrap_or(&[]) {
        let token = token.expect("guarded");
        match server.build(token, JobId(*id)) {
            Err(e) => violations.push(format!("prefix {k}: job {id} lost: {e}")),
            Ok(build) => {
                let terminal = !matches!(build.state, BuildState::Queued);
                match completed.get(id) {
                    Some(state) if &build.state != state => violations.push(format!(
                        "prefix {k}: job {id} recovered as {:?}, logged {state:?}",
                        build.state
                    )),
                    Some(_) => {}
                    None if terminal => violations.push(format!(
                        "prefix {k}: job {id} terminal ({:?}) without a completion record",
                        build.state
                    )),
                    None => {}
                }
            }
        }
    }
    let pending = submitted
        .iter()
        .filter(|id| !completed.contains_key(id))
        .count();
    if server.queue_len() != pending {
        violations.push(format!(
            "prefix {k}: queue holds {} job(s), expected {pending}",
            server.queue_len()
        ));
    }

    // Empty float sums yield -0.0; normalise so only real amounts must
    // match bit-for-bit.
    let norm = |x: f64| if x == 0.0 { 0.0 } else { x };
    let expected: f64 = norm(charges.iter().map(|d| CreditLedger::cost_of(*d)).sum());
    let charged = norm(server.ledger().map_or(0.0, CreditLedger::debited));
    if charged.to_bits() != expected.to_bits() {
        violations.push(format!(
            "prefix {k}: ledger charged {charged} credits, logged charges total {expected}"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_holds_at_every_boundary() {
        let report = sweep(&CrashPointConfig {
            seed: 23,
            intensity: 0.8,
        });
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(report.wal_records > 10, "scenario too small to sweep");
        assert_eq!(report.prefixes_checked, report.wal_records + 1);
        assert!(report.continuation_crashes >= 4);
    }

    #[test]
    fn fault_free_sweep_passes_too() {
        let report = sweep(&CrashPointConfig {
            seed: 29,
            intensity: 0.0,
        });
        assert!(report.passed(), "{:#?}", report.violations);
    }
}
