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
//!
//! [`compaction_sweep`] runs the same scenario with the log compacted at
//! every operation boundary, crashing at each step of the compaction:
//! with the new generation half-written (the old one must recover), just
//! after the swap, and after a torn append to the new generation. Every
//! prefix of each compacted generation, from the end of its snapshot on,
//! must recover the same state as the matching prefix of the
//! uninterrupted run's uncompacted log, and the run must end
//! byte-identical to it.

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

/// Outcome of a [`compaction_sweep`].
#[derive(Clone, Debug)]
pub struct CompactionReport {
    /// Compactions the run performed, one per operation boundary.
    pub compactions: u64,
    /// Crash/recover cycles: three per compaction.
    pub crashes: u64,
    /// Compacted-generation prefixes recovered and compared with the
    /// uncompacted log's.
    pub prefixes_checked: u64,
    /// Invariant violations (empty on a passing sweep).
    pub violations: Vec<String>,
}

impl CompactionReport {
    /// Whether every compaction step recovered exactly.
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
}

impl ScenarioOutcome {
    /// Where this run's final state diverges from `baseline`'s.
    fn divergences(&self, baseline: &ScenarioOutcome, violations: &mut Vec<String>) {
        if self.report_json != baseline.report_json {
            violations.push(
                "telemetry report diverged between crashed and uninterrupted runs".to_string(),
            );
        }
        if self.builds != baseline.builds {
            violations.push(format!(
                "build table diverged: {:?} vs {:?}",
                self.builds, baseline.builds
            ));
        }
        if self.ledger != baseline.ledger {
            violations.push(format!(
                "ledger history diverged: {} vs {}",
                self.ledger, baseline.ledger
            ));
        }
    }
}

/// Run the crash-point sweep described by `config`.
pub fn sweep(config: &CrashPointConfig) -> CrashPointReport {
    let mut violations = Vec::new();

    // Tier 0+1: uninterrupted baseline, then recover from every prefix.
    let baseline = run_scenario(config, |_| {});
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

    // Tier 2: crash at every operation boundary and keep going. Unlike
    // the chaos soak this emits no journal event: the whole point is that
    // the crashed run's telemetry stays byte-identical to the
    // uninterrupted one.
    let mut crashes = 0;
    let crashed = run_scenario(config, |scenario| {
        crashes += 1;
        scenario.crash();
    });
    crashed.divergences(&baseline, &mut violations);

    CrashPointReport {
        wal_records: total,
        prefixes_checked: total + 1,
        continuation_crashes: crashes,
        violations,
    }
}

/// Run the compaction sweep described by `config`: compact at every
/// operation boundary, crash at each compaction step, and compare every
/// compacted prefix and the final state with the uninterrupted,
/// uncompacted run.
pub fn compaction_sweep(config: &CrashPointConfig) -> CompactionReport {
    let baseline = run_scenario(config, |_| {});
    let mut tail = CompactedTail {
        full: &baseline.wal,
        full_at: 0,
        snapshot: 0,
        checked: None,
    };
    let mut report = CompactionReport {
        compactions: 0,
        crashes: 0,
        prefixes_checked: 0,
        violations: Vec::new(),
    };
    let compacted = run_scenario(config, |scenario| {
        tail.check(&scenario.wal, &mut report);
        compact_crashing_at_every_step(scenario, &mut report);
        tail = CompactedTail {
            full_at: scenario
                .platform
                .registry
                .counter("durable.wal_records")
                .get(),
            snapshot: scenario.wal.record_count(),
            checked: None,
            ..tail
        };
    });
    tail.check(&compacted.wal, &mut report);
    compacted.divergences(&baseline, &mut report.violations);
    report
}

/// Compact `scenario`'s log, crashing the server at each step: after
/// writing half a snapshot into a generation that never gets installed,
/// just after the swap, and after a torn append to the new generation.
fn compact_crashing_at_every_step(scenario: &mut Scenario, report: &mut CompactionReport) {
    let generation = scenario.wal.generation();
    let server = &scenario.platform.server;
    let mut records = 0;
    server.write_snapshot(|_| records += 1);
    let mut next = scenario.wal.next_generation();
    let mut written = 0;
    server.write_snapshot(|payload| {
        if written < records / 2 {
            next.append(payload);
        }
        written += 1;
    });
    drop(next);
    scenario.crash();
    if scenario.wal.generation() != generation {
        report
            .violations
            .push("a half-written generation replaced the log".to_string());
    }

    scenario.platform.server.compact();
    report.compactions += 1;
    scenario.crash();
    if scenario.wal.generation() != generation + 1 {
        report
            .violations
            .push(format!("compaction {} did not swap", report.compactions));
    }

    // Half a frame reaches the new generation before the power cut.
    scenario.wal.append_unsynced(&[0x5A; 32]);
    scenario.wal.crash_disk(20);
    scenario.crash();
    report.crashes += 3;
}

/// The records of a compacted generation past its snapshot, matched
/// against the uncompacted log: the generation's first `snapshot`
/// records stand for the log's first `full_at`.
struct CompactedTail<'a> {
    full: &'a Wal,
    full_at: u64,
    snapshot: u64,
    /// Records past the snapshot already compared (`None`: not even
    /// the snapshot itself).
    checked: Option<u64>,
}

impl CompactedTail<'_> {
    /// Recover every prefix of `wal` from the end of its snapshot on not
    /// yet compared, and compare it with the matching prefix of the
    /// uncompacted log. A no-op before the first compaction.
    fn check(&mut self, wal: &Wal, report: &mut CompactionReport) {
        if self.snapshot == 0 {
            return;
        }
        let from = self.checked.map_or(0, |j| j + 1);
        let tail = wal.record_count() - self.snapshot;
        for j in from..=tail {
            let compacted = recovered_state(&wal.prefix(self.snapshot + j));
            let full = recovered_state(&self.full.prefix(self.full_at + j));
            if compacted != full {
                report.violations.push(format!(
                    "compacted prefix {} recovers {compacted}, uncompacted prefix {} {full}",
                    self.snapshot + j,
                    self.full_at + j
                ));
            }
            report.prefixes_checked += 1;
        }
        self.checked = Some(tail);
    }
}

/// A server recovered from `wal`, rendered through its public surface:
/// builds, queue length, ledger and node registry.
fn recovered_state(wal: &Wal) -> String {
    let mut server = match AccessServer::recover(wal, &Registry::new()) {
        Ok(server) => server,
        Err(e) => return format!("no server: {e}"),
    };
    let token = match server.login("admin", "bootstrap-pw", true) {
        Ok(session) => session.token,
        Err(e) => return format!("no admin: {e}"),
    };
    let builds: Vec<String> = (1..)
        .map_while(|id| server.build(token, JobId(id)).ok())
        .map(|build| format!("{build:?}"))
        .collect();
    let registry = server.registry();
    let nodes: Vec<String> = registry
        .names()
        .iter()
        .map(|name| format!("{:?}", registry.node(name)))
        .collect();
    format!(
        "builds {builds:?} queue {} ledger {:?} nodes {nodes:?} cert {:?}",
        server.queue_len(),
        server.ledger(),
        registry.certificate()
    )
}

/// One chaos scenario on the durable testbed, with `boundary` run at
/// every operation boundary: after the owner is recorded, after
/// submission, before every drain round, before maintenance and at the
/// end. The final state must not depend on what `boundary` does.
fn run_scenario(
    config: &CrashPointConfig,
    mut boundary: impl FnMut(&mut Scenario),
) -> ScenarioOutcome {
    let mut scenario = Scenario::new(config.seed, "crashpoint-plan", config.intensity);

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
    fn compaction_sweep_holds_at_every_step() {
        let report = compaction_sweep(&CrashPointConfig {
            seed: 23,
            intensity: 0.8,
        });
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(report.compactions >= 4, "{report:?}");
        assert_eq!(report.crashes, 3 * report.compactions);
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
