//! A node's job path stays bounded over its lifetime: each job's
//! `logcat.txt` holds only that job's lines (the automation channel
//! clears the device log when it connects), so the `Completed` WAL record
//! that carries the artifacts has the same size at any node age; the
//! device traces hold about one job's change points; and compaction keeps
//! the log within a small multiple of its last snapshot.

use std::collections::BTreeMap;

use batterylab::automation::Script;
use batterylab::platform::Platform;
use batterylab::server::{BuildState, Constraints, ExperimentSpec, Payload, Role, WalRecord};
use batterylab::workloads::BrowserProfile;

/// Jobs in the node's lifetime. Job `JOBS - 1` runs the same browser for
/// the same account as job 0.
const JOBS: usize = 201;

/// Slack on the `Completed` payload size: the job id and finish time
/// (varints) and the device-clock timestamps in the log lines gain bytes
/// as the node ages; the summary's floats are fixed-width. An unbounded
/// log grows it by kilobytes.
const SIZE_SLACK: usize = 24;

#[test]
fn job_path_stays_bounded_over_a_node_lifetime() {
    let (mut platform, wal) = Platform::durable_testbed(77);
    platform.server.enable_billing();
    let accounts = ["exp000", "exp001"];
    let tokens: Vec<u64> = accounts
        .iter()
        .map(|name| {
            platform
                .server
                .add_user(platform.admin_token, name, "pw", Role::Experimenter)
                .expect("fresh account");
            platform.server.login(name, "pw", true).unwrap().token
        })
        .collect();
    let serial = platform.j7_serial().to_string();
    let browsers = BrowserProfile::all_four();

    let mut packages = BTreeMap::new();
    for i in 0..JOBS {
        let package = &browsers[i % browsers.len()].package;
        let token = tokens[i % tokens.len()];
        let spec = ExperimentSpec::measured(
            &serial,
            Script::browser_workload(package, &["https://news.example"], 2),
        );
        let id = platform
            .server
            .submit_job(
                token,
                &format!("job-{i}"),
                Constraints::default(),
                Payload::Experiment(spec),
            )
            .unwrap_or_else(|e| panic!("job {i} refused: {e}"));
        assert_eq!(platform.server.tick(), Some(id));
        let build = platform.server.build(token, id).unwrap();
        assert_eq!(build.state, BuildState::Succeeded, "job {i}");

        let logcat = build
            .artifacts
            .iter()
            .find(|a| a.name == "logcat.txt")
            .expect("logcat artifact");
        let launches: Vec<&str> = logcat
            .content
            .lines()
            .filter(|l| l.contains("I/ActivityManager: Displayed "))
            .collect();
        assert_eq!(launches.len(), 1, "job {i} logcat:\n{}", logcat.content);
        assert!(launches[0].ends_with(&format!("Displayed {package}")));
        packages.insert(id, package.clone());
    }

    let (payloads, torn) = wal.replay();
    assert_eq!(torn, 0);
    let completed: Vec<(usize, &String)> = payloads
        .iter()
        .filter_map(|p| match WalRecord::decode(p).unwrap() {
            WalRecord::Completed { record, .. } => Some((p.len(), &packages[&record.id])),
            _ => None,
        })
        .collect();
    assert_eq!(completed.len(), JOBS);

    let mut first_by_package = BTreeMap::new();
    for (i, &(len, package)) in completed.iter().enumerate() {
        let first = *first_by_package.entry(package).or_insert(len);
        assert!(
            len.abs_diff(first) <= SIZE_SLACK,
            "job {i} ({package}): Completed payload {len} bytes, first {first}"
        );
    }
    let (first, last) = (completed[0].0, completed[JOBS - 1].0);
    assert!(
        last.abs_diff(first) <= SIZE_SLACK,
        "last Completed payload {last} bytes vs first {first}"
    );
}

/// Change points the device's current, CPU and frame-change traces hold.
fn trace_points(platform: &mut Platform) -> [usize; 3] {
    platform.j7().with_sim(|s| {
        [
            s.current_trace().changes(),
            s.cpu_trace().changes(),
            s.frame_change_trace().changes(),
        ]
    })
}

/// A job's traces are released behind its window once it completes, so
/// after the whole lifetime each device trace holds about one job's
/// change points, not the node's history.
#[test]
fn device_traces_hold_about_one_job_after_a_node_lifetime() {
    let (mut platform, _wal) = Platform::durable_testbed(77);
    let serial = platform.j7_serial().to_string();
    let browsers = BrowserProfile::all_four();
    let token = platform.experimenter_token;
    let mut one_job = [0; 3];
    for i in 0..JOBS {
        let package = &browsers[i % browsers.len()].package;
        let spec = ExperimentSpec::measured(
            &serial,
            Script::browser_workload(package, &["https://news.example"], 2),
        );
        let id = platform
            .server
            .submit_job(
                token,
                &format!("job-{i}"),
                Constraints::default(),
                Payload::Experiment(spec),
            )
            .unwrap_or_else(|e| panic!("job {i} refused: {e}"));
        assert_eq!(platform.server.tick(), Some(id));
        if i < browsers.len() {
            // One job of each browser sets the per-job scale.
            for (scale, p) in one_job.iter_mut().zip(trace_points(&mut platform)) {
                *scale = (*scale).max(p);
            }
        }
    }
    let points = trace_points(&mut platform);
    for (trace, (points, one_job)) in ["current", "cpu", "frame change"]
        .iter()
        .zip(points.iter().zip(one_job))
    {
        assert!(
            *points <= 2 * one_job,
            "{trace} trace holds {points} change points after {JOBS} jobs; one job holds {one_job}"
        );
    }
}

/// Jobs of the shorter lifetime in the bounded-log test: enough records
/// to cross the compaction floor.
const LOG_JOBS: usize = 300;

/// Runs [`LOG_JOBS`] and then 4 × [`LOG_JOBS`] jobs on one node. At both
/// ages the log has been compacted and holds at most 3 × its last
/// snapshot's bytes, and it still recovers every build.
#[test]
fn compaction_bounds_the_log_by_its_last_snapshot() {
    let (mut platform, wal) = Platform::durable_testbed(78);
    let serial = platform.j7_serial().to_string();
    let token = platform.experimenter_token;
    let mut snapshot_bytes = 0;
    let mut ran = 0;
    for age in [LOG_JOBS, 4 * LOG_JOBS] {
        for i in ran..age {
            let spec = ExperimentSpec::measured(
                &serial,
                Script::browser_workload("com.android.chrome", &["https://news.example"], 1),
            );
            let id = platform
                .server
                .submit_job(
                    token,
                    &format!("job-{i}"),
                    Constraints::default(),
                    Payload::Experiment(spec),
                )
                .unwrap_or_else(|e| panic!("job {i} refused: {e}"));
            let generation = wal.generation();
            assert_eq!(platform.server.tick(), Some(id));
            if wal.generation() != generation {
                // A commit compacts last: the generation is the snapshot.
                snapshot_bytes = wal.durable_len();
            }
        }
        ran = age;
        assert!(wal.generation() > 0, "{age} jobs never compacted");
        assert!(
            wal.durable_len() <= 3 * snapshot_bytes,
            "{age} jobs: log {} bytes, last snapshot {snapshot_bytes}",
            wal.durable_len()
        );
    }
    let mut recovered =
        batterylab::server::AccessServer::recover(&wal, &batterylab::telemetry::Registry::new())
            .expect("compacted log recovers");
    let token = recovered.login("alice", "alice-pw", true).unwrap().token;
    for id in 1..=ran as u64 {
        let build = recovered
            .build(token, batterylab::server::JobId(id))
            .unwrap_or_else(|e| panic!("job {id} lost: {e}"));
        assert_eq!(build.state, BuildState::Succeeded, "job {id}");
    }
}
