//! Job model: what experimenters submit, what the queue holds, and what
//! the workspace retains afterwards (§3.1).

use batterylab_automation::Script;
use batterylab_net::VpnLocation;
use batterylab_sim::{SimDuration, SimTime};

use crate::vantage_exec::JobOutcome;

/// Placement and run constraints, matched by the dispatcher: "the access
/// server will dispatch queued jobs based on experimenter constraints,
/// e.g., target device, connectivity, or network location, and BatteryLab
/// constraints, e.g., one job at the time per device". A job's network
/// location is its spec's VPN exit ([`ExperimentSpec::vpn`]), which the
/// job sets up itself on whichever node runs it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Constraints {
    /// Required vantage point (`node1`), if any.
    pub node: Option<String>,
    /// Required device serial, if any.
    pub device: Option<String>,
    /// Only start when the controller CPU is low (optional per §4.2).
    pub require_low_cpu: bool,
    /// Re-queue the job up to this many times after a failed run
    /// (transient bench faults: flaky socket, dropped transport).
    pub max_retries: u32,
}

/// A declarative experiment: the pipeline the Jenkins UI builds.
#[derive(Clone, Debug)]
pub struct ExperimentSpec {
    /// Target device serial.
    pub device: String,
    /// The automation script to run.
    pub script: Script,
    /// Whether to measure power around the script.
    pub measure: bool,
    /// Whether to mirror during the run (costs battery, Fig. 2/3).
    pub mirroring: bool,
    /// Tunnel through a VPN exit first (§4.3).
    pub vpn: Option<VpnLocation>,
    /// Decimated sampling rate for the stored trace.
    pub sample_rate_hz: f64,
    /// Attach `logcat -d` output as an artifact.
    pub collect_logcat: bool,
}

impl ExperimentSpec {
    /// A measured script run on `device` with sane defaults.
    pub fn measured(device: &str, script: Script) -> Self {
        ExperimentSpec {
            device: device.to_string(),
            script,
            measure: true,
            mirroring: false,
            vpn: None,
            sample_rate_hz: 500.0,
            collect_logcat: true,
        }
    }
}

/// Job identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Terminal state of a build.
#[derive(Clone, Debug, PartialEq)]
pub enum BuildState {
    /// Waiting in the queue.
    Queued,
    /// Finished successfully.
    Succeeded,
    /// Finished with an error.
    Failed(String),
}

/// A file left in the job workspace.
#[derive(Clone, Debug, PartialEq)]
pub struct Artifact {
    /// Workspace-relative name, e.g. `power_summary.json`.
    pub name: String,
    /// Contents (text; JSON for structured results).
    pub content: String,
}

/// The record of one job run, kept in the workspace until retention
/// expires ("logs … made available for several days").
#[derive(Clone, Debug)]
pub struct BuildRecord {
    /// Id.
    pub id: JobId,
    /// Job name.
    pub name: String,
    /// Submitting user.
    pub owner: String,
    /// Node it ran on (set when dispatched).
    pub node: Option<String>,
    /// State.
    pub state: BuildState,
    /// Structured summary (mAh, durations…).
    pub summary: Option<serde_json::Value>,
    /// Workspace artifacts.
    pub artifacts: Vec<Artifact>,
    /// Device-clock instant the build finished, for retention.
    pub finished_at: Option<SimTime>,
}

impl BuildRecord {
    /// Whether the workspace has outlived `retention` at `now`.
    pub fn expired(&self, now: SimTime, retention: SimDuration) -> bool {
        match self.finished_at {
            Some(t) => now.duration_since(t) > retention,
            None => false,
        }
    }
}

/// What lands in the queue.
pub struct QueuedJob {
    /// Id assigned at submission.
    pub id: JobId,
    /// Display name.
    pub name: String,
    /// Submitting user.
    pub owner: String,
    /// Placement constraints.
    pub constraints: Constraints,
    /// What to run.
    pub payload: Payload,
    /// Failed runs so far (retry bookkeeping).
    pub attempts: u32,
    /// Supervision backoff: not placeable before this instant.
    pub not_before: Option<SimTime>,
}

/// Boxed custom job logic, run against the executing vantage point.
pub type CustomJobFn =
    Box<dyn FnMut(&mut batterylab_controller::VantagePoint) -> Result<JobOutcome, String> + Send>;

/// Job payloads: declarative experiments, or custom logic (how the
/// evaluation harness runs browser workloads with engine semantics).
pub enum Payload {
    /// Declarative pipeline.
    Experiment(ExperimentSpec),
    /// Arbitrary code against the vantage point.
    Custom(CustomJobFn),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retention_expiry() {
        let rec = BuildRecord {
            id: JobId(1),
            name: "j".into(),
            owner: "alice".into(),
            node: Some("node1".into()),
            state: BuildState::Succeeded,
            summary: None,
            artifacts: vec![],
            finished_at: Some(SimTime::from_secs(100)),
        };
        let keep = SimDuration::from_secs(3600);
        assert!(!rec.expired(SimTime::from_secs(200), keep));
        assert!(rec.expired(SimTime::from_secs(4000), keep));
    }

    #[test]
    fn unfinished_builds_never_expire() {
        let rec = BuildRecord {
            id: JobId(2),
            name: "j".into(),
            owner: "alice".into(),
            node: None,
            state: BuildState::Queued,
            summary: None,
            artifacts: vec![],
            finished_at: None,
        };
        assert!(!rec.expired(SimTime::from_secs(1_000_000), SimDuration::from_secs(1)));
    }

    #[test]
    fn experiment_spec_defaults() {
        let spec = ExperimentSpec::measured("j7", Script::new("s"));
        assert!(spec.measure);
        assert!(!spec.mirroring);
        assert!(spec.collect_logcat);
        assert_eq!(spec.sample_rate_hz, 500.0);
    }
}
