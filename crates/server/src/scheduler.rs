//! The build queue and dispatcher: Jenkins' scheduling core (§3.1).
//!
//! Dispatch honours experimenter constraints (target node/device) and
//! BatteryLab constraints (one job at a time per device; optionally only
//! when the controller CPU is low). A job's network location is not a
//! placement constraint: its spec's VPN exit is set up by the job itself.
//!
//! The scheduler decides but never commits: [`Scheduler::submit`] and
//! [`Scheduler::tick`] return the decided [`WalRecord`], and the access
//! server applies it through the same path WAL replay takes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use batterylab_controller::VantagePoint;
use batterylab_sim::{SimDuration, SimTime};
use batterylab_telemetry::{Counter, Registry};

use crate::jobs::{
    Artifact, BuildRecord, BuildState, Constraints, ExperimentSpec, JobId, Payload, QueuedJob,
};
use crate::slots::SlotCalendar;
use crate::supervise::Supervisor;
use crate::vantage_exec::run_experiment;
use crate::wal::{ChargeRecord, WalRecord};

/// Workspace retention: "available for several days".
pub const DEFAULT_RETENTION: SimDuration = SimDuration::from_secs(7 * 24 * 3600);

/// A queued `Custom` job's build error after recovery: its closure died
/// with the server.
const CUSTOM_LOST: &str = "custom payload lost in server crash";

/// Name of the one artifact an expired workspace keeps (in the WAL's
/// string table seed).
pub(crate) const RETENTION: &str = "RETENTION";

/// Controller CPU threshold for `require_low_cpu` jobs.
const LOW_CPU_THRESHOLD: f64 = 0.5;

/// Pre-resolved telemetry handles for the queue (`scheduler.*`),
/// unregistered until [`Scheduler::set_telemetry`] binds them.
#[derive(Default)]
struct SchedulerTelemetry {
    registry: Registry,
    jobs_submitted: Counter,
    jobs_succeeded: Counter,
    jobs_failed: Counter,
    retries: Counter,
}

impl SchedulerTelemetry {
    fn bind(registry: &Registry) -> Self {
        SchedulerTelemetry {
            jobs_submitted: registry.counter("scheduler.jobs_submitted"),
            jobs_succeeded: registry.counter("scheduler.jobs_succeeded"),
            jobs_failed: registry.counter("scheduler.jobs_failed"),
            retries: registry.counter("scheduler.retries"),
            registry: registry.clone(),
        }
    }
}

/// The queue + build history.
pub struct Scheduler {
    queue: VecDeque<QueuedJob>,
    builds: BTreeMap<JobId, BuildRecord>,
    next_id: u64,
    retention: SimDuration,
    /// Time-slot reservations (§3.1 "concurrent timed sessions").
    slots: SlotCalendar,
    telemetry: SchedulerTelemetry,
    /// Supervision: per-node circuit breakers + retry backoff.
    supervisor: Supervisor,
}

impl Scheduler {
    /// Empty scheduler with the default retention.
    pub fn new() -> Self {
        Scheduler {
            queue: VecDeque::new(),
            builds: BTreeMap::new(),
            next_id: 1,
            retention: DEFAULT_RETENTION,
            slots: SlotCalendar::new(),
            telemetry: SchedulerTelemetry::default(),
            supervisor: Supervisor::new(0),
        }
    }

    /// The supervision layer, read-only.
    pub(crate) fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// The supervision layer (breakers, retry policy, heartbeats).
    pub fn supervisor_mut(&mut self) -> &mut Supervisor {
        &mut self.supervisor
    }

    /// Bind telemetry to a shared registry (`scheduler.*` metrics).
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = SchedulerTelemetry::bind(registry);
        self.supervisor.set_telemetry(registry);
    }

    /// The reservation calendar.
    pub fn slots(&self) -> &SlotCalendar {
        &self.slots
    }

    /// Mutable calendar access (reserve/release).
    pub fn slots_mut(&mut self) -> &mut SlotCalendar {
        &mut self.slots
    }

    /// Override retention (tests).
    pub fn set_retention(&mut self, retention: SimDuration) {
        self.retention = retention;
    }

    /// Decide a submission: the next job id and the `Submitted` record
    /// that queues it once applied.
    pub fn submit(
        &self,
        name: &str,
        owner: &str,
        constraints: Constraints,
        payload: &Payload,
    ) -> (JobId, WalRecord) {
        let record = WalRecord::Submitted {
            id: self.next_id,
            name: name.to_string(),
            owner: owner.to_string(),
            constraints,
            spec: match payload {
                Payload::Experiment(spec) => Some(spec.clone()),
                Payload::Custom(_) => None, // boxed closures don't serialise
            },
        };
        (JobId(self.next_id), record)
    }

    /// Apply a `Submitted` record: open the build and queue `payload`.
    /// Without a payload (a custom closure that died with the server)
    /// the build is marked failed rather than silently dropped.
    pub(crate) fn enqueue(
        &mut self,
        id: JobId,
        name: String,
        owner: String,
        constraints: Constraints,
        payload: Option<Payload>,
    ) {
        self.next_id = self.next_id.max(id.0 + 1);
        let state = match payload {
            Some(_) => BuildState::Queued,
            None => BuildState::Failed(CUSTOM_LOST.to_string()),
        };
        self.builds.insert(
            id,
            BuildRecord {
                id,
                name: name.clone(),
                owner: owner.clone(),
                node: None,
                state,
                summary: None,
                artifacts: Vec::new(),
                finished_at: None,
            },
        );
        if let Some(payload) = payload {
            self.queue.push_back(QueuedJob {
                id,
                name,
                owner,
                constraints,
                payload,
                attempts: 0,
                not_before: None,
            });
        }
        self.telemetry.jobs_submitted.inc();
    }

    /// Jobs waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// A build record.
    pub fn build(&self, id: JobId) -> Option<&BuildRecord> {
        self.builds.get(&id)
    }

    /// All builds (history view).
    pub fn builds(&self) -> impl Iterator<Item = &BuildRecord> {
        self.builds.values()
    }

    fn placeable(
        &self,
        job: &QueuedJob,
        nodes: &mut BTreeMap<String, VantagePoint>,
        available: &BTreeSet<String>,
    ) -> Option<(String, String)> {
        for (name, vp) in nodes.iter_mut() {
            if !available.contains(name) {
                continue; // circuit breaker open: node receives no work
            }
            if let Some(required) = &job.constraints.node {
                if required != name {
                    continue;
                }
            }
            let devices = vp.list_devices();
            let candidates: Vec<&String> = match &job.constraints.device {
                Some(d) => devices.iter().filter(|s| *s == d).collect(),
                None => devices.iter().collect(),
            };
            for serial in candidates {
                if job.constraints.require_low_cpu && vp.pi_mut().sample_cpu() > LOW_CPU_THRESHOLD {
                    continue;
                }
                // Honour reservations and retry backoff at the device's
                // current instant.
                if let Ok(device) = vp.device_handle(serial) {
                    let now = device.with_sim(|s| s.now());
                    if job.not_before.is_some_and(|nb| now < nb) {
                        continue;
                    }
                    if !self.slots.may_run(name, serial, &job.owner, now) {
                        continue;
                    }
                }
                return Some((name.clone(), serial.clone()));
            }
        }
        None
    }

    /// Dispatch and run the first placeable queued job, and decide its
    /// outcome: `Retried` with the supervised backoff deadline, or
    /// `Completed` with the terminal build (and, when `billed`, the
    /// charge for its device time). `None` when nothing could be placed.
    ///
    /// The queue and build table change only when the server applies the
    /// returned record. Execution is synchronous on the virtual clock, so
    /// a device never runs two jobs at once.
    pub fn tick(
        &mut self,
        nodes: &mut BTreeMap<String, VantagePoint>,
        billed: bool,
    ) -> Option<(JobId, WalRecord)> {
        // Breaker gating, decided once per tick (before queue iteration,
        // which only holds shared borrows of self).
        let node_nows: Vec<(String, SimTime)> = nodes
            .iter()
            .map(|(name, vp)| (name.clone(), vp.now()))
            .collect();
        let available: BTreeSet<String> = node_nows
            .into_iter()
            .filter(|(name, now)| self.supervisor.node_available(name, *now))
            .map(|(name, _)| name)
            .collect();
        // Find the first job (FIFO) with a feasible placement.
        let idx = self.queue.iter().enumerate().find_map(|(i, job)| {
            self.placeable(job, nodes, &available)
                .map(|placement| (i, placement))
        });
        let (i, (node, device)) = idx?;
        let vp = nodes.get_mut(&node).expect("placement node exists");
        let result = match &mut self.queue[i].payload {
            // A device-less spec runs on the placed device through a
            // per-dispatch copy: the queued spec stays unpinned, so a
            // retry is placed (leased, slot-checked) afresh.
            Payload::Experiment(spec) if spec.device.is_empty() => run_experiment(
                vp,
                &ExperimentSpec {
                    device,
                    ..spec.clone()
                },
            ),
            Payload::Experiment(spec) => run_experiment(vp, spec),
            Payload::Custom(f) => f(vp),
        };
        let now = vp.now();
        let job = &self.queue[i];
        let terminal = |state, finished_at| BuildRecord {
            id: job.id,
            name: job.name.clone(),
            owner: job.owner.clone(),
            node: Some(node.clone()),
            state,
            summary: None,
            artifacts: Vec::new(),
            finished_at: Some(finished_at),
        };
        let record = match result {
            Ok(outcome) => {
                let secs = outcome.summary["duration_s"].as_f64().unwrap_or(0.0);
                let charge = (billed && secs > 0.0).then(|| ChargeRecord {
                    user: job.owner.clone(),
                    job: job.name.clone(),
                    device_time: SimDuration::from_secs_f64(secs),
                });
                WalRecord::Completed {
                    record: BuildRecord {
                        summary: Some(outcome.summary),
                        artifacts: outcome.artifacts,
                        ..terminal(BuildState::Succeeded, outcome.finished_at)
                    },
                    charge,
                }
            }
            // Transient failure budget left: back into the queue with
            // supervised backoff (capped exponential, seeded jitter).
            Err(error) if job.attempts < job.constraints.max_retries => {
                let attempts = job.attempts + 1;
                WalRecord::Retried {
                    id: job.id.0,
                    not_before: self
                        .supervisor
                        .retry_backoff(&node, attempts)
                        .map(|backoff| now + backoff),
                    node,
                    attempts,
                    failed_at: now,
                    error,
                }
            }
            Err(error) => WalRecord::Completed {
                record: terminal(BuildState::Failed(error), now),
                charge: None,
            },
        };
        Some((job.id, record))
    }

    /// Apply a `Retried` record: feed the failure into the node's
    /// breaker, pin the build to the node, and move the job to the back
    /// of the queue with its attempt count and backoff deadline.
    pub(crate) fn requeue(
        &mut self,
        id: JobId,
        node: String,
        attempts: u32,
        not_before: Option<SimTime>,
        failed_at: SimTime,
        error: &str,
    ) {
        self.supervisor.record_failure(&node, failed_at);
        if let Some(i) = self.queue.iter().position(|j| j.id == id) {
            let mut job = self.queue.remove(i).expect("index valid");
            job.attempts = attempts;
            job.not_before = not_before;
            self.queue.push_back(job);
        }
        if let Some(record) = self.builds.get_mut(&id) {
            record.node = Some(node);
        }
        self.telemetry.retries.inc();
        self.telemetry.registry.event(
            "scheduler.retry",
            format!("job {} attempt {}: {error}", id.0, attempts + 1),
        );
    }

    /// Apply a `Completed` record: retire the job from the queue, feed the
    /// outcome into the node's breaker, and adopt the terminal build.
    pub(crate) fn finish(&mut self, record: BuildRecord) {
        if let Some(i) = self.queue.iter().position(|j| j.id == record.id) {
            self.queue.remove(i);
        }
        self.next_id = self.next_id.max(record.id.0 + 1);
        let node = record.node.as_deref().unwrap_or_default();
        match &record.state {
            BuildState::Succeeded => {
                self.telemetry.jobs_succeeded.inc();
                self.supervisor.record_success(node);
            }
            BuildState::Failed(_) => {
                self.telemetry.jobs_failed.inc();
                self.supervisor
                    .record_failure(node, record.finished_at.unwrap_or(SimTime::ZERO));
            }
            BuildState::Queued => {}
        }
        self.builds.insert(record.id, record);
    }

    /// Restore a snapshot's build verbatim, with no breaker call.
    pub(crate) fn restore_build(&mut self, record: BuildRecord) {
        self.next_id = self.next_id.max(record.id.0 + 1);
        self.builds.insert(record.id, record);
    }

    /// Restore a snapshot's queued job behind the ones restored before
    /// it. Its name and owner are its build's, which the snapshot
    /// restored first. Without a payload (a custom closure that died with
    /// the server) the build is marked failed instead, as [`Self::enqueue`]
    /// marks it.
    pub(crate) fn restore_queued(
        &mut self,
        id: JobId,
        constraints: Constraints,
        payload: Option<Payload>,
        attempts: u32,
        not_before: Option<SimTime>,
    ) {
        let Some(build) = self.builds.get_mut(&id) else {
            return;
        };
        match payload {
            Some(payload) => self.queue.push_back(QueuedJob {
                id,
                name: build.name.clone(),
                owner: build.owner.clone(),
                constraints,
                payload,
                attempts,
                not_before,
            }),
            None => build.state = BuildState::Failed(CUSTOM_LOST.to_string()),
        }
    }

    /// Builds in the table.
    pub(crate) fn build_count(&self) -> u64 {
        self.builds.len() as u64
    }

    /// If queued jobs are only waiting out supervised retry backoff or an
    /// open circuit breaker, idle every device forward to the earliest
    /// instant dispatch could resume (`not_before` or a breaker's
    /// half-open window). Returns whether any clock advanced (i.e.
    /// whether another dispatch pass could help).
    pub fn wait_for_backoff(&self, nodes: &mut BTreeMap<String, VantagePoint>) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let backoff = self.queue.iter().filter_map(|j| j.not_before).min();
        let reopen = self.supervisor.next_breaker_reopen();
        let nb = match (backoff, reopen) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => return false,
        };
        // Every node idles: no short-circuit past the first that moved.
        let mut advanced = false;
        for vp in nodes.values_mut() {
            advanced |= vp.idle_devices_until(nb);
        }
        advanced
    }

    /// Prune expired workspaces (artifacts replaced by one `RETENTION`
    /// marker, record kept). Builds already holding the marker are
    /// skipped, so a build is pruned and counted once.
    pub fn prune_workspaces(&mut self, now: SimTime) -> usize {
        let retention = self.retention;
        let mut pruned = 0;
        for record in self.builds.values_mut() {
            let marked = matches!(&record.artifacts[..], [only] if only.name == RETENTION);
            if !record.artifacts.is_empty() && !marked && record.expired(now, retention) {
                record.artifacts = vec![Artifact {
                    name: RETENTION.to_string(),
                    content: "workspace expired".to_string(),
                }];
                pruned += 1;
            }
        }
        pruned
    }

    /// The id the next submission gets.
    #[cfg(test)]
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The queue in dispatch order.
    pub(crate) fn queue(&self) -> &VecDeque<QueuedJob> {
        &self.queue
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::ExperimentSpec;
    use crate::vantage_exec::JobOutcome;
    use crate::AccessServer;
    use batterylab_automation::Script;
    use batterylab_controller::VantageConfig;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::SimRng;

    /// A server with one node (`node1`, device `sched-dev`) and the
    /// bootstrap admin's token.
    fn server() -> (AccessServer, u64) {
        let mut server = AccessServer::new("52.1.2.3", "admin", "pw");
        let admin = server.login("admin", "pw", true).unwrap().token;
        let rng = SimRng::new(41);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        let d = boot_j7_duo(&rng, "sched-dev");
        d.install_package("com.brave.browser");
        vp.add_device(d);
        server
            .enroll_node(
                admin,
                vp,
                "1.2.3.4",
                "hk",
                &[2222, 8080, 6081],
                SimTime::ZERO,
            )
            .unwrap();
        (server, admin)
    }

    fn job_spec() -> ExperimentSpec {
        ExperimentSpec::measured(
            "sched-dev",
            Script::browser_workload("com.brave.browser", &["https://a.example"], 2),
        )
    }

    fn state(server: &AccessServer, admin: u64, id: JobId) -> BuildState {
        server.build(admin, id).unwrap().state.clone()
    }

    #[test]
    fn fifo_dispatch_and_success() {
        let (mut s, admin) = server();
        let a = s
            .submit_job(
                admin,
                "job-a",
                Constraints::default(),
                Payload::Experiment(job_spec()),
            )
            .unwrap();
        let b = s
            .submit_job(
                admin,
                "job-b",
                Constraints::default(),
                Payload::Experiment(job_spec()),
            )
            .unwrap();
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.tick(), Some(a));
        assert_eq!(s.tick(), Some(b));
        assert_eq!(s.tick(), None);
        let build = s.build(admin, a).unwrap();
        assert_eq!(build.state, BuildState::Succeeded);
        assert_eq!(build.node.as_deref(), Some("node1"));
        assert!(
            build.summary.as_ref().unwrap()["discharge_mah"]
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn node_constraint_must_match() {
        let (mut s, admin) = server();
        let id = s
            .submit_job(
                admin,
                "wrong-node",
                Constraints {
                    node: Some("node9".to_string()),
                    ..Default::default()
                },
                Payload::Experiment(job_spec()),
            )
            .unwrap();
        assert_eq!(s.tick(), None, "no such node: job stays queued");
        assert_eq!(state(&s, admin, id), BuildState::Queued);
        assert_eq!(s.queue_len(), 1);
    }

    #[test]
    fn device_constraint_must_match() {
        let (mut s, admin) = server();
        s.submit_job(
            admin,
            "wrong-device",
            Constraints {
                device: Some("ghost".to_string()),
                ..Default::default()
            },
            Payload::Experiment(job_spec()),
        )
        .unwrap();
        assert_eq!(s.tick(), None);
        // A feasible job behind it still dispatches (queue skips blocked).
        let ok = s
            .submit_job(
                admin,
                "ok",
                Constraints::default(),
                Payload::Experiment(job_spec()),
            )
            .unwrap();
        assert_eq!(s.tick(), Some(ok));
    }

    #[test]
    fn failed_job_records_error() {
        let (mut s, admin) = server();
        let mut spec = job_spec();
        spec.device = "ghost".to_string();
        let id = s
            .submit_job(
                admin,
                "bad",
                Constraints::default(),
                Payload::Experiment(spec),
            )
            .unwrap();
        s.tick();
        assert!(matches!(state(&s, admin, id), BuildState::Failed(_)));
    }

    #[test]
    fn custom_payload_runs() {
        let (mut s, admin) = server();
        let id = s
            .submit_job(
                admin,
                "custom",
                Constraints::default(),
                Payload::Custom(Box::new(|vp| {
                    Ok(JobOutcome {
                        summary: serde_json::json!({"devices": vp.list_devices()}),
                        artifacts: vec![],
                        finished_at: SimTime::ZERO,
                    })
                })),
            )
            .unwrap();
        s.tick();
        let b = s.build(admin, id).unwrap();
        assert_eq!(b.state, BuildState::Succeeded);
        assert_eq!(b.summary.as_ref().unwrap()["devices"][0], "sched-dev");
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let registry = Registry::new();
        let (mut s, admin) = server();
        s.set_telemetry(&registry);
        let mut failures_left = 2u32;
        let id = s
            .submit_job(
                admin,
                "flaky",
                Constraints {
                    max_retries: 3,
                    ..Default::default()
                },
                Payload::Custom(Box::new(move |_vp| {
                    if failures_left > 0 {
                        failures_left -= 1;
                        Err("transient socket hiccup".to_string())
                    } else {
                        Ok(JobOutcome {
                            summary: serde_json::json!({}),
                            artifacts: vec![],
                            finished_at: SimTime::ZERO,
                        })
                    }
                })),
            )
            .unwrap();
        s.drain();
        assert_eq!(state(&s, admin, id), BuildState::Succeeded);
        let report = registry.snapshot();
        assert_eq!(report.counter("scheduler.retries"), 2);
        assert_eq!(report.counter("scheduler.jobs_succeeded"), 1);
        assert_eq!(report.counter("scheduler.jobs_failed"), 0);
        assert!(report.events.iter().any(|e| e.label == "scheduler.retry"));
    }

    #[test]
    fn retry_budget_exhausts_to_failure() {
        let registry = Registry::new();
        let (mut s, admin) = server();
        s.set_telemetry(&registry);
        let id = s
            .submit_job(
                admin,
                "doomed",
                Constraints {
                    max_retries: 1,
                    ..Default::default()
                },
                Payload::Custom(Box::new(|_vp| Err("hard fault".to_string()))),
            )
            .unwrap();
        s.drain();
        assert!(matches!(state(&s, admin, id), BuildState::Failed(_)));
        let report = registry.snapshot();
        assert_eq!(report.counter("scheduler.retries"), 1);
        assert_eq!(report.counter("scheduler.jobs_failed"), 1);
    }

    #[test]
    fn workspace_retention_prunes_artifacts() {
        let (mut s, admin) = server();
        s.scheduler_mut().set_retention(SimDuration::from_secs(10));
        let id = s
            .submit_job(
                admin,
                "j",
                Constraints::default(),
                Payload::Experiment(job_spec()),
            )
            .unwrap();
        s.tick();
        assert!(!s.build(admin, id).unwrap().artifacts.is_empty());
        let finished = s.build(admin, id).unwrap().finished_at.unwrap();
        let pruned = s
            .scheduler_mut()
            .prune_workspaces(finished + SimDuration::from_secs(11));
        assert_eq!(pruned, 1);
        assert_eq!(s.build(admin, id).unwrap().artifacts[0].name, "RETENTION");
        // Second prune is a no-op (already marked).
        assert_eq!(
            s.scheduler_mut()
                .prune_workspaces(finished + SimDuration::from_secs(12)),
            0
        );
    }

    #[test]
    fn drain_runs_everything_placeable() {
        let (mut s, admin) = server();
        for i in 0..3 {
            s.submit_job(
                admin,
                &format!("job-{i}"),
                Constraints::default(),
                Payload::Experiment(job_spec()),
            )
            .unwrap();
        }
        let ran = s.drain();
        assert_eq!(ran.len(), 3);
        assert_eq!(s.queue_len(), 0);
    }
}
