//! A durable, billed deployment under test: the access server, its
//! write-ahead log, the platform registry and the experimenter accounts,
//! plus the checks every workload runs against it.

use std::collections::BTreeMap;

use batterylab::controller::{VantageConfig, VantagePoint};
use batterylab::device::{boot_j7_duo, AndroidDevice, DeviceSpec, PowerModel};
use batterylab::durable::Wal;
use batterylab::faults::FaultInjector;
use batterylab::platform::{Platform, NODE_PORTS};
use batterylab::server::{
    AccessServer, BuildRecord, BuildState, Constraints, CreditLedger, JobId, Payload, Role,
    WalRecord,
};
use batterylab::sim::{SimDuration, SimRng, SimTime};
use batterylab::telemetry::{Registry, Report};
use batterylab::workloads::BrowserProfile;

use crate::cpu::CpuInstant;
use crate::exec::{TraceSink, EXEC_RUN};
use crate::Run;

const ADMIN: (&str, &str) = ("admin", "bootstrap-pw");

/// Registry counters kept as exact counts of the first repetition.
const COUNTED: [&str; 10] = [
    "power.samples",
    "adb.frames_tx",
    "adb.bytes_rx",
    "mirror.encoded_bytes",
    "durable.wal_records",
    "durable.wal_fsyncs",
    "faults.injected",
    "scheduler.retries",
    "supervisor.breaker_trips",
    "supervisor.breaker_blocks",
];

/// Sum of every counter named `suffix` or ending in `.suffix` (node-scoped
/// copies included).
pub fn counter_sum(report: &Report, suffix: &str) -> u64 {
    let dotted = format!(".{suffix}");
    report
        .counters
        .iter()
        .filter(|(name, _)| *name == suffix || name.ends_with(&dotted))
        .map(|(_, v)| v)
        .sum()
}

/// FNV-1a over `parts` in turn, truncated to 52 bits so the digest is
/// exact as a JSON number.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parts.into_iter().flatten() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h & ((1 << 52) - 1)
}

/// The deployment.
pub struct Deployment {
    /// The access server.
    pub server: AccessServer,
    /// Its write-ahead log (survives crashes).
    pub wal: Wal,
    /// The platform registry (survives crashes).
    pub registry: Registry,
    /// Span sink of the traced run.
    pub trace: Option<TraceSink>,
    /// Time the server and WAL layer calls (`submit_job`, replay,
    /// decode, apply, re-append). Set in the traced run's untraced
    /// pass, whose WAL holds the same records as the timed run's.
    pub time_layers: bool,
    faults: Option<FaultInjector>,
    admin_token: u64,
    accounts: Vec<(String, String)>,
    tokens: Vec<u64>,
    ids: Vec<JobId>,
}

impl Deployment {
    /// The durable paper testbed (one node, one J7 Duo) with `accounts`
    /// experimenters and, when `billing`, the credit ledger on.
    pub fn paper_testbed(seed: u64, accounts: usize, billing: bool) -> Deployment {
        let (platform, wal) = Platform::durable_testbed(seed);
        let mut dep = Deployment {
            admin_token: platform.admin_token,
            server: platform.server,
            wal,
            registry: platform.registry,
            trace: None,
            time_layers: false,
            faults: None,
            accounts: Vec::new(),
            tokens: Vec::new(),
            ids: Vec::new(),
        };
        if billing {
            dep.server.enable_billing();
        }
        dep.add_accounts(accounts);
        dep
    }

    /// Two nodes with two devices each — J7 Duo and Pixel 3 at `node1`,
    /// budget A10 and J7 Duo at `node2` — durable, billed, and armed
    /// with `faults`.
    pub fn fleet(seed: u64, accounts: usize, faults: FaultInjector) -> Deployment {
        let rng = SimRng::new(seed);
        let registry = Registry::new();
        let mut server = AccessServer::new("52.1.2.3", ADMIN.0, ADMIN.1);
        let admin_token = server
            .login(ADMIN.0, ADMIN.1, true)
            .expect("bootstrap admin")
            .token;
        let pixel = DeviceSpec {
            model: "Pixel 3".to_string(),
            product: "blueline".to_string(),
            api_level: 28,
            battery_mah: 2915.0,
            ..DeviceSpec::samsung_j7_duo()
        };
        let a10 = DeviceSpec {
            model: "Galaxy A10".to_string(),
            product: "a10".to_string(),
            api_level: 28,
            cpu_cores: 4,
            battery_mah: 3400.0,
            ..DeviceSpec::samsung_j7_duo()
        };
        let with_model = |spec: DeviceSpec, model: PowerModel, serial: &str| {
            AndroidDevice::new_with_model(
                spec,
                model,
                serial,
                rng.derive(&format!("device/{serial}")),
                true,
            )
        };
        let nodes = [
            (
                "node1",
                "155.198.1.10",
                vec![
                    boot_j7_duo(&rng, "j7duo-0001"),
                    with_model(pixel, PowerModel::pixel_3(), "pixel3-0001"),
                ],
            ),
            (
                "node2",
                "129.31.2.20",
                vec![
                    with_model(a10, PowerModel::budget_a10(), "a10-0001"),
                    boot_j7_duo(&rng, "j7duo-0002"),
                ],
            ),
        ];
        for (name, ip, devices) in nodes {
            let mut vp = VantagePoint::new(
                VantageConfig {
                    name: name.to_string(),
                    ..VantageConfig::imperial_college()
                },
                rng.derive(name),
            );
            for device in devices {
                for profile in BrowserProfile::all_four() {
                    device.install_package(&profile.package);
                }
                vp.add_device(device);
            }
            server
                .enroll_node(
                    admin_token,
                    vp,
                    ip,
                    &format!("hk:{name}"),
                    &NODE_PORTS,
                    SimTime::ZERO,
                )
                .expect("enrolment");
        }
        server.set_telemetry(&registry);
        let wal = Wal::new();
        wal.set_telemetry(&registry);
        server.attach_wal(&wal);
        server.enable_billing();
        faults.set_telemetry(&registry);
        server.attach_faults(&faults);
        let mut dep = Deployment {
            server,
            wal,
            registry,
            trace: None,
            time_layers: false,
            faults: Some(faults),
            admin_token,
            accounts: Vec::new(),
            tokens: Vec::new(),
            ids: Vec::new(),
        };
        dep.add_accounts(accounts);
        dep
    }

    fn add_accounts(&mut self, n: usize) {
        for i in 0..n {
            let (name, password) = (format!("exp{i:03}"), format!("pw-{i}"));
            self.server
                .add_user(self.admin_token, &name, &password, Role::Experimenter)
                .expect("fresh account");
            self.accounts.push((name, password));
        }
        self.login_all();
    }

    fn login_all(&mut self) {
        self.tokens = self
            .accounts
            .iter()
            .map(|(name, password)| {
                self.server
                    .login(name, password, true)
                    .expect("known account")
                    .token
            })
            .collect();
    }

    /// Submit a job as account `account % accounts`. A refused
    /// submission is counted and returns `None`.
    pub fn submit(
        &mut self,
        run: &mut Run,
        account: usize,
        name: &str,
        constraints: Constraints,
        payload: Payload,
    ) -> Option<JobId> {
        run.submitted += 1;
        let token = self.tokens[account % self.tokens.len()];
        let start = CpuInstant::now();
        let result = self.server.submit_job(token, name, constraints, payload);
        if self.time_layers {
            run.submit_ms.push(start.elapsed_ms());
        }
        match result {
            Ok(id) => {
                self.ids.push(id);
                Some(id)
            }
            Err(e) => {
                run.refused += 1;
                run.fail(format!("submission {name} refused: {e}"));
                None
            }
        }
    }

    /// One dispatcher pass; in the traced run also records the tick's
    /// own time (the tick minus the payload run it wrapped).
    pub fn tick(&mut self, run: &mut Run) -> Option<JobId> {
        let Some(sink) = &self.trace else {
            return self.server.tick();
        };
        let (runs_before, _) = sink.tracer.last(EXEC_RUN);
        let dispatch = sink.tracer.dispatch();
        let start = CpuInstant::now();
        let ran = self.server.tick();
        let tick_ms = sink.tracer.record(dispatch, "server.tick", "client", start);
        let (runs_after, exec_ms) = sink.tracer.last(EXEC_RUN);
        if ran.is_some() && runs_after > runs_before {
            run.tick_self_ms.push(tick_ms - exec_ms);
        }
        ran
    }

    /// The build `id` if it reached a terminal state.
    pub fn terminal(&self, id: JobId) -> Option<&BuildRecord> {
        self.server
            .build(self.admin_token, id)
            .ok()
            .filter(|b| !matches!(b.state, BuildState::Queued))
    }

    /// Let queued work become placeable again: wait out retry backoff or
    /// an open breaker, else idle every device 15 s and probe the nodes
    /// (the supervised path the chaos soak uses). `false` when the queue
    /// is empty.
    pub fn unstick(&mut self) -> bool {
        if self.server.queue_len() == 0 {
            return false;
        }
        if self.server.wait_for_backoff() {
            return true;
        }
        let mut latest = SimTime::ZERO;
        for name in self.server.node_names() {
            let vp = self.server.node_mut(&name).expect("enrolled");
            for serial in vp.list_devices() {
                if let Ok(device) = vp.device_handle(&serial) {
                    device.with_sim(|s| {
                        s.idle(SimDuration::from_secs(15));
                        latest = latest.max(s.now());
                    });
                }
            }
        }
        self.server.probe_nodes(latest);
        true
    }

    /// Tick until `id` is terminal. Returns the terminal build, or `None`
    /// (counted as a failed check) if the queue stops making progress.
    pub fn drive(&mut self, run: &mut Run, id: JobId) -> Option<&BuildRecord> {
        let mut idle_passes = 0;
        while self.terminal(id).is_none() {
            if self.tick(run).is_some() {
                idle_passes = 0;
                continue;
            }
            idle_passes += 1;
            if idle_passes > 50 || !self.unstick() {
                run.fail(format!("job {} never became terminal", id.0));
                return None;
            }
        }
        self.terminal(id)
    }

    /// Record a terminal build's outcome into `run`.
    pub fn account(&self, run: &mut Run, build: &BuildRecord) {
        run.terminal += 1;
        if let BuildState::Failed(e) = &build.state {
            run.failed_builds += 1;
            run.fail(format!("job {} failed: {e}", build.id.0));
        }
        let summary = build.summary.clone().unwrap_or_default();
        if run.keep_builds {
            let artifacts = build
                .artifacts
                .iter()
                .flat_map(|a| [a.name.as_bytes(), b"\0", a.content.as_bytes(), b"\0"]);
            run.builds.push(format!(
                "{} {:?} {:?} {} artifacts {:013x}",
                build.id.0,
                build.state,
                build.finished_at,
                summary,
                digest(artifacts)
            ));
        }
        if let Some(s) = summary["duration_s"].as_f64() {
            run.device_s += s;
        }
        if let Some(m) = summary["discharge_mah"].as_f64() {
            run.mah += m;
        }
    }

    /// Kill the server and rebuild it from the WAL, timing
    /// `AccessServer::recover`; check the recovered builds and ledger
    /// against the pre-crash ones; re-adopt the nodes. Returns the host
    /// seconds spent on the equality checks and on the layer timings
    /// (neither is part of the workload).
    pub fn crash_and_recover(&mut self, run: &mut Run) -> f64 {
        let split_start = CpuInstant::now();
        let (mut replay_ms, mut decode_ms) = (0.0, 0.0);
        if self.time_layers {
            // Replay and decode once untimed first, so the timed pass
            // and `recover` itself both find the allocator warm.
            for _ in 0..2 {
                let start = CpuInstant::now();
                let (payloads, _) = self.wal.replay();
                replay_ms = start.elapsed_ms();
                let start = CpuInstant::now();
                // Kept until the clock is read: `recover` keeps what it
                // decodes, so freeing it is not part of decoding.
                let decoded: Vec<_> = payloads.iter().map(|p| WalRecord::decode(p)).collect();
                decode_ms = start.elapsed_ms();
                drop(std::hint::black_box(decoded));
            }
        }
        let split_s = split_start.elapsed_s();
        let recovery = Registry::new();
        let start = CpuInstant::now();
        let recovered = AccessServer::recover(&self.wal, &recovery);
        let recover_ms = start.elapsed_ms();
        run.recover_ms.push(recover_ms);
        if self.time_layers {
            run.replay_ms.push(replay_ms);
            run.decode_ms.push(decode_ms);
            run.apply_ms.push(recover_ms - replay_ms - decode_ms);
        }
        let mut recovered = match recovered {
            Ok(server) => server,
            Err(e) => {
                run.fail(format!("recovery failed: {e}"));
                return split_s;
            }
        };
        let check_start = CpuInstant::now();
        let new_admin = recovered
            .login(ADMIN.0, ADMIN.1, true)
            .expect("admin survives recovery")
            .token;
        for id in &self.ids {
            let before = self.server.build(self.admin_token, *id).ok();
            let after = recovered.build(new_admin, *id).ok();
            if !same_build(before, after) {
                run.fail(format!("build {} differs after recovery", id.0));
            }
        }
        if !same_ledger(self.server.ledger(), recovered.ledger(), &self.accounts) {
            run.fail("ledger differs after recovery".to_string());
        }
        let checks_s = check_start.elapsed_s();
        let dead = std::mem::replace(&mut self.server, recovered);
        for (_, vp) in dead.take_nodes() {
            self.server.adopt_node(vp).expect("node was enrolled");
        }
        self.server.set_telemetry(&self.registry);
        if let Some(faults) = &self.faults {
            self.server.attach_faults(faults);
        }
        self.admin_token = new_admin;
        self.login_all();
        split_s + checks_s
    }

    /// End-of-stream checks: every job terminal exactly once, the queue
    /// empty, the scheduler's counts matching, and ledger charges equal
    /// to the cost of the device time successful builds report.
    pub fn final_checks(&self, run: &mut Run) {
        if self.server.queue_len() > 0 {
            run.fail(format!(
                "{} job(s) left in the queue",
                self.server.queue_len()
            ));
        }
        let mut seen = BTreeMap::new();
        let mut expected = 0.0;
        for id in &self.ids {
            *seen.entry(*id).or_insert(0u32) += 1;
            match self.terminal(*id) {
                None => run.fail(format!("job {} not terminal", id.0)),
                Some(b) if b.state == BuildState::Succeeded => {
                    let secs = b.summary.as_ref().and_then(|s| s["duration_s"].as_f64());
                    if let Some(secs) = secs.filter(|s| *s > 0.0) {
                        expected += CreditLedger::cost_of(SimDuration::from_secs_f64(secs));
                    }
                }
                Some(_) => {}
            }
        }
        if seen.values().any(|n| *n != 1) {
            run.fail("a job id was issued twice".to_string());
        }
        let report = self.registry.snapshot();
        let done = counter_sum(&report, "scheduler.jobs_succeeded")
            + counter_sum(&report, "scheduler.jobs_failed");
        if done != self.ids.len() as u64 {
            run.fail(format!(
                "scheduler completed {done} jobs for {} submissions",
                self.ids.len()
            ));
        }
        if let Some(ledger) = self.server.ledger() {
            let charged: f64 = ledger
                .history()
                .iter()
                .filter(|e| e.amount < 0.0)
                .map(|e| -e.amount)
                .sum();
            if (charged - expected).abs() > 1e-6 {
                run.fail(format!(
                    "ledger charged {charged:.9} but successful builds account for {expected:.9}"
                ));
            }
        }
    }

    /// Time re-appending this WAL's payloads to a fresh log,
    /// in microseconds per append.
    pub fn reappend_us(&self) -> f64 {
        let (payloads, _) = self.wal.replay();
        let fresh = Wal::new();
        let start = CpuInstant::now();
        for p in &payloads {
            fresh.append(p);
        }
        start.elapsed_s() * 1e6 / payloads.len().max(1) as f64
    }

    /// Keep the first repetition's exact counts: the simulated-behaviour
    /// fingerprint and the layer counters.
    pub fn record_counts(&self, run: &mut Run) {
        let report = self.registry.snapshot();
        let automation = self.trace.as_ref().map(|sink| sink.automation.snapshot());
        for name in COUNTED {
            let extra = automation.as_ref().map_or(0, |a| counter_sum(a, name));
            run.counts
                .insert(name, (counter_sum(&report, name) + extra) as f64);
        }
        run.counts.insert("sim.device_s", run.device_s);
        run.counts.insert("sim.mah", run.mah);
    }

    /// Jobs submitted so far.
    pub fn jobs(&self) -> usize {
        self.ids.len()
    }
}

fn same_build(a: Option<&BuildRecord>, b: Option<&BuildRecord>) -> bool {
    match (a, b) {
        (Some(a), Some(b)) => {
            a.id == b.id
                && a.name == b.name
                && a.owner == b.owner
                && a.node == b.node
                && a.state == b.state
                && a.summary == b.summary
                && a.artifacts == b.artifacts
                && a.finished_at == b.finished_at
        }
        _ => false,
    }
}

fn same_ledger(
    a: Option<&CreditLedger>,
    b: Option<&CreditLedger>,
    accounts: &[(String, String)],
) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.history() == b.history()
                && accounts
                    .iter()
                    .all(|(user, _)| a.balance(user).ok() == b.balance(user).ok())
        }
        _ => false,
    }
}
