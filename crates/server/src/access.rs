//! The access server (§3.1): the cloud-hosted front door tying together
//! authentication, the node registry, the build queue and maintenance —
//! BatteryLab's Jenkins.

use std::collections::BTreeMap;

use batterylab_controller::VantagePoint;
use batterylab_durable::Wal;
use batterylab_sim::SimTime;

use crate::auth::{hash_password, AuthError, AuthService, Permission, Role, Session};
use crate::credits::{CreditError, CreditLedger};
use crate::jobs::{BuildRecord, Constraints, JobId, Payload};
use crate::maintenance::{self, MaintenanceReport};
use crate::registry::{NodeRegistry, RegistryError, REQUIRED_PORTS};
use crate::scheduler::Scheduler;
use crate::ssh::SshClient;
use crate::supervise::BreakerState;
use crate::wal::{SnapshotSink, WalRecord};
use batterylab_sim::SimDuration;

/// Records a log generation takes past its snapshot before `commit`
/// compacts it, while the snapshot holds fewer builds than this.
const COMPACTION_FLOOR: u64 = 512;

/// The compaction trigger: records in the current generation past its
/// snapshot's `SnapshotEnd` (all of them when the snapshot held only the
/// boot state and wrote none), and the builds that snapshot holds. Live
/// commits and replay count the same records, so a recovered server
/// compacts where an uninterrupted one would.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct Compaction {
    since: u64,
    builds: u64,
}

impl Compaction {
    /// Compact once the records past the snapshot reach the builds in it
    /// (at least [`COMPACTION_FLOOR`]): a geometric schedule, so each
    /// record pays O(1) snapshot work amortised and the generation stays
    /// within a small multiple of the live state.
    fn due(&self) -> bool {
        self.since >= COMPACTION_FLOOR.max(self.builds)
    }
}

/// Access-server faults.
#[derive(Debug)]
pub enum ServerError {
    /// Authentication/authorisation failure.
    Auth(AuthError),
    /// Registry failure.
    Registry(RegistryError),
    /// Unknown build.
    NoSuchBuild(JobId),
    /// Credit-system refusal (billing-enabled deployments).
    Credits(CreditError),
    /// Crash recovery could not rebuild state from the write-ahead log.
    Recovery(String),
    /// A credit operation on a deployment without the credit system.
    BillingDisabled,
}

impl From<AuthError> for ServerError {
    fn from(e: AuthError) -> Self {
        ServerError::Auth(e)
    }
}

impl From<RegistryError> for ServerError {
    fn from(e: RegistryError) -> Self {
        ServerError::Registry(e)
    }
}

impl From<CreditError> for ServerError {
    fn from(e: CreditError) -> Self {
        ServerError::Credits(e)
    }
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Auth(e) => write!(f, "auth: {e}"),
            ServerError::Registry(e) => write!(f, "registry: {e}"),
            ServerError::NoSuchBuild(id) => write!(f, "no such build {id:?}"),
            ServerError::Credits(e) => write!(f, "credits: {e}"),
            ServerError::Recovery(msg) => write!(f, "recovery: {msg}"),
            ServerError::BillingDisabled => write!(f, "the credit system is not enabled"),
        }
    }
}

impl std::error::Error for ServerError {}

/// The BatteryLab access server.
///
/// Every state transition is decided once, written as one [`WalRecord`]
/// and applied by one private `apply`; [`AccessServer::recover`] replays
/// the log through that same `apply`. Nothing else changes logged state:
/// the server hands out no `&mut` to its ledger or account directory.
/// Login sessions are the one exception, and are not recovered.
pub struct AccessServer {
    auth: AuthService,
    registry: NodeRegistry,
    scheduler: Scheduler,
    nodes: BTreeMap<String, VantagePoint>,
    ssh: SshClient,
    public_ip: String,
    /// §5 credit system; `None` = open-access deployment.
    billing: Option<CreditLedger>,
    /// Node → owning member, for hosting accrual.
    node_owners: BTreeMap<String, String>,
    /// Last instant hosting accrual ran.
    last_accrual: SimTime,
    /// Write-ahead log; disabled unless [`AccessServer::attach_wal`] ran.
    wal: Wal,
    /// When `commit` next compacts the log.
    compaction: Compaction,
}

impl AccessServer {
    /// Boot the server (AWS-hosted in the paper) with a bootstrap admin.
    pub fn new(public_ip: &str, admin_user: &str, admin_password: &str) -> Self {
        Self::with_state(
            public_ip.to_string(),
            AuthService::new(admin_user, admin_password),
            Wal::disabled(),
        )
    }

    fn with_state(public_ip: String, auth: AuthService, wal: Wal) -> Self {
        AccessServer {
            auth,
            registry: NodeRegistry::new(SimTime::ZERO),
            scheduler: Scheduler::new(),
            nodes: BTreeMap::new(),
            ssh: SshClient::new("fp:access-server"),
            public_ip,
            billing: None,
            node_owners: BTreeMap::new(),
            last_accrual: SimTime::ZERO,
            wal,
            compaction: Compaction::default(),
        }
    }

    /// Make the server crash-consistent: every state transition from here
    /// on appends one fsynced record to `wal`, and the current state is
    /// snapshotted into the log first (appended, not applied: it already
    /// exists), so `wal` alone is enough to rebuild the server via
    /// [`AccessServer::recover`]. A server that already ran jobs keeps
    /// them.
    pub fn attach_wal(&mut self, wal: &Wal) {
        self.wal = wal.clone();
        self.compaction = self.snapshot(|payload| {
            wal.append(payload);
        });
    }

    /// Compact the log: write the live state as a snapshot into a new log
    /// generation and swap it in, so [`AccessServer::recover`] replays
    /// the snapshot and the records after it instead of every record
    /// since boot. Every commit runs this once the generation has grown
    /// past its snapshot by as many records as the snapshot holds builds
    /// (at least 512); live state does not change. A no-op without a log.
    pub fn compact(&mut self) {
        if !self.wal.is_enabled() {
            return;
        }
        let mut next = self.wal.next_generation();
        self.compaction = self.snapshot(|payload| next.append(payload));
        self.wal.install(next);
    }

    /// Write the live state as snapshot records, one encoded payload per
    /// `emit` call, in the order [`AccessServer::recover`] replays them.
    /// [`AccessServer::attach_wal`] and [`AccessServer::compact`] write
    /// their snapshots through this.
    pub fn write_snapshot(&self, emit: impl FnMut(&[u8])) {
        self.snapshot(emit);
    }

    /// The one snapshot writer. Boot state first, in the records that
    /// created it: `Booted`, `UserAdded`…, `BillingEnabled`,
    /// `NodeEnrolled`… and `NodeOwner`…. Then what no transition record
    /// restores without side effects, each only where it differs from
    /// what the boot records restore: the renewed certificate, node
    /// health, the ledger, breakers, every build verbatim, the queue in
    /// order and the slot calendar. A snapshot that wrote any of those
    /// ends with `SnapshotEnd`. Encodes from borrowed state, one record
    /// at a time. Returns the compaction trigger the written generation
    /// starts from.
    fn snapshot(&self, emit: impl FnMut(&[u8])) -> Compaction {
        let mut sink = SnapshotSink::new(emit);
        sink.record(&WalRecord::Booted {
            public_ip: self.public_ip.clone(),
        });
        for (name, password_hash, role) in self.auth.accounts() {
            sink.record(&WalRecord::UserAdded {
                name: name.to_string(),
                password_hash,
                role,
            });
        }
        if self.billing.is_some() {
            sink.record(&WalRecord::BillingEnabled);
        }
        let nodes = self.registry.names();
        for name in &nodes {
            let node = self.registry.node(name).expect("listed node exists");
            sink.record(&WalRecord::NodeEnrolled {
                name: name.clone(),
                ip: node.ip.clone(),
                host_key: node.host_key.clone(),
                open_ports: REQUIRED_PORTS.iter().map(|(p, _)| *p).collect(),
                at: node.enrolled_at,
            });
        }
        for (node, owner) in &self.node_owners {
            sink.record(&WalRecord::NodeOwner {
                node: node.clone(),
                owner: owner.clone(),
            });
        }
        let boot = sink.records;

        // What the boot records restore: the boot-time certificate,
        // deployed at every node enrolled under it.
        let fresh = NodeRegistry::new(SimTime::ZERO);
        let cert = self.registry.certificate();
        if cert != fresh.certificate() || self.registry.next_serial() != fresh.next_serial() {
            sink.record(&WalRecord::Certificate {
                cert: cert.clone(),
                next_serial: self.registry.next_serial(),
            });
        }
        for name in nodes {
            let node = self.registry.node(&name).expect("listed node exists");
            let enrolled = Some(fresh.certificate().serial);
            if node.deployed_cert != enrolled || node.last_heartbeat.is_some() || !node.healthy {
                sink.record(&WalRecord::NodeHealth {
                    deployed_cert: node.deployed_cert,
                    last_heartbeat: node.last_heartbeat,
                    healthy: node.healthy,
                    name,
                });
            }
        }
        if let Some(ledger) = self.billing.as_ref().filter(|l| !l.balances.is_empty()) {
            sink.ledger(ledger);
        }
        for (node, breaker) in self.scheduler.supervisor().breakers() {
            let (state, consecutive_failures, opened_at) = (
                breaker.state(),
                breaker.consecutive_failures(),
                breaker.opened_at(),
            );
            if (state, consecutive_failures, opened_at) != (BreakerState::Closed, 0, SimTime::ZERO)
            {
                sink.record(&WalRecord::Breaker {
                    node: node.to_string(),
                    state,
                    consecutive_failures,
                    opened_at,
                });
            }
        }
        for build in self.scheduler.builds() {
            sink.build(build);
        }
        for job in self.scheduler.queue() {
            sink.queued(job);
        }
        for ((node, device), slots) in self.scheduler.slots().calendars() {
            for slot in slots {
                sink.record(&WalRecord::SlotReserved {
                    node: node.clone(),
                    device: device.clone(),
                    user: slot.user.clone(),
                    from: slot.from,
                    to: slot.to,
                });
            }
        }

        // A boot-only snapshot has nothing to end: the trigger counts its
        // records too (unless there are enough of them to trip it).
        let records = sink.records;
        if records == boot && self.last_accrual == SimTime::ZERO && records < COMPACTION_FLOOR {
            return Compaction {
                since: records,
                builds: 0,
            };
        }
        sink.record(&WalRecord::SnapshotEnd {
            last_accrual: self.last_accrual,
        });
        Compaction {
            since: 0,
            builds: self.scheduler.build_count(),
        }
    }

    /// The write-ahead log handle (disabled unless durability is on).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Rebind the scheduler and every enrolled node to a shared registry,
    /// so one snapshot covers the whole deployment.
    pub fn set_telemetry(&mut self, registry: &batterylab_telemetry::Registry) {
        self.scheduler.set_telemetry(registry);
        for node in self.nodes.values_mut() {
            node.set_telemetry(registry);
        }
    }

    /// Turn on the §5 credit system. Existing users get the welcome
    /// grant lazily on first use.
    pub fn enable_billing(&mut self) {
        if self.billing.is_none() {
            self.commit(WalRecord::BillingEnabled, None)
                .expect("enabling billing always applies");
        }
    }

    /// The ledger, if billing is enabled.
    pub fn ledger(&self) -> Option<&CreditLedger> {
        self.billing.as_ref()
    }

    /// Open the credit account of the user `token` is logged in as, with
    /// the welcome grant. An account already open is left as it is, and
    /// nothing is logged.
    pub fn open_account(&mut self, token: u64) -> Result<(), ServerError> {
        let user = self.auth.session(token)?.user.clone();
        let ledger = self.billing.as_ref().ok_or(ServerError::BillingDisabled)?;
        if ledger.balance(&user).is_err() {
            self.commit(WalRecord::AccountOpened { user }, None)?;
        }
        Ok(())
    }

    /// Pay `amount` credits from the user `token` is logged in as
    /// (experimenters and admins) to `to`, whose account opens with the
    /// welcome grant if new. Refused, with nothing logged, unless billing
    /// is on and `amount` is finite, non-negative and within the payer's
    /// balance.
    pub fn transfer(
        &mut self,
        token: u64,
        to: &str,
        amount: f64,
        reason: &str,
    ) -> Result<(), ServerError> {
        let from = self.auth.authorize(token, Permission::RunJob)?.user.clone();
        let ledger = self.billing.as_ref().ok_or(ServerError::BillingDisabled)?;
        ledger.check_transfer(&from, amount)?;
        let record = WalRecord::Transferred {
            from,
            to: to.to_string(),
            amount,
            reason: reason.to_string(),
        };
        self.commit(record, None)?;
        Ok(())
    }

    /// Record that `owner` hosts `node` (earns hosting credits).
    pub fn set_node_owner(&mut self, node: &str, owner: &str) {
        let record = WalRecord::NodeOwner {
            node: node.to_string(),
            owner: owner.to_string(),
        };
        self.commit(record, None)
            .expect("node ownership always applies");
    }

    /// The user `token` is logged in as, if its session holds
    /// `permission`.
    pub(crate) fn user(&self, token: u64, permission: Permission) -> Result<&str, ServerError> {
        Ok(&self.auth.authorize(token, permission)?.user)
    }

    /// Node registry access.
    pub fn registry(&self) -> &NodeRegistry {
        &self.registry
    }

    /// Log in to the console.
    pub fn login(
        &mut self,
        user: &str,
        password: &str,
        https: bool,
    ) -> Result<Session, ServerError> {
        Ok(self.auth.login(user, password, https)?)
    }

    /// Add a user (requires ManageNodes-grade admin rights).
    pub fn add_user(
        &mut self,
        token: u64,
        name: &str,
        password: &str,
        role: Role,
    ) -> Result<(), ServerError> {
        self.auth.authorize(token, Permission::ManageNodes)?;
        self.commit_user(name, password, role)
    }

    /// Add a recruited tester's account. A tester comes from a
    /// marketplace, not from an admin, so this takes no token and grants
    /// only the Tester role.
    pub(crate) fn add_tester(&mut self, name: &str, password: &str) -> Result<(), ServerError> {
        self.commit_user(name, password, Role::Tester)
    }

    fn commit_user(&mut self, name: &str, password: &str, role: Role) -> Result<(), ServerError> {
        // Log the stored hash (never cleartext) so recovery rebuilds the
        // full directory.
        let record = WalRecord::UserAdded {
            name: name.to_string(),
            password_hash: hash_password(password),
            role,
        };
        self.commit(record, None)?;
        Ok(())
    }

    /// Enrol a vantage point (§3.4): registry entry, DNS, cert deploy,
    /// host-key pinning, and handing the node over to the dispatcher.
    pub fn enroll_node(
        &mut self,
        token: u64,
        vp: VantagePoint,
        ip: &str,
        host_key: &str,
        open_ports: &[u16],
        now: SimTime,
    ) -> Result<String, ServerError> {
        self.auth.authorize(token, Permission::ManageNodes)?;
        let name = vp.name().to_string();
        let record = WalRecord::NodeEnrolled {
            name: name.clone(),
            ip: ip.to_string(),
            host_key: host_key.to_string(),
            open_ports: open_ports.to_vec(),
            at: now,
        };
        self.commit(record, None)?;
        let fqdn = format!("{name}.batterylab.dev");
        self.nodes.insert(name, vp);
        Ok(fqdn)
    }

    /// Enrolled nodes.
    pub fn node_names(&self) -> Vec<String> {
        self.nodes.keys().cloned().collect()
    }

    /// Devices at a node.
    pub fn node_devices(&self, name: &str) -> Result<Vec<String>, ServerError> {
        self.registry.node(name)?; // must be enrolled
        Ok(self
            .nodes
            .get(name)
            .map(|vp| vp.list_devices())
            .unwrap_or_default())
    }

    /// Submit a job (experimenters and admins).
    pub fn submit_job(
        &mut self,
        token: u64,
        name: &str,
        constraints: Constraints,
        payload: Payload,
    ) -> Result<JobId, ServerError> {
        let owner = self
            .auth
            .authorize(token, Permission::CreateJob)?
            .user
            .clone();
        self.auth.authorize(token, Permission::RunJob)?;
        if let Some(ledger) = &self.billing {
            // Affordability gate: reserve a conservative 10 device-minutes.
            ledger.check_affordable(&owner, SimDuration::from_secs(600))?;
        }
        let (id, record) = self.scheduler.submit(name, &owner, constraints, &payload);
        self.commit(record, Some(payload))
            .expect("submissions always apply");
        Ok(id)
    }

    /// Run one dispatcher pass. With billing on, the submitting user is
    /// charged for the device time the build actually consumed.
    pub fn tick(&mut self) -> Option<JobId> {
        let (id, record) = self
            .scheduler
            .tick(&mut self.nodes, self.billing.is_some())?;
        self.commit(record, None)
            .expect("dispatch outcomes always apply");
        Some(id)
    }

    /// Drain the whole queue (charging per build when billing is on).
    /// Jobs waiting out supervised retry backoff are waited for.
    pub fn drain(&mut self) -> Vec<JobId> {
        let mut ran = Vec::new();
        loop {
            if let Some(id) = self.tick() {
                ran.push(id);
                continue;
            }
            if !self.scheduler.wait_for_backoff(&mut self.nodes) {
                break;
            }
        }
        ran
    }

    /// Reserve a time slot on a device (§3: "request time slots").
    pub fn reserve_slot(
        &mut self,
        token: u64,
        node: &str,
        device: &str,
        from: SimTime,
        to: SimTime,
    ) -> Result<(), ServerError> {
        let user = self.auth.authorize(token, Permission::RunJob)?.user.clone();
        self.registry.node(node)?;
        let record = WalRecord::SlotReserved {
            node: node.to_string(),
            device: device.to_string(),
            user,
            from,
            to,
        };
        self.commit(record, None)?;
        Ok(())
    }

    /// The reservation schedule for a device.
    pub fn device_schedule(&self, node: &str, device: &str) -> &[crate::slots::Slot] {
        self.scheduler.slots().schedule(node, device)
    }

    /// Read a build (requires ViewResults).
    pub fn build(&self, token: u64, id: JobId) -> Result<&BuildRecord, ServerError> {
        self.auth.authorize(token, Permission::ViewResults)?;
        self.scheduler.build(id).ok_or(ServerError::NoSuchBuild(id))
    }

    /// Run the maintenance sweeps at `now`. With billing on, node owners
    /// accrue hosting credits for the interval since the last sweep.
    pub fn run_maintenance(&mut self, now: SimTime) -> MaintenanceReport {
        // Node-side actuation: the vantage points survive a crash, so the
        // power sweep is not part of the logged transition.
        let power = maintenance::power_safety_sweep(&mut self.nodes);
        let mut report = self
            .commit(WalRecord::MaintenanceRan { at: now }, None)
            .expect("maintenance always applies");
        report.meters_powered_off = power.meters_powered_off;
        report
    }

    /// Arm fault injection across the whole deployment: every enrolled
    /// node's subsystems plus the scheduler's supervisor consult `injector`.
    pub fn attach_faults(&mut self, injector: &batterylab_faults::FaultInjector) {
        for node in self.nodes.values_mut() {
            node.attach_faults(injector);
        }
        self.scheduler.supervisor_mut().attach_faults(injector);
    }

    /// Probe every enrolled node's health at `now` and record the outcome
    /// in the registry. Returns `(name, healthy)` pairs in name order.
    pub fn probe_nodes(&mut self, now: SimTime) -> Vec<(String, bool)> {
        let supervisor = self.scheduler.supervisor_mut();
        let outcomes: Vec<(String, bool)> = self
            .nodes
            .keys()
            .map(|name| (name.clone(), supervisor.heartbeat_probe(name, now)))
            .collect();
        // One batched record of the *decided* outcomes, so replay never
        // consults the fault injector again.
        let record = WalRecord::Heartbeats {
            at: now,
            outcomes: outcomes.clone(),
        };
        self.commit(record, None).expect("heartbeats always apply");
        outcomes
    }

    /// Idle every device on every node `d` forward: the bench sitting
    /// idle between drain passes. Returns the latest device clock
    /// afterwards, the instant to probe the nodes at.
    pub fn idle_nodes(&mut self, d: SimDuration) -> SimTime {
        let mut latest = SimTime::ZERO;
        for vp in self.nodes.values_mut() {
            latest = latest.max(vp.idle_devices(d));
        }
        latest
    }

    /// Jobs still waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.scheduler.queue_len()
    }

    /// Direct node access for the evaluation harness (not part of the
    /// experimenter-facing surface).
    pub fn node_mut(&mut self, name: &str) -> Option<&mut VantagePoint> {
        self.nodes.get_mut(name)
    }

    /// Expose the scheduler's backoff-wait for recovery harnesses that
    /// drain a recovered server without going through [`Self::drain`].
    pub fn wait_for_backoff(&mut self) -> bool {
        self.scheduler.wait_for_backoff(&mut self.nodes)
    }

    /// Dismantle the server, handing back the enrolled vantage points.
    /// Models a server crash: the cloud VM's memory is gone, but the
    /// controllers at member institutions keep running.
    pub fn take_nodes(self) -> BTreeMap<String, VantagePoint> {
        self.nodes
    }

    /// Re-attach a surviving vantage point after recovery. The node must
    /// appear in the replayed registry — recovery cannot adopt a node
    /// the log never saw enrolled.
    pub fn adopt_node(&mut self, vp: VantagePoint) -> Result<(), ServerError> {
        let name = vp.name().to_string();
        self.registry.node(&name)?;
        self.nodes.insert(name, vp);
        Ok(())
    }

    /// Rebuild a server from a write-ahead log after a crash.
    ///
    /// Walks every whole record in `wal` in place (truncating any torn
    /// tail) through `apply`, the same transition code the live
    /// operations run; no payload is copied out of the log. Replay is
    /// **telemetry-silent** on the platform side: the original
    /// operations already counted into the surviving registry, so the
    /// recovered scheduler/supervisor run against throwaway registries
    /// until the caller rebinds [`AccessServer::set_telemetry`].
    /// Recovery-side `durable.*` metrics go to the separate
    /// `recovery_telemetry` registry instead.
    ///
    /// Sessions are deliberately not recovered — tokens are ephemeral by
    /// design and users re-authenticate after an outage.
    pub fn recover(
        wal: &Wal,
        recovery_telemetry: &batterylab_telemetry::Registry,
    ) -> Result<AccessServer, ServerError> {
        // `apply` never touches the log, so each record is decoded and
        // applied as the walk reaches it, straight from the disk. After a
        // failed record the walk goes on without applying, so the torn
        // tail, the adopted count and the counters are those of a whole
        // replay.
        let mut replayed = Ok(None);
        let (records, torn) = wal.replay_each(|payload| {
            if let Ok(server) = &mut replayed {
                if let Err(e) = Self::replay_record(server, payload, wal) {
                    replayed = Err(e);
                }
            }
        });
        recovery_telemetry.counter("durable.recoveries").inc();
        recovery_telemetry
            .counter("durable.replayed_records")
            .add(records);
        recovery_telemetry
            .counter("durable.torn_bytes")
            .add(torn as u64);
        replayed?.ok_or_else(|| ServerError::Recovery("empty write-ahead log".to_string()))
    }

    /// Replay one logged payload onto `server`: the log's `Booted` record
    /// creates it, every later record goes through `apply`.
    fn replay_record(
        server: &mut Option<AccessServer>,
        payload: &[u8],
        wal: &Wal,
    ) -> Result<(), ServerError> {
        let record = WalRecord::decode(payload).map_err(ServerError::Recovery)?;
        match server {
            // A custom payload's closure died with the server; `apply`
            // falls back to the logged spec.
            Some(server) => server
                .apply(record, None)
                .map(drop)
                .map_err(|e| ServerError::Recovery(format!("replay failed: {e}"))),
            None => match record {
                // `apply` never appends, so the surviving log is adopted
                // up front: later appends continue the same sequence.
                WalRecord::Booted { public_ip } => {
                    let mut booted = Self::with_state(public_ip, AuthService::empty(), wal.clone());
                    booted.compaction.since = 1;
                    *server = Some(booted);
                    Ok(())
                }
                other => Err(ServerError::Recovery(format!(
                    "log does not start with Booted (found {other:?})"
                ))),
            },
        }
    }

    /// Commit one decided transition: apply it, then make it durable. The
    /// record is encoded (only when the log is on) before `apply` consumes
    /// it and appended only once `apply` succeeded, so a refused
    /// transition leaves neither state nor log behind. Then compact the
    /// log if it is due; a crash between the append and the compaction
    /// leaves it to the next commit.
    fn commit(
        &mut self,
        record: WalRecord,
        payload: Option<Payload>,
    ) -> Result<MaintenanceReport, ServerError> {
        let bytes = self.wal.is_enabled().then(|| record.encode());
        let report = self.apply(record, payload)?;
        if let Some(bytes) = bytes {
            self.wal.append(&bytes);
            if self.compaction.due() {
                self.compact();
            }
        }
        Ok(report)
    }

    /// Apply one transition to the server state: the single path shared
    /// by live operations (through [`Self::commit`]) and WAL replay,
    /// snapshot records included. A `Submitted` job runs `payload` when
    /// the live caller still holds it, else the logged spec. Returns the
    /// certificate sweep a `MaintenanceRan` performed (empty for every
    /// other record). Counts the record towards the compaction trigger,
    /// which a `SnapshotEnd` restarts.
    fn apply(
        &mut self,
        record: WalRecord,
        payload: Option<Payload>,
    ) -> Result<MaintenanceReport, ServerError> {
        let mut sweep = MaintenanceReport::default();
        match record {
            WalRecord::Booted { .. } => {
                return Err(ServerError::Recovery(
                    "duplicate Booted record mid-log".to_string(),
                ))
            }
            WalRecord::UserAdded {
                name,
                password_hash,
                role,
            } => self.auth.add_user_hashed(&name, password_hash, role)?,
            WalRecord::BillingEnabled => {
                self.billing.get_or_insert_with(CreditLedger::new);
            }
            WalRecord::NodeEnrolled {
                name,
                ip,
                host_key,
                open_ports,
                at,
            } => {
                self.registry
                    .enroll(&name, &ip, &host_key, &open_ports, &self.public_ip, at)?;
                self.ssh.pin_host(&name, &host_key);
            }
            WalRecord::NodeOwner { node, owner } => {
                self.node_owners.insert(node, owner);
            }
            WalRecord::Submitted {
                id,
                name,
                owner,
                constraints,
                spec,
            } => {
                if let Some(ledger) = &mut self.billing {
                    ledger.open_account(&owner);
                }
                let payload = payload.or_else(|| spec.map(Payload::Experiment));
                self.scheduler
                    .enqueue(JobId(id), name, owner, constraints, payload);
            }
            WalRecord::Retried {
                id,
                node,
                attempts,
                not_before,
                failed_at,
                error,
            } => self
                .scheduler
                .requeue(JobId(id), node, attempts, not_before, failed_at, &error),
            WalRecord::Completed { record, charge } => {
                if let (Some(ledger), Some(c)) = (&mut self.billing, &charge) {
                    // A job submitted before billing was on charges an
                    // owner with no account yet: it opens here, on first
                    // use, as `enable_billing` promises.
                    ledger.open_account(&c.user);
                    ledger.charge_experiment(&c.user, &c.job, c.device_time)?;
                }
                self.scheduler.finish(record);
            }
            WalRecord::Heartbeats { at, outcomes } => {
                for (node, healthy) in &outcomes {
                    self.scheduler
                        .supervisor_mut()
                        .apply_probe(node, *healthy, at);
                    let _ = self.registry.record_heartbeat(node, at, *healthy);
                }
            }
            WalRecord::MaintenanceRan { at } => {
                sweep = maintenance::certificate_sweep(&mut self.registry, at);
                self.scheduler.prune_workspaces(at);
                if let Some(ledger) = &mut self.billing {
                    let online = at.duration_since(self.last_accrual);
                    if !online.is_zero() {
                        for (node, owner) in &self.node_owners {
                            ledger.earn_hosting(owner, node, online);
                        }
                    }
                }
                self.last_accrual = at;
            }
            WalRecord::SlotReserved {
                node,
                device,
                user,
                from,
                to,
            } => self
                .scheduler
                .slots_mut()
                .reserve(&node, &device, &user, from, to)
                .map_err(|e| {
                    ServerError::Auth(AuthError::Forbidden {
                        user: format!("{user} ({e})"),
                        permission: Permission::RunJob,
                    })
                })?,
            WalRecord::AccountOpened { user } => self
                .billing
                .as_mut()
                .ok_or(ServerError::BillingDisabled)?
                .open_account(&user),
            WalRecord::Transferred {
                from,
                to,
                amount,
                reason,
            } => self
                .billing
                .as_mut()
                .ok_or(ServerError::BillingDisabled)?
                .transfer(&from, &to, amount, &reason)?,
            WalRecord::Certificate { cert, next_serial } => {
                self.registry.restore_certificate(cert, next_serial)
            }
            WalRecord::NodeHealth {
                name,
                deployed_cert,
                last_heartbeat,
                healthy,
            } => self
                .registry
                .restore_health(&name, deployed_cert, last_heartbeat, healthy)?,
            WalRecord::Breaker {
                node,
                state,
                consecutive_failures,
                opened_at,
            } => self.scheduler.supervisor_mut().restore_breaker(
                &node,
                state,
                consecutive_failures,
                opened_at,
            ),
            WalRecord::Ledger(ledger) => self.billing = Some(ledger),
            WalRecord::Build(build) => self.scheduler.restore_build(build),
            WalRecord::Queued {
                id,
                constraints,
                spec,
                attempts,
                not_before,
            } => self.scheduler.restore_queued(
                JobId(id),
                constraints,
                spec.map(Payload::Experiment),
                attempts,
                not_before,
            ),
            WalRecord::SnapshotEnd { last_accrual } => {
                self.last_accrual = last_accrual;
                self.compaction = Compaction {
                    since: 0,
                    builds: self.scheduler.build_count(),
                };
                return Ok(sweep);
            }
        }
        self.compaction.since += 1;
        Ok(sweep)
    }

    /// The scheduler, for white-box tests.
    #[cfg(test)]
    pub(crate) fn scheduler_mut(&mut self) -> &mut Scheduler {
        &mut self.scheduler
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{BuildState, ExperimentSpec};
    use batterylab_automation::Script;
    use batterylab_controller::VantageConfig;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::SimRng;
    use batterylab_telemetry::Registry;

    const PORTS: [u16; 3] = [2222, 8080, 6081];

    fn server_with_node() -> (AccessServer, u64) {
        let mut server = AccessServer::new("52.1.2.3", "admin", "pw");
        let admin = server.login("admin", "pw", true).unwrap().token;
        let rng = SimRng::new(61);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        let d = boot_j7_duo(&rng, "acc-dev");
        d.install_package("com.brave.browser");
        vp.add_device(d);
        server
            .enroll_node(admin, vp, "155.198.1.10", "hk:node1", &PORTS, SimTime::ZERO)
            .unwrap();
        (server, admin)
    }

    #[test]
    fn enrolment_publishes_dns() {
        let (server, _) = server_with_node();
        assert_eq!(
            server.registry().resolve("node1.batterylab.dev").unwrap(),
            "155.198.1.10"
        );
        assert_eq!(server.node_devices("node1").unwrap(), vec!["acc-dev"]);
    }

    #[test]
    fn experimenter_end_to_end() {
        let (mut server, admin) = server_with_node();
        server
            .add_user(admin, "alice", "pw-a", Role::Experimenter)
            .unwrap();
        let alice = server.login("alice", "pw-a", true).unwrap().token;
        let id = server
            .submit_job(
                alice,
                "browser-energy",
                Constraints::default(),
                Payload::Experiment(ExperimentSpec::measured(
                    "acc-dev",
                    Script::browser_workload("com.brave.browser", &["https://a.example"], 2),
                )),
            )
            .unwrap();
        assert_eq!(server.tick(), Some(id));
        let build = server.build(alice, id).unwrap();
        assert_eq!(build.owner, "alice");
        assert!(
            build.summary.as_ref().unwrap()["discharge_mah"]
                .as_f64()
                .unwrap()
                > 0.0
        );
    }

    #[test]
    fn testers_cannot_submit_or_read() {
        let (mut server, admin) = server_with_node();
        server
            .add_user(admin, "turk", "pw-t", Role::Tester)
            .unwrap();
        let turk = server.login("turk", "pw-t", true).unwrap().token;
        assert!(matches!(
            server.submit_job(
                turk,
                "x",
                Constraints::default(),
                Payload::Custom(Box::new(|_| Err("never".into())))
            ),
            Err(ServerError::Auth(AuthError::Forbidden { .. }))
        ));
        assert!(matches!(
            server.build(turk, JobId(1)),
            Err(ServerError::Auth(AuthError::Forbidden { .. }))
        ));
    }

    #[test]
    fn only_admin_enrolls_nodes() {
        let (mut server, admin) = server_with_node();
        server
            .add_user(admin, "alice", "pw-a", Role::Experimenter)
            .unwrap();
        let alice = server.login("alice", "pw-a", true).unwrap().token;
        let rng = SimRng::new(62);
        let vp2 = VantagePoint::new(
            VantageConfig {
                name: "node2".to_string(),
                ..VantageConfig::imperial_college()
            },
            rng.derive("vp2"),
        );
        assert!(matches!(
            server.enroll_node(alice, vp2, "1.2.3.4", "hk:2", &PORTS, SimTime::ZERO),
            Err(ServerError::Auth(AuthError::Forbidden { .. }))
        ));
    }

    #[test]
    fn factory_reset_racing_job_fails_cleanly() {
        let (mut server, admin) = server_with_node();
        let id = server
            .submit_job(
                admin,
                "raced",
                Constraints {
                    max_retries: 1,
                    ..Default::default()
                },
                Payload::Experiment(ExperimentSpec::measured(
                    "acc-dev",
                    Script::browser_workload("com.brave.browser", &["https://a.example"], 1),
                )),
            )
            .unwrap();
        // A maintenance factory reset lands between submission and
        // dispatch, wiping the browser the job needs.
        server
            .node_mut("node1")
            .unwrap()
            .device_handle("acc-dev")
            .unwrap()
            .factory_reset();
        server.drain();
        // The job is terminal (after its retry budget), not lost or stuck.
        let build = server.build(admin, id).unwrap();
        assert!(matches!(build.state, BuildState::Failed(_)), "{build:?}");
        assert_eq!(server.queue_len(), 0);
    }

    #[test]
    fn recovery_replays_jobs_and_charges() {
        let (mut server, admin) = server_with_node();
        let wal = Wal::new();
        server.attach_wal(&wal);
        server.enable_billing();
        server.set_node_owner("node1", "admin");
        server
            .add_user(admin, "alice", "pw-a", Role::Experimenter)
            .unwrap();
        let alice = server.login("alice", "pw-a", true).unwrap().token;
        let id = server
            .submit_job(
                alice,
                "browser-energy",
                Constraints::default(),
                Payload::Experiment(ExperimentSpec::measured(
                    "acc-dev",
                    Script::browser_workload("com.brave.browser", &["https://a.example"], 2),
                )),
            )
            .unwrap();
        assert_eq!(server.tick(), Some(id));
        let baseline_build = format!("{:?}", server.build(alice, id).unwrap());
        let baseline_balance = server.ledger().unwrap().balance("alice").unwrap();
        let baseline_history = server.ledger().unwrap().history().to_vec();

        // Crash: server memory dies; nodes and the WAL disk survive.
        let nodes = server.take_nodes();
        let recovery = Registry::new();
        let mut recovered = AccessServer::recover(&wal, &recovery).unwrap();
        for (_, vp) in nodes {
            recovered.adopt_node(vp).unwrap();
        }

        // Sessions are ephemeral: users re-authenticate. Same password
        // works because the WAL carries the directory's hashes.
        let alice2 = recovered.login("alice", "pw-a", true).unwrap().token;
        assert_eq!(
            format!("{:?}", recovered.build(alice2, id).unwrap()),
            baseline_build
        );
        assert_eq!(
            recovered.ledger().unwrap().balance("alice").unwrap(),
            baseline_balance
        );
        assert_eq!(recovered.ledger().unwrap().history(), &baseline_history[..]);
        assert_eq!(recovered.queue_len(), 0);
        let snap = recovery.snapshot();
        assert_eq!(snap.counter("durable.recoveries"), 1);
        assert!(snap.counter("durable.replayed_records") >= 6);
    }

    #[test]
    fn recovery_requeues_pending_jobs_without_duplication() {
        let (mut server, admin) = server_with_node();
        let wal = Wal::new();
        server.attach_wal(&wal);
        let id = server
            .submit_job(
                admin,
                "pending",
                Constraints::default(),
                Payload::Experiment(ExperimentSpec::measured(
                    "acc-dev",
                    Script::browser_workload("com.brave.browser", &["https://a.example"], 1),
                )),
            )
            .unwrap();
        // Crash before any tick: the job must survive in the queue.
        let nodes = server.take_nodes();
        let mut recovered =
            AccessServer::recover(&wal, &batterylab_telemetry::Registry::new()).unwrap();
        for (_, vp) in nodes {
            recovered.adopt_node(vp).unwrap();
        }
        assert_eq!(recovered.queue_len(), 1);
        assert_eq!(recovered.tick(), Some(id));
        assert_eq!(recovered.queue_len(), 0);
        let admin2 = recovered.login("admin", "pw", true).unwrap().token;
        assert!(matches!(
            recovered.build(admin2, id).unwrap().state,
            BuildState::Succeeded
        ));
        // A second job after recovery continues the id sequence.
        let next = recovered
            .submit_job(
                admin2,
                "after",
                Constraints::default(),
                Payload::Experiment(ExperimentSpec::measured(
                    "acc-dev",
                    Script::browser_workload("com.brave.browser", &["https://a.example"], 1),
                )),
            )
            .unwrap();
        assert_eq!(next.0, id.0 + 1);
    }

    #[test]
    fn recovery_fails_custom_payloads_instead_of_losing_them() {
        let (mut server, admin) = server_with_node();
        let wal = Wal::new();
        server.attach_wal(&wal);
        let id = server
            .submit_job(
                admin,
                "opaque",
                Constraints::default(),
                Payload::Custom(Box::new(|_| Err("opaque closure".into()))),
            )
            .unwrap();
        let _ = server.take_nodes();
        let mut recovered =
            AccessServer::recover(&wal, &batterylab_telemetry::Registry::new()).unwrap();
        assert_eq!(recovered.queue_len(), 0, "closure cannot be replayed");
        let admin2 = recovered.login("admin", "pw", true).unwrap().token;
        assert!(matches!(
            recovered.build(admin2, id).unwrap().state,
            BuildState::Failed(_)
        ));
    }

    #[test]
    fn compaction_fails_queued_custom_payloads_as_recovery_does() {
        let (mut server, admin) = server_with_node();
        let wal = Wal::new();
        server.attach_wal(&wal);
        let id = server
            .submit_job(
                admin,
                "opaque",
                Constraints::default(),
                Payload::Custom(Box::new(|_| Err("opaque closure".into()))),
            )
            .unwrap();
        server.compact();
        assert_eq!(server.queue_len(), 1, "compaction leaves live state alone");
        let mut recovered = AccessServer::recover(&wal, &Registry::new()).unwrap();
        assert_eq!(recovered.queue_len(), 0, "closure cannot be replayed");
        let admin2 = recovered.login("admin", "pw", true).unwrap().token;
        assert_eq!(
            recovered.build(admin2, id).unwrap().state,
            BuildState::Failed("custom payload lost in server crash".to_string())
        );
    }

    #[test]
    fn boot_only_snapshot_is_the_boot_records() {
        let (mut server, _) = server_with_node();
        server.enable_billing();
        server.set_node_owner("node1", "admin");
        let mut payloads = Vec::new();
        server.write_snapshot(|p| payloads.push(p.to_vec()));
        let expected = [
            WalRecord::Booted {
                public_ip: "52.1.2.3".into(),
            },
            WalRecord::UserAdded {
                name: "admin".into(),
                password_hash: hash_password("pw"),
                role: Role::Admin,
            },
            WalRecord::BillingEnabled,
            WalRecord::NodeEnrolled {
                name: "node1".into(),
                ip: "155.198.1.10".into(),
                host_key: "hk:node1".into(),
                open_ports: PORTS.to_vec(),
                at: SimTime::ZERO,
            },
            WalRecord::NodeOwner {
                node: "node1".into(),
                owner: "admin".into(),
            },
        ];
        let expected: Vec<_> = expected.iter().map(WalRecord::encode).collect();
        assert_eq!(payloads, expected);
    }

    #[test]
    fn attaching_a_log_keeps_the_jobs_already_run() {
        let (mut server, admin) = server_with_node();
        let id = server
            .submit_job(admin, "before", Constraints::default(), browse("acc-dev"))
            .unwrap();
        server.drain();
        let wal = Wal::new();
        server.attach_wal(&wal);
        let mut recovered = AccessServer::recover(&wal, &Registry::new()).unwrap();
        assert_eq!(durable_state(&mut recovered), durable_state(&mut server));
        let admin2 = recovered.login("admin", "pw", true).unwrap().token;
        assert_eq!(
            recovered.build(admin2, id).unwrap().state,
            BuildState::Succeeded
        );
    }

    /// Heartbeat rounds are cheap records: enough of them cross the
    /// compaction floor several times. A server recovered from the log
    /// at any round then compacts at the same commits as the live one.
    #[test]
    fn recovered_server_compacts_where_the_live_one_does() {
        let rounds = 3 * COMPACTION_FLOOR;
        for crash_at in [1, COMPACTION_FLOOR - 3, COMPACTION_FLOOR + 1] {
            let (mut live, _) = server_with_node();
            let wal = Wal::new();
            live.attach_wal(&wal);
            for round in 0..crash_at {
                live.probe_nodes(SimTime::from_secs(round));
            }
            let copy = wal.prefix(wal.record_count());
            let mut recovered = AccessServer::recover(&copy, &Registry::new()).unwrap();
            for round in crash_at..rounds {
                for server in [&mut live, &mut recovered] {
                    server.probe_nodes(SimTime::from_secs(round));
                }
                assert_eq!(recovered.compaction, live.compaction, "round {round}");
                assert_eq!(copy.generation(), wal.generation(), "round {round}");
            }
            assert!(wal.generation() >= 2, "{} compactions", wal.generation());
        }
    }

    #[test]
    fn maintenance_sweep_runs() {
        let (mut server, _) = server_with_node();
        // Turn a meter on behind the scheduler's back.
        server.node_mut("node1").unwrap().power_monitor().unwrap();
        let report = server.run_maintenance(SimTime::from_secs(70 * 24 * 3600));
        assert!(report.cert_renewed);
        assert_eq!(report.meters_powered_off, vec!["node1".to_string()]);
    }

    /// Everything recovery must rebuild, rendered for comparison.
    pub(super) fn durable_state(server: &mut AccessServer) -> String {
        let names = server.registry.names();
        let breakers: Vec<_> = names
            .iter()
            .map(|n| server.scheduler.supervisor_mut().breaker_state(n))
            .collect();
        let streaks: Vec<_> = names
            .iter()
            .map(|n| {
                let breaker = server
                    .scheduler
                    .supervisor()
                    .breakers()
                    .find(|(b, _)| b == n);
                breaker.map_or((0, SimTime::ZERO), |(_, b)| {
                    (b.consecutive_failures(), b.opened_at())
                })
            })
            .collect();
        let queue: Vec<_> = server
            .scheduler
            .queue()
            .iter()
            .map(|j| (j.id, j.attempts, j.not_before))
            .collect();
        let builds: Vec<_> = server.scheduler.builds().collect();
        let nodes: Vec<_> = names
            .iter()
            .map(|n| server.registry.node(n).unwrap())
            .collect();
        let accounts: Vec<_> = server.auth.accounts().collect();
        format!(
            "queue {queue:?}\nbuilds {builds:?}\nledger {:?}\nbreakers {breakers:?}\n\
             slots {:?}\nowners {:?}\naccrual {:?}\nnodes {nodes:?}\ncert {:?}\n\
             accounts {accounts:?}\nstreaks {streaks:?}\nnext_id {:?}",
            server.billing,
            server.scheduler.slots(),
            server.node_owners,
            server.last_accrual,
            server.registry.certificate(),
            server.scheduler.next_id(),
        )
    }

    fn assert_recovers(server: &mut AccessServer, wal: &Wal, step: &str) {
        let mut recovered = AccessServer::recover(wal, &Registry::new()).unwrap();
        assert_eq!(
            durable_state(&mut recovered),
            durable_state(server),
            "after {step}"
        );
    }

    fn assert_refused<T>(
        server: &mut AccessServer,
        wal: &Wal,
        step: &str,
        op: impl FnOnce(&mut AccessServer) -> Result<T, ServerError>,
    ) {
        let (state, records) = (durable_state(server), wal.record_count());
        assert!(op(server).is_err(), "{step} must be refused");
        assert_eq!(durable_state(server), state, "{step} changed state");
        assert_eq!(wal.record_count(), records, "{step} was logged");
    }

    fn browse(device: &str) -> Payload {
        Payload::Experiment(ExperimentSpec::measured(
            device,
            Script::browser_workload("com.brave.browser", &["https://a.example"], 1),
        ))
    }

    /// Copy the whole current generation, compact, and check that live
    /// state, the copy's recovery and the compacted log's recovery agree,
    /// compaction trigger included.
    fn assert_compacts(server: &mut AccessServer, wal: &Wal, step: &str) {
        let full = wal.prefix(wal.record_count());
        let live = durable_state(server);
        let mut from_full = AccessServer::recover(&full, &Registry::new()).unwrap();
        assert_eq!(durable_state(&mut from_full), live, "full log after {step}");
        assert_eq!(from_full.compaction, server.compaction, "after {step}");
        let generation = wal.generation();
        server.compact();
        assert_eq!(wal.generation(), generation + 1, "{step} compacted");
        let mut compacted = AccessServer::recover(wal, &Registry::new()).unwrap();
        assert_eq!(durable_state(server), live, "compaction changed {step}");
        assert_eq!(
            durable_state(&mut compacted),
            live,
            "compacted after {step}"
        );
        assert_eq!(compacted.compaction, server.compaction, "after {step}");
    }

    #[test]
    fn live_state_equals_recovered_state_at_every_operation() {
        every_operation(assert_recovers);
    }

    #[test]
    fn compacted_log_recovers_live_state_at_every_operation() {
        every_operation(assert_compacts);
    }

    /// A billed server through every kind of operation, refused ones
    /// included, with `check` run after each accepted one.
    fn every_operation(check: fn(&mut AccessServer, &Wal, &str)) {
        use batterylab_faults::{FaultInjector, FaultKind, FaultPlan};

        let (mut server, admin) = server_with_node();
        let wal = Wal::new();
        server.attach_wal(&wal);
        check(&mut server, &wal, "attach_wal");

        server
            .add_user(admin, "alice", "pw-a", Role::Experimenter)
            .unwrap();
        check(&mut server, &wal, "add_user");
        let alice = server.login("alice", "pw-a", true).unwrap().token;
        assert_refused(&mut server, &wal, "unauthorised add_user", |s| {
            s.add_user(alice, "mallory", "pw", Role::Admin)
        });
        assert_refused(&mut server, &wal, "duplicate user", |s| {
            s.add_user(admin, "alice", "other", Role::Tester)
        });

        let rng = SimRng::new(63);
        let node2 = || {
            let config = VantageConfig {
                name: "node2".to_string(),
                ..VantageConfig::imperial_college()
            };
            VantagePoint::new(config, rng.derive("vp2"))
        };
        assert_refused(&mut server, &wal, "enrolment with a missing port", |s| {
            s.enroll_node(
                admin,
                node2(),
                "1.2.3.4",
                "hk:2",
                &PORTS[..2],
                SimTime::ZERO,
            )
        });
        server
            .enroll_node(admin, node2(), "1.2.3.4", "hk:2", &PORTS, SimTime::ZERO)
            .unwrap();
        check(&mut server, &wal, "enroll_node");
        server.set_node_owner("node1", "admin");
        check(&mut server, &wal, "set_node_owner");
        server.enable_billing();
        check(&mut server, &wal, "enable_billing");

        let (from, to) = (SimTime::from_secs(1_000_000), SimTime::from_secs(1_003_600));
        server
            .reserve_slot(alice, "node1", "acc-dev", from, to)
            .unwrap();
        check(&mut server, &wal, "reserve_slot");
        assert_refused(&mut server, &wal, "double-booked slot", |s| {
            s.reserve_slot(admin, "node1", "acc-dev", from, to)
        });

        let retry_once = Constraints {
            max_retries: 1,
            ..Default::default()
        };
        let flaky = server
            .submit_job(alice, "flaky", retry_once.clone(), browse("acc-dev"))
            .unwrap();
        check(&mut server, &wal, "submit_job");
        // The browser is wiped under the first attempt: a retry.
        let device = server
            .node_mut("node1")
            .unwrap()
            .device_handle("acc-dev")
            .unwrap();
        device.factory_reset();
        assert_eq!(server.tick(), Some(flaky));
        assert_eq!(server.queue_len(), 1);
        check(&mut server, &wal, "a tick that retries");
        device.install_package("com.brave.browser");
        assert!(server.wait_for_backoff());
        assert_eq!(server.tick(), Some(flaky));
        assert_eq!(
            server.build(alice, flaky).unwrap().state,
            BuildState::Succeeded
        );
        check(&mut server, &wal, "a tick that succeeds");

        let doomed = server
            .submit_job(alice, "doomed", retry_once, browse("ghost"))
            .unwrap();
        assert_eq!(server.tick(), Some(doomed));
        assert!(server.wait_for_backoff());
        assert_eq!(server.tick(), Some(doomed));
        assert!(matches!(
            server.build(alice, doomed).unwrap().state,
            BuildState::Failed(_)
        ));
        check(&mut server, &wal, "a tick that exhausts its retries");

        let reboot = FaultPlan::new().window(
            "node1.node",
            FaultKind::NodeReboot,
            SimTime::ZERO,
            SimTime::from_secs(7200),
        );
        server.attach_faults(&FaultInjector::new(&reboot, 1));
        assert_eq!(
            server.probe_nodes(SimTime::from_secs(3600)),
            vec![("node1".to_string(), false), ("node2".to_string(), true)]
        );
        check(&mut server, &wal, "probe_nodes");
        server.run_maintenance(SimTime::from_secs(70 * 24 * 3600));
        check(&mut server, &wal, "run_maintenance");

        // Spend bob below the 10 device-minute gate.
        server
            .add_user(admin, "bob", "pw-b", Role::Experimenter)
            .unwrap();
        let bob = server.login("bob", "pw-b", true).unwrap().token;
        server.open_account(bob).unwrap();
        check(&mut server, &wal, "open_account");
        for amount in [-1.0, f64::NAN, f64::INFINITY, 31.0] {
            assert_refused(&mut server, &wal, &format!("transfer of {amount}"), |s| {
                s.transfer(bob, "alice", amount, "spent")
            });
        }
        server.transfer(bob, "alice", 25.0, "spent").unwrap();
        check(&mut server, &wal, "transfer");
        assert_refused(&mut server, &wal, "unaffordable submission", |s| {
            s.submit_job(bob, "broke", Constraints::default(), browse("acc-dev"))
        });
    }

    #[test]
    fn retry_of_a_device_less_job_runs_on_the_device_it_leased() {
        fn ran_on(server: &mut AccessServer, id: JobId) -> String {
            server.drain();
            let alice = server.login("alice", "pw-a", true).unwrap().token;
            let build = server.build(alice, id).unwrap();
            assert_eq!(build.state, BuildState::Succeeded, "{build:?}");
            build.summary.as_ref().unwrap()["device"]
                .as_str()
                .unwrap()
                .to_string()
        }

        let mut server = AccessServer::new("52.1.2.3", "admin", "pw");
        let admin = server.login("admin", "pw", true).unwrap().token;
        let rng = SimRng::new(64);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        for serial in ["dev-a", "dev-b"] {
            let d = boot_j7_duo(&rng, serial);
            d.install_package("com.brave.browser");
            vp.add_device(d);
        }
        server
            .enroll_node(admin, vp, "155.198.1.10", "hk:node1", &PORTS, SimTime::ZERO)
            .unwrap();
        let wal = Wal::new();
        server.attach_wal(&wal);
        for user in ["alice", "bob"] {
            let password = format!("pw-{}", &user[..1]);
            server
                .add_user(admin, user, &password, Role::Experimenter)
                .unwrap();
        }
        let alice = server.login("alice", "pw-a", true).unwrap().token;
        let bob = server.login("bob", "pw-b", true).unwrap().token;

        // No device named anywhere: each attempt is placed afresh.
        let retry_once = Constraints {
            max_retries: 1,
            ..Default::default()
        };
        let id = server
            .submit_job(alice, "roaming", retry_once, browse(""))
            .unwrap();
        // The first attempt lands on dev-a, whose browser was just wiped.
        server
            .node_mut("node1")
            .unwrap()
            .device_handle("dev-a")
            .unwrap()
            .factory_reset();
        assert_eq!(server.tick(), Some(id));
        assert_eq!(
            server.build(alice, id).unwrap().node.as_deref(),
            Some("node1")
        );
        assert_eq!(server.queue_len(), 1, "first attempt retried");
        // Bob then books dev-a, so the retry may only be placed on dev-b.
        server
            .reserve_slot(
                bob,
                "node1",
                "dev-a",
                SimTime::ZERO,
                SimTime::from_secs(86_400),
            )
            .unwrap();
        let before_retry = wal.record_count();
        assert_eq!(ran_on(&mut server, id), "dev-b", "live retry");

        // Recovered from the log as it stood before the retry, the job
        // is placed and run on dev-b too.
        let nodes = server.take_nodes();
        let mut recovered =
            AccessServer::recover(&wal.prefix(before_retry), &Registry::new()).unwrap();
        for (_, vp) in nodes {
            recovered.adopt_node(vp).unwrap();
        }
        assert_eq!(ran_on(&mut recovered, id), "dev-b", "recovered retry");
    }
}

#[cfg(test)]
mod slot_tests {
    use super::*;
    use crate::jobs::ExperimentSpec;
    use batterylab_automation::Script;
    use batterylab_controller::VantageConfig;
    use batterylab_device::boot_j7_duo;
    use batterylab_sim::SimRng;

    #[test]
    fn reserved_device_blocks_other_users_jobs() {
        let mut server = AccessServer::new("52.1.2.3", "admin", "pw");
        let admin = server.login("admin", "pw", true).unwrap().token;
        let rng = SimRng::new(71);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        let d = boot_j7_duo(&rng, "slot-dev");
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
        server
            .add_user(admin, "alice", "a", Role::Experimenter)
            .unwrap();
        server
            .add_user(admin, "bob", "b", Role::Experimenter)
            .unwrap();
        let alice = server.login("alice", "a", true).unwrap().token;
        let bob = server.login("bob", "b", true).unwrap().token;

        // Alice reserves the device's near future on its virtual clock.
        server
            .reserve_slot(
                alice,
                "node1",
                "slot-dev",
                SimTime::ZERO,
                SimTime::from_secs(3600),
            )
            .unwrap();
        assert_eq!(server.device_schedule("node1", "slot-dev").len(), 1);
        // Bob cannot double-book.
        assert!(server
            .reserve_slot(
                bob,
                "node1",
                "slot-dev",
                SimTime::from_secs(10),
                SimTime::from_secs(20)
            )
            .is_err());

        // Bob's job stays queued during Alice's slot...
        let bob_job = server
            .submit_job(
                bob,
                "bob-job",
                Constraints::default(),
                Payload::Experiment(ExperimentSpec::measured(
                    "slot-dev",
                    Script::browser_workload("com.brave.browser", &["https://reuters.com"], 1),
                )),
            )
            .unwrap();
        assert_eq!(server.tick(), None, "slot held by alice");

        // ...while Alice's runs.
        let alice_job = server
            .submit_job(
                alice,
                "alice-job",
                Constraints::default(),
                Payload::Experiment(ExperimentSpec::measured(
                    "slot-dev",
                    Script::browser_workload("com.brave.browser", &["https://reuters.com"], 1),
                )),
            )
            .unwrap();
        assert_eq!(server.tick(), Some(alice_job));

        // After the slot ends (device clock has advanced past it or the
        // reservation is released), Bob's job dispatches.
        server
            .scheduler
            .slots_mut()
            .release_all("node1", "slot-dev", "alice");
        assert_eq!(server.tick(), Some(bob_job));
    }
}
