//! The operation-sequence oracle. It draws sequences of every kind of
//! server operation, with log compaction and crash-and-recover mixed in,
//! and checks after each one what holds only while `apply` is the one way
//! server state changes:
//!
//! - the live state equals the state recovered from the whole log, and
//!   the state recovered from that log once compacted;
//! - `CreditLedger::debited` equals the job charges and the outgoing
//!   transfers the sequence made;
//! - no job runs twice, and no accepted job is lost;
//! - a refused operation leaves neither state nor log behind.
//!
//! One pre-existing unlogged step, a lapsed breaker's move to half-open,
//! is taken on the recovered side: see [`World::lapse_breakers`].
//!
//! The `proptest` shim does not shrink, so on a failure the oracle prints
//! the seed and the sequence, then cuts the sequence down itself: it drops
//! one operation at a time while the check still fails.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use batterylab_automation::Script;
use batterylab_controller::{VantageConfig, VantagePoint};
use batterylab_device::{boot_j7_duo, AndroidDevice};
use batterylab_durable::Wal;
use batterylab_faults::{FaultInjector, FaultKind, FaultPlan};
use batterylab_sim::{SimDuration, SimRng, SimTime};
use batterylab_telemetry::Registry;
use proptest::prelude::*;

use super::tests::durable_state;
use super::AccessServer;
use crate::auth::Role;
use crate::credits::CreditLedger;
use crate::jobs::{BuildState, Constraints, ExperimentSpec, JobId, Payload};
use crate::recruitment::{Marketplace, Recruitment, TaskState};
use crate::supervise::BreakerState;

/// The directory: an admin, two experimenters and a tester. Each user's
/// password is their name.
const USERS: [(&str, Role); 4] = [
    ("admin", Role::Admin),
    ("alice", Role::Experimenter),
    ("bob", Role::Experimenter),
    ("tess", Role::Tester),
];
/// Workers who accept tasks; `bob` is a name the directory holds.
const WORKERS: [&str; 3] = ["w1", "w2", "bob"];
/// Transfer amounts, invalid ones included.
const AMOUNTS: [f64; 6] = [-1.0, f64::NAN, 0.0, 1.5, 7.0, 100.0];
/// Task pay, an invalid amount included.
const PAYS: [f64; 4] = [0.0, 4.0, 20.0, -2.0];
/// A job's device: the node's one device, any device, or none that exists.
const DEVICES: [&str; 3] = ["acc-dev", "", "ghost"];
const BROWSER: &str = "com.brave.browser";

/// Operations per generated sequence, at most.
const MAX_OPS: usize = 48;

#[derive(Clone, Debug)]
enum Op {
    Submit {
        user: usize,
        device: usize,
        retries: u32,
    },
    Tick,
    Drain,
    /// Idle the node's devices, then probe the node at their clock.
    Probe {
        idle_s: u64,
    },
    /// Maintenance, `hours` after the previous one.
    Maintenance {
        hours: u64,
    },
    /// Reserve the device from `start_s` past its clock, for `len_s`.
    Reserve {
        user: usize,
        start_s: u64,
        len_s: u64,
    },
    /// Factory-reset the device: its jobs fail until `Reinstall`.
    Wipe,
    Reinstall,
    EnableBilling,
    OpenAccount {
        user: usize,
    },
    Transfer {
        user: usize,
        to: usize,
        amount: usize,
    },
    Post {
        user: usize,
        pay: usize,
    },
    Accept {
        task: usize,
        worker: usize,
    },
    /// The worker submits their session.
    Finish {
        task: usize,
    },
    Approve {
        task: usize,
        user: usize,
    },
    Compact,
    Crash,
}

impl Op {
    fn draw(rng: &mut SimRng) -> Op {
        let user = rng.index(USERS.len());
        match rng.index(26) {
            0..=3 => Op::Submit {
                user,
                device: rng.index(DEVICES.len()),
                retries: rng.index(3) as u32,
            },
            4 | 5 => Op::Tick,
            6 | 7 => Op::Drain,
            8 => Op::Probe {
                idle_s: [0, 60, 600][rng.index(3)],
            },
            9 => Op::Maintenance {
                hours: rng.index(48) as u64,
            },
            10 => Op::Reserve {
                user,
                start_s: [0, 30, 3600][rng.index(3)],
                len_s: [60, 600][rng.index(2)],
            },
            11 => [Op::Wipe, Op::Reinstall][rng.index(2)].clone(),
            12 => Op::EnableBilling,
            13 | 14 => Op::OpenAccount { user },
            15..=17 => Op::Transfer {
                user,
                to: rng.index(USERS.len() + WORKERS.len()),
                amount: rng.index(AMOUNTS.len()),
            },
            18 | 19 => Op::Post {
                user,
                pay: rng.index(PAYS.len()),
            },
            20 => Op::Accept {
                task: rng.index(4),
                worker: rng.index(WORKERS.len()),
            },
            21 => Op::Finish { task: rng.index(4) },
            22 | 23 => Op::Approve {
                task: rng.index(4),
                user,
            },
            24 => Op::Compact,
            _ => Op::Crash,
        }
    }
}

/// The `len` operations seed `seed` draws. Most sequences switch billing
/// on first; the others run without it until an `EnableBilling` comes.
fn sequence(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SimRng::new(seed);
    let billed_from_the_start = rng.chance(0.75).then_some(Op::EnableBilling);
    billed_from_the_start
        .into_iter()
        .chain((0..len).map(|_| Op::draw(&mut rng)))
        .take(len)
        .collect()
}

/// A billing-capable server with one node and the [`USERS`], a log, and
/// what the oracle expects of them.
struct World {
    server: AccessServer,
    wal: Wal,
    injector: FaultInjector,
    tokens: [u64; USERS.len()],
    /// The marketplace side: tasks are not server state, so they outlive
    /// a server crash.
    recruitment: Recruitment,
    tasks: Vec<u64>,
    last_maintenance: SimTime,
    /// Job charges and outgoing transfers, as the operations made them.
    debited: f64,
    accepted: Vec<JobId>,
    /// Each finished job's terminal state and instant.
    finished: BTreeMap<JobId, (BuildState, Option<SimTime>)>,
}

impl World {
    fn new() -> World {
        let mut server = AccessServer::new("52.1.2.3", "admin", "admin");
        let admin = server.login("admin", "admin", true).unwrap().token;
        let rng = SimRng::new(81);
        let mut vp = VantagePoint::new(VantageConfig::imperial_college(), rng.derive("vp"));
        let device = boot_j7_duo(&rng, DEVICES[0]);
        device.install_package(BROWSER);
        vp.add_device(device);
        server
            .enroll_node(
                admin,
                vp,
                "155.198.1.10",
                "hk:node1",
                &[2222, 8080, 6081],
                SimTime::ZERO,
            )
            .unwrap();
        let wal = Wal::new();
        server.attach_wal(&wal);
        for (name, role) in &USERS[1..] {
            server.add_user(admin, name, name, *role).unwrap();
        }
        server.set_node_owner("node1", "alice");
        // The node reboots early in its life: probes fail, jobs retry.
        let reboot = FaultPlan::new().window(
            "node1.node",
            FaultKind::NodeReboot,
            SimTime::from_secs(120),
            SimTime::from_secs(600),
        );
        let injector = FaultInjector::new(&reboot, 7);
        server.attach_faults(&injector);
        let mut world = World {
            server,
            wal,
            injector,
            tokens: [0; USERS.len()],
            recruitment: Recruitment::new(),
            tasks: Vec::new(),
            last_maintenance: SimTime::ZERO,
            debited: 0.0,
            accepted: Vec::new(),
            finished: BTreeMap::new(),
        };
        world.log_in();
        world
    }

    /// Sessions are not recovered: everyone logs in again.
    fn log_in(&mut self) {
        for (token, (name, _)) in self.tokens.iter_mut().zip(USERS) {
            *token = self.server.login(name, name, true).unwrap().token;
        }
    }

    fn billed(&self) -> bool {
        self.server.billing.is_some()
    }

    fn device(&self) -> AndroidDevice {
        self.server.nodes["node1"]
            .device_handle(DEVICES[0])
            .unwrap()
    }

    fn task(&self, index: usize) -> Option<u64> {
        (!self.tasks.is_empty()).then(|| self.tasks[index % self.tasks.len()])
    }

    /// Run `op`. Returns whether the server accepted it; operations with
    /// nothing to refuse always count as accepted.
    fn run(&mut self, op: &Op) -> Result<bool, String> {
        let accepted = match *op {
            Op::Submit {
                user,
                device,
                retries,
            } => {
                let spec = ExperimentSpec::measured(
                    DEVICES[device],
                    Script::browser_workload(BROWSER, &["https://a.example"], 1),
                );
                let constraints = Constraints {
                    max_retries: retries,
                    ..Default::default()
                };
                let submitted = self.server.submit_job(
                    self.tokens[user],
                    "oracle",
                    constraints,
                    Payload::Experiment(spec),
                );
                submitted.map(|id| self.accepted.push(id)).is_ok()
            }
            Op::Tick => {
                let billed = self.billed();
                let ran: Vec<JobId> = self.server.tick().into_iter().collect();
                self.ran(&ran, billed)?;
                true
            }
            Op::Drain => {
                let billed = self.billed();
                let ran = self.server.drain();
                self.ran(&ran, billed)?;
                true
            }
            Op::Probe { idle_s } => {
                let at = self.server.idle_nodes(SimDuration::from_secs(idle_s));
                self.server.probe_nodes(at);
                true
            }
            Op::Maintenance { hours } => {
                self.last_maintenance += SimDuration::from_secs(hours * 3600);
                self.server.run_maintenance(self.last_maintenance);
                true
            }
            Op::Reserve {
                user,
                start_s,
                len_s,
            } => {
                let from = self.server.nodes["node1"].now() + SimDuration::from_secs(start_s);
                let to = from + SimDuration::from_secs(len_s);
                let reserved =
                    self.server
                        .reserve_slot(self.tokens[user], "node1", DEVICES[0], from, to);
                reserved.is_ok()
            }
            Op::Wipe => {
                self.device().factory_reset();
                true
            }
            Op::Reinstall => {
                self.device().install_package(BROWSER);
                true
            }
            Op::EnableBilling => {
                self.server.enable_billing();
                true
            }
            Op::OpenAccount { user } => self.server.open_account(self.tokens[user]).is_ok(),
            Op::Transfer { user, to, amount } => {
                let to = USERS
                    .map(|(name, _)| name)
                    .into_iter()
                    .chain(WORKERS)
                    .nth(to);
                let amount = AMOUNTS[amount];
                let paid = self
                    .server
                    .transfer(self.tokens[user], to.unwrap(), amount, "oracle");
                if paid.is_ok() {
                    self.debited += amount;
                }
                paid.is_ok()
            }
            Op::Post { user, pay } => {
                let posted = self.recruitment.post(
                    &self.server,
                    self.tokens[user],
                    Marketplace::MechanicalTurk,
                    "search for three items",
                    "node1",
                    DEVICES[0],
                    SimDuration::from_secs(900),
                    PAYS[pay],
                );
                posted.map(|id| self.tasks.push(id)).is_ok()
            }
            Op::Accept { task, worker } => match self.task(task) {
                Some(id) => {
                    let accepted = self
                        .recruitment
                        .accept(&mut self.server, id, WORKERS[worker]);
                    accepted.is_ok()
                }
                None => true,
            },
            Op::Finish { task } => {
                if let Some(id) = self.task(task) {
                    let _ = self.recruitment.submit(id);
                }
                true
            }
            Op::Approve { task, user } => match self.task(task) {
                Some(id) => {
                    let pay = self.recruitment.task(id).unwrap().pay_credits;
                    let approved = self
                        .recruitment
                        .approve(&mut self.server, self.tokens[user], id)
                        .is_ok();
                    if approved && pay > 0.0 {
                        self.debited += pay;
                    }
                    approved
                }
                None => true,
            },
            Op::Compact => {
                self.server.compact();
                true
            }
            Op::Crash => {
                let recovered = AccessServer::recover(&self.wal, &Registry::new())
                    .map_err(|e| format!("recovery failed: {e}"))?;
                let dead = std::mem::replace(&mut self.server, recovered);
                for (_, vp) in dead.take_nodes() {
                    self.server.adopt_node(vp).map_err(|e| e.to_string())?;
                }
                self.server.attach_faults(&self.injector);
                self.log_in();
                true
            }
        };
        Ok(accepted)
    }

    /// Every posted task's state, in posting order.
    fn task_states(&self) -> Vec<TaskState> {
        let task = |id: &u64| self.recruitment.task(*id).unwrap().state.clone();
        self.tasks.iter().map(task).collect()
    }

    /// Account for the jobs a tick or drain dispatched: each finishes at
    /// most once, and a billed success is charged its device time.
    fn ran(&mut self, ran: &[JobId], billed: bool) -> Result<(), String> {
        if let Some(id) = ran.iter().find(|id| self.finished.contains_key(id)) {
            return Err(format!("finished job {id:?} was dispatched again"));
        }
        let mut ids = ran.to_vec();
        ids.sort();
        ids.dedup();
        for id in ids {
            let build = self
                .server
                .scheduler
                .build(id)
                .ok_or("dispatched job has no build")?;
            if build.state == BuildState::Queued {
                continue;
            }
            self.finished
                .insert(id, (build.state.clone(), build.finished_at));
            let secs = build
                .summary
                .as_ref()
                .and_then(|s| s["duration_s"].as_f64());
            if let (true, Some(secs)) = (billed, secs.filter(|s| *s > 0.0)) {
                self.debited += CreditLedger::cost_of(SimDuration::from_secs_f64(secs));
            }
        }
        Ok(())
    }

    /// Run `op` and check every invariant after it.
    fn step(&mut self, op: &Op) -> Result<(), String> {
        let before = durable_state(&mut self.server);
        let log = (self.wal.generation(), self.wal.record_count());
        let tasks = self.task_states();
        if !self.run(op)? {
            if durable_state(&mut self.server) != before {
                return Err("a refused operation changed state".into());
            }
            if (self.wal.generation(), self.wal.record_count()) != log {
                return Err("a refused operation was logged".into());
            }
            if self.task_states() != tasks {
                return Err("a refused operation moved a task".into());
            }
        }
        self.check_recovery()?;
        self.check_ledger()?;
        self.check_jobs()
    }

    /// Live state == recover(full log) == recover(compacted log).
    fn check_recovery(&mut self) -> Result<(), String> {
        let live = durable_state(&mut self.server);
        let full = self.wal.prefix(self.wal.record_count());
        let recover = |wal: &Wal| {
            AccessServer::recover(wal, &Registry::new())
                .map_err(|e| format!("recovery failed: {e}"))
        };
        let mut from_full = recover(&full)?;
        self.lapse_breakers(&mut from_full);
        if durable_state(&mut from_full) != live {
            return Err(diff(
                "the full log recovers",
                &durable_state(&mut from_full),
                &live,
            ));
        }
        if from_full.compaction != self.server.compaction {
            return Err("the full log recovers another compaction trigger".into());
        }
        // Compacting the recovered copy writes a snapshot into the copy's
        // log only.
        from_full.compact();
        let mut compacted = recover(&full)?;
        self.lapse_breakers(&mut compacted);
        let compacted = durable_state(&mut compacted);
        if compacted != live {
            return Err(diff("the compacted log recovers", &compacted, &live));
        }
        Ok(())
    }

    /// `Scheduler::tick` moves a breaker whose open window has lapsed to
    /// half-open while it decides, and a tick that places no job logs
    /// nothing, so recovery can hold that breaker open. The oracle takes
    /// that one unlogged step on `recovered` wherever the live server took
    /// it, at the live node's clock; a breaker still open there differs.
    fn lapse_breakers(&self, recovered: &mut AccessServer) {
        for (node, vp) in &self.server.nodes {
            let live = self.server.scheduler.supervisor().breaker_state(node);
            if live == BreakerState::HalfOpen {
                let supervisor = recovered.scheduler.supervisor_mut();
                supervisor.node_available(node, vp.now());
            }
        }
    }

    fn check_ledger(&self) -> Result<(), String> {
        let debited = self.server.ledger().map_or(0.0, CreditLedger::debited);
        if (debited - self.debited).abs() > 1e-9 * self.debited.abs().max(1.0) {
            return Err(format!(
                "ledger debited {debited}, the charges and transfers made {}",
                self.debited
            ));
        }
        Ok(())
    }

    /// Every accepted job is queued once or finished as it finished.
    fn check_jobs(&self) -> Result<(), String> {
        let scheduler = &self.server.scheduler;
        let mut queued: Vec<JobId> = scheduler.queue().iter().map(|job| job.id).collect();
        queued.sort();
        if queued.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(format!("a job is queued twice: {queued:?}"));
        }
        for id in &self.accepted {
            let build = scheduler.build(*id).ok_or(format!("job {id:?} lost"))?;
            let in_queue = queued.binary_search(id).is_ok();
            match (&build.state, self.finished.get(id)) {
                (BuildState::Queued, None) if in_queue => {}
                (BuildState::Queued, _) => {
                    return Err(format!("job {id:?} left the queue unfinished"))
                }
                (state, Some((finished, at))) if state == finished && build.finished_at == *at => {
                    if in_queue {
                        return Err(format!("finished job {id:?} is queued again"));
                    }
                }
                (state, finished) => {
                    return Err(format!("job {id:?} is {state:?}, finished as {finished:?}"))
                }
            }
        }
        Ok(())
    }
}

/// The first line where `got` and `want` differ.
fn diff(what: &str, got: &str, want: &str) -> String {
    let line = got
        .lines()
        .zip(want.lines())
        .find(|(g, w)| g != w)
        .map_or(String::new(), |(g, w)| format!("\n  got  {g}\n  live {w}"));
    format!("{what} another state{line}")
}

/// Run `ops` on a fresh world; the first violated invariant, or a panic,
/// is the failure.
fn check(ops: &[Op]) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut world = World::new();
        for (i, op) in ops.iter().enumerate() {
            world
                .step(op)
                .map_err(|e| format!("after operation {i} ({op:?}): {e}"))?;
        }
        Ok(())
    }));
    outcome.unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()));
        Err(format!("panicked: {}", message.unwrap_or_default()))
    })
}

/// Drop operations one at a time while the sequence still fails.
fn cut_down(mut ops: Vec<Op>) -> Vec<Op> {
    let mut i = 0;
    while i < ops.len() {
        let mut fewer = ops.clone();
        fewer.remove(i);
        if check(&fewer).is_err() {
            ops = fewer;
        } else {
            i += 1;
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn generated_operations_keep_one_apply_path(seed: u64, len in 1usize..MAX_OPS) {
        let ops = sequence(seed, len);
        if let Err(failure) = check(&ops) {
            let cut = cut_down(ops.clone());
            let cut_failure = check(&cut).unwrap_err();
            prop_assert!(
                false,
                "seed {seed}, {len} operations: {ops:?}\n{failure}\n\
                 cut down to {} operations: {cut:?}\n{cut_failure}",
                cut.len()
            );
        }
    }
}
