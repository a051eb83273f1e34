//! Tester recruitment (§3, §5): "testers are either volunteers, recruited
//! via email or social media, or paid, recruited via crowdsourcing
//! websites like Mechanical Turk and Figure Eight … we plan to facilitate
//! such tests via integration with platforms like Mechanical Turk."
//!
//! This module is that integration: an experimenter posts a task (a HIT,
//! in MTurk terms) bound to a device and a duration; a worker accepts,
//! receives a Tester console account and the shared noVNC URL (toolbar
//! hidden); on completion the experimenter's approval pays out.
//!
//! The tester account and the payment are access-server state, committed
//! through the server's log like every other transition. A task's state
//! moves only once the server has committed what the step needs. The
//! tasks themselves live here, outside the server, and are not durable.

use batterylab_sim::SimDuration;

use crate::access::{AccessServer, ServerError};
use crate::auth::Permission;
use crate::credits::CreditError;

/// Where the worker came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Marketplace {
    /// Amazon Mechanical Turk.
    MechanicalTurk,
    /// Figure Eight (CrowdFlower).
    FigureEight,
    /// Unpaid volunteer (email / social media).
    Volunteer,
}

/// Lifecycle of a posted task.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskState {
    /// Posted, waiting for a worker.
    Open,
    /// A worker holds it.
    Accepted {
        /// Worker identifier at the marketplace.
        worker: String,
    },
    /// Worker submitted; awaiting approval.
    Submitted {
        /// Worker identifier.
        worker: String,
    },
    /// Approved and paid.
    Paid {
        /// Worker identifier.
        worker: String,
    },
    /// Rejected (no payment).
    Rejected {
        /// Worker identifier.
        worker: String,
        /// Why.
        reason: String,
    },
}

/// A usability task (HIT).
#[derive(Clone, Debug)]
pub struct UsabilityTask {
    /// Task id.
    pub id: u64,
    /// Experimenter who posted it.
    pub requester: String,
    /// Marketplace posted to.
    pub marketplace: Marketplace,
    /// What the tester should do.
    pub instructions: String,
    /// Node/device the session is bound to.
    pub node: String,
    /// Device id.
    pub device: String,
    /// Expected session length.
    pub duration: SimDuration,
    /// Payment in platform credits (0 for volunteers).
    pub pay_credits: f64,
    /// State.
    pub state: TaskState,
}

impl UsabilityTask {
    /// The URL the worker opens (toolbar-hidden GUI on the node).
    pub fn session_url(&self) -> String {
        format!(
            "https://{}.batterylab.dev/?device={}&toolbar=0",
            self.node, self.device
        )
    }
}

/// Recruitment failures.
#[derive(Debug)]
pub enum RecruitError {
    /// Unknown task.
    NoSuchTask(u64),
    /// Task is not in the right state for the operation.
    WrongState(TaskState),
    /// Only the task's requester may approve it.
    NotRequester(String),
    /// Payment failed.
    Credits(CreditError),
    /// The access server refused the step.
    Server(ServerError),
}

impl From<CreditError> for RecruitError {
    fn from(e: CreditError) -> Self {
        RecruitError::Credits(e)
    }
}

impl From<ServerError> for RecruitError {
    fn from(e: ServerError) -> Self {
        match e {
            ServerError::Credits(e) => RecruitError::Credits(e),
            e => RecruitError::Server(e),
        }
    }
}

impl std::fmt::Display for RecruitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecruitError::NoSuchTask(id) => write!(f, "no such task {id}"),
            RecruitError::WrongState(s) => write!(f, "task in state {s:?}"),
            RecruitError::NotRequester(user) => write!(f, "{user} did not post the task"),
            RecruitError::Credits(e) => write!(f, "credits: {e}"),
            RecruitError::Server(e) => write!(f, "server: {e}"),
        }
    }
}

impl std::error::Error for RecruitError {}

/// The recruitment service.
#[derive(Default)]
pub struct Recruitment {
    tasks: Vec<UsabilityTask>,
    next_id: u64,
}

impl Recruitment {
    /// Empty service.
    pub fn new() -> Self {
        Recruitment {
            tasks: Vec::new(),
            next_id: 1,
        }
    }

    /// Post a task as the experimenter `token` is logged in as. A paid
    /// task's payout must be one the requester's balance covers up front
    /// (escrow semantics).
    #[allow(clippy::too_many_arguments)]
    pub fn post(
        &mut self,
        server: &AccessServer,
        token: u64,
        marketplace: Marketplace,
        instructions: &str,
        node: &str,
        device: &str,
        duration: SimDuration,
        pay_credits: f64,
    ) -> Result<u64, RecruitError> {
        let requester = server.user(token, Permission::CreateJob)?;
        if pay_credits != 0.0 {
            let ledger = server.ledger().ok_or(ServerError::BillingDisabled)?;
            ledger.check_transfer(requester, pay_credits)?;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.tasks.push(UsabilityTask {
            id,
            requester: requester.to_string(),
            marketplace,
            instructions: instructions.to_string(),
            node: node.to_string(),
            device: device.to_string(),
            duration,
            pay_credits,
            state: TaskState::Open,
        });
        Ok(id)
    }

    fn task_mut(&mut self, id: u64) -> Result<&mut UsabilityTask, RecruitError> {
        self.tasks
            .iter_mut()
            .find(|t| t.id == id)
            .ok_or(RecruitError::NoSuchTask(id))
    }

    /// A task by id.
    pub fn task(&self, id: u64) -> Option<&UsabilityTask> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Open tasks (what the marketplace lists).
    pub fn open_tasks(&self) -> Vec<&UsabilityTask> {
        self.tasks
            .iter()
            .filter(|t| t.state == TaskState::Open)
            .collect()
    }

    /// A worker accepts: gets a Tester console account and the session
    /// URL. A worker name the directory already holds is refused, and the
    /// task stays open.
    pub fn accept(
        &mut self,
        server: &mut AccessServer,
        id: u64,
        worker: &str,
    ) -> Result<String, RecruitError> {
        let task = self.task_mut(id)?;
        if task.state != TaskState::Open {
            return Err(RecruitError::WrongState(task.state.clone()));
        }
        // Tester accounts are throwaway, scoped to the session.
        server.add_tester(worker, &format!("task-{id}-pw"))?;
        task.state = TaskState::Accepted {
            worker: worker.to_string(),
        };
        Ok(task.session_url())
    }

    /// The worker submits their session.
    pub fn submit(&mut self, id: u64) -> Result<(), RecruitError> {
        let task = self.task_mut(id)?;
        let TaskState::Accepted { worker } = task.state.clone() else {
            return Err(RecruitError::WrongState(task.state.clone()));
        };
        task.state = TaskState::Submitted { worker };
        Ok(())
    }

    /// The requester, logged in as `token`, approves: pays out from
    /// their account. A refused payment leaves the task submitted.
    pub fn approve(
        &mut self,
        server: &mut AccessServer,
        token: u64,
        id: u64,
    ) -> Result<(), RecruitError> {
        let task = self.task_mut(id)?;
        let TaskState::Submitted { worker } = task.state.clone() else {
            return Err(RecruitError::WrongState(task.state.clone()));
        };
        let approver = server.user(token, Permission::CreateJob)?;
        if approver != task.requester {
            return Err(RecruitError::NotRequester(approver.to_string()));
        }
        if task.pay_credits != 0.0 {
            server.transfer(token, &worker, task.pay_credits, "usability task")?;
        }
        task.state = TaskState::Paid { worker };
        Ok(())
    }

    /// The requester rejects (spam, no-show).
    pub fn reject(&mut self, id: u64, reason: &str) -> Result<(), RecruitError> {
        let task = self.task_mut(id)?;
        let TaskState::Submitted { worker } = task.state.clone() else {
            return Err(RecruitError::WrongState(task.state.clone()));
        };
        task.state = TaskState::Rejected {
            worker,
            reason: reason.to_string(),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::auth::Role;
    use crate::credits::WELCOME_GRANT;
    use batterylab_durable::Wal;
    use batterylab_telemetry::Registry;

    /// A billed server with a log, alice's account open, and her token.
    fn setup() -> (Recruitment, AccessServer, Wal, u64) {
        let mut server = AccessServer::new("52.1.2.3", "admin", "pw");
        let wal = Wal::new();
        server.attach_wal(&wal);
        server.enable_billing();
        let admin = server.login("admin", "pw", true).unwrap().token;
        server
            .add_user(admin, "alice", "pw-a", Role::Experimenter)
            .unwrap();
        let alice = server.login("alice", "pw-a", true).unwrap().token;
        server.open_account(alice).unwrap();
        (Recruitment::new(), server, wal, alice)
    }

    fn post(r: &mut Recruitment, server: &AccessServer, alice: u64, pay: f64) -> u64 {
        r.post(
            server,
            alice,
            Marketplace::MechanicalTurk,
            "search for three items in the shopping app",
            "node1",
            "j7duo-0001",
            SimDuration::from_secs(900),
            pay,
        )
        .unwrap()
    }

    fn balance(server: &AccessServer, user: &str) -> Result<f64, CreditError> {
        server.ledger().unwrap().balance(user)
    }

    #[test]
    fn full_hit_lifecycle_with_payment() {
        let (mut r, mut server, _, alice) = setup();
        let id = post(&mut r, &server, alice, 5.0);
        assert_eq!(r.open_tasks().len(), 1);

        let url = r.accept(&mut server, id, "turker-9").unwrap();
        assert!(url.contains("node1.batterylab.dev"));
        assert!(url.contains("toolbar=0"), "testers get no toolbar");
        // The worker got a Tester account.
        let session = server
            .login("turker-9", &format!("task-{id}-pw"), true)
            .unwrap();
        assert_eq!(session.role, Role::Tester);

        r.submit(id).unwrap();
        r.approve(&mut server, alice, id).unwrap();
        assert_eq!(balance(&server, "turker-9").unwrap(), WELCOME_GRANT + 5.0);
        assert!(matches!(r.task(id).unwrap().state, TaskState::Paid { .. }));
    }

    #[test]
    fn cannot_post_beyond_balance() {
        let (mut r, server, _, alice) = setup();
        let err = r
            .post(
                &server,
                alice,
                Marketplace::FigureEight,
                "x",
                "node1",
                "d",
                SimDuration::from_secs(60),
                1000.0,
            )
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, RecruitError::Credits(_)));
    }

    #[test]
    fn double_accept_refused() {
        let (mut r, mut server, _, alice) = setup();
        let id = post(&mut r, &server, alice, 1.0);
        r.accept(&mut server, id, "w1").unwrap();
        assert!(matches!(
            r.accept(&mut server, id, "w2"),
            Err(RecruitError::WrongState(_))
        ));
    }

    #[test]
    fn rejection_pays_nothing() {
        let (mut r, mut server, _, alice) = setup();
        let id = post(&mut r, &server, alice, 5.0);
        r.accept(&mut server, id, "lazy-worker").unwrap();
        r.submit(id).unwrap();
        r.reject(id, "did not follow instructions").unwrap();
        assert!(
            balance(&server, "lazy-worker").is_err(),
            "never paid, no account"
        );
        assert_eq!(balance(&server, "alice").unwrap(), WELCOME_GRANT);
    }

    #[test]
    fn volunteers_cost_nothing() {
        let (mut r, mut server, _, alice) = setup();
        let id = r
            .post(
                &server,
                alice,
                Marketplace::Volunteer,
                "try the new browser",
                "node1",
                "d",
                SimDuration::from_secs(600),
                0.0,
            )
            .unwrap();
        r.accept(&mut server, id, "friendly-phd").unwrap();
        r.submit(id).unwrap();
        r.approve(&mut server, alice, id).unwrap();
        assert_eq!(balance(&server, "alice").unwrap(), WELCOME_GRANT);
    }

    #[test]
    fn refused_steps_leave_the_task_ledger_and_log_as_they_were() {
        let (mut r, mut server, wal, alice) = setup();
        let id = post(&mut r, &server, alice, 20.0);
        // The worker's name is taken: no account, the task stays open.
        let records = wal.record_count();
        assert!(matches!(
            r.accept(&mut server, id, "alice"),
            Err(RecruitError::Server(ServerError::Auth(_)))
        ));
        assert_eq!(r.task(id).unwrap().state, TaskState::Open);
        assert_eq!(wal.record_count(), records);
        r.accept(&mut server, id, "w").unwrap();
        r.submit(id).unwrap();

        // Alice spends down to 15 credits, under the task's pay.
        server.transfer(alice, "admin", 15.0, "elsewhere").unwrap();
        let (ledger, records) = (format!("{:?}", server.ledger()), wal.record_count());
        assert!(matches!(
            r.approve(&mut server, alice, id),
            Err(RecruitError::Credits(
                CreditError::InsufficientCredits { .. }
            ))
        ));
        let submitted = TaskState::Submitted {
            worker: "w".to_string(),
        };
        assert_eq!(r.task(id).unwrap().state, submitted);
        assert_eq!(format!("{:?}", server.ledger()), ledger);
        assert_eq!(wal.record_count(), records);
        assert!(balance(&server, "w").is_err(), "never paid, no account");

        // Only the requester approves.
        let admin = server.login("admin", "pw", true).unwrap().token;
        assert!(matches!(
            r.approve(&mut server, admin, id),
            Err(RecruitError::NotRequester(_))
        ));
        assert_eq!(r.task(id).unwrap().state, submitted);
        assert_eq!(wal.record_count(), records);
    }

    /// The tester account and the payment are logged: a crash right after
    /// either, with no compaction since, recovers what the live server
    /// holds.
    #[test]
    fn accepted_tester_and_payment_survive_a_crash() {
        let (mut r, mut server, wal, alice) = setup();
        let id = post(&mut r, &server, alice, 5.0);
        let generation = wal.generation();
        r.accept(&mut server, id, "turker-9").unwrap();
        let mut recovered = AccessServer::recover(&wal, &Registry::new()).unwrap();
        assert_eq!(
            recovered
                .login("turker-9", &format!("task-{id}-pw"), true)
                .unwrap()
                .role,
            Role::Tester
        );

        r.submit(id).unwrap();
        r.approve(&mut server, alice, id).unwrap();
        let recovered = AccessServer::recover(&wal, &Registry::new()).unwrap();
        assert_eq!(wal.generation(), generation, "no compaction ran");
        let (live, back) = (server.ledger().unwrap(), recovered.ledger().unwrap());
        assert_eq!(back.balance("turker-9"), live.balance("turker-9"));
        assert_eq!(back.balance("alice"), live.balance("alice"));
        assert_eq!(back.history(), live.history());
    }
}
