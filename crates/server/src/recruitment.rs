//! Tester recruitment (§3, §5): "testers are either volunteers, recruited
//! via email or social media, or paid, recruited via crowdsourcing
//! websites like Mechanical Turk and Figure Eight … we plan to facilitate
//! such tests via integration with platforms like Mechanical Turk."
//!
//! This module is that integration: an experimenter posts a task (a HIT,
//! in MTurk terms) bound to a device and a duration; a worker accepts,
//! receives a Tester console account and the shared noVNC URL (toolbar
//! hidden); on completion the experimenter's approval pays out.

use batterylab_sim::SimDuration;
use serde::Serialize;

use crate::auth::{AuthService, Role};
use crate::credits::{CreditError, CreditLedger};

/// Where the worker came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum Marketplace {
    /// Amazon Mechanical Turk.
    MechanicalTurk,
    /// Figure Eight (CrowdFlower).
    FigureEight,
    /// Unpaid volunteer (email / social media).
    Volunteer,
}

/// Lifecycle of a posted task.
#[derive(Clone, Debug, PartialEq, Serialize)]
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
#[derive(Clone, Debug, Serialize)]
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
    /// Payment failed.
    Credits(CreditError),
}

impl From<CreditError> for RecruitError {
    fn from(e: CreditError) -> Self {
        RecruitError::Credits(e)
    }
}

impl std::fmt::Display for RecruitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecruitError::NoSuchTask(id) => write!(f, "no such task {id}"),
            RecruitError::WrongState(s) => write!(f, "task in state {s:?}"),
            RecruitError::Credits(e) => write!(f, "credits: {e}"),
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

    /// Post a task. The requester must be able to afford the payout up
    /// front (escrow semantics).
    #[allow(clippy::too_many_arguments)]
    pub fn post(
        &mut self,
        ledger: &CreditLedger,
        requester: &str,
        marketplace: Marketplace,
        instructions: &str,
        node: &str,
        device: &str,
        duration: SimDuration,
        pay_credits: f64,
    ) -> Result<u64, RecruitError> {
        if pay_credits > 0.0 {
            let balance = ledger.balance(requester)?;
            if balance < pay_credits {
                return Err(RecruitError::Credits(CreditError::InsufficientCredits {
                    user: requester.to_string(),
                    balance,
                    needed: pay_credits,
                }));
            }
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
    /// URL.
    pub fn accept(
        &mut self,
        auth: &mut AuthService,
        id: u64,
        worker: &str,
    ) -> Result<String, RecruitError> {
        let task = self.task_mut(id)?;
        if task.state != TaskState::Open {
            return Err(RecruitError::WrongState(task.state.clone()));
        }
        task.state = TaskState::Accepted {
            worker: worker.to_string(),
        };
        // Tester accounts are throwaway, scoped to the session.
        let _ = auth.add_user(worker, &format!("task-{id}-pw"), Role::Tester);
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

    /// The requester approves: pays out from their account.
    pub fn approve(&mut self, ledger: &mut CreditLedger, id: u64) -> Result<(), RecruitError> {
        let task = self.task_mut(id)?;
        let TaskState::Submitted { worker } = task.state.clone() else {
            return Err(RecruitError::WrongState(task.state.clone()));
        };
        if task.pay_credits > 0.0 {
            let (requester, pay) = (task.requester.clone(), task.pay_credits);
            let worker_name = worker.clone();
            task.state = TaskState::Paid { worker };
            // Re-borrow rules: perform the transfer after updating state.
            ledger.transfer(&requester, &worker_name, pay, "usability task")?;
        } else {
            task.state = TaskState::Paid { worker };
        }
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

    fn setup() -> (Recruitment, CreditLedger, AuthService) {
        let mut ledger = CreditLedger::new();
        ledger.open_account("alice");
        (Recruitment::new(), ledger, AuthService::new("admin", "pw"))
    }

    fn post(r: &mut Recruitment, l: &CreditLedger, pay: f64) -> u64 {
        r.post(
            l,
            "alice",
            Marketplace::MechanicalTurk,
            "search for three items in the shopping app",
            "node1",
            "j7duo-0001",
            SimDuration::from_secs(900),
            pay,
        )
        .unwrap()
    }

    #[test]
    fn full_hit_lifecycle_with_payment() {
        let (mut r, mut ledger, mut auth) = setup();
        let id = post(&mut r, &ledger, 5.0);
        assert_eq!(r.open_tasks().len(), 1);

        let url = r.accept(&mut auth, id, "turker-9").unwrap();
        assert!(url.contains("node1.batterylab.dev"));
        assert!(url.contains("toolbar=0"), "testers get no toolbar");
        // The worker got a Tester account.
        let session = auth
            .login("turker-9", &format!("task-{id}-pw"), true)
            .unwrap();
        assert_eq!(session.role, Role::Tester);

        r.submit(id).unwrap();
        r.approve(&mut ledger, id).unwrap();
        assert_eq!(
            ledger.balance("turker-9").unwrap(),
            crate::credits::WELCOME_GRANT + 5.0
        );
        assert!(matches!(r.task(id).unwrap().state, TaskState::Paid { .. }));
    }

    #[test]
    fn cannot_post_beyond_balance() {
        let (mut r, ledger, _) = setup();
        let err = r
            .post(
                &ledger,
                "alice",
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
        let (mut r, ledger, mut auth) = setup();
        let id = post(&mut r, &ledger, 1.0);
        r.accept(&mut auth, id, "w1").unwrap();
        assert!(matches!(
            r.accept(&mut auth, id, "w2"),
            Err(RecruitError::WrongState(_))
        ));
    }

    #[test]
    fn rejection_pays_nothing() {
        let (mut r, ledger, mut auth) = setup();
        let id = post(&mut r, &ledger, 5.0);
        r.accept(&mut auth, id, "lazy-worker").unwrap();
        r.submit(id).unwrap();
        r.reject(id, "did not follow instructions").unwrap();
        assert!(
            ledger.balance("lazy-worker").is_err(),
            "never paid, no account"
        );
        assert_eq!(
            ledger.balance("alice").unwrap(),
            crate::credits::WELCOME_GRANT
        );
    }

    #[test]
    fn volunteers_cost_nothing() {
        let (mut r, mut ledger, mut auth) = setup();
        let id = r
            .post(
                &ledger,
                "alice",
                Marketplace::Volunteer,
                "try the new browser",
                "node1",
                "d",
                SimDuration::from_secs(600),
                0.0,
            )
            .unwrap();
        r.accept(&mut auth, id, "friendly-phd").unwrap();
        r.submit(id).unwrap();
        r.approve(&mut ledger, id).unwrap();
        assert_eq!(
            ledger.balance("alice").unwrap(),
            crate::credits::WELCOME_GRANT
        );
    }
}
