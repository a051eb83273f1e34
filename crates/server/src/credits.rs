//! The credit system (§5): "our vision is an open source and open access
//! platform that users can join by sharing resources. However, we
//! anticipate potential access via a credit system for experimenters
//! lacking the resources for the initial setup."
//!
//! The exchange rate is the PlanetLab-style bargain the paper's §1
//! describes: members *earn* credits by keeping vantage points online,
//! and *spend* credits for device-time on other members' hardware.

use std::collections::BTreeMap;

use batterylab_sim::SimDuration;

/// Credits earned per node-hour of availability.
pub const EARN_PER_NODE_HOUR: f64 = 10.0;
/// Credits charged per device-minute of experiment time.
pub const CHARGE_PER_DEVICE_MINUTE: f64 = 1.0;
/// Starting grant for a new experimenter (enough to try the platform).
pub const WELCOME_GRANT: f64 = 30.0;

/// Credit-system failures.
#[derive(Clone, Debug, PartialEq)]
pub enum CreditError {
    /// The account would go negative.
    InsufficientCredits {
        /// Account holder.
        user: String,
        /// Current balance.
        balance: f64,
        /// Requested charge.
        needed: f64,
    },
    /// Unknown account.
    NoSuchAccount(String),
    /// A transfer amount that is negative, infinite or NaN.
    InvalidAmount(f64),
}

impl std::fmt::Display for CreditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CreditError::InsufficientCredits {
                user,
                balance,
                needed,
            } => write!(
                f,
                "{user} has {balance:.1} credits, needs {needed:.1} — host a vantage point to earn more"
            ),
            CreditError::NoSuchAccount(u) => write!(f, "no credit account for {u}"),
            CreditError::InvalidAmount(a) => write!(f, "cannot transfer {a} credits"),
        }
    }
}

impl std::error::Error for CreditError {}

/// One ledger entry, for the audit trail.
#[derive(Clone, Debug, PartialEq)]
pub struct LedgerEntry {
    /// Account affected.
    pub user: String,
    /// Signed amount (+earn, −spend).
    pub amount: f64,
    /// Why.
    pub reason: String,
}

/// The platform's credit ledger.
#[derive(Clone, Debug, Default)]
pub struct CreditLedger {
    pub(crate) balances: BTreeMap<String, f64>,
    pub(crate) history: Vec<LedgerEntry>,
}

impl CreditLedger {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open an account with the welcome grant.
    pub fn open_account(&mut self, user: &str) {
        if !self.balances.contains_key(user) {
            self.balances.insert(user.to_string(), WELCOME_GRANT);
            self.history.push(LedgerEntry {
                user: user.to_string(),
                amount: WELCOME_GRANT,
                reason: "welcome grant".to_string(),
            });
        }
    }

    /// Current balance.
    pub fn balance(&self, user: &str) -> Result<f64, CreditError> {
        self.balances
            .get(user)
            .copied()
            .ok_or_else(|| CreditError::NoSuchAccount(user.to_string()))
    }

    /// Credit a node owner for availability.
    pub fn earn_hosting(&mut self, owner: &str, node: &str, online: SimDuration) {
        self.open_account(owner);
        let amount = EARN_PER_NODE_HOUR * online.as_secs_f64() / 3600.0;
        *self.balances.get_mut(owner).expect("opened") += amount;
        self.history.push(LedgerEntry {
            user: owner.to_string(),
            amount,
            reason: format!("hosting {node} for {online}"),
        });
    }

    /// What a run of `device_time` costs.
    pub fn cost_of(device_time: SimDuration) -> f64 {
        CHARGE_PER_DEVICE_MINUTE * device_time.as_secs_f64() / 60.0
    }

    /// Check the account can afford `device_time` (pre-dispatch gate).
    /// An account not yet opened is checked against the welcome grant it
    /// opens with.
    pub fn check_affordable(
        &self,
        user: &str,
        device_time: SimDuration,
    ) -> Result<(), CreditError> {
        let balance = self.balance(user).unwrap_or(WELCOME_GRANT);
        let needed = Self::cost_of(device_time);
        if balance < needed {
            return Err(CreditError::InsufficientCredits {
                user: user.to_string(),
                balance,
                needed,
            });
        }
        Ok(())
    }

    /// Charge for a completed run. Never drives a balance below zero by
    /// more than the overrun of an approved job.
    pub fn charge_experiment(
        &mut self,
        user: &str,
        job: &str,
        device_time: SimDuration,
    ) -> Result<f64, CreditError> {
        let amount = Self::cost_of(device_time);
        let balance = self
            .balances
            .get_mut(user)
            .ok_or_else(|| CreditError::NoSuchAccount(user.to_string()))?;
        *balance -= amount;
        self.history.push(LedgerEntry {
            user: user.to_string(),
            amount: -amount,
            reason: format!("job {job} ({device_time} of device time)"),
        });
        Ok(amount)
    }

    /// Check `from` can pay out `amount`: a finite, non-negative amount
    /// within its balance.
    pub fn check_transfer(&self, from: &str, amount: f64) -> Result<(), CreditError> {
        if !(amount.is_finite() && amount >= 0.0) {
            return Err(CreditError::InvalidAmount(amount));
        }
        let balance = self.balance(from)?;
        if balance < amount {
            return Err(CreditError::InsufficientCredits {
                user: from.to_string(),
                balance,
                needed: amount,
            });
        }
        Ok(())
    }

    /// Transfer credits (paying a recruited tester), as
    /// [`Self::check_transfer`] allows.
    pub fn transfer(
        &mut self,
        from: &str,
        to: &str,
        amount: f64,
        reason: &str,
    ) -> Result<(), CreditError> {
        self.check_transfer(from, amount)?;
        self.open_account(to);
        *self.balances.get_mut(from).expect("checked") -= amount;
        *self.balances.get_mut(to).expect("opened") += amount;
        self.history.push(LedgerEntry {
            user: from.to_string(),
            amount: -amount,
            reason: format!("transfer to {to}: {reason}"),
        });
        self.history.push(LedgerEntry {
            user: to.to_string(),
            amount,
            reason: format!("transfer from {from}: {reason}"),
        });
        Ok(())
    }

    /// The audit trail.
    pub fn history(&self) -> &[LedgerEntry] {
        &self.history
    }

    /// Every credit debited so far (experiment charges and outgoing
    /// transfers), summed in history order. An empty sum is `-0.0`.
    pub fn debited(&self) -> f64 {
        self.history
            .iter()
            .filter(|e| e.amount < 0.0)
            .map(|e| -e.amount)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welcome_grant_once() {
        let mut l = CreditLedger::new();
        l.open_account("alice");
        l.open_account("alice");
        assert_eq!(l.balance("alice").unwrap(), WELCOME_GRANT);
    }

    #[test]
    fn hosting_earns_spending_burns() {
        let mut l = CreditLedger::new();
        l.earn_hosting("imperial", "node1", SimDuration::from_secs(3600));
        assert!((l.balance("imperial").unwrap() - (WELCOME_GRANT + 10.0)).abs() < 1e-9);
        l.charge_experiment("imperial", "j1", SimDuration::from_secs(600))
            .unwrap();
        // 10 minutes = 10 credits.
        assert!((l.balance("imperial").unwrap() - (WELCOME_GRANT + 10.0 - 10.0)).abs() < 1e-9);
    }

    #[test]
    fn affordability_gate() {
        let mut l = CreditLedger::new();
        l.open_account("alice"); // 30 credits
        assert!(l
            .check_affordable("alice", SimDuration::from_secs(29 * 60))
            .is_ok());
        let err = l
            .check_affordable("alice", SimDuration::from_secs(31 * 60))
            .unwrap_err();
        assert!(matches!(err, CreditError::InsufficientCredits { .. }));
    }

    #[test]
    fn transfers_pay_testers() {
        let mut l = CreditLedger::new();
        l.open_account("alice");
        l.transfer("alice", "turker-1", 5.0, "usability HIT")
            .unwrap();
        assert_eq!(l.balance("alice").unwrap(), WELCOME_GRANT - 5.0);
        assert_eq!(l.balance("turker-1").unwrap(), WELCOME_GRANT + 5.0);
        assert!(l.transfer("alice", "turker-1", 1000.0, "too much").is_err());
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                l.transfer("alice", "turker-1", bad, "bad"),
                Err(CreditError::InvalidAmount(_))
            ));
        }
        assert_eq!(l.history().len(), 4, "refused transfers leave no entry");
    }

    #[test]
    fn unknown_accounts_error() {
        let l = CreditLedger::new();
        assert!(matches!(
            l.balance("ghost"),
            Err(CreditError::NoSuchAccount(_))
        ));
    }

    #[test]
    fn audit_trail_records_everything() {
        let mut l = CreditLedger::new();
        l.open_account("alice");
        l.earn_hosting("alice", "node1", SimDuration::from_secs(1800));
        l.charge_experiment("alice", "j1", SimDuration::from_secs(60))
            .unwrap();
        assert_eq!(l.history().len(), 3);
        let net: f64 = l
            .history()
            .iter()
            .filter(|e| e.user == "alice")
            .map(|e| e.amount)
            .sum();
        assert!(
            (net - l.balance("alice").unwrap()).abs() < 1e-9,
            "ledger balances"
        );
    }
}
