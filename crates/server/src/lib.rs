//! # batterylab-server
//!
//! The BatteryLab access server (§3.1): account directory with the
//! role-based authorization matrix ([`auth`]), vantage-point registry with
//! DNS and wildcard-certificate management ([`registry`]), the SSH channel
//! to controllers ([`ssh`]), the job model and build queue with
//! constraint-aware dispatch and workspace retention ([`jobs`],
//! [`scheduler`]), the maintenance jobs the paper lists ([`maintenance`]),
//! and the [`AccessServer`] facade tying it together — BatteryLab's
//! Jenkins, rebuilt.

#![warn(missing_docs)]

mod access;
pub mod auth;
pub mod credits;
pub mod jobs;
pub mod maintenance;
pub mod pipelines;
pub mod recruitment;
pub mod registry;
pub mod remote;
pub mod scheduler;
pub mod slots;
pub mod ssh;
pub mod supervise;
mod vantage_exec;
pub mod wal;

pub use access::{AccessServer, ServerError};
pub use auth::{allows, AuthError, AuthService, Permission, Role, Session};
pub use credits::{CreditError, CreditLedger, LedgerEntry};
pub use jobs::{
    Artifact, BuildRecord, BuildState, Constraints, ExperimentSpec, JobId, Payload, QueuedJob,
};
pub use maintenance::MaintenanceReport;
pub use pipelines::{Pipeline, PipelineError, PipelineStore, ReviewState, Revision};
pub use recruitment::{Marketplace, RecruitError, Recruitment, TaskState, UsabilityTask};
pub use registry::{Certificate, NodeRecord, NodeRegistry, RegistryError, CERT_LIFETIME};
pub use remote::ControllerShell;
pub use scheduler::{Scheduler, DEFAULT_RETENTION};
pub use slots::{Slot, SlotCalendar, SlotError};
pub use ssh::{CommandHandler, SshClient, SshError, SshServer, SshSession};
pub use supervise::{BreakerState, CircuitBreaker, RetryPolicy, Supervisor};
pub use vantage_exec::{open_automation, run_experiment, JobOutcome};
pub use wal::{ChargeRecord, WalRecord};
