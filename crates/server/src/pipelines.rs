//! Pipeline definitions with administrator approval (§3.1): "Only the
//! experimenters that have been granted access to the platform can
//! create, edit or run jobs and **every pipeline change has to be
//! approved by an administrator**."
//!
//! A pipeline is a named, versioned experiment definition. Creating or
//! editing one produces a *pending revision*; only after an admin
//! approves does the revision become runnable. Running always uses the
//! latest approved revision, so an experimenter cannot sneak unreviewed
//! steps onto a member's hardware.

use crate::jobs::ExperimentSpec;

/// A revision's review state.
#[derive(Clone, Debug, PartialEq)]
pub enum ReviewState {
    /// Waiting for an admin.
    Pending,
    /// Approved by the named admin.
    Approved {
        /// Reviewer.
        by: String,
    },
    /// Rejected with a reason.
    Rejected {
        /// Reviewer.
        by: String,
        /// Why.
        reason: String,
    },
}

/// One revision of a pipeline.
#[derive(Clone, Debug)]
pub struct Revision {
    /// Monotonic revision number within the pipeline.
    pub number: u32,
    /// Who submitted it.
    pub author: String,
    /// The experiment definition.
    pub spec: ExperimentSpec,
    /// Review state.
    pub state: ReviewState,
}

/// A named pipeline with its revision history.
#[derive(Clone, Debug)]
pub struct Pipeline {
    /// Unique name.
    pub name: String,
    /// All revisions, oldest first.
    pub revisions: Vec<Revision>,
}

impl Pipeline {
    /// The latest approved revision, if any.
    pub fn approved(&self) -> Option<&Revision> {
        self.revisions
            .iter()
            .rev()
            .find(|r| matches!(r.state, ReviewState::Approved { .. }))
    }

    /// The latest pending revision, if any.
    pub fn pending(&self) -> Option<&Revision> {
        self.revisions
            .iter()
            .rev()
            .find(|r| r.state == ReviewState::Pending)
    }
}

/// Pipeline-store failures.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// Unknown pipeline.
    NoSuchPipeline(String),
    /// No revision in the expected state.
    NothingToReview(String),
    /// No approved revision to run.
    NotApproved(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::NoSuchPipeline(n) => write!(f, "no such pipeline {n}"),
            PipelineError::NothingToReview(n) => write!(f, "{n} has no pending revision"),
            PipelineError::NotApproved(n) => {
                write!(f, "{n} has no approved revision — ask an administrator")
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The store.
#[derive(Default)]
pub struct PipelineStore {
    pipelines: Vec<Pipeline>,
}

impl PipelineStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn find_mut(&mut self, name: &str) -> Option<&mut Pipeline> {
        self.pipelines.iter_mut().find(|p| p.name == name)
    }

    /// Look up a pipeline.
    pub fn pipeline(&self, name: &str) -> Option<&Pipeline> {
        self.pipelines.iter().find(|p| p.name == name)
    }

    /// Propose a create-or-edit: appends a pending revision.
    pub fn propose(&mut self, name: &str, author: &str, spec: ExperimentSpec) -> u32 {
        let pipeline = match self.find_mut(name) {
            Some(p) => p,
            None => {
                self.pipelines.push(Pipeline {
                    name: name.to_string(),
                    revisions: Vec::new(),
                });
                self.pipelines.last_mut().expect("just pushed")
            }
        };
        let number = pipeline.revisions.len() as u32 + 1;
        pipeline.revisions.push(Revision {
            number,
            author: author.to_string(),
            spec,
            state: ReviewState::Pending,
        });
        number
    }

    /// Admin approves the latest pending revision.
    pub fn approve(&mut self, name: &str, admin: &str) -> Result<u32, PipelineError> {
        let pipeline = self
            .find_mut(name)
            .ok_or_else(|| PipelineError::NoSuchPipeline(name.to_string()))?;
        let revision = pipeline
            .revisions
            .iter_mut()
            .rev()
            .find(|r| r.state == ReviewState::Pending)
            .ok_or_else(|| PipelineError::NothingToReview(name.to_string()))?;
        revision.state = ReviewState::Approved {
            by: admin.to_string(),
        };
        Ok(revision.number)
    }

    /// Admin rejects the latest pending revision.
    pub fn reject(&mut self, name: &str, admin: &str, reason: &str) -> Result<u32, PipelineError> {
        let pipeline = self
            .find_mut(name)
            .ok_or_else(|| PipelineError::NoSuchPipeline(name.to_string()))?;
        let revision = pipeline
            .revisions
            .iter_mut()
            .rev()
            .find(|r| r.state == ReviewState::Pending)
            .ok_or_else(|| PipelineError::NothingToReview(name.to_string()))?;
        revision.state = ReviewState::Rejected {
            by: admin.to_string(),
            reason: reason.to_string(),
        };
        Ok(revision.number)
    }

    /// The spec a run must use: the latest **approved** revision.
    pub fn runnable(&self, name: &str) -> Result<&ExperimentSpec, PipelineError> {
        let pipeline = self
            .pipeline(name)
            .ok_or_else(|| PipelineError::NoSuchPipeline(name.to_string()))?;
        pipeline
            .approved()
            .map(|r| &r.spec)
            .ok_or_else(|| PipelineError::NotApproved(name.to_string()))
    }

    /// Pipelines with a pending revision (the admin's review queue).
    pub fn review_queue(&self) -> Vec<&Pipeline> {
        self.pipelines
            .iter()
            .filter(|p| p.pending().is_some())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_automation::Script;

    fn spec(urls: &[&str]) -> ExperimentSpec {
        ExperimentSpec::measured(
            "dev-1",
            Script::browser_workload("com.brave.browser", urls, 2),
        )
    }

    #[test]
    fn create_requires_approval_before_running() {
        let mut store = PipelineStore::new();
        store.propose("browser-energy", "alice", spec(&["https://a.com"]));
        assert!(matches!(
            store.runnable("browser-energy"),
            Err(PipelineError::NotApproved(_))
        ));
        assert_eq!(store.review_queue().len(), 1);
        store.approve("browser-energy", "admin").unwrap();
        assert!(store.runnable("browser-energy").is_ok());
        assert!(store.review_queue().is_empty());
    }

    #[test]
    fn edits_run_the_old_version_until_approved() {
        let mut store = PipelineStore::new();
        store.propose("p", "alice", spec(&["https://v1.com"]));
        store.approve("p", "admin").unwrap();
        // Alice edits: adds a sneaky extra URL.
        store.propose(
            "p",
            "alice",
            spec(&["https://v1.com", "https://sneaky.example"]),
        );
        // Runs still use revision 1.
        let v1_len = store.runnable("p").unwrap().script.actions.len();
        assert_eq!(v1_len, spec(&["https://v1.com"]).script.actions.len());
        // Approval switches to revision 2.
        store.approve("p", "admin").unwrap();
        assert!(store.runnable("p").unwrap().script.actions.len() > v1_len);
    }

    #[test]
    fn rejection_leaves_last_approved_in_force() {
        let mut store = PipelineStore::new();
        store.propose("p", "alice", spec(&["https://good.com"]));
        store.approve("p", "admin").unwrap();
        store.propose("p", "mallory", spec(&["https://evil.example"]));
        store
            .reject("p", "admin", "unreviewed external target")
            .unwrap();
        let running = store.runnable("p").unwrap();
        let has_evil = running
            .script
            .actions
            .iter()
            .any(|a| format!("{a:?}").contains("evil"));
        assert!(!has_evil);
    }

    #[test]
    fn review_errors() {
        let mut store = PipelineStore::new();
        assert!(matches!(
            store.approve("ghost", "admin"),
            Err(PipelineError::NoSuchPipeline(_))
        ));
        store.propose("p", "alice", spec(&["https://a.com"]));
        store.approve("p", "admin").unwrap();
        assert!(matches!(
            store.approve("p", "admin"),
            Err(PipelineError::NothingToReview(_))
        ));
    }

    #[test]
    fn revision_numbers_are_monotonic() {
        let mut store = PipelineStore::new();
        assert_eq!(store.propose("p", "a", spec(&["https://1.com"])), 1);
        assert_eq!(store.propose("p", "a", spec(&["https://2.com"])), 2);
        assert_eq!(store.propose("p", "a", spec(&["https://3.com"])), 3);
        let pipeline = store.pipeline("p").unwrap();
        assert_eq!(pipeline.revisions.len(), 3);
    }
}
