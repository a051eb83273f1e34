//! Automation scripts.
//!
//! Experimenters "create jobs in their favourite programming language"
//! (§3.1); the portable core is a sequence of device-facing actions. A
//! [`Script`] is that sequence — serialisable, so the access server can
//! ship it to a vantage point, and backend-agnostic, so the same script
//! runs over ADB, UI tests or the Bluetooth keyboard (§3.3).

use batterylab_sim::SimDuration;
use serde::Serialize;

/// Scroll direction, as in the paper's "scroll up"/"scroll down"
/// interactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum ScrollDir {
    /// Content moves up (finger swipes up).
    Down,
    /// Content moves down.
    Up,
}

/// One automation step.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum Action {
    /// Start an app by package name.
    LaunchApp(String),
    /// `am force-stop`.
    ForceStop(String),
    /// `pm clear` — the workload's state-cleaning step.
    ClearAppData(String),
    /// Focus the address bar, type `url`, submit.
    EnterUrl(String),
    /// One scroll gesture.
    Scroll(ScrollDir),
    /// Raw key event (Android keycode).
    KeyEvent(u32),
    /// Idle dwell (the paper waits 6 s per page).
    Wait(SimDuration),
    /// Free-text annotation, recorded in the device log.
    Note(String),
}

/// A named, ordered list of actions.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct Script {
    /// Human-readable name (job display).
    pub name: String,
    /// The steps.
    pub actions: Vec<Action>,
}

impl Script {
    /// An empty script.
    pub fn new(name: &str) -> Self {
        Script {
            name: name.to_string(),
            actions: Vec::new(),
        }
    }

    /// Append an action (builder style).
    pub fn then(mut self, action: Action) -> Self {
        self.actions.push(action);
        self
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// True when no steps.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// The paper's §4.2 per-browser workload: clean state, launch, then
    /// for each URL enter it, dwell 6 s, and scroll down/up repeatedly.
    pub fn browser_workload(package: &str, urls: &[&str], scrolls_per_page: usize) -> Script {
        let mut script = Script::new(&format!("browser-workload/{package}"))
            .then(Action::ForceStop(package.to_string()))
            .then(Action::ClearAppData(package.to_string()))
            .then(Action::LaunchApp(package.to_string()));
        for url in urls {
            script = script.then(Action::EnterUrl(url.to_string()));
            script = script.then(Action::Wait(SimDuration::from_secs(6)));
            for i in 0..scrolls_per_page {
                let dir = if i % 2 == 0 {
                    ScrollDir::Down
                } else {
                    ScrollDir::Up
                };
                script = script.then(Action::Scroll(dir));
            }
        }
        script.then(Action::ForceStop(package.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_order() {
        let s = Script::new("t")
            .then(Action::LaunchApp("a".into()))
            .then(Action::Wait(SimDuration::from_secs(1)));
        assert_eq!(s.len(), 2);
        assert_eq!(s.actions[0], Action::LaunchApp("a".into()));
    }

    #[test]
    fn browser_workload_structure() {
        let s =
            Script::browser_workload("com.brave.browser", &["https://a.com", "https://b.com"], 4);
        // stop + clear + launch + 2×(url + wait + 4 scrolls) + stop
        assert_eq!(s.len(), 3 + 2 * 6 + 1);
        assert!(matches!(s.actions[0], Action::ForceStop(_)));
        assert!(matches!(s.actions[1], Action::ClearAppData(_)));
        assert!(matches!(s.actions[2], Action::LaunchApp(_)));
        // Scrolls alternate.
        assert_eq!(s.actions[5], Action::Scroll(ScrollDir::Down));
        assert_eq!(s.actions[6], Action::Scroll(ScrollDir::Up));
    }
}
