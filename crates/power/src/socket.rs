//! WiFi smart power socket (Meross-style).
//!
//! The controller cannot leave the Monsoon energised around the clock —
//! the paper keeps it powered only when an experiment needs it ("for
//! safety reasons") and drives a Meross WiFi socket through its LAN API.
//! This is that socket: a small stateful appliance with the Meross
//! `togglex` semantics, reachability faults, and an actuation counter the
//! maintenance jobs can audit.
//!
//! Reachability faults come from the platform-wide [`FaultInjector`]:
//! attach one with [`PowerSocket::set_faults`] and schedule
//! `SocketUnreachable` specs against the socket's site label.

use batterylab_faults::{FaultInjector, FaultKind};
use batterylab_sim::{SimDuration, SimTime};

/// Errors from the socket's LAN API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SocketError {
    /// The socket did not answer (WiFi trouble) — commands may be retried.
    Unreachable,
}

impl std::fmt::Display for SocketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketError::Unreachable => write!(f, "power socket unreachable"),
        }
    }
}

impl std::error::Error for SocketError {}

/// Current state reported by the socket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketState {
    /// Relay closed, mains delivered.
    On,
    /// Relay open.
    Off,
}

/// A Meross-style WiFi power socket.
#[derive(Clone, Debug)]
pub struct PowerSocket {
    state: SocketState,
    toggles: u32,
    last_change: Option<SimTime>,
    /// Platform fault plan; `SocketUnreachable` specs at `site` make
    /// commands fail. Disabled (never fires) by default.
    faults: FaultInjector,
    /// Site label commands are checked under (scoped per node by the
    /// controller, e.g. `node1.power.socket`).
    site: String,
    /// Actuation latency of the relay + LAN round trip.
    actuation: SimDuration,
}

impl PowerSocket {
    /// A reachable socket, initially off.
    pub fn new() -> Self {
        PowerSocket {
            state: SocketState::Off,
            toggles: 0,
            last_change: None,
            faults: FaultInjector::disabled(),
            site: batterylab_faults::site::POWER_SOCKET.to_string(),
            actuation: SimDuration::from_millis(180),
        }
    }

    /// Current relay state.
    pub fn state(&self) -> SocketState {
        self.state
    }

    /// True when mains is delivered.
    pub fn is_on(&self) -> bool {
        self.state == SocketState::On
    }

    /// Lifetime actuation count.
    pub fn toggles(&self) -> u32 {
        self.toggles
    }

    /// Instant of the last successful state change.
    pub fn last_change(&self) -> Option<SimTime> {
        self.last_change
    }

    /// Typical command latency (LAN round trip + relay).
    pub fn actuation_delay(&self) -> SimDuration {
        self.actuation
    }

    /// Consult `injector` for `SocketUnreachable` faults under `site`.
    pub fn set_faults(&mut self, injector: &FaultInjector, site: &str) {
        self.faults = injector.clone();
        self.site = site.to_string();
    }

    /// The site label fault specs must target to hit this socket.
    pub fn fault_site(&self) -> &str {
        &self.site
    }

    /// The Meross `togglex` command: set the relay to `on`.
    /// Idempotent; returns the resulting state.
    pub fn togglex(&mut self, now: SimTime, on: bool) -> Result<SocketState, SocketError> {
        if self
            .faults
            .check(&self.site, FaultKind::SocketUnreachable, now)
        {
            return Err(SocketError::Unreachable);
        }
        let target = if on {
            SocketState::On
        } else {
            SocketState::Off
        };
        if self.state != target {
            self.state = target;
            self.toggles += 1;
            self.last_change = Some(now + self.actuation);
        }
        Ok(self.state)
    }

    /// Query state over the LAN (can also fail when unreachable).
    pub fn query(&mut self, now: SimTime) -> Result<SocketState, SocketError> {
        if self
            .faults
            .check(&self.site, FaultKind::SocketUnreachable, now)
        {
            return Err(SocketError::Unreachable);
        }
        Ok(self.state)
    }
}

impl Default for PowerSocket {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toggle_on_off() {
        let mut s = PowerSocket::new();
        assert!(!s.is_on());
        s.togglex(SimTime::ZERO, true).unwrap();
        assert!(s.is_on());
        s.togglex(SimTime::from_secs(1), false).unwrap();
        assert!(!s.is_on());
        assert_eq!(s.toggles(), 2);
    }

    #[test]
    fn togglex_is_idempotent() {
        let mut s = PowerSocket::new();
        s.togglex(SimTime::ZERO, true).unwrap();
        s.togglex(SimTime::from_secs(1), true).unwrap();
        assert_eq!(s.toggles(), 1, "no-op toggles don't actuate the relay");
    }

    #[test]
    fn unreachable_fault_then_recovery() {
        use batterylab_faults::FaultPlan;
        let mut s = PowerSocket::new();
        let plan = FaultPlan::new().next_n(s.fault_site(), FaultKind::SocketUnreachable, 2);
        let injector = FaultInjector::new(&plan, 1);
        let site = s.fault_site().to_string();
        s.set_faults(&injector, &site);
        assert_eq!(
            s.togglex(SimTime::ZERO, true),
            Err(SocketError::Unreachable)
        );
        assert_eq!(s.query(SimTime::ZERO), Err(SocketError::Unreachable));
        // Third attempt succeeds — retry loops in the controller rely on this.
        assert_eq!(s.togglex(SimTime::ZERO, true), Ok(SocketState::On));
        assert_eq!(injector.injected(), 2);
    }

    #[test]
    fn last_change_includes_actuation_latency() {
        let mut s = PowerSocket::new();
        s.togglex(SimTime::from_secs(10), true).unwrap();
        let change = s.last_change().unwrap();
        assert!(change > SimTime::from_secs(10));
        assert_eq!(change, SimTime::from_secs(10) + s.actuation_delay());
    }
}
