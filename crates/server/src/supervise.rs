//! Supervised recovery for the access server: retry policies with capped
//! exponential backoff and seeded jitter, a circuit breaker per
//! vantage-point channel, and heartbeat probes that consult the platform
//! fault plan — the layer that keeps the build queue honest while faults
//! fire underneath it.
//!
//! Design rules it enforces for the dispatcher:
//! - a failed job backs off (`not_before`) instead of hot-looping;
//! - a node that keeps failing trips its breaker and receives no new
//!   placements until the open window lapses and a probe succeeds;
//! - credit accounting is untouched by any of this — billing only ever
//!   charges successful runs, so requeues are free.

use std::collections::BTreeMap;

use batterylab_faults::{scoped_site, site, FaultInjector, FaultKind};
use batterylab_sim::{SimDuration, SimRng, SimTime};
use batterylab_telemetry::Registry;

/// Capped exponential backoff with seeded jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// First backoff interval.
    pub base: SimDuration,
    /// Backoff never exceeds this.
    pub cap: SimDuration,
    /// Total attempts allowed (first try included).
    pub max_attempts: u32,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl RetryPolicy {
    /// A policy with the given shape.
    pub fn new(base: SimDuration, cap: SimDuration, max_attempts: u32, jitter: f64) -> Self {
        RetryPolicy {
            base,
            cap,
            max_attempts,
            jitter: jitter.clamp(0.0, 0.999),
        }
    }

    /// The default supervision policy: 1 s base doubling to a 60 s cap,
    /// five attempts, ±20 % jitter.
    pub fn default_supervision() -> Self {
        RetryPolicy::new(
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
            5,
            0.2,
        )
    }

    /// Backoff to wait before retry number `attempt` (1 = first retry),
    /// or `None` when the attempt budget is spent. Deterministic given
    /// the rng state.
    pub fn backoff(&self, attempt: u32, rng: &mut SimRng) -> Option<SimDuration> {
        if attempt >= self.max_attempts {
            return None;
        }
        let exp = self.base.as_secs_f64() * 2f64.powi(attempt.saturating_sub(1) as i32);
        let capped = exp.min(self.cap.as_secs_f64());
        let factor = 1.0 + self.jitter * (rng.unit() * 2.0 - 1.0);
        Some(SimDuration::from_secs_f64((capped * factor).max(0.0)))
    }
}

/// Circuit-breaker states (the classic three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests blocked until the open window lapses.
    Open,
    /// Open window lapsed: one probe may pass; its outcome decides.
    HalfOpen,
}

/// A circuit breaker guarding one vantage-point channel.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    consecutive_failures: u32,
    threshold: u32,
    open_for: SimDuration,
    opened_at: SimTime,
}

impl CircuitBreaker {
    /// Trips after `threshold` consecutive failures; stays open for
    /// `open_for` before allowing a half-open probe.
    pub fn new(threshold: u32, open_for: SimDuration) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
            open_for,
            opened_at: SimTime::ZERO,
        }
    }

    /// Current state (transitions happen in [`Self::allow`]).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a request may proceed at `now`. An open breaker whose
    /// window has lapsed moves to half-open and lets one probe through.
    pub fn allow(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now >= self.opened_at + self.open_for {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// A request succeeded: close and reset the failure streak.
    pub fn record_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// A request failed at `now`; trips the breaker when the streak
    /// reaches the threshold (or immediately from half-open).
    pub fn record_failure(&mut self, now: SimTime) {
        self.consecutive_failures += 1;
        if self.state == BreakerState::HalfOpen || self.consecutive_failures >= self.threshold {
            self.state = BreakerState::Open;
            self.opened_at = now;
        }
    }

    /// The current failure streak.
    pub(crate) fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// When the breaker last opened (`ZERO` if it never has).
    pub(crate) fn opened_at(&self) -> SimTime {
        self.opened_at
    }

    /// When an open breaker will admit a half-open probe; `None` unless
    /// currently open.
    pub fn reopens_at(&self) -> Option<SimTime> {
        (self.state == BreakerState::Open).then(|| self.opened_at + self.open_for)
    }
}

/// Per-node supervision: breakers, backoff, heartbeat probes.
pub struct Supervisor {
    policy: RetryPolicy,
    breakers: BTreeMap<String, CircuitBreaker>,
    breaker_threshold: u32,
    breaker_open_for: SimDuration,
    rng: SimRng,
    registry: Registry,
    faults: FaultInjector,
}

impl Supervisor {
    /// A supervisor with the default policy, seeded for jitter.
    pub fn new(seed: u64) -> Self {
        Supervisor {
            policy: RetryPolicy::default_supervision(),
            breakers: BTreeMap::new(),
            breaker_threshold: 3,
            breaker_open_for: SimDuration::from_secs(30),
            rng: SimRng::new(seed).derive("supervisor"),
            registry: Registry::default(),
            faults: FaultInjector::disabled(),
        }
    }

    /// The retry policy in force.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// Report `supervisor.*` metrics (node-scoped) into `registry`.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.registry = registry.clone();
    }

    /// Consult `injector` for `NodeReboot` windows during heartbeats.
    pub fn attach_faults(&mut self, injector: &FaultInjector) {
        self.faults = injector.clone();
    }

    fn breaker(&mut self, node: &str) -> &mut CircuitBreaker {
        let threshold = self.breaker_threshold;
        let open_for = self.breaker_open_for;
        self.breakers
            .entry(node.to_string())
            .or_insert_with(|| CircuitBreaker::new(threshold, open_for))
    }

    /// Every breaker touched so far, in node order.
    pub(crate) fn breakers(&self) -> impl Iterator<Item = (&str, &CircuitBreaker)> {
        self.breakers.iter().map(|(node, b)| (node.as_str(), b))
    }

    /// Restore a snapshot's breaker for `node`, with no trip counted.
    pub(crate) fn restore_breaker(
        &mut self,
        node: &str,
        state: BreakerState,
        consecutive_failures: u32,
        opened_at: SimTime,
    ) {
        let breaker = self.breaker(node);
        breaker.state = state;
        breaker.consecutive_failures = consecutive_failures;
        breaker.opened_at = opened_at;
    }

    /// The breaker state of `node` (`Closed` when never touched).
    pub fn breaker_state(&self, node: &str) -> BreakerState {
        self.breakers
            .get(node)
            .map(|b| b.state())
            .unwrap_or(BreakerState::Closed)
    }

    /// Whether the dispatcher may place work on `node` at `now`.
    pub fn node_available(&mut self, node: &str, now: SimTime) -> bool {
        let allowed = self.breaker(node).allow(now);
        if !allowed {
            self.registry
                .scoped(node)
                .counter("supervisor.breaker_blocks")
                .inc();
        }
        allowed
    }

    /// A job on `node` completed fine.
    pub fn record_success(&mut self, node: &str) {
        self.breaker(node).record_success();
    }

    /// The earliest instant any open breaker will admit a half-open
    /// probe, if one is open.
    pub fn next_breaker_reopen(&self) -> Option<SimTime> {
        self.breakers.values().filter_map(|b| b.reopens_at()).min()
    }

    /// A job on `node` failed at `now`; journals a trip when the breaker
    /// opens.
    pub fn record_failure(&mut self, node: &str, now: SimTime) {
        let was_open = self.breaker_state(node) == BreakerState::Open;
        self.breaker(node).record_failure(now);
        self.registry
            .scoped(node)
            .counter("supervisor.failures")
            .inc();
        if !was_open && self.breaker_state(node) == BreakerState::Open {
            self.registry
                .scoped(node)
                .counter("supervisor.breaker_trips")
                .inc();
            self.registry.clock().advance_to(now.as_micros());
            self.registry
                .event("supervisor.breaker_open", format!("{node} at {now}"));
        }
    }

    /// Backoff before retry `attempt` of a job on `node`, with seeded
    /// jitter drawn from a stream derived per `(node, attempt)` so the
    /// schedule is independent of inter-node call order.
    pub fn retry_backoff(&self, node: &str, attempt: u32) -> Option<SimDuration> {
        let mut rng = self.rng.derive(&format!("backoff/{node}/{attempt}"));
        let backoff = self.policy.backoff(attempt, &mut rng);
        if backoff.is_some() {
            self.registry
                .scoped(node)
                .counter("supervisor.retries")
                .inc();
        }
        backoff
    }

    /// Probe `node`'s health at `now`: false while a `NodeReboot` fault
    /// window covers `now` at site `<node>.node`. Decide-only: the access
    /// server logs the outcome and applies it with [`Self::apply_probe`].
    pub fn heartbeat_probe(&self, node: &str, now: SimTime) -> bool {
        !self
            .faults
            .window_active(&scoped_site(node, site::NODE), FaultKind::NodeReboot, now)
    }

    /// Apply a decided heartbeat outcome: unhealthy probes count as
    /// breaker failures; healthy ones close the breaker. Live probes and
    /// WAL replay both land here, so replay never consults the fault
    /// plan a second time.
    pub fn apply_probe(&mut self, node: &str, healthy: bool, now: SimTime) {
        let scoped = self.registry.scoped(node);
        scoped.counter("supervisor.heartbeats").inc();
        if healthy {
            self.record_success(node);
        } else {
            scoped.counter("supervisor.unhealthy_probes").inc();
            self.registry.clock().advance_to(now.as_micros());
            self.registry
                .event("supervisor.node_unhealthy", format!("{node} at {now}"));
            self.record_failure(node, now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_faults::FaultPlan;

    #[test]
    fn backoff_doubles_caps_and_exhausts() {
        let policy = RetryPolicy::new(SimDuration::from_secs(1), SimDuration::from_secs(8), 5, 0.0);
        let mut rng = SimRng::new(1);
        let waits: Vec<f64> = (1..5)
            .map(|a| policy.backoff(a, &mut rng).unwrap().as_secs_f64())
            .collect();
        assert_eq!(waits, vec![1.0, 2.0, 4.0, 8.0]);
        assert!(policy.backoff(5, &mut rng).is_none(), "budget spent");
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let policy = RetryPolicy::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(60),
            9,
            0.2,
        );
        let draw = |seed: u64| {
            let mut rng = SimRng::new(seed);
            policy.backoff(1, &mut rng).unwrap().as_secs_f64()
        };
        assert_eq!(draw(7), draw(7), "same seed, same jitter");
        let w = draw(7);
        assert!((8.0..=12.0).contains(&w), "within ±20%: {w}");
    }

    #[test]
    fn breaker_trips_half_opens_and_recovers() {
        let mut b = CircuitBreaker::new(2, SimDuration::from_secs(10));
        let t0 = SimTime::ZERO;
        assert!(b.allow(t0));
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure(t0);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(SimTime::from_secs(5)), "open window holds");
        // Window lapsed: one half-open probe.
        assert!(b.allow(SimTime::from_secs(10)));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe fails: straight back to open.
        b.record_failure(SimTime::from_secs(10));
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.allow(SimTime::from_secs(20)));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(SimTime::from_secs(21)));
    }

    #[test]
    fn supervisor_gates_nodes_and_journals_trips() {
        let registry = Registry::new();
        let mut s = Supervisor::new(3);
        s.set_telemetry(&registry);
        let t = SimTime::from_secs(1);
        for _ in 0..3 {
            s.record_failure("node1", t);
        }
        assert_eq!(s.breaker_state("node1"), BreakerState::Open);
        assert!(!s.node_available("node1", SimTime::from_secs(2)));
        assert!(s.node_available("node2", SimTime::from_secs(2)), "per-node");
        let report = registry.snapshot();
        assert_eq!(report.counter("node1.supervisor.failures"), 3);
        assert_eq!(report.counter("node1.supervisor.breaker_trips"), 1);
        assert_eq!(report.counter("node1.supervisor.breaker_blocks"), 1);
        assert!(report
            .events
            .iter()
            .any(|e| e.label == "supervisor.breaker_open" && e.detail.contains("node1")));
    }

    #[test]
    fn retry_backoff_is_order_independent_across_nodes() {
        let a = Supervisor::new(9);
        let b = Supervisor::new(9);
        // Query in different interleavings; per-(node, attempt) streams
        // must not care.
        let a1 = a.retry_backoff("node1", 1);
        let a2 = a.retry_backoff("node2", 1);
        let b2 = b.retry_backoff("node2", 1);
        let b1 = b.retry_backoff("node1", 1);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn heartbeat_probe_follows_reboot_window() {
        let registry = Registry::new();
        let mut s = Supervisor::new(4);
        s.set_telemetry(&registry);
        let plan = FaultPlan::new().window(
            "node1.node",
            FaultKind::NodeReboot,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        s.attach_faults(&FaultInjector::new(&plan, 8));
        let mut probe = |secs| {
            let now = SimTime::from_secs(secs);
            let healthy = s.heartbeat_probe("node1", now);
            s.apply_probe("node1", healthy, now);
            healthy
        };
        assert!(probe(5));
        assert!(!probe(12));
        assert!(!probe(15));
        // Back up after the window; breaker closes on the healthy probe.
        assert!(probe(25));
        assert_eq!(s.breaker_state("node1"), BreakerState::Closed);
        let report = registry.snapshot();
        assert_eq!(report.counter("node1.supervisor.heartbeats"), 4);
        assert_eq!(report.counter("node1.supervisor.unhealthy_probes"), 2);
    }
}
