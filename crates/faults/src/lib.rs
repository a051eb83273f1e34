//! Deterministic fault injection for the whole platform.
//!
//! BatteryLab's vantage points live in volunteers' homes: WiFi sockets
//! stop answering, USB transports reset, SSH sessions drop, relays stick
//! and meters brown out. The paper's §3.1 maintenance machinery exists
//! because of those failures, so the simulation needs them too — and it
//! needs them *reproducibly*, or chaos runs can never be compared or
//! bisected.
//!
//! This crate replaces the old per-subsystem knobs (e.g. the power
//! socket's `inject_unreachable` counter) with one substrate:
//!
//! - a [`FaultPlan`] is a declarative list of [`FaultSpec`]s — *which*
//!   fault ([`FaultKind`]), *where* (a dotted site label such as
//!   `node1.power.socket`), and *when* (a [`Trigger`]: the next N
//!   operations, a sim-time window, or a seeded per-operation
//!   probability);
//! - a [`FaultInjector`] arms a plan with a seed and is cloned into every
//!   subsystem; injection points call [`FaultInjector::check`] on the sim
//!   clock and fail themselves when it returns `true`.
//!
//! Determinism contract: for a fixed (plan, seed) and a deterministic
//! sequence of `check` calls per site, the set of injected faults is a
//! pure function of the plan — probability triggers draw from a private
//! stream derived per spec, so one site's checks never perturb another's.
//! Every injected fault increments the `faults.injected` counter and
//! journals a `fault.injected` event, which is how the chaos soak proves
//! nothing fired invisibly.

#![warn(missing_docs)]

use std::sync::{Arc, Mutex};

use batterylab_sim::{SimRng, SimTime};
use batterylab_telemetry::Registry;

/// Well-known injection-site suffixes. A vantage point scopes them with
/// its node name via [`scoped_site`] (`node1.power.socket`), so merged
/// registries keep per-node fault streams distinguishable.
pub mod site {
    /// The WiFi smart socket powering the Monsoon.
    pub const POWER_SOCKET: &str = "power.socket";
    /// The Monsoon instrument itself (brownout, over-current, sag).
    pub const POWER_METER: &str = "power.meter";
    /// The relay board's contacts.
    pub const RELAY_CONTACT: &str = "relay.contact";
    /// The ADB transport (USB port power, WiFi association).
    pub const ADB_TRANSPORT: &str = "adb.transport";
    /// The scrcpy encoder behind a mirror session.
    pub const MIRROR_ENCODER: &str = "mirror.encoder";
    /// The SSH channel from access server to controller.
    pub const SSH_SESSION: &str = "ssh.session";
    /// The VPN tunnel at the controller.
    pub const NET_VPN: &str = "net.vpn";
    /// The vantage point as a whole (reboot windows).
    pub const NODE: &str = "node";
    /// The access-server process itself (crash faults). Unlike the node
    /// sites this one is never node-scoped: there is one server.
    pub const SERVER_PROCESS: &str = "server.process";
}

/// Scope a site suffix to a node: `scoped_site("node1", site::POWER_SOCKET)`
/// is `"node1.power.socket"`.
pub fn scoped_site(node: &str, suffix: &str) -> String {
    format!("{node}.{suffix}")
}

/// The taxonomy of faults the platform can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The WiFi socket does not answer its LAN API.
    SocketUnreachable,
    /// Mains brownout: the meter loses power mid-arm.
    MeterBrownout,
    /// Forced over-current trip on the meter's protection circuit.
    OverCurrent,
    /// Battery-bypass contact resistance sags the supply voltage.
    VoltageSag,
    /// USB/ADB transport reset (port power glitch, WiFi deauth).
    TransportReset,
    /// The SSH session to the controller drops.
    SshSessionDrop,
    /// A relay contact sticks and the route does not actuate.
    RelayStuckContact,
    /// The scrcpy encoder stalls and stops producing frames.
    EncoderStall,
    /// The whole vantage point reboots (unhealthy for a window).
    NodeReboot,
    /// The access server's process dies (memory lost; WAL disk and the
    /// vantage points survive). The soak harness consults this spec to
    /// decide when to kill and recover the server.
    ServerCrash,
}

impl FaultKind {
    /// Stable lower-case name used in journal events and plan dumps.
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::SocketUnreachable => "socket_unreachable",
            FaultKind::MeterBrownout => "meter_brownout",
            FaultKind::OverCurrent => "over_current",
            FaultKind::VoltageSag => "voltage_sag",
            FaultKind::TransportReset => "transport_reset",
            FaultKind::SshSessionDrop => "ssh_session_drop",
            FaultKind::RelayStuckContact => "relay_stuck_contact",
            FaultKind::EncoderStall => "encoder_stall",
            FaultKind::NodeReboot => "node_reboot",
            FaultKind::ServerCrash => "server_crash",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// When a spec fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Trigger {
    /// Fire on the next `n` matching operations, then disarm. This is
    /// the compat shape of the old `inject_unreachable(n)` knob.
    Count(u32),
    /// Fire on every matching operation whose sim time lies in
    /// `[from, to)`.
    Window {
        /// Start of the active window (inclusive).
        from: SimTime,
        /// End of the active window (exclusive).
        to: SimTime,
    },
    /// Fire each matching operation independently with probability `p`,
    /// drawn from a stream derived per spec from the injector seed.
    Probability(f64),
}

/// One fault: what, where, when.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Dotted site label the spec applies to (e.g. `node1.power.socket`).
    pub site: String,
    /// Which fault to inject.
    pub kind: FaultKind,
    /// When to inject it.
    pub trigger: Trigger,
}

/// A declarative, serialisable schedule of faults.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// The specs, in insertion order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Append an arbitrary spec.
    pub fn push(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// Builder: fail the next `n` matching operations at `site`.
    pub fn next_n(mut self, site: &str, kind: FaultKind, n: u32) -> Self {
        self.push(FaultSpec {
            site: site.to_string(),
            kind,
            trigger: Trigger::Count(n),
        });
        self
    }

    /// Builder: fail every matching operation in `[from, to)` at `site`.
    pub fn window(mut self, site: &str, kind: FaultKind, from: SimTime, to: SimTime) -> Self {
        self.push(FaultSpec {
            site: site.to_string(),
            kind,
            trigger: Trigger::Window { from, to },
        });
        self
    }

    /// Builder: fail each matching operation at `site` with probability `p`.
    pub fn probability(mut self, site: &str, kind: FaultKind, p: f64) -> Self {
        self.push(FaultSpec {
            site: site.to_string(),
            kind,
            trigger: Trigger::Probability(p),
        });
        self
    }

    /// A randomized-but-seeded chaos profile for one node, scaled by
    /// `intensity` in `[0, 1]`. Drawing the plan consumes `rng`
    /// deterministically, so the same (seed, intensity) always yields
    /// the same plan — the soak harness relies on that.
    pub fn chaos(node: &str, rng: &mut SimRng, intensity: f64) -> Self {
        let intensity = intensity.clamp(0.0, 1.0);
        let mut plan = FaultPlan::new();
        // Socket flaps: short unreachable bursts the controller's retry
        // loop should absorb.
        if rng.chance(0.8 * intensity) {
            let n = 1 + rng.index(2) as u32;
            plan = plan.next_n(
                &scoped_site(node, site::POWER_SOCKET),
                FaultKind::SocketUnreachable,
                n,
            );
        }
        // One forced over-current trip: aborts a run, the scheduler
        // retries the job.
        if rng.chance(0.5 * intensity) {
            plan = plan.next_n(
                &scoped_site(node, site::POWER_METER),
                FaultKind::OverCurrent,
                1,
            );
        }
        // One brownout: the meter loses mains mid-arm.
        if rng.chance(0.3 * intensity) {
            plan = plan.next_n(
                &scoped_site(node, site::POWER_METER),
                FaultKind::MeterBrownout,
                1,
            );
        }
        // Persistent bypass-contact sag over an early window.
        if rng.chance(0.4 * intensity) {
            let from = SimTime::from_secs(rng.index(30) as u64);
            plan = plan.window(
                &scoped_site(node, site::POWER_METER),
                FaultKind::VoltageSag,
                from,
                from + batterylab_sim::SimDuration::from_secs(60),
            );
        }
        // A stuck relay contact on one actuation.
        if rng.chance(0.3 * intensity) {
            plan = plan.next_n(
                &scoped_site(node, site::RELAY_CONTACT),
                FaultKind::RelayStuckContact,
                1,
            );
        }
        // ADB transport resets, per-operation.
        if rng.chance(0.6 * intensity) {
            plan = plan.probability(
                &scoped_site(node, site::ADB_TRANSPORT),
                FaultKind::TransportReset,
                0.02 * intensity,
            );
        }
        // Encoder stalls, per-pump.
        if rng.chance(0.5 * intensity) {
            plan = plan.probability(
                &scoped_site(node, site::MIRROR_ENCODER),
                FaultKind::EncoderStall,
                0.05 * intensity,
            );
        }
        // One dropped SSH session.
        if rng.chance(0.3 * intensity) {
            plan = plan.next_n(
                &scoped_site(node, site::SSH_SESSION),
                FaultKind::SshSessionDrop,
                1,
            );
        }
        // A node reboot window: health probes report the node down until
        // it passes, and the scheduler must hold its jobs.
        if rng.chance(0.4 * intensity) {
            let from = SimTime::from_secs(5 + rng.index(40) as u64);
            plan = plan.window(
                &scoped_site(node, site::NODE),
                FaultKind::NodeReboot,
                from,
                from + batterylab_sim::SimDuration::from_secs(8),
            );
        }
        // A server crash mid-run: the soak harness kills the access
        // server at a WAL record boundary and recovers it from the log.
        // Drawn last so earlier specs are unchanged for existing seeds.
        if rng.chance(0.5 * intensity) {
            plan = plan.next_n(site::SERVER_PROCESS, FaultKind::ServerCrash, 1);
        }
        plan
    }

    /// How many server-crash injections the plan schedules (the soak
    /// harness crashes and recovers the server that many times).
    pub fn server_crashes(&self) -> u32 {
        self.specs
            .iter()
            .filter(|s| s.kind == FaultKind::ServerCrash)
            .map(|s| match s.trigger {
                Trigger::Count(n) => n,
                _ => 1,
            })
            .sum()
    }
}

/// One armed spec: the plan entry plus its private probability stream
/// and a fired counter.
struct ArmedSpec {
    spec: FaultSpec,
    rng: SimRng,
    fired: u64,
}

struct Inner {
    specs: Vec<ArmedSpec>,
    /// Where fired faults are journaled; none until bound.
    registry: Option<Registry>,
    injected: u64,
}

/// A cheap clonable handle every subsystem holds; all clones share the
/// armed plan, so a `Count` trigger consumed by one subsystem is
/// consumed for all.
///
/// The default injector is *disabled* (empty plan): `check` is a cheap
/// constant `false`, so production paths pay nothing when no chaos is
/// scheduled.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<Mutex<Inner>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("FaultInjector")
            .field("specs", &inner.specs.len())
            .field("injected", &inner.injected)
            .finish()
    }
}

impl Default for FaultInjector {
    fn default() -> Self {
        Self::disabled()
    }
}

impl FaultInjector {
    /// Arm `plan` with `seed`. Each probability spec derives an
    /// independent stream from `(seed, index, site, kind)`, so checks at
    /// one site never perturb draws at another.
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        let root = SimRng::new(seed);
        let specs = plan
            .specs
            .iter()
            .enumerate()
            .map(|(i, spec)| ArmedSpec {
                rng: root.derive(&format!("faults/{i}/{}/{}", spec.site, spec.kind)),
                spec: spec.clone(),
                fired: 0,
            })
            .collect();
        FaultInjector {
            inner: Arc::new(Mutex::new(Inner {
                specs,
                registry: None,
                injected: 0,
            })),
        }
    }

    /// An injector with an empty plan: never fires.
    pub fn disabled() -> Self {
        Self::new(&FaultPlan::new(), 0)
    }

    /// Journal injected faults into `registry` (`faults.injected`
    /// counter + `fault.injected` events).
    pub fn set_telemetry(&self, registry: &Registry) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.registry = Some(registry.clone());
    }

    /// Whether the armed plan has any specs at all. Subsystems may use
    /// this to skip site-label formatting on hot paths.
    pub fn is_armed(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        !inner.specs.is_empty()
    }

    /// Total faults injected so far across all sites.
    pub fn injected(&self) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.injected
    }

    /// Consult the plan for one operation of `kind` at `site` at sim
    /// time `now`. Returns `true` when the operation must fail; the
    /// caller surfaces its own subsystem error. Count triggers are
    /// consumed, window triggers fire for every operation inside the
    /// window, probability triggers draw from the spec's private stream.
    pub fn check(&self, site: &str, kind: FaultKind, now: SimTime) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.specs.is_empty() {
            return false;
        }
        let mut fired_any = false;
        let mut events: Vec<String> = Vec::new();
        for armed in &mut inner.specs {
            if armed.spec.site != site || armed.spec.kind != kind {
                continue;
            }
            let fired = match &mut armed.spec.trigger {
                Trigger::Count(remaining) => {
                    if *remaining > 0 {
                        *remaining -= 1;
                        true
                    } else {
                        false
                    }
                }
                Trigger::Window { from, to } => now >= *from && now < *to,
                Trigger::Probability(p) => {
                    let p = *p;
                    armed.rng.chance(p)
                }
            };
            if fired {
                armed.fired += 1;
                fired_any = true;
                events.push(format!("{site} {kind} at {now}"));
            }
        }
        if fired_any {
            inner.injected += events.len() as u64;
            if let Some(registry) = &inner.registry {
                registry.counter("faults.injected").add(events.len() as u64);
                registry.clock().advance_to(now.as_micros());
                for detail in events {
                    registry.event("fault.injected", detail);
                }
            }
        }
        fired_any
    }

    /// Like [`Self::check`] but without consuming anything: reports
    /// whether a `Window` spec for (`site`, `kind`) covers `now`. Health
    /// probes use this to see reboot windows without burning triggers.
    pub fn window_active(&self, site: &str, kind: FaultKind, now: SimTime) -> bool {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.specs.iter().any(|armed| {
            armed.spec.site == site
                && armed.spec.kind == kind
                && matches!(armed.spec.trigger, Trigger::Window { from, to } if now >= from && now < to)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let inj = FaultInjector::disabled();
        assert!(!inj.is_armed());
        for i in 0..100 {
            assert!(!inj.check(
                "node1.power.socket",
                FaultKind::SocketUnreachable,
                SimTime::from_secs(i)
            ));
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn count_trigger_consumes_exactly_n() {
        let plan = FaultPlan::new().next_n("s", FaultKind::SocketUnreachable, 2);
        let inj = FaultInjector::new(&plan, 1);
        assert!(inj.check("s", FaultKind::SocketUnreachable, SimTime::ZERO));
        assert!(inj.check("s", FaultKind::SocketUnreachable, SimTime::ZERO));
        assert!(!inj.check("s", FaultKind::SocketUnreachable, SimTime::ZERO));
        assert_eq!(inj.injected(), 2);
    }

    #[test]
    fn count_trigger_is_site_and_kind_scoped() {
        let plan = FaultPlan::new().next_n("a", FaultKind::TransportReset, 1);
        let inj = FaultInjector::new(&plan, 1);
        assert!(!inj.check("b", FaultKind::TransportReset, SimTime::ZERO));
        assert!(!inj.check("a", FaultKind::EncoderStall, SimTime::ZERO));
        assert!(inj.check("a", FaultKind::TransportReset, SimTime::ZERO));
    }

    #[test]
    fn window_trigger_fires_only_inside() {
        let plan = FaultPlan::new().window(
            "n.node",
            FaultKind::NodeReboot,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        let inj = FaultInjector::new(&plan, 3);
        assert!(!inj.check("n.node", FaultKind::NodeReboot, SimTime::from_secs(9)));
        assert!(inj.check("n.node", FaultKind::NodeReboot, SimTime::from_secs(10)));
        assert!(inj.check("n.node", FaultKind::NodeReboot, SimTime::from_secs(19)));
        assert!(!inj.check("n.node", FaultKind::NodeReboot, SimTime::from_secs(20)));
        assert!(inj.window_active("n.node", FaultKind::NodeReboot, SimTime::from_secs(15)));
        assert!(!inj.window_active("n.node", FaultKind::NodeReboot, SimTime::from_secs(25)));
    }

    #[test]
    fn probability_streams_are_per_spec_and_deterministic() {
        let plan = FaultPlan::new()
            .probability("a", FaultKind::TransportReset, 0.3)
            .probability("b", FaultKind::EncoderStall, 0.3);
        let run = |interleave: bool| -> Vec<bool> {
            let inj = FaultInjector::new(&plan, 99);
            let mut out = Vec::new();
            for i in 0..64 {
                if interleave {
                    // Extra checks at b must not perturb a's stream.
                    inj.check("b", FaultKind::EncoderStall, SimTime::from_secs(i));
                }
                out.push(inj.check("a", FaultKind::TransportReset, SimTime::from_secs(i)));
            }
            out
        };
        assert_eq!(run(false), run(true));
        assert!(run(false).iter().any(|&b| b), "p=0.3 over 64 draws fires");
    }

    #[test]
    fn clones_share_the_armed_plan() {
        let plan = FaultPlan::new().next_n("s", FaultKind::SshSessionDrop, 1);
        let a = FaultInjector::new(&plan, 7);
        let b = a.clone();
        assert!(b.check("s", FaultKind::SshSessionDrop, SimTime::ZERO));
        assert!(!a.check("s", FaultKind::SshSessionDrop, SimTime::ZERO));
        assert_eq!(a.injected(), 1);
    }

    #[test]
    fn injected_faults_are_journaled() {
        let registry = Registry::new();
        let plan = FaultPlan::new().next_n("node1.power.meter", FaultKind::MeterBrownout, 1);
        let inj = FaultInjector::new(&plan, 5);
        inj.set_telemetry(&registry);
        assert!(inj.check(
            "node1.power.meter",
            FaultKind::MeterBrownout,
            SimTime::from_secs(3)
        ));
        let report = registry.snapshot();
        assert_eq!(report.counter("faults.injected"), 1);
        let event = report
            .events
            .iter()
            .find(|e| e.label == "fault.injected")
            .expect("journaled");
        assert!(event.detail.contains("meter_brownout"));
        assert!(event.detail.contains("node1.power.meter"));
        assert_eq!(event.at_micros, 3_000_000);
    }

    #[test]
    fn chaos_plan_is_deterministic_per_seed() {
        let build = |seed: u64| {
            let mut rng = SimRng::new(seed).derive("chaos");
            FaultPlan::chaos("node1", &mut rng, 0.7)
        };
        assert_eq!(build(4), build(4));
        // Different seeds should (generically) differ.
        let mut distinct = false;
        for s in 0..8 {
            if build(s) != build(s + 100) {
                distinct = true;
                break;
            }
        }
        assert!(distinct, "chaos plans should vary with seed");
    }

    #[test]
    fn chaos_zero_intensity_is_empty() {
        let mut rng = SimRng::new(1).derive("chaos");
        assert!(FaultPlan::chaos("node1", &mut rng, 0.0).is_empty());
    }
}
