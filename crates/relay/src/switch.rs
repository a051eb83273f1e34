//! The relay-based circuit switch (§3.2).
//!
//! Each channel's relay takes the device's voltage (+) terminal as input
//! and programmatically routes it to either the device's own battery
//! terminal or the Monsoon's Vout connector ("battery bypass"). Ground is
//! permanently common. The switch therefore does two jobs:
//!
//! 1. engage/disengage the battery bypass required for measurement, and
//! 2. let one meter serve several test devices without re-cabling.
//!
//! Fig. 2 of the paper shows the relay's impact on readings is negligible;
//! here that is a *property* of the model — a small series contact
//! resistance — and the figure-2 bench verifies it stays negligible.

use std::sync::Arc;

use batterylab_sim::SimTime;
use batterylab_telemetry::{Counter, Gauge, Registry};
use parking_lot::RwLock;

use batterylab_power::{CurrentSource, Segment};

/// Relay contact position for one channel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChannelRoute {
    /// Device runs from its own battery; the meter sees nothing.
    Battery,
    /// Battery bypass: device powered (and measured) via Monsoon Vout.
    Bypass,
}

/// Errors from the circuit switch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SwitchError {
    /// Channel index out of range.
    NoSuchChannel(usize),
    /// Another channel already routes to the meter — one Monsoon, one
    /// measured device at a time.
    BypassBusy {
        /// Channel currently holding the bypass.
        held_by: usize,
    },
    /// No device load attached to the channel.
    NoDevice(usize),
}

impl std::fmt::Display for SwitchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwitchError::NoSuchChannel(c) => write!(f, "no such relay channel {c}"),
            SwitchError::BypassBusy { held_by } => {
                write!(f, "bypass already engaged by channel {held_by}")
            }
            SwitchError::NoDevice(c) => write!(f, "no device attached to channel {c}"),
        }
    }
}

impl std::error::Error for SwitchError {}

struct Channel {
    load: Option<Arc<dyn CurrentSource>>,
    route: ChannelRoute,
    switches: u32,
    last_switch: Option<SimTime>,
}

/// Pre-resolved telemetry handles (`relay.*` metrics). Switching is a
/// per-measurement operation, not a hot loop, so these live behind the
/// same lock as the channel state. Unregistered until
/// [`CircuitSwitch::set_telemetry`] binds them.
#[derive(Default)]
struct RelayTelemetry {
    registry: Registry,
    bypass_engaged: Counter,
    bypass_released: Counter,
    actuations: Counter,
    bypass_active: Gauge,
}

impl RelayTelemetry {
    fn bind(registry: &Registry) -> Self {
        RelayTelemetry {
            bypass_engaged: registry.counter("relay.bypass_engaged"),
            bypass_released: registry.counter("relay.bypass_released"),
            actuations: registry.counter("relay.actuations"),
            bypass_active: registry.gauge("relay.bypass_active"),
            registry: registry.clone(),
        }
    }
}

struct Inner {
    channels: Vec<Channel>,
    /// Series resistance each relay contact adds, ohms.
    contact_ohms: f64,
    telemetry: RelayTelemetry,
}

/// A multi-channel relay circuit between test devices and the Monsoon.
///
/// Shared (`Arc`) between the controller (which switches channels) and the
/// meter (which reads the routed load through [`CircuitSwitch::meter_side`]).
pub struct CircuitSwitch {
    inner: RwLock<Inner>,
}

impl CircuitSwitch {
    /// A switch with `channels` relay channels (the prototype board has 4).
    pub fn new(channels: usize) -> Arc<Self> {
        assert!(channels > 0, "switch needs at least one channel");
        Arc::new(CircuitSwitch {
            inner: RwLock::new(Inner {
                channels: (0..channels)
                    .map(|_| Channel {
                        load: None,
                        route: ChannelRoute::Battery,
                        switches: 0,
                        last_switch: None,
                    })
                    .collect(),
                contact_ohms: 0.05,
                telemetry: RelayTelemetry::default(),
            }),
        })
    }

    /// Bind telemetry to a shared registry (`relay.*` metrics).
    pub fn set_telemetry(&self, registry: &Registry) {
        self.inner.write().telemetry = RelayTelemetry::bind(registry);
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.inner.read().channels.len()
    }

    /// Attach a device load to `channel` (its route resets to Battery).
    pub fn attach(&self, channel: usize, load: Arc<dyn CurrentSource>) -> Result<(), SwitchError> {
        let mut inner = self.inner.write();
        let n = inner.channels.len();
        let ch = inner
            .channels
            .get_mut(channel)
            .ok_or(SwitchError::NoSuchChannel(channel))?;
        let _ = n;
        ch.load = Some(load);
        ch.route = ChannelRoute::Battery;
        Ok(())
    }

    /// Detach the device from `channel`.
    pub fn detach(&self, channel: usize) -> Result<(), SwitchError> {
        let mut inner = self.inner.write();
        let ch = inner
            .channels
            .get_mut(channel)
            .ok_or(SwitchError::NoSuchChannel(channel))?;
        ch.load = None;
        let was_bypassed = ch.route == ChannelRoute::Bypass;
        ch.route = ChannelRoute::Battery;
        if was_bypassed {
            inner.telemetry.bypass_active.set(0);
        }
        Ok(())
    }

    /// Route of `channel`.
    pub fn route(&self, channel: usize) -> Result<ChannelRoute, SwitchError> {
        let inner = self.inner.read();
        inner
            .channels
            .get(channel)
            .map(|c| c.route)
            .ok_or(SwitchError::NoSuchChannel(channel))
    }

    /// The channel currently holding the bypass, if any.
    pub fn bypass_holder(&self) -> Option<usize> {
        let inner = self.inner.read();
        inner
            .channels
            .iter()
            .position(|c| c.route == ChannelRoute::Bypass)
    }

    /// Engage the battery bypass for `channel` at time `now`.
    ///
    /// Fails if another channel holds the bypass (the API's
    /// `batt_switch` releases it first) or no device is attached.
    pub fn engage_bypass(&self, channel: usize, now: SimTime) -> Result<(), SwitchError> {
        let mut inner = self.inner.write();
        if let Some(holder) = inner
            .channels
            .iter()
            .position(|c| c.route == ChannelRoute::Bypass)
        {
            if holder != channel {
                return Err(SwitchError::BypassBusy { held_by: holder });
            }
            return Ok(()); // already engaged
        }
        let ch = inner
            .channels
            .get_mut(channel)
            .ok_or(SwitchError::NoSuchChannel(channel))?;
        if ch.load.is_none() {
            return Err(SwitchError::NoDevice(channel));
        }
        ch.route = ChannelRoute::Bypass;
        ch.switches += 1;
        ch.last_switch = Some(now);
        let t = &inner.telemetry;
        t.registry.clock().advance_to(now.as_micros());
        t.bypass_engaged.inc();
        t.actuations.inc();
        t.bypass_active.set(1);
        t.registry.journal().push(
            now.as_micros(),
            "relay.bypass_engaged",
            format!("ch{channel}"),
        );
        Ok(())
    }

    /// Return `channel` to its own battery at time `now`.
    pub fn release_bypass(&self, channel: usize, now: SimTime) -> Result<(), SwitchError> {
        let mut inner = self.inner.write();
        let ch = inner
            .channels
            .get_mut(channel)
            .ok_or(SwitchError::NoSuchChannel(channel))?;
        if ch.route == ChannelRoute::Bypass {
            ch.route = ChannelRoute::Battery;
            ch.switches += 1;
            ch.last_switch = Some(now);
            let t = &inner.telemetry;
            t.registry.clock().advance_to(now.as_micros());
            t.bypass_released.inc();
            t.actuations.inc();
            t.bypass_active.set(0);
            t.registry.journal().push(
                now.as_micros(),
                "relay.bypass_released",
                format!("ch{channel}"),
            );
        }
        Ok(())
    }

    /// Actuation count for a channel (relays have finite mechanical life;
    /// maintenance jobs watch this).
    pub fn switch_count(&self, channel: usize) -> Result<u32, SwitchError> {
        let inner = self.inner.read();
        inner
            .channels
            .get(channel)
            .map(|c| c.switches)
            .ok_or(SwitchError::NoSuchChannel(channel))
    }

    /// The load as seen from the Monsoon's Vout terminals: the bypassed
    /// channel's device through the relay contacts, or an open circuit.
    pub fn meter_side(self: &Arc<Self>) -> MeterSide {
        MeterSide {
            switch: Arc::clone(self),
        }
    }
}

/// [`CurrentSource`] view of the switch from the meter's terminals.
pub struct MeterSide {
    switch: Arc<CircuitSwitch>,
}

impl CurrentSource for MeterSide {
    fn current_ma(&self, t: SimTime, supply_v: f64) -> f64 {
        let inner = self.switch.inner.read();
        let Some(ch) = inner
            .channels
            .iter()
            .find(|c| c.route == ChannelRoute::Bypass)
        else {
            return 0.0; // open circuit
        };
        let Some(load) = &ch.load else {
            return 0.0;
        };
        // The relay contact sits in series with the supply: the device sees
        // supply_v minus the IR drop across the contact. One fixed-point
        // refinement is plenty at 50 mΩ.
        let i0 = load.current_ma(t, supply_v);
        let v_eff = (supply_v - i0 / 1000.0 * inner.contact_ohms).max(0.1);
        load.current_ma(t, v_eff)
    }

    fn segments(&self, from: SimTime, to: SimTime, supply_v: f64) -> Option<Vec<Segment>> {
        let inner = self.switch.inner.read();
        let open_circuit = || {
            if to <= from {
                Some(Vec::new())
            } else {
                Some(vec![Segment {
                    start: from,
                    end: to,
                    current_ma: 0.0,
                }])
            }
        };
        let Some(ch) = inner
            .channels
            .iter()
            .find(|c| c.route == ChannelRoute::Bypass)
        else {
            return open_circuit();
        };
        let Some(load) = &ch.load else {
            return open_circuit();
        };
        // The attached load's step boundaries are voltage-independent
        // (part of the segments contract), so the contact-resistance
        // refinement maps each inner segment to one outer segment — the
        // same two `current_ma` evaluations the per-sample path performs,
        // but once per segment instead of once per sample.
        let segs = load.segments(from, to, supply_v)?;
        Some(
            segs.into_iter()
                .map(|seg| {
                    let i0 = seg.current_ma;
                    let v_eff = (supply_v - i0 / 1000.0 * inner.contact_ohms).max(0.1);
                    Segment {
                        current_ma: load.current_ma(seg.start, v_eff),
                        ..seg
                    }
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_power::ConstantLoad;

    fn load(ma: f64) -> Arc<dyn CurrentSource> {
        Arc::new(ConstantLoad::new(ma, 4.0))
    }

    #[test]
    fn open_circuit_until_bypass_engaged() {
        let sw = CircuitSwitch::new(2);
        sw.attach(0, load(200.0)).unwrap();
        let meter = sw.meter_side();
        assert_eq!(meter.current_ma(SimTime::ZERO, 4.0), 0.0);
        sw.engage_bypass(0, SimTime::ZERO).unwrap();
        assert!(meter.current_ma(SimTime::ZERO, 4.0) > 199.0);
    }

    #[test]
    fn contact_resistance_is_negligible() {
        // The Fig. 2 "direct vs relay" requirement: < 2 % difference.
        let sw = CircuitSwitch::new(1);
        sw.attach(0, load(200.0)).unwrap();
        sw.engage_bypass(0, SimTime::ZERO).unwrap();
        let through_relay = sw.meter_side().current_ma(SimTime::ZERO, 4.0);
        let direct = 200.0;
        let rel = (through_relay - direct).abs() / direct;
        assert!(rel < 0.02, "relay perturbs reading by {:.3}%", rel * 100.0);
        assert!(rel > 0.0, "contact resistance should be modelled, not zero");
    }

    #[test]
    fn only_one_bypass_at_a_time() {
        let sw = CircuitSwitch::new(3);
        sw.attach(0, load(100.0)).unwrap();
        sw.attach(1, load(150.0)).unwrap();
        sw.engage_bypass(0, SimTime::ZERO).unwrap();
        assert_eq!(
            sw.engage_bypass(1, SimTime::ZERO),
            Err(SwitchError::BypassBusy { held_by: 0 })
        );
        sw.release_bypass(0, SimTime::from_secs(1)).unwrap();
        sw.engage_bypass(1, SimTime::from_secs(1)).unwrap();
        assert_eq!(sw.bypass_holder(), Some(1));
    }

    #[test]
    fn engage_requires_device() {
        let sw = CircuitSwitch::new(1);
        assert_eq!(
            sw.engage_bypass(0, SimTime::ZERO),
            Err(SwitchError::NoDevice(0))
        );
    }

    #[test]
    fn reengage_is_idempotent() {
        let sw = CircuitSwitch::new(1);
        sw.attach(0, load(100.0)).unwrap();
        sw.engage_bypass(0, SimTime::ZERO).unwrap();
        sw.engage_bypass(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(sw.switch_count(0).unwrap(), 1);
    }

    #[test]
    fn switching_devices_without_recabling() {
        // The second task of the switch: serve multiple devices.
        let sw = CircuitSwitch::new(2);
        sw.attach(0, load(100.0)).unwrap();
        sw.attach(1, load(300.0)).unwrap();
        let meter = sw.meter_side();
        sw.engage_bypass(0, SimTime::ZERO).unwrap();
        let a = meter.current_ma(SimTime::ZERO, 4.0);
        sw.release_bypass(0, SimTime::ZERO).unwrap();
        sw.engage_bypass(1, SimTime::ZERO).unwrap();
        let b = meter.current_ma(SimTime::ZERO, 4.0);
        assert!(a > 99.0 && a < 102.0);
        assert!(b > 297.0 && b < 302.0);
    }

    #[test]
    fn detach_releases_bypass() {
        let sw = CircuitSwitch::new(1);
        sw.attach(0, load(100.0)).unwrap();
        sw.engage_bypass(0, SimTime::ZERO).unwrap();
        sw.detach(0).unwrap();
        assert_eq!(sw.bypass_holder(), None);
        assert_eq!(sw.meter_side().current_ma(SimTime::ZERO, 4.0), 0.0);
    }

    #[test]
    fn telemetry_tracks_switching() {
        let registry = Registry::new();
        let sw = CircuitSwitch::new(2);
        sw.set_telemetry(&registry);
        sw.attach(0, load(100.0)).unwrap();
        sw.engage_bypass(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(registry.snapshot().gauges["relay.bypass_active"], 1);
        sw.release_bypass(0, SimTime::from_secs(2)).unwrap();
        let report = registry.snapshot();
        assert_eq!(report.counter("relay.bypass_engaged"), 1);
        assert_eq!(report.counter("relay.bypass_released"), 1);
        assert_eq!(report.counter("relay.actuations"), 2);
        assert_eq!(report.gauges["relay.bypass_active"], 0);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].at_micros, 1_000_000);
        assert_eq!(report.events[0].detail, "ch0");
    }

    #[test]
    fn meter_side_segments_match_per_sample_reads() {
        use batterylab_power::TraceLoad;
        use batterylab_sim::StepSignal;
        let mut trace = StepSignal::new(150.0);
        trace.set(SimTime::from_secs(1), 900.0);
        trace.set(SimTime::from_secs(3), 40.0);
        let sw = CircuitSwitch::new(1);
        sw.attach(0, Arc::new(TraceLoad::new(trace, 4.0))).unwrap();
        sw.engage_bypass(0, SimTime::ZERO).unwrap();
        let meter = sw.meter_side();
        let to = SimTime::from_secs(5);
        let segs = meter.segments(SimTime::ZERO, to, 4.0).expect("trace load");
        assert_eq!(segs.len(), 3);
        assert_eq!(segs.last().unwrap().end, to);
        for seg in &segs {
            assert_eq!(
                seg.current_ma.to_bits(),
                meter.current_ma(seg.start, 4.0).to_bits(),
                "contact-resistance refinement must match per-sample reads"
            );
        }
    }

    #[test]
    fn meter_side_segments_open_circuit_is_zero() {
        let sw = CircuitSwitch::new(1);
        let meter = sw.meter_side();
        let segs = meter
            .segments(SimTime::ZERO, SimTime::from_secs(1), 4.0)
            .unwrap();
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].current_ma, 0.0);
    }

    #[test]
    fn bad_channel_errors() {
        let sw = CircuitSwitch::new(1);
        assert_eq!(sw.route(5), Err(SwitchError::NoSuchChannel(5)));
        assert_eq!(sw.attach(5, load(1.0)), Err(SwitchError::NoSuchChannel(5)));
    }
}
