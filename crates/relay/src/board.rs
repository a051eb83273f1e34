//! The relay board: GPIO-driven actuation of the circuit switch.
//!
//! On the bench, each relay coil hangs off one GPIO pin: driving the pin
//! high energises the coil and flips the channel to the bypass position.
//! Tying the [`GpioBank`] to the [`CircuitSwitch`] here means software
//! bugs (wrong pin, unconfigured pin) fail the same way they would on
//! real hardware.

use std::sync::Arc;

use batterylab_faults::{FaultInjector, FaultKind};
use batterylab_sim::SimTime;

use crate::gpio::{GpioBank, GpioError, Level, PinMode};
use crate::switch::{ChannelRoute, CircuitSwitch, SwitchError};

/// Errors from the board layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BoardError {
    /// GPIO-level failure.
    Gpio(GpioError),
    /// Relay/channel-level failure.
    Switch(SwitchError),
    /// Channel has no pin mapping.
    UnmappedChannel(usize),
    /// A relay contact stuck and the channel did not actuate (injected
    /// by the platform fault plan; also what [`RelayBoard::verify`]
    /// means when route and coil disagree).
    StuckContact(usize),
}

impl From<GpioError> for BoardError {
    fn from(e: GpioError) -> Self {
        BoardError::Gpio(e)
    }
}

impl From<SwitchError> for BoardError {
    fn from(e: SwitchError) -> Self {
        BoardError::Switch(e)
    }
}

impl std::fmt::Display for BoardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoardError::Gpio(e) => write!(f, "gpio: {e}"),
            BoardError::Switch(e) => write!(f, "switch: {e}"),
            BoardError::UnmappedChannel(c) => write!(f, "channel {c} has no GPIO pin"),
            BoardError::StuckContact(c) => write!(f, "channel {c} relay contact stuck"),
        }
    }
}

impl std::error::Error for BoardError {}

/// GPIO-actuated relay board.
pub struct RelayBoard {
    gpio: GpioBank,
    switch: Arc<CircuitSwitch>,
    /// `pin_map[channel]` = GPIO pin driving that channel's coil.
    pin_map: Vec<usize>,
    /// Platform fault plan: `RelayStuckContact` specs at `fault_site`
    /// make an actuation fail without moving the contact.
    faults: FaultInjector,
    fault_site: String,
}

impl RelayBoard {
    /// Wire `switch` to `gpio` pins `pin_map` (channel `i` ← `pin_map[i]`) and
    /// configure every mapped pin as an output driven low (battery route).
    pub fn new(switch: Arc<CircuitSwitch>, pin_map: Vec<usize>) -> Result<Self, BoardError> {
        assert_eq!(
            pin_map.len(),
            switch.channels(),
            "one GPIO pin per relay channel"
        );
        let mut gpio = GpioBank::new();
        for &pin in &pin_map {
            gpio.configure(pin, PinMode::Output)?;
        }
        Ok(RelayBoard {
            gpio,
            switch,
            pin_map,
            faults: FaultInjector::disabled(),
            fault_site: batterylab_faults::site::RELAY_CONTACT.to_string(),
        })
    }

    /// Consult `injector` for `RelayStuckContact` faults under `site`
    /// on every actuation.
    pub fn set_faults(&mut self, injector: &FaultInjector, site: &str) {
        self.faults = injector.clone();
        self.fault_site = site.to_string();
    }

    /// The underlying switch (for the meter side).
    pub fn switch(&self) -> &Arc<CircuitSwitch> {
        &self.switch
    }

    /// Direct GPIO access (maintenance/diagnostics).
    pub fn gpio(&self) -> &GpioBank {
        &self.gpio
    }

    fn pin_for(&self, channel: usize) -> Result<usize, BoardError> {
        self.pin_map
            .get(channel)
            .copied()
            .ok_or(BoardError::UnmappedChannel(channel))
    }

    /// Flip `channel` to the bypass (measurement) position.
    pub fn bypass(&mut self, channel: usize, now: SimTime) -> Result<(), BoardError> {
        let pin = self.pin_for(channel)?;
        if self
            .faults
            .check(&self.fault_site, FaultKind::RelayStuckContact, now)
        {
            return Err(BoardError::StuckContact(channel));
        }
        self.switch.engage_bypass(channel, now)?;
        // Energise the coil only after the switch accepted the transition,
        // so a busy bypass leaves the pin untouched.
        self.gpio.write(pin, Level::High)?;
        Ok(())
    }

    /// Flip `channel` back to its battery.
    pub fn battery(&mut self, channel: usize, now: SimTime) -> Result<(), BoardError> {
        let pin = self.pin_for(channel)?;
        if self
            .faults
            .check(&self.fault_site, FaultKind::RelayStuckContact, now)
        {
            return Err(BoardError::StuckContact(channel));
        }
        self.switch.release_bypass(channel, now)?;
        self.gpio.write(pin, Level::Low)?;
        Ok(())
    }

    /// Current route of `channel`, cross-checked against the pin level.
    /// A mismatch means a stuck relay — surfaced as a switch error.
    pub fn verify(&self, channel: usize) -> Result<ChannelRoute, BoardError> {
        let pin = self.pin_for(channel)?;
        let route = self.switch.route(channel)?;
        let level = self.gpio.read(pin)?;
        let expected = match route {
            ChannelRoute::Bypass => Level::High,
            ChannelRoute::Battery => Level::Low,
        };
        if level != expected {
            return Err(BoardError::Switch(SwitchError::NoSuchChannel(channel)));
        }
        Ok(route)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batterylab_power::{ConstantLoad, CurrentSource};

    fn board() -> RelayBoard {
        let sw = CircuitSwitch::new(2);
        sw.attach(0, Arc::new(ConstantLoad::new(100.0, 4.0)))
            .unwrap();
        sw.attach(1, Arc::new(ConstantLoad::new(200.0, 4.0)))
            .unwrap();
        RelayBoard::new(sw, vec![17, 27]).unwrap()
    }

    #[test]
    fn bypass_drives_pin_high() {
        let mut b = board();
        b.bypass(0, SimTime::ZERO).unwrap();
        assert_eq!(b.gpio().read(17).unwrap(), Level::High);
        assert_eq!(b.verify(0).unwrap(), ChannelRoute::Bypass);
        b.battery(0, SimTime::ZERO).unwrap();
        assert_eq!(b.gpio().read(17).unwrap(), Level::Low);
        assert_eq!(b.verify(0).unwrap(), ChannelRoute::Battery);
    }

    #[test]
    fn busy_bypass_leaves_pin_low() {
        let mut b = board();
        b.bypass(0, SimTime::ZERO).unwrap();
        let err = b.bypass(1, SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            BoardError::Switch(SwitchError::BypassBusy { held_by: 0 })
        ));
        assert_eq!(b.gpio().read(27).unwrap(), Level::Low);
    }

    #[test]
    fn meter_reads_through_board() {
        let mut b = board();
        b.bypass(1, SimTime::ZERO).unwrap();
        let meter = b.switch().meter_side();
        let ma = meter.current_ma(SimTime::ZERO, 4.0);
        assert!(ma > 198.0 && ma < 203.0);
    }

    #[test]
    fn unmapped_channel() {
        let mut b = board();
        assert!(matches!(
            b.bypass(7, SimTime::ZERO),
            Err(BoardError::UnmappedChannel(7))
        ));
    }

    #[test]
    #[should_panic(expected = "one GPIO pin per relay channel")]
    fn pin_map_must_cover_channels() {
        let sw = CircuitSwitch::new(3);
        let _ = RelayBoard::new(sw, vec![17]);
    }

    #[test]
    fn stuck_contact_fault_blocks_one_actuation() {
        use batterylab_faults::FaultPlan;
        let mut b = board();
        let plan = FaultPlan::new().next_n("relay.contact", FaultKind::RelayStuckContact, 1);
        b.set_faults(&FaultInjector::new(&plan, 2), "relay.contact");
        assert_eq!(
            b.bypass(0, SimTime::ZERO).unwrap_err(),
            BoardError::StuckContact(0)
        );
        // The contact never moved: route still battery, coil still low.
        assert_eq!(b.verify(0).unwrap(), ChannelRoute::Battery);
        // The next actuation succeeds.
        b.bypass(0, SimTime::from_secs(1)).unwrap();
        assert_eq!(b.verify(0).unwrap(), ChannelRoute::Bypass);
    }
}
