//! Time-slot reservations (§3: "BatteryLab members gain access to test
//! devices via a centralized access server, where they can request time
//! slots to deploy automated scripts and/or ask remote control of the
//! device" — and §3.1's "concurrent timed sessions").
//!
//! A calendar per (node, device): experimenters reserve exclusive
//! intervals of the device's virtual clock; the dispatcher can then gate
//! jobs on the submitting user holding the current slot.

use std::collections::BTreeMap;

use batterylab_sim::SimTime;
use serde::Serialize;

/// One reservation.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Slot {
    /// Who holds it.
    pub user: String,
    /// Inclusive start.
    pub from: SimTime,
    /// Exclusive end.
    pub to: SimTime,
}

impl Slot {
    /// Whether `t` falls inside.
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.from && t < self.to
    }

    fn overlaps(&self, from: SimTime, to: SimTime) -> bool {
        self.from < to && from < self.to
    }
}

/// Reservation failures.
#[derive(Clone, Debug, PartialEq)]
pub enum SlotError {
    /// Requested interval collides with an existing reservation.
    Conflict(Slot),
    /// `from >= to`.
    EmptyInterval,
}

impl std::fmt::Display for SlotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SlotError::Conflict(s) => {
                write!(f, "conflicts with {}'s slot {}–{}", s.user, s.from, s.to)
            }
            SlotError::EmptyInterval => write!(f, "empty interval"),
        }
    }
}

impl std::error::Error for SlotError {}

/// Reservation calendars for every (node, device) pair.
#[derive(Debug, Default)]
pub struct SlotCalendar {
    // Sorted by start per device; scan is fine at testbed scale.
    slots: BTreeMap<(String, String), Vec<Slot>>,
}

impl SlotCalendar {
    /// Empty calendar.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve `[from, to)` of `device` at `node` for `user`.
    pub fn reserve(
        &mut self,
        node: &str,
        device: &str,
        user: &str,
        from: SimTime,
        to: SimTime,
    ) -> Result<(), SlotError> {
        if from >= to {
            return Err(SlotError::EmptyInterval);
        }
        let key = (node.to_string(), device.to_string());
        let slots = self.slots.entry(key).or_default();
        if let Some(existing) = slots.iter().find(|s| s.overlaps(from, to)) {
            return Err(SlotError::Conflict(existing.clone()));
        }
        slots.push(Slot {
            user: user.to_string(),
            from,
            to,
        });
        slots.sort_by_key(|s| s.from);
        Ok(())
    }

    /// Release every slot `user` holds on the device.
    pub fn release_all(&mut self, node: &str, device: &str, user: &str) {
        if let Some(slots) = self.slots.get_mut(&(node.to_string(), device.to_string())) {
            slots.retain(|s| s.user != user);
        }
    }

    /// Who holds the device at instant `t`.
    pub fn holder_at(&self, node: &str, device: &str, t: SimTime) -> Option<&Slot> {
        self.slots
            .get(&(node.to_string(), device.to_string()))?
            .iter()
            .find(|s| s.contains(t))
    }

    /// Whether `user` may run on the device at `t`: they hold the current
    /// slot, or the instant is unreserved (first-come-first-served gap).
    pub fn may_run(&self, node: &str, device: &str, user: &str, t: SimTime) -> bool {
        match self.holder_at(node, device, t) {
            Some(slot) => slot.user == user,
            None => true,
        }
    }

    /// All reservations on a device, in start order.
    pub fn schedule(&self, node: &str, device: &str) -> &[Slot] {
        self.slots
            .get(&(node.to_string(), device.to_string()))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn reserve_and_query() {
        let mut cal = SlotCalendar::new();
        cal.reserve("node1", "d1", "alice", t(100), t(200)).unwrap();
        assert_eq!(cal.holder_at("node1", "d1", t(150)).unwrap().user, "alice");
        assert!(
            cal.holder_at("node1", "d1", t(200)).is_none(),
            "end exclusive"
        );
        assert!(cal.holder_at("node1", "d1", t(99)).is_none());
    }

    #[test]
    fn conflicts_rejected() {
        let mut cal = SlotCalendar::new();
        cal.reserve("node1", "d1", "alice", t(100), t(200)).unwrap();
        // Overlapping attempts, every flavour.
        for (from, to) in [(150, 250), (50, 150), (120, 180), (100, 200), (50, 300)] {
            assert!(matches!(
                cal.reserve("node1", "d1", "bob", t(from), t(to)),
                Err(SlotError::Conflict(_))
            ));
        }
        // Adjacent is fine.
        cal.reserve("node1", "d1", "bob", t(200), t(300)).unwrap();
        cal.reserve("node1", "d1", "carol", t(50), t(100)).unwrap();
        assert_eq!(cal.schedule("node1", "d1").len(), 3);
    }

    #[test]
    fn different_devices_are_independent() {
        let mut cal = SlotCalendar::new();
        cal.reserve("node1", "d1", "alice", t(0), t(100)).unwrap();
        cal.reserve("node1", "d2", "bob", t(0), t(100)).unwrap();
        cal.reserve("node2", "d1", "carol", t(0), t(100)).unwrap();
        assert_eq!(cal.holder_at("node1", "d2", t(1)).unwrap().user, "bob");
    }

    #[test]
    fn may_run_semantics() {
        let mut cal = SlotCalendar::new();
        cal.reserve("node1", "d1", "alice", t(100), t(200)).unwrap();
        assert!(cal.may_run("node1", "d1", "alice", t(150)));
        assert!(!cal.may_run("node1", "d1", "bob", t(150)));
        // Unreserved time is free-for-all.
        assert!(cal.may_run("node1", "d1", "bob", t(250)));
    }

    #[test]
    fn release_frees_the_calendar() {
        let mut cal = SlotCalendar::new();
        cal.reserve("node1", "d1", "alice", t(0), t(100)).unwrap();
        cal.release_all("node1", "d1", "alice");
        cal.reserve("node1", "d1", "bob", t(0), t(100)).unwrap();
    }

    #[test]
    fn empty_interval_rejected() {
        let mut cal = SlotCalendar::new();
        assert_eq!(
            cal.reserve("n", "d", "u", t(10), t(10)),
            Err(SlotError::EmptyInterval)
        );
    }
}
