//! Battery model for test devices.
//!
//! BatteryLab recommends phones with removable batteries (§3.2): the relay
//! switches the phone's voltage terminal between the real battery and the
//! Monsoon's Vout ("battery bypass"). This model provides the battery side
//! of that switch: open-circuit voltage as a function of state of charge,
//! internal resistance, and discharge bookkeeping.

/// A lithium-ion battery pack.
#[derive(Clone, Debug)]
pub struct Battery {
    /// Rated capacity, mAh.
    capacity_mah: f64,
    /// Remaining charge, mAh.
    charge_mah: f64,
    /// Internal series resistance, ohms.
    internal_ohms: f64,
    /// Whether the pack is physically present (removable batteries can be
    /// pulled for permanent-bypass setups).
    present: bool,
}

/// OCV curve knots for a typical Li-ion cell: (state-of-charge, volts).
const OCV_CURVE: [(f64, f64); 7] = [
    (0.00, 3.30),
    (0.10, 3.60),
    (0.25, 3.72),
    (0.50, 3.82),
    (0.75, 3.95),
    (0.90, 4.10),
    (1.00, 4.20),
];

impl Battery {
    /// A full battery of the given capacity.
    pub fn new(capacity_mah: f64) -> Self {
        assert!(capacity_mah > 0.0, "capacity must be positive");
        Battery {
            capacity_mah,
            charge_mah: capacity_mah,
            internal_ohms: 0.12,
            present: true,
        }
    }

    /// The Samsung J7 Duo pack used by the paper's first vantage point
    /// (3000 mAh removable).
    pub fn samsung_j7_duo() -> Self {
        Battery::new(3000.0)
    }

    /// Rated capacity, mAh.
    pub fn capacity_mah(&self) -> f64 {
        self.capacity_mah
    }

    /// Remaining charge, mAh.
    pub fn charge_mah(&self) -> f64 {
        self.charge_mah
    }

    /// State of charge in `[0, 1]`.
    pub fn soc(&self) -> f64 {
        self.charge_mah / self.capacity_mah
    }

    /// State of charge as the percentage Android reports.
    pub fn level_percent(&self) -> u8 {
        (self.soc() * 100.0).round().clamp(0.0, 100.0) as u8
    }

    /// Whether the pack is installed.
    pub fn is_present(&self) -> bool {
        self.present
    }

    /// Remove the pack (battery-bypass setups).
    pub fn remove(&mut self) {
        self.present = false;
    }

    /// Reinstall the pack.
    pub fn insert(&mut self) {
        self.present = true;
    }

    /// Open-circuit voltage at the current state of charge.
    pub fn ocv(&self) -> f64 {
        let soc = self.soc().clamp(0.0, 1.0);
        // Piecewise-linear interpolation over the knot table.
        for w in OCV_CURVE.windows(2) {
            let (s0, v0) = w[0];
            let (s1, v1) = w[1];
            if soc <= s1 {
                let f = if s1 > s0 { (soc - s0) / (s1 - s0) } else { 0.0 };
                return v0 + f * (v1 - v0);
            }
        }
        OCV_CURVE.last().expect("non-empty").1
    }

    /// Terminal voltage under a load drawing `load_ma`.
    pub fn terminal_voltage(&self, load_ma: f64) -> f64 {
        (self.ocv() - load_ma / 1000.0 * self.internal_ohms).max(0.0)
    }

    /// Discharge by `ma` for `hours`; charge floor is 0.
    pub fn discharge(&mut self, ma: f64, hours: f64) {
        assert!(ma >= 0.0 && hours >= 0.0);
        self.charge_mah = (self.charge_mah - ma * hours).max(0.0);
    }

    /// Charge by `ma` for `hours`; ceiling is rated capacity.
    pub fn charge(&mut self, ma: f64, hours: f64) {
        assert!(ma >= 0.0 && hours >= 0.0);
        self.charge_mah = (self.charge_mah + ma * hours).min(self.capacity_mah);
    }

    /// True once the pack can no longer power a device.
    pub fn is_depleted(&self) -> bool {
        self.charge_mah <= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_battery_is_4_2v() {
        let b = Battery::new(3000.0);
        assert!((b.ocv() - 4.2).abs() < 1e-9);
        assert_eq!(b.level_percent(), 100);
    }

    #[test]
    fn ocv_monotonic_in_soc() {
        let mut b = Battery::new(1000.0);
        let mut last = b.ocv();
        while !b.is_depleted() {
            b.discharge(100.0, 0.5); // 50 mAh steps
            let v = b.ocv();
            assert!(v <= last + 1e-12, "OCV must fall as SoC falls");
            last = v;
        }
        assert!((b.ocv() - 3.3).abs() < 1e-9);
    }

    #[test]
    fn terminal_voltage_sags_under_load() {
        let b = Battery::new(3000.0);
        assert!(b.terminal_voltage(1000.0) < b.ocv());
        assert!((b.ocv() - b.terminal_voltage(1000.0) - 0.12).abs() < 1e-9);
    }

    #[test]
    fn discharge_and_charge_clamp() {
        let mut b = Battery::new(100.0);
        b.discharge(1000.0, 1.0); // far more than capacity
        assert!(b.is_depleted());
        assert_eq!(b.charge_mah(), 0.0);
        b.charge(1000.0, 1.0);
        assert_eq!(b.charge_mah(), 100.0);
    }

    #[test]
    fn removable_pack() {
        let mut b = Battery::samsung_j7_duo();
        assert!(b.is_present());
        b.remove();
        assert!(!b.is_present());
        b.insert();
        assert!(b.is_present());
    }

    #[test]
    fn level_percent_rounds() {
        let mut b = Battery::new(1000.0);
        b.discharge(5.0, 1.0); // 995 mAh → 99.5 % → rounds to 100
        assert_eq!(b.level_percent(), 100);
        b.discharge(10.0, 1.0); // 985 → 98.5 → 99 (banker-free round)
        assert_eq!(b.level_percent(), 99);
    }
}
