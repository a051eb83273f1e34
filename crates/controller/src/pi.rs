//! Raspberry Pi 3B+ resource model.
//!
//! Figure 5 and the §4.2 system-performance numbers are about the
//! *controller's* CPU and memory: Monsoon polling alone keeps the Pi at a
//! constant ≈25 % CPU; device mirroring lifts the median to ≈75 % with
//! ≈10 % of samples above 95 %, and adds ≈6 % memory on the 1 GB board.
//!
//! The model is a registry of named load sources sampled against the
//! 4-core budget; what the sources contribute comes from the live
//! components (mirroring load follows the device's frame-change trace).

use std::collections::BTreeMap;

use batterylab_sim::SimRng;

/// Total RAM of the Pi 3B+, MB.
pub const PI_RAM_MB: f64 = 1024.0;
/// Cores available.
pub const PI_CORES: u32 = 4;

/// Static cost of a named load source.
#[derive(Clone, Copy, Debug)]
pub struct LoadSource {
    /// CPU fraction of the whole SoC (0–1).
    pub cpu: f64,
    /// Resident memory, MB.
    pub mem_mb: f64,
}

/// The Pi's resource accounting.
pub struct PiModel {
    sources: BTreeMap<String, LoadSource>,
    rng: SimRng,
}

impl PiModel {
    /// A Pi running Raspbian with BatteryLab's base services (sshd, the
    /// GUI backend, housekeeping).
    pub fn new(rng: SimRng) -> Self {
        let mut sources = BTreeMap::new();
        sources.insert(
            "raspbian-base".to_string(),
            LoadSource {
                cpu: 0.025,
                mem_mb: 96.0,
            },
        );
        sources.insert(
            "batterylab-backend".to_string(),
            LoadSource {
                cpu: 0.01,
                mem_mb: 34.0,
            },
        );
        PiModel { sources, rng }
    }

    /// Register (or replace) a load source.
    pub fn set_source(&mut self, name: &str, cpu: f64, mem_mb: f64) {
        self.sources.insert(
            name.to_string(),
            LoadSource {
                cpu: cpu.clamp(0.0, 1.0),
                mem_mb: mem_mb.max(0.0),
            },
        );
    }

    /// Remove a load source (process exited).
    pub fn clear_source(&mut self, name: &str) {
        self.sources.remove(name);
    }

    /// Whether a source is present.
    pub fn has_source(&self, name: &str) -> bool {
        self.sources.contains_key(name)
    }

    /// Instantaneous CPU utilisation (0–1) with scheduler jitter, capped
    /// at saturation.
    pub fn sample_cpu(&mut self) -> f64 {
        let nominal: f64 = self.sources.values().map(|s| s.cpu).sum();
        let jitter = self.rng.normal(0.0, 0.02);
        (nominal + jitter).clamp(0.0, 1.0)
    }

    /// Resident memory in MB.
    pub fn memory_mb(&self) -> f64 {
        self.sources.values().map(|s| s.mem_mb).sum()
    }

    /// Memory utilisation fraction of the 1 GB board.
    pub fn memory_fraction(&self) -> f64 {
        self.memory_mb() / PI_RAM_MB
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pi() -> PiModel {
        PiModel::new(SimRng::new(1).derive("pi"))
    }

    #[test]
    fn base_load_is_light() {
        let mut p = pi();
        let cpu = p.sample_cpu();
        assert!(cpu < 0.12, "idle Pi at {cpu}");
        assert!(p.memory_fraction() < 0.20, "paper: memory below 20 %");
    }

    #[test]
    fn monsoon_polling_pins_25_percent() {
        let mut p = pi();
        p.set_source("monsoon-poll", 0.22, 30.0);
        let samples: Vec<f64> = (0..100).map(|_| p.sample_cpu()).collect();
        let mean = samples.iter().sum::<f64>() / 100.0;
        assert!(
            (0.20..0.30).contains(&mean),
            "mean {mean}, paper shows 25 %"
        );
    }

    #[test]
    fn sources_add_and_remove() {
        let mut p = pi();
        let before = p.memory_mb();
        p.set_source("vnc", 0.3, 60.0);
        assert!(p.has_source("vnc"));
        assert_eq!(p.memory_mb(), before + 60.0);
        p.clear_source("vnc");
        assert!(!p.has_source("vnc"));
        assert_eq!(p.memory_mb(), before);
    }

    #[test]
    fn cpu_saturates_at_one() {
        let mut p = pi();
        p.set_source("a", 0.9, 10.0);
        p.set_source("b", 0.9, 10.0);
        for _ in 0..50 {
            assert!(p.sample_cpu() <= 1.0);
        }
    }

    #[test]
    fn replacing_a_source_does_not_stack() {
        let mut p = pi();
        p.set_source("mirror", 0.4, 65.0);
        p.set_source("mirror", 0.5, 65.0);
        let mem = p.memory_mb();
        p.clear_source("mirror");
        assert!((p.memory_mb() - (mem - 65.0)).abs() < 1e-9);
    }
}
