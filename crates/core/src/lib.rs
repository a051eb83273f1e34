//! # batterylab
//!
//! A full-system Rust reproduction of **BatteryLab** (Varvello et al.,
//! HotNets '19): a distributed power-monitoring platform for mobile
//! devices — access server, vantage-point controllers, Monsoon power
//! meter, relay circuit switch, Android devices, three automation
//! channels, device mirroring and VPN-emulated locations — with every
//! hardware dependency replaced by a calibrated simulator so the paper's
//! entire evaluation runs on a laptop.
//!
//! ## Quick start
//!
//! ```
//! use batterylab::platform::Platform;
//!
//! let mut platform = Platform::paper_testbed(42);
//! let serial = platform.j7_serial().to_string();
//! let vp = platform.node1();
//! // Table 1 API: power the meter, engage the bypass, measure.
//! vp.power_monitor().unwrap();
//! vp.set_voltage(4.0).unwrap();
//! vp.batt_switch(&serial).unwrap();
//! vp.start_monitor(&serial).unwrap();
//! let device = vp.device_handle(&serial).unwrap();
//! device.with_sim(|sim| {
//!     sim.set_screen(true);
//!     sim.play_video(batterylab::sim::SimDuration::from_secs(10));
//! });
//! let report = vp.stop_monitor_at_rate(500.0).unwrap();
//! assert!(report.mah() > 0.0);
//! ```
//!
//! The [`eval`] module regenerates every table and figure of the paper's
//! evaluation; `cargo run -p batterylab-bench --bin eval -- all` prints
//! them.

#![warn(missing_docs)]

pub mod chaos;
pub mod crashpoint;
pub mod eval;
pub mod platform;
mod scenario;

/// Re-export: ADB implementation.
pub use batterylab_adb as adb;
/// Re-export: automation backends.
pub use batterylab_automation as automation;
/// Re-export: vantage-point controller.
pub use batterylab_controller as controller;
/// Re-export: Android device simulator.
pub use batterylab_device as device;
/// Re-export: crash-consistent durability (WAL, checkpoints).
pub use batterylab_durable as durable;
/// Re-export: deterministic fault injection.
pub use batterylab_faults as faults;
/// Re-export: device mirroring.
pub use batterylab_mirror as mirror;
/// Re-export: network emulation.
pub use batterylab_net as net;
/// Re-export: power instruments.
pub use batterylab_power as power;
/// Re-export: relay switching.
pub use batterylab_relay as relay;
/// Re-export: access server.
pub use batterylab_server as server;
/// Re-export: simulation kernel.
pub use batterylab_sim as sim;
/// Re-export: statistics utilities.
pub use batterylab_stats as stats;
/// Re-export: platform-wide metrics & tracing.
pub use batterylab_telemetry as telemetry;
/// Re-export: browser workloads.
pub use batterylab_workloads as workloads;

pub use eval::EvalConfig;
pub use platform::Platform;
