//! # batterylab-telemetry
//!
//! Platform-wide metrics and tracing for BatteryLab: atomic
//! [`Counter`]s, [`Gauge`]s, log2-bucketed [`Histogram`]s with
//! percentile extraction, a bounded [`Journal`] of annotated events,
//! and a [`Registry`] that snapshots everything into a serialisable
//! [`Report`].
//!
//! Two properties drive the design:
//!
//! * **Determinism.** Timestamps come from a [`VirtualClock`] advanced
//!   from sim time — never from the wall clock — so an instrumented
//!   run under a fixed seed produces a byte-for-byte identical report.
//!   Snapshots order metrics by name and events by
//!   `(time, label)`, which keeps reports stable even when samples are
//!   recorded from worker threads.
//! * **Hot-path cost.** Counter bumps and histogram records are single
//!   relaxed atomic RMWs on pre-resolved handles: no locks, no
//!   allocation, no registry lookup. The 5 kHz Monsoon sampling loop
//!   runs with these enabled; the bench suite holds them to a <5%
//!   overhead budget.

#![warn(missing_docs)]

mod clock;
mod journal;
mod metrics;
mod registry;

pub use clock::VirtualClock;
pub use journal::{Event, Journal};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{Registry, Report};
