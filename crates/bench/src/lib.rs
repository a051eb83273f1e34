//! # batterylab-bench
//!
//! Benchmark harness for the BatteryLab reproduction. The `eval` binary
//! regenerates every table and figure of the paper (see `eval --help`);
//! `bench_eval` times that regeneration at one job and at every core,
//! the Monsoon sampler's two paths, and the telemetry overhead of the
//! 5 kHz sampling loop and the ADB shell round trip.

#![warn(missing_docs)]
