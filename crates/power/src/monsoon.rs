//! Monsoon HV power-monitor simulator.
//!
//! The Monsoon High Voltage Power Monitor supplies a programmable voltage
//! (0.8–13.5 V, up to 6 A continuous) and samples the delivered current at
//! 5 kHz. BatteryLab drives it through its Python API; this module is that
//! control surface over a simulated instrument, with the imperfections a
//! real meter has: calibration gain/offset error, ADC quantisation and a
//! noise floor.
//!
//! The controller toggles the instrument's mains power through a WiFi
//! power socket (see [`crate::socket`]) — the paper keeps the meter off
//! when idle "for safety reasons".

use batterylab_durable::{CheckpointStream, GapReport};
use batterylab_faults::{FaultInjector, FaultKind};
use batterylab_sim::{SimDuration, SimRng, SimTime, UniformSeries};
use batterylab_stats::EnergyAccumulator;
use batterylab_telemetry::{Counter, Histogram, Registry};
use serde::Serialize;

use crate::source::{CurrentSource, Segment};

/// Native sampling rate of the Monsoon HV, Hz.
pub const MONSOON_RATE_HZ: f64 = 5000.0;
/// Samples per noise block. Each run draws one key from the meter's
/// stream; sample `k` takes its noise from the stream keyed by
/// `(run key, k / SAMPLE_CHUNK)`, so the noise a sample gets does not
/// depend on where load segments or checkpoint seals fall.
const SAMPLE_CHUNK: u64 = 1024;
/// Programmable output voltage range, volts.
pub const VOLTAGE_RANGE: (f64, f64) = (0.8, 13.5);
/// Continuous current limit, mA.
pub const MAX_CONTINUOUS_MA: f64 = 6000.0;

/// Errors raised by the instrument.
#[derive(Clone, Debug, PartialEq)]
pub enum MonsoonError {
    /// Mains power is off (the WiFi socket has not enabled it).
    PoweredOff,
    /// Requested voltage is outside 0.8–13.5 V.
    VoltageOutOfRange(f64),
    /// Output current exceeded the 6 A continuous limit; the instrument
    /// tripped its protection during a run.
    OverCurrent {
        /// When the trip occurred.
        at: SimTime,
        /// The offending current, mA.
        current_ma: f64,
    },
    /// Operation requires Vout enabled.
    OutputDisabled,
    /// A checkpointed run's salvaged prefix failed verification (gap,
    /// overlap, corruption or plan mismatch) and was NOT integrated.
    Checkpoint(GapReport),
}

impl std::fmt::Display for MonsoonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonsoonError::PoweredOff => write!(f, "monsoon is powered off"),
            MonsoonError::VoltageOutOfRange(v) => {
                write!(f, "voltage {v} V outside {:?}", VOLTAGE_RANGE)
            }
            MonsoonError::OverCurrent { at, current_ma } => {
                write!(f, "over-current {current_ma:.0} mA at {at}")
            }
            MonsoonError::OutputDisabled => write!(f, "Vout is disabled"),
            MonsoonError::Checkpoint(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for MonsoonError {}

/// Result of a sampling run.
#[derive(Clone, Debug)]
pub struct SampleRun {
    /// The raw current samples, mA, on the run's uniform sample grid.
    pub samples: UniformSeries,
    /// Streamed aggregates (what the controller keeps for long runs).
    pub energy: EnergyAccumulator,
    /// Voltage the run was performed at.
    pub voltage_v: f64,
}

/// Calibration and noise characteristics of an individual instrument.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Calibration {
    /// Multiplicative gain error (1.0 = perfect).
    pub gain: f64,
    /// Additive offset, mA.
    pub offset_ma: f64,
    /// Gaussian noise floor, mA RMS per sample.
    pub noise_ma: f64,
    /// ADC step, mA (readings quantise to this).
    pub lsb_ma: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        // A healthy, factory-calibrated HV unit.
        Calibration {
            gain: 1.0005,
            offset_ma: 0.03,
            noise_ma: 0.25,
            lsb_ma: 0.02,
        }
    }
}

impl Calibration {
    /// The reading of a sample whose calibrated current is `ma`: ADC
    /// quantisation, and no negative currents on the HV's unidirectional
    /// main channel.
    fn quantise(&self, ma: f64) -> f64 {
        ((ma / self.lsb_ma).round() * self.lsb_ma).max(0.0)
    }
}

/// Pre-resolved telemetry handles. Bound once at construction so the
/// sampling loop never touches the registry lock.
struct MonsoonTelemetry {
    registry: Registry,
    samples: Counter,
    runs: Counter,
    overcurrent_trips: Counter,
    sample_ua: Histogram,
    run_us: Histogram,
}

impl MonsoonTelemetry {
    fn bind(registry: &Registry) -> Self {
        MonsoonTelemetry {
            samples: registry.counter("power.samples"),
            runs: registry.counter("power.sample_runs"),
            overcurrent_trips: registry.counter("power.overcurrent_trips"),
            sample_ua: registry.histogram("power.sample_ua"),
            run_us: registry.histogram("power.run_us"),
            registry: registry.clone(),
        }
    }

    /// Count a protection trip and journal it.
    fn trip(&self, at: SimTime, current_ma: f64, detail: String) -> MonsoonError {
        self.overcurrent_trips.inc();
        self.registry.event("power.overcurrent", detail);
        MonsoonError::OverCurrent { at, current_ma }
    }
}

/// How a run learns the load's current.
#[derive(Clone, Copy)]
enum Physics {
    /// Once per constant segment, through [`CurrentSource::segments`].
    Segments,
    /// At every sample instant, through [`CurrentSource::current_ma`]:
    /// the reference the segment walk is checked against.
    PerSample,
}

/// The load's constant-current spans over a run's sample grid.
struct Spans<'a> {
    load: &'a dyn CurrentSource,
    /// The load's segments when it reports them; empty otherwise, and
    /// then every sample is a span of its own.
    segments: std::vec::IntoIter<Segment>,
    segmented: bool,
    start_us: u64,
    period_us: u64,
    voltage_v: f64,
}

impl Spans<'_> {
    /// The span holding sample `k` of `n`: its exclusive end sample and
    /// its current, mA. Segments holding no sample instant are skipped,
    /// as a per-sample walk never observes them.
    fn at(&mut self, k: u64, n: u64) -> (u64, f64) {
        for seg in self.segments.by_ref() {
            // Sample j lives at start + j·period; those strictly before
            // the segment's exclusive end are j < ceil(span / period).
            let end = if seg.end == SimTime::MAX {
                n
            } else {
                let span = seg.end.as_micros().saturating_sub(self.start_us);
                span.div_ceil(self.period_us).min(n)
            };
            if end > k {
                return (end, seg.current_ma);
            }
        }
        debug_assert!(
            !self.segmented,
            "CurrentSource::segments did not cover the sampling window (sample {k} of {n})"
        );
        let t = SimTime::from_micros(self.start_us + k * self.period_us);
        (k + 1, self.load.current_ma(t, self.voltage_v))
    }
}

/// A run's noise, one block at a time: sample `k` takes normal
/// `k mod SAMPLE_CHUNK` of the stream keyed by `(key, k / SAMPLE_CHUNK)`.
/// A block is drawn only as far as the run reads it, and entering one
/// part-way (a resume) draws its prefix first.
struct NoiseBlocks<'a> {
    key: u64,
    block: u64,
    rng: SimRng,
    drawn: &'a mut Vec<f64>,
}

impl<'a> NoiseBlocks<'a> {
    fn new(key: u64, scratch: &'a mut Vec<f64>) -> Self {
        scratch.clear();
        NoiseBlocks {
            key,
            block: 0,
            rng: SimRng::keyed(key, 0),
            drawn: scratch,
        }
    }

    /// Standard normals for samples `first..first + len`, which must lie
    /// in one block.
    fn slice(&mut self, first: u64, len: usize) -> &[f64] {
        let block = first / SAMPLE_CHUNK;
        if block != self.block {
            self.block = block;
            self.rng = SimRng::keyed(self.key, block);
            self.drawn.clear();
        }
        let lo = (first % SAMPLE_CHUNK) as usize;
        let hi = lo + len;
        debug_assert!(hi as u64 <= SAMPLE_CHUNK, "noise slice crosses a block");
        let drawn = self.drawn.len();
        if drawn < hi {
            self.drawn.resize(hi, 0.0);
            self.rng.fill_standard_normal(&mut self.drawn[drawn..]);
        }
        &self.drawn[lo..hi]
    }
}

/// The simulated instrument.
pub struct Monsoon {
    powered: bool,
    vout_enabled: bool,
    voltage_v: f64,
    calibration: Calibration,
    rng: SimRng,
    total_samples: u64,
    telemetry: MonsoonTelemetry,
    /// Platform fault plan: brownout/over-current/sag specs at
    /// `fault_site` fire at the start of a sampling run.
    faults: FaultInjector,
    fault_site: String,
    // Scratch reused across runs, so steady-state sampling allocates
    // nothing beyond the output trace: one noise block, and the µA
    // readings of one stretch for the histogram.
    noise: Vec<f64>,
    readings_ua: Vec<u64>,
}

impl Monsoon {
    /// A powered-off instrument with default calibration. `rng` should be
    /// derived from the experiment seed (label `"monsoon"`).
    pub fn new(rng: SimRng) -> Self {
        Monsoon {
            powered: false,
            vout_enabled: false,
            voltage_v: 4.0,
            calibration: Calibration::default(),
            rng,
            total_samples: 0,
            telemetry: MonsoonTelemetry::bind(&Registry::new()),
            faults: FaultInjector::disabled(),
            fault_site: batterylab_faults::site::POWER_METER.to_string(),
            noise: Vec::with_capacity(SAMPLE_CHUNK as usize),
            readings_ua: Vec::with_capacity(SAMPLE_CHUNK as usize),
        }
    }

    /// Replace the calibration (fault-injection tests use this).
    pub fn with_calibration(mut self, cal: Calibration) -> Self {
        self.calibration = cal;
        self
    }

    /// Rebind telemetry to a shared registry (`power.*` metrics).
    pub fn with_telemetry(mut self, registry: &Registry) -> Self {
        self.set_telemetry(registry);
        self
    }

    /// In-place variant of [`Self::with_telemetry`].
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.telemetry = MonsoonTelemetry::bind(registry);
    }

    /// Consult `injector` at the start of every sampling run for
    /// `MeterBrownout`, `OverCurrent` and `VoltageSag` specs at `site`.
    pub fn set_faults(&mut self, injector: &FaultInjector, site: &str) {
        self.faults = injector.clone();
        self.fault_site = site.to_string();
    }

    /// Mains power state.
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Apply/remove mains power (driven by the WiFi socket). Removing
    /// power drops Vout.
    pub fn set_powered(&mut self, on: bool) {
        self.powered = on;
        if !on {
            self.vout_enabled = false;
        }
    }

    /// Program the output voltage.
    pub fn set_voltage(&mut self, volts: f64) -> Result<(), MonsoonError> {
        if !self.powered {
            return Err(MonsoonError::PoweredOff);
        }
        if !(VOLTAGE_RANGE.0..=VOLTAGE_RANGE.1).contains(&volts) {
            return Err(MonsoonError::VoltageOutOfRange(volts));
        }
        self.voltage_v = volts;
        Ok(())
    }

    /// Programmed output voltage.
    pub fn voltage(&self) -> f64 {
        self.voltage_v
    }

    /// Enable the main output channel.
    pub fn enable_vout(&mut self) -> Result<(), MonsoonError> {
        if !self.powered {
            return Err(MonsoonError::PoweredOff);
        }
        self.vout_enabled = true;
        Ok(())
    }

    /// Disable the main output channel.
    pub fn disable_vout(&mut self) {
        self.vout_enabled = false;
    }

    /// Whether Vout is live.
    pub fn vout_enabled(&self) -> bool {
        self.vout_enabled
    }

    /// Lifetime sample count (diagnostics).
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// Sample `load` at the native 5 kHz for `duration_s` seconds starting
    /// at `start`. Returns the full trace plus streaming aggregates.
    ///
    /// An over-current trips protection mid-run and aborts with an error,
    /// like the real instrument.
    pub fn sample_run(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
    ) -> Result<SampleRun, MonsoonError> {
        self.sample_run_at_rate(load, start, duration_s, MONSOON_RATE_HZ)
    }

    /// As [`Self::sample_run`] but at a caller-chosen rate — long browser
    /// experiments use a decimated rate to bound memory, exactly like the
    /// controller's streaming mode.
    ///
    /// When the load reports its piecewise-constant structure through
    /// [`CurrentSource::segments`], the physics is evaluated **once per
    /// constant segment** and calibration, noise, quantisation and
    /// aggregation run over the segment's samples in tight slice loops,
    /// bit-identical to the per-sample reference
    /// ([`Self::sample_run_reference_at_rate`]). Loads without step
    /// structure are read at every sample instant.
    pub fn sample_run_at_rate(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
    ) -> Result<SampleRun, MonsoonError> {
        self.run(load, start, duration_s, rate_hz, Physics::Segments, None)
    }

    /// The per-sample reference: reads the load through
    /// [`CurrentSource::current_ma`] at every sample instant, with the
    /// same noise blocks as every other run. Kept public so equivalence
    /// tests and benches can pin the segment walk against it.
    pub fn sample_run_reference_at_rate(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
    ) -> Result<SampleRun, MonsoonError> {
        self.run(load, start, duration_s, rate_hz, Physics::PerSample, None)
    }

    /// Crash-resumable sampling: [`Self::sample_run_at_rate`] with a
    /// sink that seals every `stream.interval()` samples (values + CRC +
    /// cumulative [`EnergyAccumulator`] snapshot) into `stream` as they
    /// complete. `stream` lives on the simulated durable disk, so a
    /// crash mid-run loses at most the unsealed stretch in flight. On a
    /// fresh stream the run is bit-identical to the plain run.
    ///
    /// Calling again with the surviving stream on a meter in the same
    /// state **resumes** at the last checkpoint boundary: the sealed
    /// prefix is verified first (CRC, contiguity, cumulative
    /// bit-consistency — a bad splice returns
    /// [`MonsoonError::Checkpoint`] and consumes nothing from the
    /// meter's stream) and only the missing samples are drawn. The run
    /// key is part of the sealed plan, and noise is a pure function of
    /// (run key, sample index), so the resumed run reproduces exactly
    /// the samples of the uninterrupted one.
    pub fn sample_run_checkpointed(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
        stream: &mut CheckpointStream,
    ) -> Result<SampleRun, MonsoonError> {
        self.run(
            load,
            start,
            duration_s,
            rate_hz,
            Physics::Segments,
            Some(stream),
        )
    }

    /// Power and fault gating shared by every run, around [`Self::sample`].
    fn run(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
        physics: Physics,
        sink: Option<&mut CheckpointStream>,
    ) -> Result<SampleRun, MonsoonError> {
        if !self.powered {
            return Err(MonsoonError::PoweredOff);
        }
        if !self.vout_enabled {
            return Err(MonsoonError::OutputDisabled);
        }
        assert!(duration_s > 0.0, "sampling duration must be positive");
        assert!(
            rate_hz > 0.0 && rate_hz <= MONSOON_RATE_HZ,
            "rate 0..=5000 Hz"
        );
        // Field faults scheduled against the meter: a mains brownout
        // drops power mid-arm; a forced protection trip aborts the run;
        // a sagged battery-bypass contact lowers the bus voltage the
        // whole run measures at (a sag that held during a checkpointed
        // attempt but not its resume is a voltage plan mismatch).
        if self
            .faults
            .check(&self.fault_site, FaultKind::MeterBrownout, start)
        {
            self.set_powered(false);
            return Err(MonsoonError::PoweredOff);
        }
        if self
            .faults
            .check(&self.fault_site, FaultKind::OverCurrent, start)
        {
            return Err(self.telemetry.trip(
                start,
                MAX_CONTINUOUS_MA,
                format!("forced trip at {start}"),
            ));
        }
        let nominal_v = self.voltage_v;
        if self
            .faults
            .check(&self.fault_site, FaultKind::VoltageSag, start)
        {
            self.voltage_v = (nominal_v * 0.92).max(VOLTAGE_RANGE.0);
        }
        let result = self.sample(load, start, duration_s, rate_hz, physics, sink);
        self.voltage_v = nominal_v;
        result
    }

    /// The sampling run proper: walk the load's constant-current spans,
    /// and over each stretch that stays inside one span, one noise block
    /// and one checkpoint interval, apply calibration, noise and
    /// quantisation and fold the readings into the aggregates. A sink
    /// seals each completed checkpoint interval.
    fn sample(
        &mut self,
        load: &dyn CurrentSource,
        start: SimTime,
        duration_s: f64,
        rate_hz: f64,
        physics: Physics,
        mut sink: Option<&mut CheckpointStream>,
    ) -> Result<SampleRun, MonsoonError> {
        let n = (duration_s * rate_hz).round() as u64;
        let period_us = (1e6 / rate_hz).round() as u64;
        let voltage_v = self.voltage_v;
        let end_us = start.as_micros() + n * period_us;
        if let Some(stream) = sink.as_deref() {
            // Verify the salvaged prefix BEFORE integrating any of it.
            stream.verify().map_err(MonsoonError::Checkpoint)?;
        }
        let key = self.rng.next_u64();
        let (mut values, mut energy, interval) = match sink.as_deref_mut() {
            Some(stream) => {
                stream
                    .configure(rate_hz, voltage_v, n, key)
                    .map_err(MonsoonError::Checkpoint)?;
                let mut values = stream.concat_values();
                values.reserve((n as usize).saturating_sub(values.len()));
                (values, stream.final_energy(), Some(stream.interval()))
            }
            None => (
                Vec::with_capacity(n as usize),
                EnergyAccumulator::new(rate_hz),
                None,
            ),
        };
        let first = values.len() as u64;
        let segments = match physics {
            Physics::Segments => load.segments(start, SimTime::from_micros(end_us), voltage_v),
            Physics::PerSample => None,
        };
        let mut spans = Spans {
            load,
            segmented: segments.is_some(),
            segments: segments.unwrap_or_default().into_iter(),
            start_us: start.as_micros(),
            period_us,
            voltage_v,
        };
        let cal = self.calibration;
        let mut noise = NoiseBlocks::new(key, &mut self.noise);
        let mut done = first;
        let outcome = loop {
            if done >= n {
                break Ok(());
            }
            let (span_end, true_ma) = spans.at(done, n);
            if true_ma > MAX_CONTINUOUS_MA {
                // Constant across the span ⇒ its first sample trips.
                let at = SimTime::from_micros(start.as_micros() + done * period_us);
                break Err(self.telemetry.trip(
                    at,
                    true_ma,
                    format!("{current:.0} mA at {at}", current = true_ma),
                ));
            }
            // One physics + calibration evaluation for the whole span.
            let base = true_ma * cal.gain + cal.offset_ma;
            while done < span_end {
                let seal_at = interval.map_or(n, |i| (done / i + 1) * i);
                let stop = span_end
                    .min((done / SAMPLE_CHUNK + 1) * SAMPLE_CHUNK)
                    .min(seal_at);
                let len = (stop - done) as usize;
                let from = values.len();
                if cal.noise_ma == 0.0 {
                    // Noise-free: every sample of the span reads the same.
                    values.resize(from + len, cal.quantise(base));
                } else {
                    let z = noise.slice(done, len);
                    values.extend(z.iter().map(|&z| cal.quantise(base + cal.noise_ma * z)));
                }
                let fresh = &values[from..];
                energy.push_slice(fresh, voltage_v);
                self.readings_ua.clear();
                self.readings_ua
                    .extend(fresh.iter().map(|&ma| (ma * 1000.0).round() as u64));
                self.telemetry.sample_ua.record_slice(&self.readings_ua);
                done = stop;
                if let (Some(stream), Some(i)) = (sink.as_deref_mut(), interval) {
                    if done == seal_at.min(n) {
                        stream.seal(&values[((done - 1) / i * i) as usize..], &energy);
                        self.telemetry
                            .registry
                            .counter("durable.checkpoints_sealed")
                            .inc();
                    }
                }
            }
        };
        // Samples drawn before a trip stay accounted; an unsealed stretch
        // in flight is lost with the run.
        self.total_samples += done - first;
        self.telemetry.samples.add(done - first);
        outcome?;
        if first > 0 {
            self.telemetry
                .registry
                .counter("durable.samples_salvaged")
                .add(first);
            self.telemetry.registry.event(
                "durable.resume",
                format!("salvaged {first} of {n} samples from sealed checkpoints"),
            );
        }
        self.telemetry.runs.inc();
        self.telemetry.run_us.record(n * period_us);
        self.telemetry.registry.clock().advance_to(end_us);
        Ok(SampleRun {
            samples: UniformSeries::new(start, SimDuration::from_micros(period_us), values),
            energy,
            voltage_v,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{ConstantLoad, OpenCircuit};
    use batterylab_stats::Summary;

    fn powered_monsoon(seed: u64) -> Monsoon {
        let mut m = Monsoon::new(SimRng::new(seed).derive("monsoon"));
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        m
    }

    #[test]
    fn requires_power_and_vout() {
        let mut m = Monsoon::new(SimRng::new(1).derive("monsoon"));
        assert_eq!(m.set_voltage(4.0), Err(MonsoonError::PoweredOff));
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        let err = m.sample_run(&OpenCircuit, SimTime::ZERO, 0.01).unwrap_err();
        assert_eq!(err, MonsoonError::OutputDisabled);
        m.enable_vout().unwrap();
        assert!(m.sample_run(&OpenCircuit, SimTime::ZERO, 0.01).is_ok());
    }

    #[test]
    fn voltage_range_enforced() {
        let mut m = Monsoon::new(SimRng::new(1).derive("monsoon"));
        m.set_powered(true);
        assert!(matches!(
            m.set_voltage(0.5),
            Err(MonsoonError::VoltageOutOfRange(_))
        ));
        assert!(matches!(
            m.set_voltage(14.0),
            Err(MonsoonError::VoltageOutOfRange(_))
        ));
        assert!(m.set_voltage(0.8).is_ok());
        assert!(m.set_voltage(13.5).is_ok());
    }

    #[test]
    fn five_khz_sample_count() {
        let mut m = powered_monsoon(2);
        let run = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 1.0)
            .unwrap();
        assert_eq!(run.samples.len(), 5000);
        assert_eq!(run.energy.samples(), 5000);
    }

    #[test]
    fn reading_accuracy_within_spec() {
        let mut m = powered_monsoon(3);
        let run = m
            .sample_run(&ConstantLoad::new(160.0, 4.0), SimTime::ZERO, 2.0)
            .unwrap();
        let s = Summary::of(run.samples.values());
        // Gain 1.0005 + offset 0.03 on 160 mA → ~160.11; noise averages out.
        assert!((s.mean - 160.0).abs() < 0.5, "mean {}", s.mean);
        assert!(s.std_dev < 0.5, "noise floor too high: {}", s.std_dev);
    }

    #[test]
    fn energy_integration_matches_mean() {
        let mut m = powered_monsoon(4);
        let run = m
            .sample_run(&ConstantLoad::new(300.0, 4.0), SimTime::ZERO, 1.0)
            .unwrap();
        // 300 mA for 1 s = 300/3600 mAh.
        assert!((run.energy.mah() - 300.0 / 3600.0).abs() < 0.001);
    }

    #[test]
    fn over_current_trips() {
        let mut m = powered_monsoon(5);
        let err = m
            .sample_run(&ConstantLoad::new(7000.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap_err();
        assert!(matches!(err, MonsoonError::OverCurrent { .. }));
    }

    #[test]
    fn power_cycle_drops_vout() {
        let mut m = powered_monsoon(6);
        assert!(m.vout_enabled());
        m.set_powered(false);
        assert!(!m.vout_enabled());
        assert_eq!(
            m.sample_run(&OpenCircuit, SimTime::ZERO, 0.01).unwrap_err(),
            MonsoonError::PoweredOff
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run1 = powered_monsoon(7)
            .sample_run(&ConstantLoad::new(50.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap();
        let run2 = powered_monsoon(7)
            .sample_run(&ConstantLoad::new(50.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap();
        assert_eq!(run1.samples.values(), run2.samples.values());
    }

    #[test]
    fn decimated_rate_bounds_memory() {
        let mut m = powered_monsoon(8);
        let run = m
            .sample_run_at_rate(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 10.0, 50.0)
            .unwrap();
        assert_eq!(run.samples.len(), 500);
    }

    #[test]
    fn readings_quantised_to_lsb() {
        let mut m = powered_monsoon(9);
        let run = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 0.01)
            .unwrap();
        for &v in run.samples.values() {
            let steps = v / 0.02;
            assert!((steps - steps.round()).abs() < 1e-6, "not quantised: {v}");
        }
    }

    #[test]
    fn telemetry_counts_samples_and_trips() {
        let registry = Registry::new();
        let mut m = Monsoon::new(SimRng::new(11).derive("monsoon")).with_telemetry(&registry);
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        m.sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 0.1)
            .unwrap();
        let _ = m.sample_run(&ConstantLoad::new(7000.0, 4.0), SimTime::ZERO, 0.1);
        let report = registry.snapshot();
        assert_eq!(report.counter("power.samples"), 500);
        assert_eq!(report.counter("power.sample_runs"), 1);
        assert_eq!(report.counter("power.overcurrent_trips"), 1);
        let h = report.histogram("power.sample_ua").unwrap();
        assert_eq!(h.count, 500);
        assert!(
            h.mean() > 90_000.0 && h.mean() < 110_000.0,
            "mean {}",
            h.mean()
        );
        // The run advanced the shared virtual clock to its end.
        assert_eq!(report.at_micros, 100_000);
        assert!(report.events.iter().any(|e| e.label == "power.overcurrent"));
    }

    #[test]
    fn mid_chunk_trip_counts_samples_before_the_trip() {
        // A load that is healthy for 60 ms then trips: the chunked loop
        // must account exactly the samples drawn before the over-current,
        // matching the old per-sample accounting.
        struct RampTrip;
        impl crate::source::CurrentSource for RampTrip {
            fn current_ma(&self, t: SimTime, _supply_v: f64) -> f64 {
                if t.as_micros() >= 60_000 {
                    7000.0
                } else {
                    100.0
                }
            }
        }
        let registry = Registry::new();
        let mut m = Monsoon::new(SimRng::new(12).derive("monsoon")).with_telemetry(&registry);
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        let err = m.sample_run(&RampTrip, SimTime::ZERO, 0.1).unwrap_err();
        assert!(matches!(err, MonsoonError::OverCurrent { .. }));
        // 5 kHz → 200 µs period → samples at 0, 200, ..., 59 800 µs pass:
        // 300 samples before the trip at t = 60 000 µs.
        assert_eq!(registry.snapshot().counter("power.samples"), 300);
        assert_eq!(m.total_samples(), 300);
        assert_eq!(registry.snapshot().counter("power.overcurrent_trips"), 1);
    }

    #[test]
    fn chunked_run_spans_multiple_chunks() {
        // 2 s at 5 kHz = 10 000 samples ≫ one chunk; the trace must come
        // out whole, ordered and fully counted.
        let mut m = powered_monsoon(13);
        let run = m
            .sample_run(&ConstantLoad::new(120.0, 4.0), SimTime::ZERO, 2.0)
            .unwrap();
        assert_eq!(run.samples.len(), 10_000);
        assert_eq!(run.samples.start(), SimTime::ZERO);
        assert_eq!(run.samples.time(9_999), SimTime::from_micros(9_999 * 200));
        assert_eq!(m.total_samples(), 10_000);
    }

    #[test]
    fn runs_draw_fresh_noise_from_the_meter_stream() {
        // Each run draws its own key, so a second run over the same
        // window on the same meter is not a replay of the first.
        let mut m = powered_monsoon(14);
        let load = ConstantLoad::new(120.0, 4.0);
        let a = m.sample_run(&load, SimTime::ZERO, 0.1).unwrap();
        let b = m.sample_run(&load, SimTime::ZERO, 0.1).unwrap();
        assert_ne!(a.samples.values(), b.samples.values());
        // A meter in the same state replays it exactly.
        let again = powered_monsoon(14)
            .sample_run(&load, SimTime::ZERO, 0.1)
            .unwrap();
        assert_eq!(a.samples.values(), again.samples.values());
    }

    #[test]
    fn plain_run_is_a_checkpointed_run_without_a_sink() {
        let load = ConstantLoad::new(150.0, 4.0);
        let plain = powered_monsoon(34)
            .sample_run_at_rate(&load, SimTime::ZERO, 1.3, 1000.0)
            .unwrap();
        // 300 does not divide the 1024-sample noise block.
        let mut stream = CheckpointStream::new(300);
        let sealed = powered_monsoon(34)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.3, 1000.0, &mut stream)
            .unwrap();
        assert_eq!(plain.samples.values(), sealed.samples.values());
        assert_eq!(plain.energy.mah().to_bits(), sealed.energy.mah().to_bits());
        assert_eq!(stream.segments.len(), 5);
        assert_eq!(stream.concat_values(), plain.samples.values());
    }

    #[test]
    fn resume_under_another_run_key_is_a_plan_mismatch() {
        let load = ConstantLoad::new(150.0, 4.0);
        let mut stream = CheckpointStream::new(100);
        let _ = powered_monsoon(35)
            .sample_run_checkpointed(&load, SimTime::ZERO, 0.5, 1000.0, &mut stream)
            .unwrap();
        stream.segments.truncate(2);
        // A meter that has already run once draws a different key.
        let mut used = powered_monsoon(35);
        used.sample_run(&load, SimTime::ZERO, 0.01).unwrap();
        let err = used
            .sample_run_checkpointed(&load, SimTime::ZERO, 0.5, 1000.0, &mut stream)
            .unwrap_err();
        assert!(matches!(
            err,
            MonsoonError::Checkpoint(GapReport {
                kind: batterylab_durable::GapKind::PlanMismatch,
                ..
            })
        ));
    }

    #[test]
    fn injected_meter_faults_fire_once_then_clear() {
        use batterylab_faults::{FaultInjector, FaultPlan};
        let registry = Registry::new();
        let mut m = powered_monsoon(21);
        m.set_telemetry(&registry);
        let plan = FaultPlan::new()
            .next_n("power.meter", FaultKind::MeterBrownout, 1)
            .next_n("power.meter", FaultKind::OverCurrent, 1);
        let injector = FaultInjector::new(&plan, 3);
        injector.set_telemetry(&registry);
        m.set_faults(&injector, "power.meter");
        let load = ConstantLoad::new(100.0, 4.0);
        // First run: brownout drops mains mid-arm.
        assert_eq!(
            m.sample_run(&load, SimTime::ZERO, 0.01).unwrap_err(),
            MonsoonError::PoweredOff
        );
        assert!(!m.is_powered());
        // Re-power: the forced protection trip fires next.
        m.set_powered(true);
        m.set_voltage(4.0).unwrap();
        m.enable_vout().unwrap();
        assert!(matches!(
            m.sample_run(&load, SimTime::ZERO, 0.01).unwrap_err(),
            MonsoonError::OverCurrent { .. }
        ));
        // Plan exhausted: the third run completes.
        assert!(m.sample_run(&load, SimTime::ZERO, 0.01).is_ok());
        let report = registry.snapshot();
        assert_eq!(report.counter("faults.injected"), 2);
        assert_eq!(report.counter("power.overcurrent_trips"), 1);
    }

    #[test]
    fn voltage_sag_scales_the_run_and_restores() {
        use batterylab_faults::{FaultInjector, FaultPlan};
        let mut m = powered_monsoon(22);
        let plan = FaultPlan::new().window(
            "power.meter",
            FaultKind::VoltageSag,
            SimTime::ZERO,
            SimTime::from_secs(1),
        );
        m.set_faults(&FaultInjector::new(&plan, 4), "power.meter");
        let sagged = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::ZERO, 0.01)
            .unwrap();
        assert!((sagged.voltage_v - 4.0 * 0.92).abs() < 1e-9);
        // Outside the window the programmed voltage is back.
        let healthy = m
            .sample_run(&ConstantLoad::new(100.0, 4.0), SimTime::from_secs(2), 0.01)
            .unwrap();
        assert_eq!(healthy.voltage_v, 4.0);
        assert_eq!(m.voltage(), 4.0);
    }

    #[test]
    fn checkpointed_resume_is_bit_identical() {
        let load = ConstantLoad::new(150.0, 4.0);
        // Uninterrupted checkpointed run.
        let mut full_stream = CheckpointStream::new(100);
        let full = powered_monsoon(31)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut full_stream)
            .unwrap();
        // Interrupted run: crash after 4 sealed segments (400 samples),
        // modelled by keeping only the sealed prefix.
        let mut partial = CheckpointStream::new(100);
        let _ = powered_monsoon(31)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut partial)
            .unwrap();
        partial.segments.truncate(4);
        let registry = Registry::new();
        let mut resumed_meter = powered_monsoon(31);
        resumed_meter.set_telemetry(&registry);
        resumed_meter.set_powered(true);
        resumed_meter.set_voltage(4.0).unwrap();
        resumed_meter.enable_vout().unwrap();
        let resumed = resumed_meter
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut partial)
            .unwrap();
        // Bit-identical trace and aggregates.
        assert_eq!(full.samples.values(), resumed.samples.values());
        assert_eq!(full.energy.mah().to_bits(), resumed.energy.mah().to_bits());
        assert_eq!(full.energy.mwh().to_bits(), resumed.energy.mwh().to_bits());
        assert_eq!(full.energy.samples(), resumed.energy.samples());
        // The resume only sampled the missing 600 samples.
        let report = registry.snapshot();
        assert_eq!(report.counter("power.samples"), 600);
        assert_eq!(report.counter("durable.samples_salvaged"), 400);
        assert_eq!(report.counter("durable.checkpoints_sealed"), 6);
    }

    #[test]
    fn corrupted_checkpoint_is_rejected_not_integrated() {
        let load = ConstantLoad::new(150.0, 4.0);
        let mut stream = CheckpointStream::new(100);
        let _ = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut stream)
            .unwrap();
        stream.segments.truncate(4);
        // Bit-flip one salvaged sample: CRC catches it.
        stream.segments[2].samples[7] += 0.0001;
        let err = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut stream)
            .unwrap_err();
        match err {
            MonsoonError::Checkpoint(report) => {
                assert_eq!(report.kind, batterylab_durable::GapKind::Corrupt);
                assert_eq!(report.segment, 2);
            }
            other => panic!("expected checkpoint rejection, got {other:?}"),
        }
        // A dropped middle segment is a gap, also rejected.
        let mut gappy = CheckpointStream::new(100);
        let _ = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut gappy)
            .unwrap();
        gappy.segments.remove(1);
        let err = powered_monsoon(32)
            .sample_run_checkpointed(&load, SimTime::ZERO, 1.0, 1000.0, &mut gappy)
            .unwrap_err();
        assert!(matches!(
            err,
            MonsoonError::Checkpoint(GapReport {
                kind: batterylab_durable::GapKind::Gap,
                ..
            })
        ));
    }

    #[test]
    fn checkpointed_plan_mismatch_is_rejected() {
        let load = ConstantLoad::new(150.0, 4.0);
        let mut stream = CheckpointStream::new(50);
        let _ = powered_monsoon(33)
            .sample_run_checkpointed(&load, SimTime::ZERO, 0.5, 1000.0, &mut stream)
            .unwrap();
        stream.segments.truncate(2);
        // Resuming a 0.5 s capture as a 0.3 s one must not splice.
        let err = powered_monsoon(33)
            .sample_run_checkpointed(&load, SimTime::ZERO, 0.3, 1000.0, &mut stream)
            .unwrap_err();
        assert!(matches!(
            err,
            MonsoonError::Checkpoint(GapReport {
                kind: batterylab_durable::GapKind::PlanMismatch,
                ..
            })
        ));
    }

    #[test]
    fn open_circuit_reads_near_zero() {
        let mut m = powered_monsoon(10);
        let run = m.sample_run(&OpenCircuit, SimTime::ZERO, 0.5).unwrap();
        let s = Summary::of(run.samples.values());
        assert!(s.mean < 0.5, "open circuit should read ~0, got {}", s.mean);
    }
}
