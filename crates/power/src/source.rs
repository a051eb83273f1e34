//! The current-source abstraction between the power monitor and whatever
//! it measures.
//!
//! The Monsoon does not know it is measuring a phone: it sees a load that
//! draws some current at the voltage it supplies. Devices (and the relay
//! circuit in `batterylab-relay`) implement [`CurrentSource`]; test code
//! can plug in constant or scripted loads.

use batterylab_sim::{SimTime, StepSignal};

/// A maximal interval of constant current draw, as reported by
/// [`CurrentSource::segments`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// Inclusive start of the interval.
    pub start: SimTime,
    /// Exclusive end of the interval.
    pub end: SimTime,
    /// The constant draw over `[start, end)` at the queried supply
    /// voltage, mA — bit-identical to what [`CurrentSource::current_ma`]
    /// returns for any instant inside the interval.
    pub current_ma: f64,
}

/// Something that draws current from a supply.
pub trait CurrentSource: Send + Sync {
    /// Instantaneous current draw in mA at virtual time `t`, given the
    /// supply voltage in volts.
    ///
    /// Implementations must be pure with respect to `t`: sampling the same
    /// instant twice returns the same value (noise is added by the meter,
    /// not the load).
    fn current_ma(&self, t: SimTime, supply_v: f64) -> f64;

    /// Piecewise-constant description of the draw over `[from, to)`, for
    /// meters that batch their physics per constant segment instead of
    /// per sample (see `batterylab-power`'s Monsoon fast path).
    ///
    /// The default returns `None`: "no step structure known", which makes
    /// the meter fall back to evaluating [`Self::current_ma`] once per
    /// sample — equivalent to one segment per sample — so existing
    /// sources keep working unchanged.
    ///
    /// Implementations that return `Some` must uphold the contract:
    ///
    /// * segments are time-ordered, contiguous and cover `[from, to)`
    ///   exactly (no gaps, no overlap);
    /// * within a segment, `current_ma(t, v)` is independent of `t` for
    ///   *every* fixed supply voltage `v` — the step boundaries must not
    ///   depend on the voltage (wrappers like the relay's meter side
    ///   re-query at a refined voltage);
    /// * each [`Segment::current_ma`] is bit-identical to
    ///   `current_ma(t, supply_v)` for every `t` inside the segment.
    fn segments(&self, _from: SimTime, _to: SimTime, _supply_v: f64) -> Option<Vec<Segment>> {
        None
    }
}

/// Walk `trace` over `[from, to)` with a monotone cursor and map each
/// step value through `map` — the shared implementation behind every
/// [`StepSignal`]-backed [`CurrentSource::segments`] (trace loads,
/// device simulators). The cursor is seated at `from` by binary search,
/// so the cost is `O(log m + k)` for `k` change points inside the
/// window, however long the trace before it.
pub fn step_signal_segments(
    trace: &StepSignal,
    from: SimTime,
    to: SimTime,
    mut map: impl FnMut(f64) -> f64,
) -> Vec<Segment> {
    let mut out = Vec::new();
    if to <= from {
        return out;
    }
    let mut cursor = trace.cursor_at(from);
    let mut t = from;
    while t < to {
        let (step, until) = cursor.segment(t);
        let end = until.min(to);
        out.push(Segment {
            start: t,
            end,
            current_ma: map(step),
        });
        t = end;
    }
    out
}

/// A constant load, useful for calibration tests.
#[derive(Clone, Copy, Debug)]
pub struct ConstantLoad {
    /// Current drawn at the nominal voltage, mA.
    pub ma: f64,
    /// Nominal voltage the load was specified at, volts.
    pub nominal_v: f64,
}

impl ConstantLoad {
    /// A constant-power load of `ma` mA at `nominal_v` volts.
    pub fn new(ma: f64, nominal_v: f64) -> Self {
        assert!(ma >= 0.0 && nominal_v > 0.0);
        ConstantLoad { ma, nominal_v }
    }
}

impl CurrentSource for ConstantLoad {
    fn current_ma(&self, _t: SimTime, supply_v: f64) -> f64 {
        // Constant power: P = V_nom * I_nom, so I = P / V_supply.
        self.ma * self.nominal_v / supply_v.max(1e-6)
    }

    fn segments(&self, from: SimTime, to: SimTime, supply_v: f64) -> Option<Vec<Segment>> {
        if to <= from {
            return Some(Vec::new());
        }
        Some(vec![Segment {
            start: from,
            end: to,
            current_ma: self.current_ma(from, supply_v),
        }])
    }
}

/// A load described by a piecewise-constant current trace at a nominal
/// voltage — the shape a device simulation run produces.
#[derive(Clone, Debug)]
pub struct TraceLoad {
    trace: StepSignal,
    nominal_v: f64,
}

impl TraceLoad {
    /// Wrap a current trace (mA at `nominal_v`).
    pub fn new(trace: StepSignal, nominal_v: f64) -> Self {
        assert!(nominal_v > 0.0);
        TraceLoad { trace, nominal_v }
    }

    /// The underlying trace.
    pub fn trace(&self) -> &StepSignal {
        &self.trace
    }
}

impl CurrentSource for TraceLoad {
    fn current_ma(&self, t: SimTime, supply_v: f64) -> f64 {
        self.trace.at(t) * self.nominal_v / supply_v.max(1e-6)
    }

    fn segments(&self, from: SimTime, to: SimTime, supply_v: f64) -> Option<Vec<Segment>> {
        Some(step_signal_segments(&self.trace, from, to, |step| {
            step * self.nominal_v / supply_v.max(1e-6)
        }))
    }
}

/// An open circuit: draws nothing. What the meter sees when the relay has
/// not engaged the battery bypass.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpenCircuit;

impl CurrentSource for OpenCircuit {
    fn current_ma(&self, _t: SimTime, _supply_v: f64) -> f64 {
        0.0
    }

    fn segments(&self, from: SimTime, to: SimTime, _supply_v: f64) -> Option<Vec<Segment>> {
        if to <= from {
            return Some(Vec::new());
        }
        Some(vec![Segment {
            start: from,
            end: to,
            current_ma: 0.0,
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_load_is_constant_power() {
        let load = ConstantLoad::new(100.0, 4.0);
        let at_4v = load.current_ma(SimTime::ZERO, 4.0);
        let at_8v = load.current_ma(SimTime::ZERO, 8.0);
        assert!((at_4v - 100.0).abs() < 1e-12);
        assert!((at_8v - 50.0).abs() < 1e-12);
    }

    #[test]
    fn trace_load_follows_trace() {
        let mut trace = StepSignal::new(100.0);
        trace.set(SimTime::from_secs(10), 250.0);
        let load = TraceLoad::new(trace, 4.0);
        assert_eq!(load.current_ma(SimTime::from_secs(5), 4.0), 100.0);
        assert_eq!(load.current_ma(SimTime::from_secs(15), 4.0), 250.0);
    }

    #[test]
    fn open_circuit_draws_nothing() {
        assert_eq!(OpenCircuit.current_ma(SimTime::from_secs(1), 4.2), 0.0);
    }

    #[test]
    fn trace_load_segments_cover_window_and_match_at() {
        let mut trace = StepSignal::new(100.0);
        trace.set(SimTime::from_secs(2), 250.0);
        trace.set(SimTime::from_secs(5), 80.0);
        let load = TraceLoad::new(trace, 4.0);
        let from = SimTime::from_millis(500);
        let to = SimTime::from_secs(7);
        let segs = load.segments(from, to, 4.1).expect("step-structured");
        assert_eq!(segs.len(), 3);
        assert_eq!(segs.first().unwrap().start, from);
        assert_eq!(segs.last().unwrap().end, to);
        for pair in segs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "contiguous");
        }
        for seg in &segs {
            let mid = SimTime::from_micros((seg.start.as_micros() + seg.end.as_micros()) / 2);
            for t in [seg.start, mid] {
                assert_eq!(
                    seg.current_ma.to_bits(),
                    load.current_ma(t, 4.1).to_bits(),
                    "segment value must be bit-identical to current_ma"
                );
            }
        }
    }

    #[test]
    fn constant_and_open_loads_are_one_segment() {
        let from = SimTime::ZERO;
        let to = SimTime::from_secs(10);
        let c = ConstantLoad::new(120.0, 4.0)
            .segments(from, to, 4.0)
            .unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].current_ma, 120.0);
        let o = OpenCircuit.segments(from, to, 4.0).unwrap();
        assert_eq!(
            o,
            vec![Segment {
                start: from,
                end: to,
                current_ma: 0.0
            }]
        );
        assert!(OpenCircuit.segments(to, from, 4.0).unwrap().is_empty());
    }

    #[test]
    fn sampling_is_pure() {
        let load = ConstantLoad::new(42.0, 4.0);
        let t = SimTime::from_millis(123);
        assert_eq!(
            load.current_ma(t, 4.0).to_bits(),
            load.current_ma(t, 4.0).to_bits()
        );
    }
}
