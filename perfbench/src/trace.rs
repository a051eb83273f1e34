//! In-memory spans for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each layer
//! and kept in memory; [`Tracer::write_jsonl`] writes them out once the
//! run has ended, so no I/O lands inside a timed region.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::cpu::CpuInstant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// Dispatch the span belongs to: one job submission or one run of a
    /// job payload. Spans of one dispatch share it.
    pub dispatch: u64,
    /// Layer call, e.g. `controller.logcat`.
    pub name: &'static str,
    /// The span that caused it.
    pub parent: &'static str,
    /// Start, microseconds since the tracer was created.
    pub start_us: f64,
    /// Duration, milliseconds.
    pub dur_ms: f64,
}

struct Inner {
    epoch: CpuInstant,
    spans: Vec<Span>,
    next_dispatch: u64,
    /// Per span name: how many were recorded, and the last one's duration.
    last: BTreeMap<&'static str, (usize, f64)>,
}

/// A cheap clonable handle; job payloads hold one to record their spans.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Mutex<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(Inner {
                epoch: CpuInstant::now(),
                spans: Vec::new(),
                next_dispatch: 0,
                last: BTreeMap::new(),
            })),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("a span recorder never panics while holding the lock")
    }

    /// A fresh dispatch identifier.
    pub fn dispatch(&self) -> u64 {
        let mut inner = self.lock();
        inner.next_dispatch += 1;
        inner.next_dispatch
    }

    /// Record a span that started at `start` and ends now; returns its
    /// duration in milliseconds.
    pub fn record(
        &self,
        dispatch: u64,
        name: &'static str,
        parent: &'static str,
        start: CpuInstant,
    ) -> f64 {
        let dur_ms = start.elapsed_ms();
        let mut inner = self.lock();
        let start_us = start.since(inner.epoch) * 1e6;
        let last = inner.last.entry(name).or_insert((0, 0.0));
        *last = (last.0 + 1, dur_ms);
        inner.spans.push(Span {
            dispatch,
            name,
            parent,
            start_us,
            dur_ms,
        });
        dur_ms
    }

    /// Time `f` as a span.
    pub fn time<R>(
        &self,
        dispatch: u64,
        name: &'static str,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = CpuInstant::now();
        let out = f();
        self.record(dispatch, name, parent, start);
        out
    }

    /// Per dispatch that made at least one `name` call, the summed
    /// duration of those calls, in milliseconds.
    pub fn per_dispatch_ms(&self, name: &str) -> Vec<f64> {
        let inner = self.lock();
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for span in inner.spans.iter().filter(|s| s.name == name) {
            *sums.entry(span.dispatch).or_default() += span.dur_ms;
        }
        sums.into_values().collect()
    }

    /// How many spans named `name` were recorded, and the last one's
    /// duration in milliseconds.
    pub fn last(&self, name: &str) -> (usize, f64) {
        self.lock().last.get(name).copied().unwrap_or((0, 0.0))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.lock().spans {
            writeln!(
                out,
                "{{\"dispatch\":{},\"span\":\"{}\",\"parent\":\"{}\",\"start_us\":{:.3},\"dur_ms\":{:.6}}}",
                s.dispatch, s.name, s.parent, s.start_us, s.dur_ms
            )?;
        }
        out.flush()
    }
}
