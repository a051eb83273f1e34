//! The metric registry and its serialisable snapshot.
//!
//! A [`Registry`] is a cheap clonable handle; every component of a
//! vantage point holds one and resolves its metric handles *once* at
//! construction time, so nothing on a hot path ever touches the
//! registry lock. `snapshot()` freezes the whole platform's state into
//! a [`Report`] with metrics ordered by name — the JSON it renders is
//! identical across same-seed runs.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use serde::Serialize;

use crate::clock::VirtualClock;
use crate::journal::{Event, Journal};
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

#[derive(Default)]
struct Inner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// Shared handle to a set of named metrics plus the run's journal and
/// virtual clock.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Inner>,
    journal: Journal,
    clock: VirtualClock,
    /// Handle-local name prefix (see [`Registry::scoped`]). The storage
    /// behind the handle is shared either way.
    prefix: Option<Arc<str>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A handle onto the *same* registry that prepends `prefix.` to
    /// every metric name it resolves. This is how per-node metrics stay
    /// distinguishable after merging: give each vantage point
    /// `registry.scoped("node1")` and its `power.samples` lands as
    /// `node1.power.samples`. Scopes nest (`scoped("a").scoped("b")` →
    /// `a.b.*`); journal and clock are shared and unprefixed.
    pub fn scoped(&self, prefix: &str) -> Registry {
        let combined = match &self.prefix {
            Some(existing) => format!("{existing}.{prefix}"),
            None => prefix.to_string(),
        };
        Registry {
            inner: Arc::clone(&self.inner),
            journal: self.journal.clone(),
            clock: self.clock.clone(),
            prefix: Some(combined.into()),
        }
    }

    /// This handle's name prefix, if any.
    pub fn prefix(&self) -> Option<&str> {
        self.prefix.as_deref()
    }

    fn resolve(&self, name: &str) -> String {
        match &self.prefix {
            Some(prefix) => format!("{prefix}.{name}"),
            None => name.to_string(),
        }
    }

    /// Get or create the counter named `name` (under this handle's
    /// prefix, if any). Resolve once and keep the handle; bumping the
    /// handle is lock-free.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.entry(self.resolve(name)).or_default().clone()
    }

    /// Get or create the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.gauges.lock().unwrap_or_else(|e| e.into_inner());
        map.entry(self.resolve(name)).or_default().clone()
    }

    /// Get or create the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        map.entry(self.resolve(name)).or_default().clone()
    }

    /// The run's event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// The run's shared virtual clock; components advance it from sim
    /// time as they work.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Record a journal event stamped with the current virtual time.
    pub fn event(&self, label: impl Into<String>, detail: impl Into<String>) {
        self.journal.push(self.clock.now_micros(), label, detail);
    }

    /// Fold another registry into this one: counters and gauges sum,
    /// histograms merge bucket-by-bucket, the journals interleave by
    /// timestamp and the virtual clock advances to the later of the two.
    ///
    /// This is the per-node aggregation story: give every worker (or
    /// vantage point) its own registry, then merge them into a
    /// fleet-wide one. Merging is deterministic — merging the same set
    /// of registries in the same order always yields the same snapshot
    /// — and merging a fresh, empty registry is a no-op. Merging a
    /// registry into itself is unsupported (it would double every
    /// metric).
    pub fn merge(&self, other: &Registry) {
        // Clone the handles out under `other`'s locks first so we never
        // hold two registries' locks at once.
        let counters: Vec<(String, u64)> = other
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges: Vec<(String, i64)> = other
            .inner
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms: Vec<(String, Histogram)> = other
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| (name.clone(), h.clone()))
            .collect();
        // Adding zero still creates the entry, so the merged key set is
        // the union of both registries' key sets.
        for (name, value) in counters {
            self.counter(&name).add(value);
        }
        for (name, value) in gauges {
            self.gauge(&name).add(value);
        }
        for (name, h) in histograms {
            self.histogram(&name).merge_from(&h);
        }
        self.journal.merge_from(&other.journal);
        self.clock.advance_to(other.clock.now_micros());
    }

    /// Freeze everything into a [`Report`].
    pub fn snapshot(&self) -> Report {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(name, h)| (name.clone(), h.snapshot()))
            .collect();
        Report {
            at_micros: self.clock.now_micros(),
            counters,
            gauges,
            histograms,
            events: self.journal.snapshot(),
            events_dropped: self.journal.dropped(),
        }
    }
}

/// A frozen, serialisable view of a [`Registry`].
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Report {
    /// Virtual time of the snapshot, microseconds.
    pub at_micros: u64,
    /// Counter totals, ordered by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values, ordered by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots, ordered by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Journal events, ordered by `(time, label, detail)`.
    pub events: Vec<Event>,
    /// Events evicted from the journal due to capacity.
    pub events_dropped: u64,
}

impl Report {
    /// Pretty JSON; stable across same-seed runs.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialises")
    }

    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Names of top-level metric families present (the part of a
    /// dotted name before the first `.`), deduplicated.
    pub fn families(&self) -> Vec<String> {
        let mut families: Vec<String> = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(|name| name.split('.').next().unwrap_or(name).to_string())
            .collect();
        families.sort();
        families.dedup();
        families
    }

    /// Prometheus text exposition format (version 0.0.4) for
    /// `blab metrics --format prom` and scrape-style exports.
    ///
    /// Dotted metric names become underscore-separated (`adb.frames_tx`
    /// → `adb_frames_tx`); any character outside `[a-zA-Z0-9_:]` is
    /// mapped to `_`. Histograms render as cumulative `_bucket{le=...}`
    /// series over the log2 bucket bounds (bucket `i > 0` covers
    /// `[2^(i-1), 2^i)`, so its upper bound is `2^i - 1`), followed by
    /// `+Inf`, `_sum` and `_count`. Output is deterministic: metrics
    /// are emitted in `BTreeMap` name order.
    pub fn to_prometheus(&self) -> String {
        fn sanitise(name: &str) -> String {
            name.chars()
                .map(|c| {
                    if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                        c
                    } else {
                        '_'
                    }
                })
                .collect()
        }

        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = sanitise(name);
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            let name = sanitise(name);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for (name, h) in &self.histograms {
            let name = sanitise(name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cumulative += n;
                let upper = if i == 0 { 0 } else { (1u64 << i) - 1 };
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {sum}\n{name}_count {count}\n",
                count = h.count,
                sum = h.sum,
            ));
        }
        out
    }

    /// Aligned text rendering for `blab metrics` and eval logs.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "telemetry report @ {:.3}s virtual\n",
            self.at_micros as f64 / 1e6
        ));

        if !self.counters.is_empty() {
            out.push_str("\ncounters\n");
            let width = self.counters.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {value:>12}\n"));
            }
        }

        if !self.gauges.is_empty() {
            out.push_str("\ngauges\n");
            let width = self.gauges.keys().map(|k| k.len()).max().unwrap_or(0);
            for (name, value) in &self.gauges {
                out.push_str(&format!("  {name:<width$}  {value:>12}\n"));
            }
        }

        if !self.histograms.is_empty() {
            out.push_str("\nhistograms\n");
            let width = self.histograms.keys().map(|k| k.len()).max().unwrap_or(0);
            out.push_str(&format!(
                "  {:<width$}  {:>10} {:>12} {:>10} {:>10} {:>10} {:>10}\n",
                "name", "count", "mean", "p50", "p99", "min", "max"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<width$}  {:>10} {:>12.1} {:>10} {:>10} {:>10} {:>10}\n",
                    h.count,
                    h.mean(),
                    h.percentile(0.50),
                    h.percentile(0.99),
                    h.min,
                    h.max
                ));
            }
        }

        if !self.events.is_empty() {
            out.push_str(&format!(
                "\nevents ({} retained, {} dropped)\n",
                self.events.len(),
                self.events_dropped
            ));
            for event in &self.events {
                out.push_str(&format!(
                    "  {:>12.6}s  {:<28} {}\n",
                    event.at_micros as f64 / 1e6,
                    event.label,
                    event.detail
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_rendering_matches_golden() {
        let registry = Registry::new();
        registry.counter("adb.frames_tx").add(7);
        registry.counter("node1.controller.adb_commands").add(2);
        registry.gauge("power.vout_mv").set(4000);
        let h = registry.histogram("power.run_us");
        h.record(0);
        h.record(1);
        h.record(5);
        h.record(1000);
        let golden = "\
# TYPE adb_frames_tx counter
adb_frames_tx 7
# TYPE node1_controller_adb_commands counter
node1_controller_adb_commands 2
# TYPE power_vout_mv gauge
power_vout_mv 4000
# TYPE power_run_us histogram
power_run_us_bucket{le=\"0\"} 1
power_run_us_bucket{le=\"1\"} 2
power_run_us_bucket{le=\"7\"} 3
power_run_us_bucket{le=\"1023\"} 4
power_run_us_bucket{le=\"+Inf\"} 4
power_run_us_sum 1006
power_run_us_count 4
";
        assert_eq!(registry.snapshot().to_prometheus(), golden);
    }

    #[test]
    fn same_name_shares_the_metric() {
        let registry = Registry::new();
        registry.counter("adb.frames_tx").add(3);
        registry.counter("adb.frames_tx").add(4);
        assert_eq!(registry.snapshot().counter("adb.frames_tx"), 7);
    }

    #[test]
    fn clones_share_state() {
        let registry = Registry::new();
        let other = registry.clone();
        other.counter("x").inc();
        other.clock().advance_to(99);
        registry.event("boot", "vp0");
        let report = registry.snapshot();
        assert_eq!(report.counter("x"), 1);
        assert_eq!(report.at_micros, 99);
        assert_eq!(report.events.len(), 1);
        assert_eq!(report.events[0].at_micros, 99);
    }

    #[test]
    fn snapshot_is_deterministic_and_ordered() {
        let build = || {
            let registry = Registry::new();
            registry.counter("b.two").add(2);
            registry.counter("a.one").add(1);
            registry.histogram("lat").record(5);
            registry.gauge("depth").set(-3);
            registry.event("e", "d");
            registry.snapshot()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let names: Vec<&String> = a.counters.keys().collect();
        assert_eq!(names, ["a.one", "b.two"]);
    }

    #[test]
    fn families_split_on_dots() {
        let registry = Registry::new();
        registry.counter("adb.frames_tx").inc();
        registry.counter("adb.frames_rx").inc();
        registry.gauge("relay.engaged").set(1);
        registry.histogram("monsoon.sample_us").record(3);
        assert_eq!(registry.snapshot().families(), ["adb", "monsoon", "relay"]);
    }

    #[test]
    fn merge_sums_counters_and_gauges() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("power.samples").add(100);
        b.counter("power.samples").add(23);
        b.counter("relay.actuations").add(7);
        a.gauge("scheduler.queue_depth").set(3);
        b.gauge("scheduler.queue_depth").set(2);
        a.merge(&b);
        let report = a.snapshot();
        assert_eq!(report.counter("power.samples"), 123);
        assert_eq!(report.counter("relay.actuations"), 7);
        assert_eq!(report.gauges["scheduler.queue_depth"], 5);
    }

    #[test]
    fn merge_combines_histogram_buckets() {
        let a = Registry::new();
        let b = Registry::new();
        a.histogram("lat").record(1);
        a.histogram("lat").record(4);
        b.histogram("lat").record(1000);
        b.histogram("other").record(2);
        a.merge(&b);
        let report = a.snapshot();
        let lat = report.histogram("lat").unwrap();
        assert_eq!(lat.count, 3);
        assert_eq!(lat.sum, 1005);
        assert_eq!(lat.min, 1);
        assert_eq!(lat.max, 1000);
        // Buckets added element-wise: one sample in each of the three
        // occupied log2 buckets.
        assert_eq!(lat.buckets.iter().sum::<u64>(), 3);
        assert_eq!(report.histogram("other").unwrap().count, 1);
    }

    #[test]
    fn merge_interleaves_journals_by_timestamp() {
        let a = Registry::new();
        let b = Registry::new();
        a.clock().advance_to(10);
        a.event("first", "a");
        a.clock().advance_to(300);
        a.event("third", "a");
        b.clock().advance_to(20);
        b.event("second", "b");
        a.merge(&b);
        let report = a.snapshot();
        let labels: Vec<&str> = report.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["first", "second", "third"]);
        // Clock advanced to the later of the two (a was already ahead).
        assert_eq!(report.at_micros, 300);
    }

    #[test]
    fn merge_of_empty_registry_is_identity() {
        let a = Registry::new();
        a.counter("c").add(5);
        a.gauge("g").set(-2);
        a.histogram("h").record(9);
        a.clock().advance_to(42);
        a.event("e", "d");
        let before = a.snapshot();
        a.merge(&Registry::new());
        assert_eq!(a.snapshot(), before);
        assert_eq!(a.snapshot().to_json(), before.to_json());
    }

    #[test]
    fn merge_is_deterministic_across_orderings_of_independent_parts() {
        // Summing is commutative for counters/histograms and the journal
        // sorts by time, so merging the same parts in any order yields
        // the same snapshot.
        let build = || {
            let r = Registry::new();
            r.counter("x").add(3);
            r.histogram("h").record(17);
            r.clock().advance_to(5);
            r.event("ev", "p");
            r
        };
        let (p1, p2) = (build(), build());
        let ab = Registry::new();
        ab.merge(&p1);
        ab.merge(&p2);
        let ba = Registry::new();
        ba.merge(&p2);
        ba.merge(&p1);
        assert_eq!(ab.snapshot().to_json(), ba.snapshot().to_json());
    }

    #[test]
    fn merge_respects_journal_capacity() {
        let a = Registry::new();
        let b = Registry::new();
        // Overfill b's journal so it carries a drop count in.
        for i in 0..1030u64 {
            b.clock().advance_to(i + 1);
            b.event("spam", i.to_string());
        }
        assert_eq!(b.journal().dropped(), 1030 - 1024);
        a.merge(&b);
        assert_eq!(a.journal().len(), 1024);
        assert_eq!(a.journal().dropped(), 1030 - 1024);
        // A second merge overflows the bounded journal; the oldest go.
        let c = Registry::new();
        c.clock().advance_to(2000);
        c.event("late", "x");
        a.merge(&c);
        assert_eq!(a.journal().len(), 1024);
        assert_eq!(a.journal().dropped(), (1030 - 1024) + 1);
        let snap = a.journal().snapshot();
        assert_eq!(snap.last().unwrap().label, "late");
    }

    #[test]
    fn scoped_handles_prefix_names_but_share_storage() {
        let registry = Registry::new();
        let node1 = registry.scoped("node1");
        let node2 = registry.scoped("node2");
        node1.counter("power.samples").add(10);
        node2.counter("power.samples").add(3);
        registry.counter("scheduler.completed").inc();
        node1.gauge("queue").set(2);
        node1.histogram("lat").record(7);
        let report = registry.snapshot();
        assert_eq!(report.counter("node1.power.samples"), 10);
        assert_eq!(report.counter("node2.power.samples"), 3);
        assert_eq!(report.counter("scheduler.completed"), 1);
        assert_eq!(report.gauges["node1.queue"], 2);
        assert_eq!(report.histogram("node1.lat").unwrap().count, 1);
        // Scopes nest; the journal and clock stay shared and unprefixed.
        let deep = node1.scoped("adb");
        deep.counter("connects").inc();
        deep.clock().advance_to(50);
        deep.event("e", "d");
        let report = registry.snapshot();
        assert_eq!(report.counter("node1.adb.connects"), 1);
        assert_eq!(report.at_micros, 50);
        assert_eq!(report.events.len(), 1);
        assert_eq!(node1.prefix(), Some("node1"));
        assert_eq!(registry.prefix(), None);
    }

    #[test]
    fn render_text_mentions_everything() {
        let registry = Registry::new();
        registry.counter("power.samples").add(5000);
        registry.histogram("adb.frame_bytes").record(4096);
        registry.event("relay.bypass", "ch0");
        let text = registry.snapshot().render_text();
        assert!(text.contains("power.samples"));
        assert!(text.contains("adb.frame_bytes"));
        assert!(text.contains("relay.bypass"));
    }
}
