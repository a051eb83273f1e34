//! Bounded ring-buffer journal of annotated platform events.
//!
//! The journal captures the *story* of a run — relay flips, ADB
//! reconnects, scheduler retries — alongside the numeric metrics. It is
//! bounded so an unattended soak can never grow it without limit; when
//! full, the oldest events are dropped (and counted).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use serde::{Serialize, Value};

/// One journal entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Virtual time of the event, microseconds.
    pub at_micros: u64,
    /// Dotted component label, e.g. `relay.bypass_engaged`.
    pub label: String,
    /// Free-form detail, e.g. the channel or device involved.
    pub detail: String,
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("at_micros".to_string(), self.at_micros.to_value()),
            ("label".to_string(), self.label.to_value()),
            ("detail".to_string(), self.detail.to_value()),
        ])
    }
}

struct JournalState {
    events: VecDeque<Event>,
    dropped: u64,
}

/// A bounded, thread-safe event ring buffer. The ring is allocated on
/// the first push, so a journal nothing writes to costs no buffer.
#[derive(Clone)]
pub struct Journal {
    state: Arc<Mutex<JournalState>>,
    capacity: usize,
}

impl Default for Journal {
    fn default() -> Self {
        Journal::with_capacity(1024)
    }
}

impl Journal {
    /// A journal retaining at most `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        Journal {
            state: Arc::new(Mutex::new(JournalState {
                events: VecDeque::new(),
                dropped: 0,
            })),
            capacity: capacity.max(1),
        }
    }

    /// Append an event, evicting the oldest when full.
    pub fn push(&self, at_micros: u64, label: impl Into<String>, detail: impl Into<String>) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.events.len() == self.capacity {
            state.events.pop_front();
            state.dropped += 1;
        } else if state.events.capacity() == 0 {
            state.events.reserve_exact(self.capacity.min(1024));
        }
        state.events.push_back(Event {
            at_micros,
            label: label.into(),
            detail: detail.into(),
        });
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .events
            .len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted due to capacity.
    pub fn dropped(&self) -> u64 {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).dropped
    }

    /// Interleave another journal's retained events into this one by
    /// `(time, label, detail)`. When the merged story exceeds capacity
    /// the oldest events are dropped (and counted), exactly as if they
    /// had been evicted live; `other`'s own drop count carries over.
    pub fn merge_from(&self, other: &Journal) {
        let theirs = other.snapshot();
        let their_dropped = other.dropped();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut all: Vec<Event> = state.events.drain(..).chain(theirs).collect();
        all.sort_by(|a, b| {
            (a.at_micros, &a.label, &a.detail).cmp(&(b.at_micros, &b.label, &b.detail))
        });
        let overflow = all.len().saturating_sub(self.capacity);
        state.dropped += their_dropped + overflow as u64;
        state.events = all.into_iter().skip(overflow).collect();
    }

    /// Retained events, sorted by `(time, label, detail)` so the
    /// snapshot is deterministic even when writers raced.
    pub fn snapshot(&self) -> Vec<Event> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let mut events: Vec<Event> = state.events.iter().cloned().collect();
        events.sort_by(|a, b| {
            (a.at_micros, &a.label, &a.detail).cmp(&(b.at_micros, &b.label, &b.detail))
        });
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_when_full() {
        for (j, capacity) in [
            (Journal::with_capacity(3), 3u64),
            (Journal::default(), 1024),
        ] {
            for i in 0..capacity + 2 {
                j.push(i, "e", i.to_string());
            }
            assert_eq!(j.len() as u64, capacity);
            assert_eq!(j.dropped(), 2);
            let snap = j.snapshot();
            assert_eq!(snap[0].at_micros, 2);
            assert_eq!(snap[snap.len() - 1].at_micros, capacity + 1);
        }
    }

    #[test]
    fn snapshot_sorts_for_determinism() {
        let j = Journal::default();
        j.push(20, "b", "");
        j.push(10, "z", "");
        j.push(10, "a", "");
        let snap = j.snapshot();
        let labels: Vec<&str> = snap.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["a", "z", "b"]);
    }
}
