//! A framed write-ahead log over a [`SimDisk`].
//!
//! Records are opaque payload bytes framed as
//! `[len: u32 LE][crc32: u32 LE][payload]`. Every append is followed by
//! an fsync barrier, so a record either survives a crash whole or not
//! at all — except for a torn tail, which [`Wal::replay_each`] detects
//! (short frame or CRC mismatch) and truncates once it has walked every
//! whole record.
//!
//! A `Wal` is a cheap clonable handle onto shared state: the access
//! server and its scheduler both hold one and append to the same log.
//! The *disk* survives a simulated server crash even though the server's
//! memory does not, which is exactly the property recovery relies on.
//!
//! # Generations
//!
//! Compaction replaces the log wholesale: the caller writes a snapshot
//! into a [`NextGeneration`] built aside, framed like any record, and
//! [`Wal::install`] fsyncs it and swaps it in under the log's lock, so
//! every clone sees the new generation at once. A crash before the swap
//! leaves the old generation whole (the half-written one was never the
//! log); a crash after it leaves the new one. Every read and append —
//! [`Wal::replay_each`], [`Wal::prefix`], [`Wal::record_count`],
//! [`Wal::durable_len`], [`Wal::crash_disk`] — acts on the current
//! generation.

use std::sync::{Arc, Mutex};

use batterylab_telemetry::{Counter, Registry};

use crate::disk::{crc32, SimDisk};

const FRAME_HEADER: usize = 8;

/// `durable.*` append counters, unregistered until
/// [`Wal::set_telemetry`] binds them.
#[derive(Default)]
struct WalTelemetry {
    records: Counter,
    bytes: Counter,
    fsyncs: Counter,
}

struct WalInner {
    disk: SimDisk,
    records: u64,
    generation: u64,
    enabled: bool,
    telemetry: WalTelemetry,
}

/// Clonable handle to a shared write-ahead log.
#[derive(Clone)]
pub struct Wal {
    inner: Arc<Mutex<WalInner>>,
}

impl Default for Wal {
    fn default() -> Self {
        Self::new()
    }
}

/// Frame `payload` as `[len][crc32][payload]` onto `disk`'s unsynced
/// tail.
fn write_frame(disk: &mut SimDisk, payload: &[u8]) -> usize {
    let mut header = [0; FRAME_HEADER];
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    disk.write(&header);
    disk.write(payload);
    FRAME_HEADER + payload.len()
}

impl Wal {
    fn with_enabled(enabled: bool) -> Self {
        Wal {
            inner: Arc::new(Mutex::new(WalInner {
                disk: SimDisk::new(),
                records: 0,
                generation: 0,
                enabled,
                telemetry: WalTelemetry::default(),
            })),
        }
    }

    /// A fresh, enabled log on an empty disk.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled log: appends are no-ops. This is the default wiring so
    /// components that never opted into durability pay nothing.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    /// Whether appends actually persist.
    pub fn is_enabled(&self) -> bool {
        self.lock().enabled
    }

    /// Bind `durable.*` WAL metrics into `registry`. Only appends count;
    /// replay reads the disk without touching these.
    pub fn set_telemetry(&self, registry: &Registry) {
        let mut inner = self.lock();
        inner.telemetry = WalTelemetry {
            records: registry.counter("durable.wal_records"),
            bytes: registry.counter("durable.wal_bytes"),
            fsyncs: registry.counter("durable.wal_fsyncs"),
        };
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one record and fsync it. Returns the record's index, or
    /// `None` when the log is disabled.
    pub fn append(&self, payload: &[u8]) -> Option<u64> {
        let mut inner = self.lock();
        if !inner.enabled {
            return None;
        }
        let framed = write_frame(&mut inner.disk, payload);
        inner.disk.fsync();
        inner.records += 1;
        let index = inner.records;
        inner.telemetry.records.inc();
        inner.telemetry.bytes.add(framed as u64);
        inner.telemetry.fsyncs.inc();
        Some(index)
    }

    /// Append one record *without* the fsync barrier — it sits in the
    /// disk's unsynced tail and is lost (or torn) on crash. Used by the
    /// torn-write tests; the production path always uses [`Wal::append`].
    pub fn append_unsynced(&self, payload: &[u8]) {
        let mut inner = self.lock();
        if inner.enabled {
            write_frame(&mut inner.disk, payload);
        }
    }

    /// An empty generation to write a snapshot into, aside from the log.
    pub fn next_generation(&self) -> NextGeneration {
        NextGeneration {
            disk: SimDisk::new(),
            records: 0,
        }
    }

    /// Fsync `next` and make it the current generation in one step under
    /// the lock, dropping the old one. Its frames are not appends: the
    /// `durable.*` append counters do not count them. A no-op on a
    /// disabled log.
    pub fn install(&self, mut next: NextGeneration) {
        let mut inner = self.lock();
        if !inner.enabled {
            return;
        }
        next.disk.fsync();
        inner.disk = next.disk;
        inner.records = next.records;
        inner.generation += 1;
    }

    /// Generations installed so far: 0 until the first compaction.
    pub fn generation(&self) -> u64 {
        self.lock().generation
    }

    /// Simulate a power loss on the backing disk: the unsynced tail is
    /// dropped except for its first `torn_keep` bytes.
    pub fn crash_disk(&self, torn_keep: usize) {
        self.lock().disk.crash(torn_keep);
    }

    /// Whole records in the current generation.
    pub fn record_count(&self) -> u64 {
        self.lock().records
    }

    /// Durable bytes of the current generation.
    pub fn durable_len(&self) -> usize {
        self.lock().disk.durable_bytes().len()
    }

    /// Walk the durable region in place: hand every whole, CRC-clean
    /// payload to `visit` in log order, straight from the disk, then
    /// truncate any torn tail (short frame or CRC mismatch) and adopt the
    /// surviving record count, so appends after recovery continue the
    /// same sequence. Returns that count and the number of torn bytes
    /// discarded.
    ///
    /// The log stays locked for the whole walk: `visit` must not call
    /// back into this `Wal` or any clone of it.
    pub fn replay_each(&self, mut visit: impl FnMut(&[u8])) -> (u64, usize) {
        let mut inner = self.lock();
        let bytes = inner.disk.durable_bytes();
        let total = bytes.len();
        let mut frames = Frames { bytes, end: 0 };
        let mut records = 0;
        for payload in frames.by_ref() {
            visit(payload);
            records += 1;
        }
        let end = frames.end;
        if end < total {
            inner.disk.truncate_durable(end);
        }
        inner.records = records;
        (records, total - end)
    }

    /// As [`Self::replay_each`], collecting a copy of every payload.
    /// Returns the payloads and the number of torn bytes discarded.
    pub fn replay(&self) -> (Vec<Vec<u8>>, usize) {
        let mut records = Vec::new();
        let (_, torn) = self.replay_each(|payload| records.push(payload.to_vec()));
        (records, torn)
    }

    /// A new, independent log whose durable bytes are the first `k`
    /// whole records of this one. This is how the crash-point sweep
    /// tests recovery from *every* record boundary, including boundaries
    /// that fall inside a multi-record server call. Read-only: this log
    /// keeps its torn tail and its record count.
    pub fn prefix(&self, k: u64) -> Wal {
        let inner = self.lock();
        let mut frames = Frames {
            bytes: inner.disk.durable_bytes(),
            end: 0,
        };
        let records = frames.by_ref().take(k as usize).count();
        let out = Wal::new();
        {
            let mut copy = out.lock();
            copy.disk.write(&frames.bytes[..frames.end]);
            copy.disk.fsync();
            copy.records = records as u64;
            copy.generation = inner.generation;
        }
        out
    }
}

/// A log generation being written aside: a snapshot's records, framed
/// and CRC'd like any append but not yet synced, and invisible to the
/// log until [`Wal::install`] swaps it in. Dropping it uninstalled is a
/// crash mid-compaction: the log keeps its old generation.
pub struct NextGeneration {
    disk: SimDisk,
    records: u64,
}

impl NextGeneration {
    /// Frame `payload` onto the generation.
    pub fn append(&mut self, payload: &[u8]) {
        write_frame(&mut self.disk, payload);
        self.records += 1;
    }
}

/// Iterator over the whole, CRC-valid frames at the front of a durable
/// region, yielding each payload. It stops at the first short frame or
/// CRC mismatch; `end` is then the offset just past the last whole frame.
struct Frames<'a> {
    bytes: &'a [u8],
    end: usize,
}

impl<'a> Iterator for Frames<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.end..];
        let header = rest.get(..FRAME_HEADER)?;
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
        let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        // A short payload or a CRC mismatch is a torn frame.
        let payload = rest[FRAME_HEADER..].get(..len)?;
        if crc32(payload) != crc {
            return None;
        }
        self.end += FRAME_HEADER + len;
        Some(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_then_replay_round_trips() {
        let wal = Wal::new();
        wal.append(b"one");
        wal.append(b"two");
        let (records, torn) = wal.replay();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(torn, 0);
        assert_eq!(wal.record_count(), 2);
    }

    #[test]
    fn unsynced_record_is_lost_on_crash() {
        let wal = Wal::new();
        wal.append(b"synced");
        wal.append_unsynced(b"lost");
        wal.crash_disk(0);
        let (records, torn) = wal.replay();
        assert_eq!(records, vec![b"synced".to_vec()]);
        assert_eq!(torn, 0);
    }

    #[test]
    fn torn_tail_is_truncated_on_replay() {
        let wal = Wal::new();
        wal.append(b"synced");
        wal.append_unsynced(b"torn-record-payload");
        // Half the torn frame reaches the platter.
        wal.crash_disk(10);
        let before = wal.durable_len();
        let (records, torn) = wal.replay();
        assert_eq!(records, vec![b"synced".to_vec()]);
        assert_eq!(torn, 10);
        assert_eq!(wal.durable_len(), before - 10);
        // A second replay sees a clean log.
        let (records, torn) = wal.replay();
        assert_eq!(records.len(), 1);
        assert_eq!(torn, 0);
    }

    /// A multi-record log whose last frame is torn after `torn_keep`
    /// bytes.
    fn torn_log(torn_keep: usize) -> Wal {
        let wal = Wal::new();
        for record in [&b"alpha"[..], b"", b"gamma-gamma", b"d"] {
            wal.append(record);
        }
        wal.append_unsynced(b"torn-record-payload");
        wal.crash_disk(torn_keep);
        wal
    }

    #[test]
    fn in_place_walk_agrees_with_replay_at_every_tear() {
        let torn_frame = FRAME_HEADER + b"torn-record-payload".len();
        for torn_keep in 0..=torn_frame {
            let (walked, copied) = (torn_log(torn_keep), torn_log(torn_keep));
            let mut payloads = Vec::new();
            let (records, torn) = walked.replay_each(|p| payloads.push(p.to_vec()));
            let (replayed, replay_torn) = copied.replay();
            assert_eq!(payloads, replayed, "torn_keep {torn_keep}");
            assert_eq!(torn, replay_torn, "torn_keep {torn_keep}");
            assert_eq!(records, replayed.len() as u64, "torn_keep {torn_keep}");
            assert_eq!(walked.record_count(), copied.record_count());
            assert_eq!(walked.durable_len(), copied.durable_len());
            // A whole torn frame is a valid record; anything short of it
            // is cut away.
            let expected = if torn_keep == torn_frame { 5 } else { 4 };
            assert_eq!(records, expected, "torn_keep {torn_keep}");
            assert_eq!(torn, torn_keep % torn_frame, "torn_keep {torn_keep}");
        }
    }

    #[test]
    fn corrupted_payload_fails_crc_and_truncates() {
        let wal = Wal::new();
        wal.append(b"good");
        // Hand-build a frame whose CRC doesn't match its payload.
        let mut frame = Vec::new();
        frame.extend_from_slice(&4u32.to_le_bytes());
        frame.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        frame.extend_from_slice(b"evil");
        {
            let mut inner = wal.lock();
            inner.disk.write(&frame);
            inner.disk.fsync();
        }
        let (records, torn) = wal.replay();
        assert_eq!(records, vec![b"good".to_vec()]);
        assert_eq!(torn, frame.len());
    }

    #[test]
    fn disabled_wal_ignores_appends() {
        let wal = Wal::disabled();
        assert_eq!(wal.append(b"x"), None);
        assert_eq!(wal.record_count(), 0);
        assert!(!wal.is_enabled());
    }

    #[test]
    fn prefix_extracts_whole_records() {
        let wal = Wal::new();
        for i in 0..5u8 {
            wal.append(&[i]);
        }
        let p = wal.prefix(3);
        let (records, _) = p.replay();
        assert_eq!(records, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(wal.record_count(), 5);
    }

    #[test]
    fn prefix_leaves_the_source_log_untouched() {
        let wal = Wal::new();
        wal.append(b"first");
        wal.append_unsynced(b"torn-record-payload");
        wal.crash_disk(10);
        let before = wal.durable_len();
        let p = wal.prefix(1);
        assert_eq!(wal.durable_len(), before, "prefix truncated its source");
        assert_eq!(wal.record_count(), 1);
        assert_eq!(p.record_count(), 1);
        assert_eq!(p.replay(), (vec![b"first".to_vec()], 0));
        // The torn tail is still there for the source's own replay.
        assert_eq!(wal.replay().1, 10);
    }

    /// A two-record log with a compacted generation `["snap", "shot"]`
    /// written aside, not yet installed.
    fn log_and_next() -> (Wal, NextGeneration) {
        let wal = Wal::new();
        wal.append(b"one");
        wal.append(b"two");
        let mut next = wal.next_generation();
        next.append(b"snap");
        next.append(b"shot");
        (wal, next)
    }

    #[test]
    fn crash_before_the_swap_keeps_the_old_generation() {
        let (wal, next) = log_and_next();
        drop(next);
        wal.crash_disk(0);
        assert_eq!(wal.replay(), (vec![b"one".to_vec(), b"two".to_vec()], 0));
        assert_eq!(wal.generation(), 0);
    }

    #[test]
    fn install_swaps_the_generation_for_every_clone() {
        let (wal, next) = log_and_next();
        let clone = wal.clone();
        wal.install(next);
        wal.crash_disk(0);
        assert_eq!(clone.generation(), 1);
        assert_eq!(clone.record_count(), 2);
        assert_eq!(clone.durable_len(), 2 * FRAME_HEADER + 8);
        assert_eq!(
            clone.replay(),
            (vec![b"snap".to_vec(), b"shot".to_vec()], 0)
        );
        // Appends continue the new generation; a torn one is cut away.
        clone.append(b"tail");
        clone.append_unsynced(b"torn-record-payload");
        clone.crash_disk(10);
        let (records, torn) = wal.replay();
        assert_eq!(
            records,
            vec![b"snap".to_vec(), b"shot".to_vec(), b"tail".to_vec()]
        );
        assert_eq!(torn, 10);
        assert_eq!(wal.prefix(1).replay().0, vec![b"snap".to_vec()]);
    }

    #[test]
    fn installed_frames_are_not_appends() {
        let registry = Registry::new();
        let (wal, next) = log_and_next();
        wal.set_telemetry(&registry);
        wal.install(next);
        let report = registry.snapshot();
        assert_eq!(report.counter("durable.wal_records"), 0);
        assert_eq!(report.counter("durable.wal_bytes"), 0);
    }

    #[test]
    fn disabled_wal_ignores_installs() {
        let wal = Wal::disabled();
        let mut next = wal.next_generation();
        next.append(b"x");
        wal.install(next);
        assert_eq!((wal.generation(), wal.record_count()), (0, 0));
    }

    #[test]
    fn telemetry_counts_appends() {
        let registry = Registry::new();
        let wal = Wal::new();
        wal.set_telemetry(&registry);
        wal.append(b"abc");
        let report = registry.snapshot();
        assert_eq!(report.counter("durable.wal_records"), 1);
        assert_eq!(report.counter("durable.wal_fsyncs"), 1);
        assert_eq!(report.counter("durable.wal_bytes"), 8 + 3);
    }
}
