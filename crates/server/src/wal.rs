//! Write-ahead-log records for the access server.
//!
//! The access server owns the platform's only authoritative state — job
//! table, credit ledger, node registry, account directory — so each
//! state transition appends exactly one [`WalRecord`] (fsynced by the
//! log layer) before the next operation is accepted. This holds without
//! exception: the server hands out no `&mut` to logged state, and only
//! its `apply` changes it, for live commits and replay alike (login
//! sessions are not logged state). Replaying any prefix of the log
//! through [`crate::AccessServer::recover`] rebuilds the exact server
//! state at that record boundary.
//!
//! The transition records, by tag: `Booted` (0), `UserAdded` (1),
//! `BillingEnabled` (2), `NodeEnrolled` (3), `NodeOwner` (4),
//! `Submitted` (5), `Retried` (6), `Completed` (7), `Heartbeats` (8),
//! `MaintenanceRan` (9), `SlotReserved` (10), `AccountOpened` (11) and
//! `Transferred` (12). Recruited testers are `UserAdded` records and their
//! pay is a `Transferred` record.
//!
//! A snapshot ([`crate::AccessServer::compact`], and the one
//! [`crate::AccessServer::attach_wal`] writes) opens a log generation
//! with the live state in records that replay through the same path:
//! the boot-state kinds above (`Booted`, `UserAdded`, `BillingEnabled`,
//! `NodeEnrolled`, `NodeOwner`, plus `SlotReserved`), then snapshot-only
//! records for what no transition restores without side effects
//! (`Certificate`, `NodeHealth`, `Breaker`, `Ledger`, `Build`, `Queued`),
//! ended by `SnapshotEnd`.
//!
//! Two design rules keep replay idempotent:
//!
//! - **A terminal build and its charge are one record.** `Completed`
//!   bundles the final [`BuildRecord`] with the billing charge, so no
//!   log prefix can show a charge without its finished job (double
//!   charge) or a finished job without its charge (lost revenue).
//! - **Decisions are logged, not re-derived.** `Retried` carries the
//!   backoff deadline verbatim and `Heartbeats` carries probe outcomes,
//!   so replay never consults the fault injector or draws jitter again.
//!
//! # Encoding
//!
//! Each record is one payload inside the CRC-framed log
//! (`batterylab_durable::Wal`), written by a hand-rolled binary codec: a
//! tag byte naming the variant, then its fields in declaration order.
//!
//! Every `String` field of a record, summary keys and values included,
//! goes through one string table that lives for that record alone. It
//! starts with a fixed seed, the names the platform writes itself: the
//! summary keys of [`crate::run_experiment`] (`job`, `device`,
//! `mirroring`, `vpn`, `mirror_upload_bytes`, `discharge_mah`, `mean_ma`,
//! `duration_s`), then the artifact names `power_summary.json`,
//! `logcat.txt` and `RETENTION`. A string the table holds is written as
//! a reference to its index. Any other string is written out, and if it
//! is 1–63 bytes long it joins the table, until the table holds 64
//! entries. Both sides apply that rule, so a reference is always one
//! byte and every payload decodes on its own.
//!
//! | Field | Bytes |
//! |---|---|
//! | record tag | one byte: transitions `0`–`12`, snapshot records `0x20`–`0x26` |
//! | `Role`, `ScrollDir`, `BuildState`, `BreakerState` | one byte (`Failed` adds its string) |
//! | `Action` | one tag byte, then its payload |
//! | `VpnLocation` | one byte: its index in `VpnLocation::ALL` |
//! | ids, counts, ports, `attempts`, `max_retries`, key codes | LEB128 varint |
//! | `SimTime`, `SimDuration` | LEB128 varint of microseconds |
//! | password hash | 8 bytes, little-endian |
//! | `f64` | 8 bytes, little-endian `to_bits`: round-trips bit-exactly |
//! | `bool` | one byte, 0 or 1 |
//! | `Option<T>` | 0, or 1 followed by `T` |
//! | `String` | a varint `2 * index + 1` referring to a table entry, or `2 * len` followed by `len` bytes of raw UTF-8 (artifact contents too) |
//! | `Vec<T>`, tuples | varint count, then each element's fields |
//! | ledger balances (a map) | varint count, then each key and value in key order; a repeated key is an `Err` |
//! | `Certificate`, `LedgerEntry`, `CreditLedger` | their fields in declaration order |
//! | `Queued` | id, constraints, `Option` spec, attempts, `Option` deadline; name and owner are its `Build`'s |
//! | summary `Value` | kind byte (Null, Bool, U64, I64, F64, Str, Array, Object), then its payload: `I64` as a zigzag varint, objects in key order |
//!
//! The encoding is deterministic for a given record, which the
//! crash-point sweep relies on when comparing a recovered run against an
//! uninterrupted one. Decoding never panics: short input, an unknown tag,
//! invalid UTF-8, a reference past the table, an overlong varint or
//! trailing bytes are an `Err` naming the payload length, and a payload
//! that opens with `{` is reported as a log that predates the binary
//! format.

use std::collections::BTreeMap;
use std::ops::Range;

use batterylab_sim::{SimDuration, SimTime};

use batterylab_automation::{Action, Script, ScrollDir};
use batterylab_net::VpnLocation;
use serde_json::Value;

use crate::auth::Role;
use crate::credits::{CreditLedger, LedgerEntry};
use crate::jobs::{
    Artifact, BuildRecord, BuildState, Constraints, ExperimentSpec, JobId, Payload, QueuedJob,
};
use crate::registry::Certificate;
use crate::scheduler::RETENTION;
use crate::supervise::BreakerState;
use crate::vantage_exec::{
    DEVICE, DISCHARGE_MAH, DURATION_S, JOB, LOGCAT, MEAN_MA, MIRRORING, MIRROR_UPLOAD_BYTES,
    POWER_SUMMARY, VPN,
};

/// A billing charge bundled with the terminal build record it pays for.
#[derive(Clone, Debug)]
pub struct ChargeRecord {
    /// Account charged.
    pub user: String,
    /// Job name (ledger audit reason).
    pub job: String,
    /// Device time billed.
    pub device_time: SimDuration,
}

/// One durable state transition of the access server.
#[derive(Clone, Debug)]
pub enum WalRecord {
    /// Log created: the server's identity. Always record 0.
    Booted {
        /// The server's public IP (allow-listed at nodes).
        public_ip: String,
    },
    /// An account exists (bootstrap admin included). Stores the password
    /// hash, never cleartext.
    UserAdded {
        /// Account name.
        name: String,
        /// FNV-1a password hash as stored by the directory.
        password_hash: u64,
        /// Role granted.
        role: Role,
    },
    /// The §5 credit system was switched on.
    BillingEnabled,
    /// A vantage point was enrolled.
    NodeEnrolled {
        /// Node name (`node1`).
        name: String,
        /// Controller public IP.
        ip: String,
        /// SSH host-key fingerprint pinned at enrolment.
        host_key: String,
        /// Ports verified open.
        open_ports: Vec<u16>,
        /// Enrolment instant.
        at: SimTime,
    },
    /// A node's hosting owner was recorded.
    NodeOwner {
        /// Node name.
        node: String,
        /// Owning member (earns hosting credits).
        owner: String,
    },
    /// A job entered the queue.
    Submitted {
        /// Assigned job id.
        id: u64,
        /// Job name.
        name: String,
        /// Submitting user.
        owner: String,
        /// Placement constraints.
        constraints: Constraints,
        /// Declarative payload; `None` for boxed `Custom` payloads,
        /// which cannot be serialised and are lost in a crash.
        spec: Option<ExperimentSpec>,
    },
    /// A dispatched run failed transiently and was requeued with a
    /// supervised backoff deadline (logged verbatim, never recomputed).
    Retried {
        /// Job id.
        id: u64,
        /// Node the failed attempt ran on.
        node: String,
        /// Failed attempts so far.
        attempts: u32,
        /// Queue-gate deadline decided by the supervisor.
        not_before: Option<SimTime>,
        /// Node-clock instant of the failure.
        failed_at: SimTime,
        /// The error, for the audit trail.
        error: String,
    },
    /// A build reached a terminal state. The billing charge (if any)
    /// rides in the same record — one atomic commit point.
    Completed {
        /// The finished build record, verbatim.
        record: BuildRecord,
        /// The charge applied for it, if billing was on.
        charge: Option<ChargeRecord>,
    },
    /// One batched round of heartbeat probes with decided outcomes.
    Heartbeats {
        /// Probe instant.
        at: SimTime,
        /// `(node, healthy)` in probe order.
        outcomes: Vec<(String, bool)>,
    },
    /// The maintenance sweeps ran (cert renewal/deploy, workspace
    /// pruning, hosting accrual — all re-derived deterministically on
    /// replay; the node-side power sweep is not, nodes survive crashes).
    MaintenanceRan {
        /// Sweep instant.
        at: SimTime,
    },
    /// A device time slot was reserved.
    SlotReserved {
        /// Node name.
        node: String,
        /// Device serial.
        device: String,
        /// Reserving user.
        user: String,
        /// Slot start.
        from: SimTime,
        /// Slot end.
        to: SimTime,
    },
    /// A user's credit account was opened with the welcome grant.
    AccountOpened {
        /// Account holder.
        user: String,
    },
    /// Credits moved from one account to another (a recruited tester's
    /// pay). The paid account opens with the welcome grant if new.
    Transferred {
        /// Paying account.
        from: String,
        /// Paid account.
        to: String,
        /// Credits moved: finite and non-negative.
        amount: f64,
        /// Why, for the audit trail.
        reason: String,
    },
    // Snapshot records: only the snapshot writer emits these, for state
    // that no transition record above restores without side effects.
    /// The wildcard certificate, once maintenance renewed it.
    Certificate {
        /// The current certificate.
        cert: Certificate,
        /// Serial the next renewal issues.
        next_serial: u64,
    },
    /// A node's health and deployed certificate, where they differ from
    /// what its `NodeEnrolled` record restores.
    NodeHealth {
        /// Node name.
        name: String,
        /// Serial of the certificate deployed at the node.
        deployed_cert: Option<u64>,
        /// Last heartbeat probe instant.
        last_heartbeat: Option<SimTime>,
        /// Outcome of the most recent probe.
        healthy: bool,
    },
    /// One node's circuit breaker, where it differs from a fresh one.
    Breaker {
        /// Node name.
        node: String,
        /// Breaker state.
        state: BreakerState,
        /// Current failure streak.
        consecutive_failures: u32,
        /// When the breaker last opened.
        opened_at: SimTime,
    },
    /// The credit ledger: every balance and the full audit history.
    Ledger(CreditLedger),
    /// One build, verbatim: a finished one, or a queued job's placeholder
    /// with the node its failed attempts pinned.
    Build(BuildRecord),
    /// One queued job, in queue order. Its name and owner are its build's.
    Queued {
        /// Job id.
        id: u64,
        /// Placement constraints.
        constraints: Constraints,
        /// Declarative payload; `None` for a `Custom` payload, which
        /// restores as a failed build.
        spec: Option<ExperimentSpec>,
        /// Failed attempts so far.
        attempts: u32,
        /// Retry backoff deadline.
        not_before: Option<SimTime>,
    },
    /// The last record of a snapshot that holds more than the boot
    /// state: the hosting-accrual instant, and the point the compaction
    /// trigger counts committed records from.
    SnapshotEnd {
        /// Last instant hosting accrual ran.
        last_accrual: SimTime,
    },
}

/// Tags of the snapshot records the writer encodes straight from
/// borrowed state; tags from `0x20` on are snapshot records.
const TAG_LEDGER: u8 = 0x23;
const TAG_BUILD: u8 = 0x24;
const TAG_QUEUED: u8 = 0x25;

impl WalRecord {
    /// Serialise for the framed log.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Writer::with_capacity(256);
        self.put(&mut out);
        out.bytes
    }

    /// Parse a framed-log payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        if payload.first() == Some(&b'{') {
            return Err(format!(
                "log predates the binary WAL format: {}-byte JSON record",
                payload.len()
            ));
        }
        let mut input = Reader::new(payload);
        WalRecord::get(&mut input)
            .and_then(|record| match payload.len() - input.pos {
                0 => Ok(record),
                extra => Err(format!("{extra} trailing bytes")),
            })
            .map_err(|e| format!("undecodable WAL record ({} bytes): {e}", payload.len()))
    }
}

/// Streams a snapshot to `emit` one encoded record at a time, through one
/// reused buffer. The ledger, builds and queue are encoded from borrowed
/// state by the same code that encodes their owned [`WalRecord`]s. Each
/// record starts a fresh string table, so each decodes on its own.
pub(crate) struct SnapshotSink<F: FnMut(&[u8])> {
    out: Writer,
    emit: F,
    /// Records emitted so far.
    pub(crate) records: u64,
}

impl<F: FnMut(&[u8])> SnapshotSink<F> {
    pub(crate) fn new(emit: F) -> Self {
        SnapshotSink {
            out: Writer::with_capacity(256),
            emit,
            records: 0,
        }
    }

    fn flush(&mut self) {
        (self.emit)(&self.out.bytes);
        self.out.clear();
        self.records += 1;
    }

    /// Emit one small record built by the caller.
    pub(crate) fn record(&mut self, record: &WalRecord) {
        record.put(&mut self.out);
        self.flush();
    }

    /// Emit a [`WalRecord::Ledger`].
    pub(crate) fn ledger(&mut self, ledger: &CreditLedger) {
        tagged(&mut self.out, TAG_LEDGER, ledger);
        self.flush();
    }

    /// Emit a [`WalRecord::Build`].
    pub(crate) fn build(&mut self, build: &BuildRecord) {
        tagged(&mut self.out, TAG_BUILD, build);
        self.flush();
    }

    /// Emit a [`WalRecord::Queued`].
    pub(crate) fn queued(&mut self, job: &QueuedJob) {
        let spec = match &job.payload {
            Payload::Experiment(spec) => Some(spec),
            Payload::Custom(_) => None,
        };
        put_queued(
            &mut self.out,
            job.id.0,
            &job.constraints,
            spec,
            job.attempts,
            job.not_before,
        );
        self.flush();
    }
}

fn put_queued(
    out: &mut Writer,
    id: u64,
    constraints: &Constraints,
    spec: Option<&ExperimentSpec>,
    attempts: u32,
    not_before: Option<SimTime>,
) {
    out.push(TAG_QUEUED);
    id.put(out);
    constraints.put(out);
    put_option(out, spec);
    attempts.put(out);
    not_before.put(out);
}

/// The names every record's string table starts with: the summary keys
/// and artifact names the platform writes itself. Their order is part of
/// the format.
const SEED: [&str; 11] = [
    JOB,
    DEVICE,
    MIRRORING,
    VPN,
    MIRROR_UPLOAD_BYTES,
    DISCHARGE_MAH,
    MEAN_MA,
    DURATION_S,
    POWER_SUMMARY,
    LOGCAT,
    RETENTION,
];

/// Most entries a string table holds, seed included, so a reference
/// (`2 * index + 1`) is a one-byte varint.
const TABLE_LEN: usize = 64;

/// Longest string that joins the table: one whose literal length header
/// (`2 * len`) is a one-byte varint.
const SHORT_LEN: usize = 63;

/// Whether a string written out in full joins a table of `entries`:
/// the rule both sides of the codec apply.
fn joins_table(s: &str, entries: usize) -> bool {
    (1..=SHORT_LEN).contains(&s.len()) && entries < TABLE_LEN
}

/// An encoding buffer and the string table of the record in it.
struct Writer {
    bytes: Vec<u8>,
    /// The table past its seed: where in `bytes` each entry was written.
    grown: Vec<Range<usize>>,
}

impl Writer {
    fn with_capacity(capacity: usize) -> Self {
        Writer {
            bytes: Vec::with_capacity(capacity),
            // Room for what a build record adds: name, owner, node, the
            // summary's values.
            grown: Vec::with_capacity(16),
        }
    }

    /// Empty the buffer and reset the table to its seed.
    fn clear(&mut self) {
        self.bytes.clear();
        self.grown.clear();
    }

    fn push(&mut self, byte: u8) {
        self.bytes.push(byte);
    }

    fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// A string: a reference if the table holds it, else its bytes, after
    /// which a short one joins the table.
    fn string(&mut self, s: &str) {
        // The table holds only short strings.
        let found = (1..=SHORT_LEN).contains(&s.len()).then(|| self.find(s));
        if let Some(index) = found.flatten() {
            put_varint(self, reference(index));
            return;
        }
        put_varint(self, (s.len() as u64) << 1);
        let at = self.bytes.len();
        self.bytes.extend_from_slice(s.as_bytes());
        if joins_table(s, SEED.len() + self.grown.len()) {
            self.grown.push(at..self.bytes.len());
        }
    }

    /// The table index of `s`.
    fn find(&self, s: &str) -> Option<usize> {
        if let Some(index) = SEED.iter().position(|&name| name == s) {
            return Some(index);
        }
        let grown = self
            .grown
            .iter()
            .position(|at| &self.bytes[at.clone()] == s.as_bytes())?;
        Some(SEED.len() + grown)
    }
}

/// The varint that refers to table entry `index`: odd, where a literal's
/// length header is even.
fn reference(index: usize) -> u64 {
    ((index as u64) << 1) | 1
}

/// A type with a binary WAL encoding (layout in the module docs).
trait Codec: Sized {
    fn put(&self, out: &mut Writer);
    fn get(input: &mut Reader<'_>) -> Result<Self, String>;
}

/// A decoding cursor over one payload, with the payload's string table.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The table past its seed: the strings the payload added, in order.
    /// Unwritten entries are `None`, so setting the table up is a memset.
    grown: [Option<&'a str>; TABLE_LEN - SEED.len()],
    /// Entries the table holds, seed included.
    entries: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader {
            bytes,
            pos: 0,
            grown: [None; TABLE_LEN - SEED.len()],
            entries: SEED.len(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < n {
            return Err(format!(
                "short input: {n} bytes wanted at offset {}, {} left",
                self.pos,
                rest.len()
            ));
        }
        self.pos += n;
        Ok(&rest[..n])
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn varint(&mut self) -> Result<u64, String> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.byte()?;
            let bits = u64::from(byte & 0x7F);
            if shift == 63 && bits > 1 {
                return Err("varint overflows u64".to_string());
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err("overlong varint".to_string());
                }
                return Ok(value);
            }
        }
        Err("varint longer than 10 bytes".to_string())
    }

    /// A varint count or length, which must fit what is left of the
    /// payload at one byte per element, so a corrupt count cannot make
    /// decoding reserve memory the payload could never fill.
    fn len(&mut self) -> Result<usize, String> {
        let len = self.varint()?;
        self.fits(len)
    }

    /// `len` as a length that fits what is left of the payload.
    fn fits(&self, len: u64) -> Result<usize, String> {
        let left = self.bytes.len() - self.pos;
        usize::try_from(len)
            .ok()
            .filter(|&len| len <= left)
            .ok_or_else(|| format!("length {len} exceeds the {left} bytes left"))
    }

    /// A string written by [`Writer::string`]: a reference into the
    /// table, or a length and that much UTF-8.
    fn string(&mut self) -> Result<&'a str, String> {
        let head = self.varint()?;
        if head & 1 == 1 {
            let index = head >> 1;
            let entry = match usize::try_from(index) {
                Ok(i) if i < SEED.len() => Some(SEED[i]),
                Ok(i) => self.grown.get(i - SEED.len()).copied().flatten(),
                Err(_) => None,
            };
            return entry.ok_or_else(|| {
                format!(
                    "string reference {index} past the {}-entry table",
                    self.entries
                )
            });
        }
        let len = self.fits(head >> 1)?;
        let at = self.pos;
        let s = std::str::from_utf8(self.take(len)?)
            .map_err(|e| format!("invalid UTF-8 in string at offset {at}: {e}"))?;
        if joins_table(s, self.entries) {
            self.grown[self.entries - SEED.len()] = Some(s);
            self.entries += 1;
        }
        Ok(s)
    }

    /// A varint count, then that many `item`s.
    fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let len = self.len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(item(self)?);
        }
        Ok(out)
    }
}

fn put_varint(out: &mut Writer, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn put_len(out: &mut Writer, len: usize) {
    put_varint(out, len as u64);
}

/// A tag byte followed by one payload field.
fn tagged(out: &mut Writer, tag: u8, field: &impl Codec) {
    out.push(tag);
    field.put(out);
}

fn unknown<T>(what: &str, tag: u8) -> Result<T, String> {
    Err(format!("unknown {what} tag {tag}"))
}

impl Codec for u64 {
    fn put(&self, out: &mut Writer) {
        put_varint(out, *self);
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        input.varint()
    }
}

impl Codec for u32 {
    fn put(&self, out: &mut Writer) {
        put_varint(out, u64::from(*self));
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        let v = input.varint()?;
        u32::try_from(v).map_err(|_| format!("{v} overflows u32"))
    }
}

impl Codec for u16 {
    fn put(&self, out: &mut Writer) {
        put_varint(out, u64::from(*self));
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        let v = input.varint()?;
        u16::try_from(v).map_err(|_| format!("{v} overflows u16"))
    }
}

impl Codec for f64 {
    fn put(&self, out: &mut Writer) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        Ok(f64::from_bits(u64::from_le_bytes(input.array()?)))
    }
}

impl Codec for bool {
    fn put(&self, out: &mut Writer) {
        out.push(u8::from(*self));
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        match input.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => unknown("bool", tag),
        }
    }
}

impl Codec for String {
    fn put(&self, out: &mut Writer) {
        out.string(self);
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        input.string().map(str::to_owned)
    }
}

fn put_option<T: Codec>(out: &mut Writer, value: Option<&T>) {
    match value {
        None => out.push(0),
        Some(v) => {
            out.push(1);
            v.put(out);
        }
    }
}

impl<T: Codec> Codec for Option<T> {
    fn put(&self, out: &mut Writer) {
        put_option(out, self.as_ref());
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        match input.byte()? {
            0 => Ok(None),
            1 => T::get(input).map(Some),
            tag => unknown("option", tag),
        }
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Writer) {
        put_len(out, self.len());
        for v in self {
            v.put(out);
        }
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        input.seq(T::get)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn put(&self, out: &mut Writer) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        Ok((A::get(input)?, B::get(input)?))
    }
}

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    fn put(&self, out: &mut Writer) {
        put_len(out, self.len());
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        let len = input.len()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let key = K::get(input)?;
            if map.insert(key, V::get(input)?).is_some() {
                return Err("duplicate map key".to_string());
            }
        }
        Ok(map)
    }
}

impl Codec for SimTime {
    fn put(&self, out: &mut Writer) {
        put_varint(out, self.as_micros());
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        input.varint().map(SimTime::from_micros)
    }
}

impl Codec for SimDuration {
    fn put(&self, out: &mut Writer) {
        put_varint(out, self.as_micros());
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        input.varint().map(SimDuration::from_micros)
    }
}

impl Codec for JobId {
    fn put(&self, out: &mut Writer) {
        self.0.put(out);
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        u64::get(input).map(JobId)
    }
}

impl Codec for Role {
    fn put(&self, out: &mut Writer) {
        out.push(match self {
            Role::Admin => 0,
            Role::Experimenter => 1,
            Role::Tester => 2,
        });
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        match input.byte()? {
            0 => Ok(Role::Admin),
            1 => Ok(Role::Experimenter),
            2 => Ok(Role::Tester),
            tag => unknown("role", tag),
        }
    }
}

impl Codec for BreakerState {
    fn put(&self, out: &mut Writer) {
        out.push(match self {
            BreakerState::Closed => 0,
            BreakerState::Open => 1,
            BreakerState::HalfOpen => 2,
        });
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        match input.byte()? {
            0 => Ok(BreakerState::Closed),
            1 => Ok(BreakerState::Open),
            2 => Ok(BreakerState::HalfOpen),
            tag => unknown("breaker state", tag),
        }
    }
}

impl Codec for ScrollDir {
    fn put(&self, out: &mut Writer) {
        out.push(match self {
            ScrollDir::Down => 0,
            ScrollDir::Up => 1,
        });
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        match input.byte()? {
            0 => Ok(ScrollDir::Down),
            1 => Ok(ScrollDir::Up),
            tag => unknown("scroll direction", tag),
        }
    }
}

impl Codec for VpnLocation {
    fn put(&self, out: &mut Writer) {
        let index = VpnLocation::ALL.iter().position(|l| l == self);
        out.push(index.expect("VpnLocation::ALL lists every location") as u8);
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        let tag = input.byte()?;
        match VpnLocation::ALL.get(usize::from(tag)) {
            Some(location) => Ok(*location),
            None => unknown("VPN location", tag),
        }
    }
}

impl Codec for Action {
    fn put(&self, out: &mut Writer) {
        match self {
            Action::LaunchApp(s) => tagged(out, 0, s),
            Action::ForceStop(s) => tagged(out, 1, s),
            Action::ClearAppData(s) => tagged(out, 2, s),
            Action::EnterUrl(s) => tagged(out, 3, s),
            Action::Scroll(dir) => tagged(out, 4, dir),
            Action::KeyEvent(code) => tagged(out, 5, code),
            Action::Wait(d) => tagged(out, 6, d),
            Action::Note(s) => tagged(out, 7, s),
        }
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match input.byte()? {
            0 => Action::LaunchApp(String::get(input)?),
            1 => Action::ForceStop(String::get(input)?),
            2 => Action::ClearAppData(String::get(input)?),
            3 => Action::EnterUrl(String::get(input)?),
            4 => Action::Scroll(ScrollDir::get(input)?),
            5 => Action::KeyEvent(u32::get(input)?),
            6 => Action::Wait(SimDuration::get(input)?),
            7 => Action::Note(String::get(input)?),
            tag => return unknown("action", tag),
        })
    }
}

/// `Codec` for a struct: its fields in declaration order, written and
/// read from one list so the two orders cannot drift apart.
macro_rules! struct_codec {
    ($ty:ident { $($field:ident),* }) => {
        impl Codec for $ty {
            fn put(&self, out: &mut Writer) {
                $(self.$field.put(out);)*
            }
            fn get(input: &mut Reader<'_>) -> Result<Self, String> {
                Ok($ty {
                    $($field: Codec::get(input)?,)*
                })
            }
        }
    };
}

struct_codec!(Script { name, actions });

struct_codec!(ExperimentSpec {
    device,
    script,
    measure,
    mirroring,
    vpn,
    sample_rate_hz,
    collect_logcat
});

struct_codec!(Constraints {
    node,
    device,
    require_low_cpu,
    max_retries
});

impl Codec for BuildState {
    fn put(&self, out: &mut Writer) {
        match self {
            BuildState::Queued => out.push(0),
            BuildState::Succeeded => out.push(1),
            BuildState::Failed(error) => tagged(out, 2, error),
        }
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        match input.byte()? {
            0 => Ok(BuildState::Queued),
            1 => Ok(BuildState::Succeeded),
            2 => String::get(input).map(BuildState::Failed),
            tag => unknown("build state", tag),
        }
    }
}

struct_codec!(Artifact { name, content });

struct_codec!(BuildRecord {
    id,
    name,
    owner,
    node,
    state,
    summary,
    artifacts,
    finished_at
});

struct_codec!(ChargeRecord {
    user,
    job,
    device_time
});

struct_codec!(Certificate { serial, expires });

struct_codec!(LedgerEntry {
    user,
    amount,
    reason
});

struct_codec!(CreditLedger { balances, history });

/// Deepest summary nesting decoding accepts, so a corrupt payload cannot
/// recurse the stack away. Job summaries nest two levels.
const MAX_VALUE_DEPTH: usize = 64;

impl Codec for Value {
    fn put(&self, out: &mut Writer) {
        match self {
            Value::Null => out.push(0),
            Value::Bool(b) => tagged(out, 1, b),
            Value::U64(v) => tagged(out, 2, v),
            Value::I64(v) => {
                out.push(3);
                put_varint(out, ((*v << 1) ^ (*v >> 63)) as u64);
            }
            Value::F64(v) => tagged(out, 4, v),
            Value::Str(s) => tagged(out, 5, s),
            Value::Array(items) => tagged(out, 6, items),
            Value::Object(fields) => tagged(out, 7, fields),
        }
    }
    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        get_value(input, 0)
    }
}

fn get_value(input: &mut Reader<'_>, depth: usize) -> Result<Value, String> {
    if depth > MAX_VALUE_DEPTH {
        return Err(format!("summary nested deeper than {MAX_VALUE_DEPTH}"));
    }
    Ok(match input.byte()? {
        0 => Value::Null,
        1 => Value::Bool(bool::get(input)?),
        2 => Value::U64(u64::get(input)?),
        3 => {
            let zigzag = input.varint()?;
            Value::I64(((zigzag >> 1) as i64) ^ -((zigzag & 1) as i64))
        }
        4 => Value::F64(f64::get(input)?),
        5 => Value::Str(String::get(input)?),
        6 => Value::Array(input.seq(|input| get_value(input, depth + 1))?),
        7 => Value::Object(
            input.seq(|input| Ok((String::get(input)?, get_value(input, depth + 1)?)))?,
        ),
        tag => return unknown("summary value", tag),
    })
}

impl Codec for WalRecord {
    fn put(&self, out: &mut Writer) {
        match self {
            WalRecord::Booted { public_ip } => tagged(out, 0, public_ip),
            WalRecord::UserAdded {
                name,
                password_hash,
                role,
            } => {
                out.push(1);
                name.put(out);
                out.extend_from_slice(&password_hash.to_le_bytes());
                role.put(out);
            }
            WalRecord::BillingEnabled => out.push(2),
            WalRecord::NodeEnrolled {
                name,
                ip,
                host_key,
                open_ports,
                at,
            } => {
                out.push(3);
                name.put(out);
                ip.put(out);
                host_key.put(out);
                open_ports.put(out);
                at.put(out);
            }
            WalRecord::NodeOwner { node, owner } => {
                out.push(4);
                node.put(out);
                owner.put(out);
            }
            WalRecord::Submitted {
                id,
                name,
                owner,
                constraints,
                spec,
            } => {
                out.push(5);
                id.put(out);
                name.put(out);
                owner.put(out);
                constraints.put(out);
                spec.put(out);
            }
            WalRecord::Retried {
                id,
                node,
                attempts,
                not_before,
                failed_at,
                error,
            } => {
                out.push(6);
                id.put(out);
                node.put(out);
                attempts.put(out);
                not_before.put(out);
                failed_at.put(out);
                error.put(out);
            }
            WalRecord::Completed { record, charge } => {
                out.push(7);
                record.put(out);
                charge.put(out);
            }
            WalRecord::Heartbeats { at, outcomes } => {
                out.push(8);
                at.put(out);
                outcomes.put(out);
            }
            WalRecord::MaintenanceRan { at } => tagged(out, 9, at),
            WalRecord::SlotReserved {
                node,
                device,
                user,
                from,
                to,
            } => {
                out.push(10);
                node.put(out);
                device.put(out);
                user.put(out);
                from.put(out);
                to.put(out);
            }
            WalRecord::AccountOpened { user } => tagged(out, 11, user),
            WalRecord::Transferred {
                from,
                to,
                amount,
                reason,
            } => {
                out.push(12);
                from.put(out);
                to.put(out);
                amount.put(out);
                reason.put(out);
            }
            WalRecord::Certificate { cert, next_serial } => {
                out.push(0x20);
                cert.put(out);
                next_serial.put(out);
            }
            WalRecord::NodeHealth {
                name,
                deployed_cert,
                last_heartbeat,
                healthy,
            } => {
                out.push(0x21);
                name.put(out);
                deployed_cert.put(out);
                last_heartbeat.put(out);
                healthy.put(out);
            }
            WalRecord::Breaker {
                node,
                state,
                consecutive_failures,
                opened_at,
            } => {
                out.push(0x22);
                node.put(out);
                state.put(out);
                consecutive_failures.put(out);
                opened_at.put(out);
            }
            WalRecord::Ledger(ledger) => tagged(out, TAG_LEDGER, ledger),
            WalRecord::Build(build) => tagged(out, TAG_BUILD, build),
            WalRecord::Queued {
                id,
                constraints,
                spec,
                attempts,
                not_before,
            } => put_queued(out, *id, constraints, spec.as_ref(), *attempts, *not_before),
            WalRecord::SnapshotEnd { last_accrual } => tagged(out, 0x26, last_accrual),
        }
    }

    fn get(input: &mut Reader<'_>) -> Result<Self, String> {
        Ok(match input.byte()? {
            0 => WalRecord::Booted {
                public_ip: String::get(input)?,
            },
            1 => WalRecord::UserAdded {
                name: String::get(input)?,
                password_hash: u64::from_le_bytes(input.array()?),
                role: Role::get(input)?,
            },
            2 => WalRecord::BillingEnabled,
            3 => WalRecord::NodeEnrolled {
                name: String::get(input)?,
                ip: String::get(input)?,
                host_key: String::get(input)?,
                open_ports: Vec::get(input)?,
                at: SimTime::get(input)?,
            },
            4 => WalRecord::NodeOwner {
                node: String::get(input)?,
                owner: String::get(input)?,
            },
            5 => WalRecord::Submitted {
                id: u64::get(input)?,
                name: String::get(input)?,
                owner: String::get(input)?,
                constraints: Constraints::get(input)?,
                spec: Option::get(input)?,
            },
            6 => WalRecord::Retried {
                id: u64::get(input)?,
                node: String::get(input)?,
                attempts: u32::get(input)?,
                not_before: Option::get(input)?,
                failed_at: SimTime::get(input)?,
                error: String::get(input)?,
            },
            7 => WalRecord::Completed {
                record: BuildRecord::get(input)?,
                charge: Option::get(input)?,
            },
            8 => WalRecord::Heartbeats {
                at: SimTime::get(input)?,
                outcomes: Vec::get(input)?,
            },
            9 => WalRecord::MaintenanceRan {
                at: SimTime::get(input)?,
            },
            10 => WalRecord::SlotReserved {
                node: String::get(input)?,
                device: String::get(input)?,
                user: String::get(input)?,
                from: SimTime::get(input)?,
                to: SimTime::get(input)?,
            },
            11 => WalRecord::AccountOpened {
                user: String::get(input)?,
            },
            12 => WalRecord::Transferred {
                from: String::get(input)?,
                to: String::get(input)?,
                amount: f64::get(input)?,
                reason: String::get(input)?,
            },
            0x20 => WalRecord::Certificate {
                cert: Certificate::get(input)?,
                next_serial: u64::get(input)?,
            },
            0x21 => WalRecord::NodeHealth {
                name: String::get(input)?,
                deployed_cert: Option::get(input)?,
                last_heartbeat: Option::get(input)?,
                healthy: bool::get(input)?,
            },
            0x22 => WalRecord::Breaker {
                node: String::get(input)?,
                state: BreakerState::get(input)?,
                consecutive_failures: u32::get(input)?,
                opened_at: SimTime::get(input)?,
            },
            TAG_LEDGER => WalRecord::Ledger(CreditLedger::get(input)?),
            TAG_BUILD => WalRecord::Build(BuildRecord::get(input)?),
            TAG_QUEUED => WalRecord::Queued {
                id: u64::get(input)?,
                constraints: Constraints::get(input)?,
                spec: Option::get(input)?,
                attempts: u32::get(input)?,
                not_before: Option::get(input)?,
            },
            0x26 => WalRecord::SnapshotEnd {
                last_accrual: SimTime::get(input)?,
            },
            tag => return unknown("record", tag),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AccessServer;
    use batterylab_durable::Wal;
    use proptest::prelude::*;

    fn summary() -> Value {
        Value::Object(vec![
            ("null".into(), Value::Null),
            ("ok".into(), Value::Bool(true)),
            ("count".into(), Value::U64(u64::MAX)),
            ("delta".into(), Value::I64(-42)),
            ("floor".into(), Value::I64(i64::MIN)),
            // Not representable in few decimal digits: must survive bit for bit.
            ("mah".into(), Value::F64(0.1 + 0.2)),
            ("neg_zero".into(), Value::F64(-0.0)),
            ("label".into(), Value::Str("Zürich ✓".into())),
            (
                "nested".into(),
                Value::Array(vec![
                    Value::U64(1),
                    Value::F64(1.0),
                    Value::Array(vec![]),
                    Value::Object(vec![
                        ("z".into(), Value::Null),
                        ("a".into(), Value::I64(-1)),
                    ]),
                ]),
            ),
        ])
    }

    fn every_record() -> Vec<WalRecord> {
        let script = Script::new("all-actions")
            .then(Action::LaunchApp("com.brave.browser".into()))
            .then(Action::ForceStop("com.brave.browser".into()))
            .then(Action::ClearAppData("com.brave.browser".into()))
            .then(Action::EnterUrl("https://news.example/ü".into()))
            .then(Action::Scroll(ScrollDir::Down))
            .then(Action::Scroll(ScrollDir::Up))
            .then(Action::KeyEvent(66))
            .then(Action::Wait(SimDuration::from_millis(6_000)))
            .then(Action::Note("note".into()));
        let mut spec = ExperimentSpec::measured("j7duo-0001", script);
        spec.mirroring = true;
        spec.vpn = Some(VpnLocation::Brazil);
        spec.sample_rate_hz = 4999.5;
        spec.collect_logcat = false;
        vec![
            WalRecord::Booted {
                public_ip: "52.1.2.3".into(),
            },
            WalRecord::UserAdded {
                name: "alice".into(),
                password_hash: 0xFEDC_BA98_7654_3210,
                role: Role::Experimenter,
            },
            WalRecord::UserAdded {
                name: "root".into(),
                password_hash: 0,
                role: Role::Admin,
            },
            WalRecord::UserAdded {
                name: "tess".into(),
                password_hash: 1,
                role: Role::Tester,
            },
            WalRecord::BillingEnabled,
            WalRecord::NodeEnrolled {
                name: "node1".into(),
                ip: "10.0.0.7".into(),
                host_key: "fp:node1".into(),
                open_ports: vec![22, 2222, 5900, u16::MAX],
                at: SimTime::from_secs(3),
            },
            WalRecord::NodeOwner {
                node: "node1".into(),
                owner: "alice".into(),
            },
            WalRecord::Submitted {
                id: 7,
                name: "job".into(),
                owner: "alice".into(),
                constraints: Constraints::default(),
                spec: None,
            },
            WalRecord::Submitted {
                id: 300,
                name: "measured".into(),
                owner: "alice".into(),
                constraints: Constraints {
                    node: Some("node1".into()),
                    device: Some("j7duo-0001".into()),
                    require_low_cpu: true,
                    max_retries: u32::MAX,
                },
                spec: Some(spec),
            },
            WalRecord::Retried {
                id: 7,
                node: "node1".into(),
                attempts: 2,
                not_before: Some(SimTime::from_secs(12)),
                failed_at: SimTime::from_secs(10),
                error: "socket hiccup".into(),
            },
            WalRecord::Retried {
                id: 8,
                node: "node2".into(),
                attempts: 1,
                not_before: None,
                failed_at: SimTime::from_micros(u64::MAX),
                error: String::new(),
            },
            WalRecord::Completed {
                record: BuildRecord {
                    id: JobId(7),
                    name: "job".into(),
                    owner: "alice".into(),
                    node: Some("node1".into()),
                    state: BuildState::Succeeded,
                    summary: None,
                    artifacts: vec![],
                    finished_at: Some(SimTime::from_secs(20)),
                },
                charge: Some(ChargeRecord {
                    user: "alice".into(),
                    job: "job".into(),
                    device_time: SimDuration::from_secs(20),
                }),
            },
            WalRecord::Completed {
                record: BuildRecord {
                    id: JobId(9),
                    name: "broken".into(),
                    owner: "bob".into(),
                    node: None,
                    state: BuildState::Failed("adb: device offline — réessayer".into()),
                    summary: Some(summary()),
                    artifacts: vec![
                        Artifact {
                            name: "logcat.txt".into(),
                            content: "I/ActivityManager: Displayed 日本語\n\"quoted\"\t\\".into(),
                        },
                        Artifact {
                            name: "power_summary.json".into(),
                            content: "{\"mah\": 0.5}".into(),
                        },
                    ],
                    finished_at: None,
                },
                charge: None,
            },
            WalRecord::Completed {
                record: BuildRecord {
                    id: JobId(10),
                    name: "queued".into(),
                    owner: "bob".into(),
                    node: None,
                    state: BuildState::Queued,
                    summary: Some(Value::Null),
                    artifacts: vec![],
                    finished_at: None,
                },
                charge: None,
            },
            WalRecord::Heartbeats {
                at: SimTime::from_secs(30),
                outcomes: vec![("node1".into(), true), ("node2".into(), false)],
            },
            WalRecord::MaintenanceRan {
                at: SimTime::from_secs(40),
            },
            WalRecord::SlotReserved {
                node: "node1".into(),
                device: "j7duo-0001".into(),
                user: "alice".into(),
                from: SimTime::from_secs(100),
                to: SimTime::from_secs(200),
            },
            measured_completed(),
            WalRecord::AccountOpened {
                user: "alice".into(),
            },
            WalRecord::Transferred {
                from: "alice".into(),
                to: "AMZN-worker-77".into(),
                amount: 0.1 + 0.2,
                reason: "usability task".into(),
            },
            WalRecord::Transferred {
                from: "alice".into(),
                to: "alice".into(),
                amount: -0.0,
                reason: String::new(),
            },
        ]
    }

    /// The `Completed` record of one measured browser job, shaped as
    /// `run_experiment` and a billed server write it: every seeded summary
    /// key but the mirroring one, in order, and both artifacts.
    fn measured_completed() -> WalRecord {
        let summary = [
            (
                "job",
                Value::Str("browser-workload/com.brave.browser".into()),
            ),
            ("device", Value::Str("j7duo-0001".into())),
            ("mirroring", Value::Bool(false)),
            ("vpn", Value::Null),
            ("discharge_mah", Value::F64(0.5)),
            ("mean_ma", Value::F64(150.0)),
            ("duration_s", Value::F64(12.0)),
        ];
        WalRecord::Completed {
            record: BuildRecord {
                id: JobId(1),
                name: "job-1".into(),
                owner: "alice".into(),
                node: Some("node1".into()),
                state: BuildState::Succeeded,
                summary: Some(Value::Object(
                    summary.map(|(key, value)| (key.to_string(), value)).into(),
                )),
                artifacts: vec![
                    Artifact {
                        name: "power_summary.json".into(),
                        content: "{\"mah\":0.5}".into(),
                    },
                    Artifact {
                        name: "logcat.txt".into(),
                        content: "I/ActivityManager: Displayed com.brave.browser\n".into(),
                    },
                ],
                finished_at: Some(SimTime::from_secs(12)),
            },
            charge: Some(ChargeRecord {
                user: "alice".into(),
                job: "job-1".into(),
                device_time: SimDuration::from_secs(12),
            }),
        }
    }

    /// How often `s` is spelled out in `bytes`.
    fn spelled(bytes: &[u8], s: &str) -> usize {
        bytes
            .windows(s.len())
            .filter(|w| *w == s.as_bytes())
            .count()
    }

    /// One of each snapshot record.
    fn snapshot_records() -> Vec<WalRecord> {
        let mut ledger = CreditLedger::new();
        ledger.open_account("alice");
        ledger
            .charge_experiment("alice", "job", SimDuration::from_secs(90))
            .unwrap();
        let spec = ExperimentSpec::measured("j7duo-0001", Script::new("s"));
        let Some(WalRecord::Completed { record: build, .. }) = every_record().into_iter().nth(12)
        else {
            panic!("fixture moved");
        };
        vec![
            WalRecord::Certificate {
                cert: Certificate {
                    serial: 3,
                    expires: SimTime::from_secs(90 * 24 * 3600),
                },
                next_serial: 4,
            },
            WalRecord::NodeHealth {
                name: "node1".into(),
                deployed_cert: Some(2),
                last_heartbeat: Some(SimTime::from_secs(30)),
                healthy: false,
            },
            WalRecord::Breaker {
                node: "node1".into(),
                state: BreakerState::HalfOpen,
                consecutive_failures: 4,
                opened_at: SimTime::from_secs(31),
            },
            WalRecord::Ledger(ledger),
            WalRecord::Build(build),
            WalRecord::Queued {
                id: 8,
                constraints: Constraints::default(),
                spec: Some(spec),
                attempts: 2,
                not_before: Some(SimTime::from_secs(40)),
            },
            WalRecord::Queued {
                id: 9,
                constraints: Constraints::default(),
                spec: None,
                attempts: 0,
                not_before: None,
            },
            WalRecord::SnapshotEnd {
                last_accrual: SimTime::from_secs(50),
            },
        ]
    }

    #[test]
    fn snapshot_records_round_trip_and_reject_damage() {
        for record in snapshot_records() {
            let bytes = record.encode();
            assert!(bytes[0] >= 0x20, "snapshot tag {}", bytes[0]);
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(bytes, back.encode(), "stable re-encoding: {record:?}");
            assert_eq!(format!("{back:?}"), format!("{record:?}"));
            for cut in 0..bytes.len() {
                assert!(
                    WalRecord::decode(&bytes[..cut]).is_err(),
                    "{cut} of {record:?}"
                );
            }
            let mut longer = bytes.clone();
            longer.push(0);
            assert!(WalRecord::decode(&longer).is_err());
        }
    }

    #[test]
    fn the_sink_encodes_borrowed_state_as_the_owned_records() {
        let mut emitted = Vec::new();
        let mut sink = SnapshotSink::new(|p: &[u8]| emitted.push(p.to_vec()));
        let records = snapshot_records();
        for record in &records {
            match record {
                WalRecord::Ledger(ledger) => sink.ledger(ledger),
                WalRecord::Build(build) => sink.build(build),
                WalRecord::Queued {
                    id,
                    constraints,
                    spec,
                    attempts,
                    not_before,
                } => sink.queued(&QueuedJob {
                    id: JobId(*id),
                    name: String::new(),
                    owner: String::new(),
                    constraints: constraints.clone(),
                    payload: match spec {
                        Some(spec) => Payload::Experiment(spec.clone()),
                        None => Payload::Custom(Box::new(|_| Err(String::new()))),
                    },
                    attempts: *attempts,
                    not_before: *not_before,
                }),
                other => sink.record(other),
            }
        }
        assert_eq!(sink.records, records.len() as u64);
        let expected: Vec<_> = records.iter().map(WalRecord::encode).collect();
        assert_eq!(emitted, expected);
    }

    #[test]
    fn duplicate_ledger_accounts_fail() {
        let mut bytes = vec![TAG_LEDGER, 2];
        for _ in 0..2 {
            bytes.extend_from_slice(&[2, b'a']);
            bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        }
        bytes.push(0);
        let err = WalRecord::decode(&bytes).unwrap_err();
        assert!(err.contains("duplicate map key"), "{err}");
    }

    #[test]
    fn records_round_trip() {
        for record in every_record() {
            let bytes = record.encode();
            let back = WalRecord::decode(&bytes).unwrap();
            assert_eq!(bytes, back.encode(), "stable re-encoding: {record:?}");
            // `Debug` tells the numeric kinds of summary values apart,
            // which `Value`'s `PartialEq` deliberately does not.
            assert_eq!(format!("{back:?}"), format!("{record:?}"));
        }
    }

    #[test]
    fn summary_floats_and_kinds_survive_bit_for_bit() {
        let record = &every_record()[12];
        let WalRecord::Completed { record: build, .. } =
            WalRecord::decode(&record.encode()).unwrap()
        else {
            panic!("not a Completed record");
        };
        let summary = build.summary.unwrap();
        assert_eq!(
            summary["mah"].as_f64().map(f64::to_bits),
            Some((0.1f64 + 0.2).to_bits())
        );
        assert!(matches!(summary["neg_zero"], Value::F64(z) if z.to_bits() == (-0.0f64).to_bits()));
        assert!(matches!(summary["delta"], Value::I64(-42)));
        assert!(matches!(summary["floor"], Value::I64(i64::MIN)));
        assert!(matches!(summary["count"], Value::U64(u64::MAX)));
        assert!(matches!(summary["nested"][1], Value::F64(_)));
        let keys: Vec<&str> = summary["nested"][3]
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn every_strict_prefix_and_any_extra_byte_fail() {
        // The fixture writes strings as references into the seed and into
        // what the record added, so prefixes cut references off too.
        let measured = measured_completed().encode();
        assert_eq!(spelled(&measured, "logcat.txt"), 0);
        assert_eq!(spelled(&measured, "alice"), 1);
        let submitted = every_record()[8].encode();
        assert_eq!(spelled(&submitted, "com.brave.browser"), 1);
        for record in every_record() {
            let bytes = record.encode();
            for cut in 0..bytes.len() {
                let err = WalRecord::decode(&bytes[..cut])
                    .expect_err(&format!("{cut}-byte prefix of {record:?} decoded"));
                assert!(err.contains(&format!("({cut} bytes)")), "{err}");
            }
            let mut longer = bytes.clone();
            longer.push(0);
            let err = WalRecord::decode(&longer).unwrap_err();
            assert!(err.contains("1 trailing bytes"), "{err}");
        }
    }

    #[test]
    fn unknown_tags_and_invalid_utf8_fail() {
        assert!(WalRecord::decode(&[13])
            .unwrap_err()
            .contains("unknown record tag 13"));
        // UserAdded with role tag 3.
        let mut bytes = vec![1, 2, b'a'];
        bytes.extend_from_slice(&[0; 8]);
        bytes.push(3);
        assert!(WalRecord::decode(&bytes)
            .unwrap_err()
            .contains("unknown role tag 3"));
        let err = WalRecord::decode(&[0, 4, 0xC3, 0x28]).unwrap_err();
        assert!(err.contains("invalid UTF-8"), "{err}");
        // A length larger than the payload is refused before reading.
        let err = WalRecord::decode(&[0, 0xFE, 0xFF, 0x03]).unwrap_err();
        assert!(err.contains("exceeds"), "{err}");
        // Overlong and overflowing varints.
        assert!(WalRecord::decode(&[9, 0x80, 0x00]).is_err());
        assert!(WalRecord::decode(&[
            9, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02
        ])
        .is_err());
    }

    #[test]
    fn seed_table_order_is_pinned() {
        assert_eq!(
            SEED,
            [
                "job",
                "device",
                "mirroring",
                "vpn",
                "mirror_upload_bytes",
                "discharge_mah",
                "mean_ma",
                "duration_s",
                "power_summary.json",
                "logcat.txt",
                "RETENTION",
            ]
        );
        for (i, name) in SEED.iter().enumerate() {
            assert!(joins_table(name, i), "{name} could not have joined");
            assert!(!SEED[..i].contains(name), "{name} seeded twice");
        }
    }

    #[test]
    fn measured_job_completed_bytes_are_pinned() {
        let bytes = measured_completed().encode();
        #[rustfmt::skip]
        let expected: &[u8] = &[
            7, 1, // Completed, id 1
            10, b'j', b'o', b'b', b'-', b'1', // name: literal, joins as entry 11
            10, b'a', b'l', b'i', b'c', b'e', // owner: entry 12
            1, 10, b'n', b'o', b'd', b'e', b'1', // node: Some, entry 13
            1, // Succeeded
            1, 7, 7, // summary: Some, an object of 7 fields
            1, 5, 68, // "job" (entry 0): a string, entry 14
            b'b', b'r', b'o', b'w', b's', b'e', b'r', b'-', b'w', b'o', b'r', b'k', b'l',
            b'o', b'a', b'd', b'/', b'c', b'o', b'm', b'.', b'b', b'r', b'a', b'v', b'e',
            b'.', b'b', b'r', b'o', b'w', b's', b'e', b'r',
            3, 5, 20, b'j', b'7', b'd', b'u', b'o', b'-', b'0', b'0', b'0', b'1', // "device": entry 15
            5, 1, 0, // "mirroring": false
            7, 0, // "vpn": null
            11, 4, 0, 0, 0, 0, 0, 0, 0xE0, 0x3F, // "discharge_mah": 0.5
            13, 4, 0, 0, 0, 0, 0, 0xC0, 0x62, 0x40, // "mean_ma": 150.0
            15, 4, 0, 0, 0, 0, 0, 0, 0x28, 0x40, // "duration_s": 12.0
            2, // two artifacts
            17, 22, b'{', b'"', b'm', b'a', b'h', b'"', b':', b'0', b'.', b'5', b'}', // entry 16
            19, 94, // logcat.txt, 47 bytes: entry 17
            b'I', b'/', b'A', b'c', b't', b'i', b'v', b'i', b't', b'y', b'M', b'a', b'n',
            b'a', b'g', b'e', b'r', b':', b' ', b'D', b'i', b's', b'p', b'l', b'a', b'y',
            b'e', b'd', b' ', b'c', b'o', b'm', b'.', b'b', b'r', b'a', b'v', b'e', b'.',
            b'b', b'r', b'o', b'w', b's', b'e', b'r', b'\n',
            1, 0x80, 0xB6, 0xDC, 0x05, // finished_at: Some, 12 s in microseconds
            1, 25, 23, // charge: Some, user "alice" (entry 12), job "job-1" (entry 11)
            0x80, 0xB6, 0xDC, 0x05, // device time
        ];
        assert_eq!(bytes, expected);
    }

    #[test]
    fn references_past_the_table_fail() {
        // NodeOwner whose owner refers back to its node: entry 11.
        let mut bytes = vec![4, 10];
        bytes.extend_from_slice(b"node1");
        let ok = WalRecord::decode(&[&bytes[..], &[reference(11) as u8]].concat()).unwrap();
        assert!(matches!(ok, WalRecord::NodeOwner { owner, .. } if owner == "node1"));
        for past in [reference(12), reference(TABLE_LEN), u64::MAX] {
            let mut corrupt = bytes.clone();
            put_varint_to(&mut corrupt, past);
            let err = WalRecord::decode(&corrupt).unwrap_err();
            assert!(err.contains("past the 12-entry table"), "{err}");
        }
        // Booted with its one string past the bare seed.
        let err = WalRecord::decode(&[0, reference(SEED.len()) as u8]).unwrap_err();
        assert!(
            err.contains("string reference 11 past the 11-entry table"),
            "{err}"
        );
        // A reference inside a valid record, bumped past the table.
        let mut measured = measured_completed().encode();
        let at = measured.len() - 6;
        assert_eq!(measured[at], reference(12) as u8, "charge user");
        measured[at] = reference(40) as u8;
        let err = WalRecord::decode(&measured).unwrap_err();
        assert!(
            err.contains("string reference 40 past the 18-entry table"),
            "{err}"
        );
    }

    fn put_varint_to(bytes: &mut Vec<u8>, value: u64) {
        let mut out = Writer::with_capacity(10);
        put_varint(&mut out, value);
        bytes.extend_from_slice(&out.bytes);
    }

    /// Strings the round-trip property draws from: the seed, names that
    /// repeat, more distinct short strings than the table has room for,
    /// strings either side of the short bound and long ones.
    fn pool() -> Vec<String> {
        let mut pool: Vec<String> = SEED.iter().map(|name| name.to_string()).collect();
        pool.extend(["", "alice", "node1", "j7duo-0001", "com.brave.browser"].map(String::from));
        pool.extend((0..80).map(|i| format!("job-{i}")));
        pool.extend([63, 64, 127, 128, 9_000].map(|len| "x".repeat(len)));
        pool.push("é".repeat(40));
        pool
    }

    /// A record of kind `kind % 6` whose strings are `picks` from [`pool`].
    fn record_of(kind: u8, picks: &[usize], pool: &[String]) -> WalRecord {
        let mut strings = picks.iter().map(|&i| pool[i].clone()).cycle();
        let mut next = || strings.next().unwrap_or_default();
        let n = picks.len();
        match kind % 6 {
            0 => WalRecord::Ledger(CreditLedger {
                balances: (0..n / 4).map(|i| (next(), i as f64)).collect(),
                history: (0..n)
                    .map(|i| LedgerEntry {
                        user: next(),
                        amount: -(i as f64),
                        reason: next(),
                    })
                    .collect(),
            }),
            1 => WalRecord::Build(BuildRecord {
                id: JobId(n as u64),
                name: next(),
                owner: next(),
                node: Some(next()),
                state: BuildState::Failed(next()),
                summary: Some(Value::Object(
                    (0..n / 2)
                        .map(|i| {
                            let value = if i % 2 == 0 {
                                Value::Str(next())
                            } else {
                                Value::Array(vec![Value::Str(next()), Value::U64(i as u64)])
                            };
                            (next(), value)
                        })
                        .collect(),
                )),
                artifacts: (0..n / 3)
                    .map(|_| Artifact {
                        name: next(),
                        content: next(),
                    })
                    .collect(),
                finished_at: None,
            }),
            2 => {
                let mut script = Script::new(&next());
                for _ in 0..n {
                    script = script.then(Action::LaunchApp(next()));
                }
                let mut spec = ExperimentSpec::measured(&next(), script);
                spec.vpn = Some(VpnLocation::Brazil);
                WalRecord::Submitted {
                    id: 1,
                    name: next(),
                    owner: next(),
                    constraints: Constraints {
                        node: Some(next()),
                        device: Some(next()),
                        require_low_cpu: false,
                        max_retries: 3,
                    },
                    spec: Some(spec),
                }
            }
            3 => WalRecord::Heartbeats {
                at: SimTime::from_secs(1),
                outcomes: (0..n).map(|i| (next(), i % 3 == 0)).collect(),
            },
            4 => WalRecord::AccountOpened { user: next() },
            _ => WalRecord::Transferred {
                from: next(),
                to: next(),
                amount: n as f64 / 3.0,
                reason: next(),
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn string_tables_round_trip(
            kind in 0u8..6,
            picks in prop::collection::vec(0usize..pool().len(), 0..160),
        ) {
            let pool = pool();
            let record = record_of(kind, &picks, &pool);
            let bytes = record.encode();
            let back = WalRecord::decode(&bytes)?;
            prop_assert_eq!(format!("{back:?}"), format!("{record:?}"));
            prop_assert_eq!(back.encode(), bytes);
            // The sink writes the same bytes, each record from a fresh table.
            let mut emitted = Vec::new();
            let mut sink = SnapshotSink::new(|p: &[u8]| emitted.push(p.to_vec()));
            sink.record(&record);
            sink.record(&record);
            prop_assert_eq!(emitted, vec![bytes.clone(), bytes]);
        }
    }

    #[test]
    fn deeply_nested_summary_fails_instead_of_overflowing() {
        let mut bytes = vec![7, 1, 2, b'j', 2, b'o', 0, 1, 1];
        bytes.extend(std::iter::repeat_n([6u8, 1], 100_000).flatten());
        let err = WalRecord::decode(&bytes).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
    }

    #[test]
    fn json_era_payload_is_reported_as_such() {
        let json = br#"{"Booted":{"public_ip":"52.1.2.3"}}"#;
        let err = WalRecord::decode(json).unwrap_err();
        assert!(err.contains("log predates the binary WAL format"), "{err}");
        assert!(err.contains(&format!("{}-byte", json.len())), "{err}");
        let wal = Wal::new();
        wal.append(json);
        let err = AccessServer::recover(&wal, &batterylab_telemetry::Registry::new())
            .err()
            .expect("a JSON-era log does not recover");
        assert!(
            err.to_string().contains("predates the binary WAL format"),
            "{err}"
        );
    }

    #[test]
    fn garbage_fails_to_decode() {
        assert!(WalRecord::decode(b"not json").is_err());
    }
}
