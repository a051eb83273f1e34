//! Crash-consistent durability for the BatteryLab platform.
//!
//! The access server owns the only authoritative state in the platform
//! (job queue, credit ledger, node registry), and remote experiments run
//! for minutes at 5 kHz — so a server crash or node reboot mid-run is
//! the dominant way to lose work. This crate supplies the primitives
//! that make both recoverable inside the deterministic simulation:
//!
//! - [`SimDisk`]: an append-only simulated disk with explicit fsync
//!   barriers and torn-write crash semantics.
//! - [`Wal`]: a CRC-framed write-ahead log over that disk. The server
//!   appends one record per state transition; [`Wal::replay_each`] hands
//!   every surviving record to `AccessServer::recover` in place and
//!   truncates any torn tail, so the server rebuilds exact state from any
//!   prefix. Compaction swaps in a new log generation
//!   ([`NextGeneration`], [`Wal::install`]) atomically.
//! - [`CheckpointStream`]: checksummed sealed segments of a long sample
//!   run, so a resumed experiment salvages completed samples and
//!   restarts at the last checkpoint boundary — with gap/overlap/CRC
//!   verification ([`GapReport`]) before anything is integrated into
//!   mAh totals.

#![warn(missing_docs)]

mod checkpoint;
mod disk;
mod wal;

pub use checkpoint::{sample_crc, CheckpointStream, GapKind, GapReport, SealedSegment};
pub use disk::{crc32, SimDisk};
pub use wal::{NextGeneration, Wal};
