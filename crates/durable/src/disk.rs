//! Simulated append-only disk with explicit fsync barriers.
//!
//! The BatteryLab access server runs in a deterministic simulation, so
//! durability is modelled rather than delegated to the OS: a [`SimDisk`]
//! keeps two byte regions — the *durable* prefix (everything acknowledged
//! by an `fsync`) and the *unsynced tail* (written but not yet flushed).
//! A crash drops the unsynced tail, except for an optional torn prefix of
//! it that made it to the platter before power was lost. Reopening the
//! disk after a crash therefore sees exactly the bytes a real
//! write-ahead log would see: every synced frame, plus possibly a torn
//! partial frame that the log layer must detect and truncate.

/// An append-only simulated disk with fsync semantics.
#[derive(Debug, Default, Clone)]
pub struct SimDisk {
    durable: Vec<u8>,
    tail: Vec<u8>,
    writes: u64,
    syncs: u64,
}

impl SimDisk {
    /// Create an empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append bytes to the unsynced tail.
    pub fn write(&mut self, bytes: &[u8]) {
        self.tail.extend_from_slice(bytes);
        self.writes += 1;
    }

    /// Flush the unsynced tail into the durable region. Onto an empty
    /// region (a log generation written aside) the tail moves whole,
    /// without a copy.
    pub fn fsync(&mut self) {
        if self.durable.is_empty() {
            std::mem::swap(&mut self.durable, &mut self.tail);
        } else {
            self.durable.append(&mut self.tail);
        }
        self.syncs += 1;
    }

    /// Simulate a power loss: the unsynced tail is lost, except for the
    /// first `torn_keep` bytes of it which happened to reach the platter
    /// (a torn write). Returns the number of bytes discarded.
    pub fn crash(&mut self, torn_keep: usize) -> usize {
        let keep = torn_keep.min(self.tail.len());
        let lost = self.tail.len() - keep;
        self.durable.extend_from_slice(&self.tail[..keep]);
        self.tail.clear();
        lost
    }

    /// The bytes that would survive a crash right now.
    pub fn durable_bytes(&self) -> &[u8] {
        &self.durable
    }

    /// Total bytes written including the unsynced tail.
    pub fn len(&self) -> usize {
        self.durable.len() + self.tail.len()
    }

    /// Whether nothing has been written at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes sitting in the unsynced tail.
    pub fn unsynced_len(&self) -> usize {
        self.tail.len()
    }

    /// Number of write calls.
    pub fn writes(&self) -> u64 {
        self.writes
    }

    /// Number of fsync barriers issued.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Truncate the durable region to `len` bytes (used by the log layer
    /// to discard a torn tail discovered on reopen).
    pub fn truncate_durable(&mut self, len: usize) {
        self.durable.truncate(len);
    }
}

/// Reflected CRC-32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables, built at compile time. `CRC32_TABLES[0]` is the
/// classic one-byte table (the CRC-32 of every byte value);
/// `CRC32_TABLES[k][b]` is the CRC state of byte `b` followed by `k` zero
/// bytes, so eight lookups fold eight input bytes at once.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes`.
///
/// Implemented locally so the durability layer carries no external
/// dependency. Slicing-by-8: recovery checks the CRC of every record in
/// the log, so the body folds eight bytes per step with eight table
/// lookups and only the tail goes one byte at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fsync_moves_tail_to_durable() {
        let mut disk = SimDisk::new();
        disk.write(b"abc");
        assert_eq!(disk.durable_bytes(), b"");
        disk.fsync();
        assert_eq!(disk.durable_bytes(), b"abc");
        assert_eq!(disk.syncs(), 1);
    }

    #[test]
    fn crash_drops_unsynced_tail_except_torn_prefix() {
        let mut disk = SimDisk::new();
        disk.write(b"abc");
        disk.fsync();
        disk.write(b"defgh");
        let lost = disk.crash(2);
        assert_eq!(lost, 3);
        assert_eq!(disk.durable_bytes(), b"abcde");
        assert_eq!(disk.unsynced_len(), 0);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// The bitwise definition the table is derived from.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC32_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_table_matches_bitwise_reference() {
        // SplitMix64: random lengths and contents without a dependency.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..500 {
            let len = (next() % 2048) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len {len}");
        }
        // Every short length at every alignment: the 8-byte body, the
        // bytewise tail and their boundary.
        let buffer: Vec<u8> = (0..32).map(|_| next() as u8).collect();
        for start in 0..8 {
            for len in 0..=17 {
                let bytes = &buffer[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start}, len {len}"
                );
            }
        }
    }
}
