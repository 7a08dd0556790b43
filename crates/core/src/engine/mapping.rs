//! The LBA Mapping Table — paper Fig. 4(a) and equations (1)–(4).
//!
//! The BMS-Engine maps each front-end *host LBA* to a back-end
//! *(SSD, physical LBA)* through a table of 8-entry rows. Each entry is
//! one byte: bits `[7:2]` hold the physical chunk base (6 bits ⇒ up to
//! 64 chunks per SSD) and bits `[1:0]` the SSD id (2 bits ⇒ up to 4
//! SSDs). Each row also carries an 8-bit validation vector, one bit per
//! entry. Back-end space is carved into 64 GB chunks, so one row covers
//! 512 GB of namespace; larger namespaces (the paper binds 1536 GB in
//! §V-B) span consecutive rows.
//!
//! With chunk size `CS` (in blocks) and `EN = 8` entries per row, a host
//! LBA `HL` resolves as:
//!
//! ```text
//! E      = (HL / CS) / EN          (1)  — row offset within the binding
//! j      = (HL / CS) mod EN        (2)  — entry within the row
//! SSD_ID = MT[i][j][1:0]           (3)
//! PL     = MT[i][j][7:2] * CS + HL mod CS   (4)
//! ```

use bm_nvme::types::Lba;
use bm_ssd::SsdId;
use std::fmt;

/// Entries per mapping-table row (the paper's `EN`).
pub const ENTRIES_PER_ROW: usize = 8;
/// The paper's chunk size: 64 GB.
pub const CHUNK_BYTES: u64 = 64 << 30;
/// Maximum chunk base expressible in the 6-bit field.
pub const MAX_CHUNK_BASE: u8 = 63;
/// Maximum SSD id expressible in the 2-bit field.
pub const MAX_SSD_ID: u8 = 3;

/// One mapping entry: 6-bit chunk base + 2-bit SSD id, exactly the byte
/// layout of Fig. 4(a).
///
/// # Examples
///
/// ```
/// use bmstore_core::engine::mapping::MapEntry;
/// use bm_ssd::SsdId;
///
/// let e = MapEntry::new(5, SsdId(2)).unwrap();
/// assert_eq!(e.chunk_base(), 5);
/// assert_eq!(e.ssd(), SsdId(2));
/// assert_eq!(e.raw(), (5 << 2) | 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MapEntry(u8);

impl MapEntry {
    /// Creates an entry, or `None` if either field overflows its bits.
    pub fn new(chunk_base: u8, ssd: SsdId) -> Option<MapEntry> {
        if chunk_base > MAX_CHUNK_BASE || ssd.0 > MAX_SSD_ID {
            return None;
        }
        Some(MapEntry((chunk_base << 2) | ssd.0))
    }

    /// Reconstructs from the raw byte.
    pub fn from_raw(raw: u8) -> MapEntry {
        MapEntry(raw)
    }

    /// The raw byte as stored in FPGA BRAM.
    pub fn raw(self) -> u8 {
        self.0
    }

    /// The physical chunk index on the target SSD (bits `[7:2]`).
    pub fn chunk_base(self) -> u8 {
        self.0 >> 2
    }

    /// The target SSD (bits `[1:0]`).
    pub fn ssd(self) -> SsdId {
        SsdId(self.0 & 0x3)
    }
}

/// One row: eight entries plus the validation byte.
#[derive(Debug, Clone, Copy, Default)]
struct Row {
    entries: [u8; ENTRIES_PER_ROW],
    valid: u8,
}

/// Errors from table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapError {
    /// The row/entry coordinates exceed the table.
    OutOfTable,
    /// The resolved entry's valid bit is clear.
    InvalidEntry {
        /// Row index that was addressed.
        row: usize,
        /// Entry index within the row.
        entry: usize,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::OutOfTable => write!(f, "address beyond the mapping table"),
            MapError::InvalidEntry { row, entry } => {
                write!(f, "mapping entry [{row}][{entry}] is invalid")
            }
        }
    }
}

impl std::error::Error for MapError {}

/// The mapping table: `rows × 8` entries in (simulated) on-chip RAM.
///
/// The paper's shipped configuration uses 8 rows; the table is
/// parameterized because the multi-VM experiment (Fig. 11) binds 26
/// namespaces.
#[derive(Debug, Clone)]
pub struct MappingTable {
    rows: Vec<Row>,
    chunk_blocks: u64,
}

impl MappingTable {
    /// Creates a table of `rows` rows for a given logical block size.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero or `block_size` does not divide the
    /// 64 GB chunk evenly.
    pub fn new(rows: usize, block_size: u64) -> Self {
        assert!(rows > 0, "table needs at least one row");
        assert!(
            block_size > 0 && CHUNK_BYTES.is_multiple_of(block_size),
            "block size must divide the chunk size"
        );
        MappingTable {
            rows: vec![Row::default(); rows],
            chunk_blocks: CHUNK_BYTES / block_size,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// Chunk size in logical blocks (the paper's `CS`).
    pub fn chunk_blocks(&self) -> u64 {
        self.chunk_blocks
    }

    /// Installs `entry` at `[row][slot]` and sets its valid bit.
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfTable`] for bad coordinates.
    pub fn install(&mut self, row: usize, slot: usize, entry: MapEntry) -> Result<(), MapError> {
        if row >= self.rows.len() || slot >= ENTRIES_PER_ROW {
            return Err(MapError::OutOfTable);
        }
        self.rows[row].entries[slot] = entry.raw();
        self.rows[row].valid |= 1 << slot;
        Ok(())
    }

    /// Reads the entry at `[row][slot]` if valid.
    pub fn entry(&self, row: usize, slot: usize) -> Option<MapEntry> {
        let r = self.rows.get(row)?;
        if slot < ENTRIES_PER_ROW && r.valid & (1 << slot) != 0 {
            Some(MapEntry::from_raw(r.entries[slot]))
        } else {
            None
        }
    }

    /// Resolves a host LBA for a binding whose mapping starts at
    /// `row_base` — equations (1)–(4).
    ///
    /// # Errors
    ///
    /// Returns [`MapError`] if the address walks off the table or hits
    /// an invalid entry.
    pub fn map(&self, row_base: usize, hl: Lba) -> Result<(SsdId, Lba), MapError> {
        let chunk_index = hl.raw() / self.chunk_blocks; // HL / CS
        let e = (chunk_index / ENTRIES_PER_ROW as u64) as usize; // (1)
        let j = (chunk_index % ENTRIES_PER_ROW as u64) as usize; // (2)
        let row = row_base + e;
        let entry = self.entry(row, j).ok_or(if row >= self.rows.len() {
            MapError::OutOfTable
        } else {
            MapError::InvalidEntry { row, entry: j }
        })?;
        let offset = hl.raw() % self.chunk_blocks; // HL mod CS
        let pl = entry.chunk_base() as u64 * self.chunk_blocks + offset; // (4)
        Ok((entry.ssd(), Lba(pl))) // (3)
    }

    /// The valid entries of rows `row_base..row_base + rows`, in table
    /// order: a binding's chunks, in the order it installed them.
    pub fn chunks(&self, row_base: usize, rows: usize) -> impl Iterator<Item = MapEntry> + '_ {
        self.rows.iter().skip(row_base).take(rows).flat_map(|row| {
            (0..ENTRIES_PER_ROW)
                .filter(|&slot| row.valid & (1 << slot) != 0)
                .map(|slot| MapEntry::from_raw(row.entries[slot]))
        })
    }

    /// Rows `row_base..row_base + n` cleared (namespace deletion).
    ///
    /// # Errors
    ///
    /// Returns [`MapError::OutOfTable`] if the range exceeds the table.
    pub fn clear_rows(&mut self, row_base: usize, n: usize) -> Result<(), MapError> {
        if row_base + n > self.rows.len() {
            return Err(MapError::OutOfTable);
        }
        for row in &mut self.rows[row_base..row_base + n] {
            *row = Row::default();
        }
        Ok(())
    }

    /// Rewrites every valid entry that targets `from` to target `to`
    /// instead, preserving chunk bases — the hot-plug path: a replaced
    /// SSD keeps its chunk layout under a new device (§IV-D).
    ///
    /// Returns the number of entries rewritten: none for a `to` that
    /// does not fit the 2-bit SSD field.
    pub fn retarget_ssd(&mut self, from: SsdId, to: SsdId) -> usize {
        let mut n = 0;
        for row in &mut self.rows {
            for slot in 0..ENTRIES_PER_ROW {
                let e = MapEntry::from_raw(row.entries[slot]);
                if row.valid & (1 << slot) == 0 || e.ssd() != from {
                    continue;
                }
                if let Some(new) = MapEntry::new(e.chunk_base(), to) {
                    row.entries[slot] = new.raw();
                    n += 1;
                }
            }
        }
        n
    }
}

/// Allocates physical chunks across the back-end SSDs.
///
/// The multi-VM experiment assigns namespaces "in a Round-Robin style
/// from four SSDs" (§V-D); this allocator implements that policy plus a
/// sequential fill used for single-disk bindings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkAllocator {
    /// `free[ssd]` = ascending list of free chunk indices.
    free: Vec<Vec<u8>>,
    /// Chunks each SSD holds.
    per_ssd: usize,
    next_rr: usize,
}

/// Allocation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfChunks;

impl fmt::Display for OutOfChunks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "back-end SSDs have no free chunks left")
    }
}

impl std::error::Error for OutOfChunks {}

impl ChunkAllocator {
    /// Creates an allocator over `ssds` devices of `capacity_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if `ssds` is zero or exceeds the 2-bit SSD id space.
    pub fn new(ssds: usize, capacity_bytes: u64) -> Self {
        assert!(
            ssds > 0 && ssds <= (MAX_SSD_ID as usize + 1),
            "1..=4 SSDs fit the 2-bit id"
        );
        let chunks = ((capacity_bytes / CHUNK_BYTES) as u8).min(MAX_CHUNK_BASE + 1);
        ChunkAllocator {
            free: (0..ssds).map(|_| (0..chunks).rev().collect()).collect(),
            per_ssd: usize::from(chunks),
            next_rr: 0,
        }
    }

    /// Total free chunks.
    pub fn free_total(&self) -> usize {
        self.free.iter().map(Vec::len).sum()
    }

    /// Allocates `n` chunks round-robin across SSDs (Fig. 11 policy).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfChunks`] (allocating nothing) if fewer than `n`
    /// chunks remain in total.
    pub fn alloc_round_robin(&mut self, n: usize) -> Result<Vec<MapEntry>, OutOfChunks> {
        if self.free_total() < n {
            return Err(OutOfChunks);
        }
        // Successive allocations start one SSD later, so namespaces'
        // first chunks spread across the drives (otherwise every
        // tenant's LBA 0 would land on the same SSD).
        let start = self.next_rr;
        let mut cursor = start;
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let ssd = cursor % self.free.len();
            cursor += 1;
            if let Some(chunk) = self.free[ssd].pop() {
                #[expect(
                    clippy::expect_used,
                    reason = "panic-path debt (ROADMAP item 4): free chunk ids fit 6 bits"
                )]
                out.push(MapEntry::new(chunk, SsdId(ssd as u8)).expect("chunk fits 6 bits"));
            }
        }
        self.next_rr = start + 1;
        Ok(out)
    }

    /// Allocates `n` chunks from a single SSD (the §V-B single-disk
    /// binding).
    ///
    /// # Errors
    ///
    /// Returns [`OutOfChunks`] if `ssd` has fewer than `n` free chunks.
    pub fn alloc_on(&mut self, ssd: SsdId, n: usize) -> Result<Vec<MapEntry>, OutOfChunks> {
        let free = self.free.get_mut(ssd.0 as usize).ok_or(OutOfChunks)?;
        let keep = free.len().checked_sub(n).ok_or(OutOfChunks)?;
        // The last `n` chunks, last first: the order `n` pops would give.
        Ok(free
            .drain(keep..)
            .rev()
            .map(|chunk| {
                #[expect(
                    clippy::expect_used,
                    reason = "panic-path debt (ROADMAP item 4): free chunk ids fit 6 bits"
                )]
                MapEntry::new(chunk, ssd).expect("chunk fits 6 bits")
            })
            .collect())
    }

    /// Returns chunks to the free pool (namespace deletion).
    pub fn release(&mut self, entries: impl IntoIterator<Item = MapEntry>) {
        for e in entries {
            self.free[e.ssd().0 as usize].push(e.chunk_base());
        }
    }

    /// Moves the chunks allocated on `from` to `to`, a cross-bay
    /// hot-plug: the two SSDs' free lists swap, so `to` owns what `from`
    /// did and `from` is left with every chunk free. Only a spare `to`,
    /// one with no chunk allocated, can take them; otherwise this
    /// changes nothing and returns `false`.
    pub fn move_bay(&mut self, from: SsdId, to: SsdId) -> bool {
        let (from, to) = (usize::from(from.0), usize::from(to.0));
        let spare = self.free.get(to).is_some_and(|f| f.len() == self.per_ssd);
        if !spare || from >= self.free.len() {
            return false;
        }
        self.free.swap(from, to);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table_1536gb() -> (MappingTable, Vec<MapEntry>) {
        // The paper's bare-metal binding: 1536 GB from one SSD = 24
        // chunks = 3 rows.
        let mut mt = MappingTable::new(8, 4096);
        let mut alloc = ChunkAllocator::new(4, 2_000_000_000_000);
        let entries = alloc.alloc_on(SsdId(1), 24).unwrap();
        for (i, e) in entries.iter().enumerate() {
            mt.install(i / ENTRIES_PER_ROW, i % ENTRIES_PER_ROW, *e)
                .unwrap();
        }
        (mt, entries)
    }

    #[test]
    fn entry_bit_layout_matches_fig4a() {
        let e = MapEntry::new(63, SsdId(3)).unwrap();
        assert_eq!(e.raw(), 0xFF);
        assert_eq!(e.chunk_base(), 63);
        assert_eq!(e.ssd(), SsdId(3));
        assert!(MapEntry::new(64, SsdId(0)).is_none());
        assert!(MapEntry::new(0, SsdId(4)).is_none());
    }

    #[test]
    fn equations_resolve_identity_mapping() {
        let mut mt = MappingTable::new(8, 4096);
        // Identity: chunk k of the namespace → chunk k of SSD 0.
        for k in 0..16u8 {
            mt.install(
                k as usize / ENTRIES_PER_ROW,
                k as usize % ENTRIES_PER_ROW,
                MapEntry::new(k, SsdId(0)).unwrap(),
            )
            .unwrap();
        }
        let cs = mt.chunk_blocks();
        for hl in [0, 1, cs - 1, cs, 7 * cs + 123, 15 * cs + cs - 1] {
            let (ssd, pl) = mt.map(0, Lba(hl)).unwrap();
            assert_eq!(ssd, SsdId(0));
            assert_eq!(pl, Lba(hl), "identity at {hl}");
        }
    }

    #[test]
    fn equations_resolve_scattered_mapping() {
        let mut mt = MappingTable::new(8, 4096);
        // Namespace chunk 0 → SSD2 chunk 9; chunk 1 → SSD1 chunk 4.
        mt.install(0, 0, MapEntry::new(9, SsdId(2)).unwrap())
            .unwrap();
        mt.install(0, 1, MapEntry::new(4, SsdId(1)).unwrap())
            .unwrap();
        let cs = mt.chunk_blocks();
        let (ssd, pl) = mt.map(0, Lba(100)).unwrap();
        assert_eq!((ssd, pl), (SsdId(2), Lba(9 * cs + 100)));
        let (ssd, pl) = mt.map(0, Lba(cs + 5)).unwrap();
        assert_eq!((ssd, pl), (SsdId(1), Lba(4 * cs + 5)));
    }

    #[test]
    fn multi_row_namespace_spans_rows() {
        let (mt, entries) = table_1536gb();
        let cs = mt.chunk_blocks();
        // Chunk 10 lives at row 1, slot 2.
        let hl = 10 * cs + 77;
        let (ssd, pl) = mt.map(0, Lba(hl)).unwrap();
        assert_eq!(ssd, SsdId(1));
        assert_eq!(pl.raw(), entries[10].chunk_base() as u64 * cs + 77);
    }

    #[test]
    fn invalid_entries_are_rejected() {
        let mut mt = MappingTable::new(2, 4096);
        mt.install(0, 0, MapEntry::new(0, SsdId(0)).unwrap())
            .unwrap();
        let cs = mt.chunk_blocks();
        assert_eq!(
            mt.map(0, Lba(cs)), // entry [0][1] never installed
            Err(MapError::InvalidEntry { row: 0, entry: 1 })
        );
        // Walking past the table.
        assert_eq!(
            mt.map(0, Lba(100 * cs * ENTRIES_PER_ROW as u64)),
            Err(MapError::OutOfTable)
        );
    }

    #[test]
    fn retarget_rewrites_only_matching_ssd() {
        let (mut mt, _) = table_1536gb();
        mt.install(7, 0, MapEntry::new(3, SsdId(2)).unwrap())
            .unwrap();
        let rewritten = mt.retarget_ssd(SsdId(1), SsdId(3));
        assert_eq!(rewritten, 24);
        let (ssd, _) = mt.map(0, Lba(0)).unwrap();
        assert_eq!(ssd, SsdId(3));
        // The SSD2 entry is untouched.
        assert_eq!(mt.entry(7, 0).unwrap().ssd(), SsdId(2));
        // An SSD id beyond the 2-bit field rewrites nothing.
        assert_eq!(mt.retarget_ssd(SsdId(3), SsdId(4)), 0);
        assert_eq!(mt.map(0, Lba(0)).unwrap().0, SsdId(3));
    }

    #[test]
    fn round_robin_allocation_interleaves_ssds() {
        let mut alloc = ChunkAllocator::new(4, 2_000_000_000_000);
        let entries = alloc.alloc_round_robin(8).unwrap();
        let ssds: Vec<u8> = entries.iter().map(|e| e.ssd().0).collect();
        assert_eq!(ssds, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // The next namespace starts one SSD later.
        let entries = alloc.alloc_round_robin(4).unwrap();
        let ssds: Vec<u8> = entries.iter().map(|e| e.ssd().0).collect();
        assert_eq!(ssds, vec![1, 2, 3, 0]);
    }

    #[test]
    fn allocator_exhaustion_and_release() {
        // 2 SSDs × 29 chunks (2 TB / 64 GiB, rounded down).
        let mut alloc = ChunkAllocator::new(2, 2_000_000_000_000);
        assert_eq!(alloc.free_total(), 58);
        let all = alloc.alloc_round_robin(58).unwrap();
        assert_eq!(alloc.alloc_round_robin(1), Err(OutOfChunks));
        assert_eq!(alloc.alloc_on(SsdId(0), 1), Err(OutOfChunks));
        alloc.release(all[..4].iter().copied());
        assert_eq!(alloc.free_total(), 4);
        assert!(alloc.alloc_round_robin(4).is_ok());
    }

    #[test]
    fn allocated_chunks_never_collide() {
        let mut alloc = ChunkAllocator::new(4, 2_000_000_000_000);
        let entries = alloc.alloc_round_robin(100).unwrap();
        let mut seen = std::collections::BTreeSet::new();
        for e in entries {
            assert!(seen.insert((e.ssd(), e.chunk_base())), "duplicate chunk");
        }
    }

    #[test]
    fn clear_rows_bounds_checked() {
        let mut mt = MappingTable::new(4, 4096);
        mt.install(3, 0, MapEntry::new(0, SsdId(0)).unwrap())
            .unwrap();
        assert_eq!(mt.clear_rows(3, 2), Err(MapError::OutOfTable));
        mt.clear_rows(3, 1).unwrap();
        assert!(mt.entry(3, 0).is_none());
    }
}
