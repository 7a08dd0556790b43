//! Simulated physical memory.
//!
//! Every DMA in the repository moves real bytes through a [`HostMemory`],
//! so data-integrity properties (the zero-copy DMA routing path in
//! particular) are testable end to end: write a pattern from the "host",
//! let the simulated SSD DMA it out and back, and compare checksums.
//!
//! Memory is paged in 4 KiB pages that exist only once written;
//! untouched pages read as zero, so simulating a 768 GB host costs
//! nothing until pages are written. The bump allocator keeps live
//! pages dense, so pages below its high-water mark are found through a
//! page table indexed by page number, grown on the first write to a
//! page. Writes at or above the mark (the allocator never handed those
//! pages out) land in a sparse map, so a stray write near the top of a
//! large memory costs one page, not a table reaching up to it.
//!
//! Small regions come from [`HostMemory::alloc_block`]: 256-byte blocks
//! carved 16 to a page, the way Linux's NVMe driver takes PRP lists of
//! up to 32 entries from a 256-byte pool instead of a page each. A run
//! that builds thousands of short PRP lists then writes a sixteenth of
//! the pages it would with a page per list, and its list reads and
//! writes stay within a few hot pages.

use crate::addr::PciAddr;
use std::collections::BTreeMap;
use std::fmt;

/// Page granularity of the store (matches the x86 page size the NVMe
/// PRP mechanism is built around).
pub const PAGE_SIZE: u64 = 4096;

/// Bytes in a block from [`HostMemory::alloc_block`]: a PRP list of up
/// to 32 entries. A page holds 16.
pub const BLOCK_BYTES: u64 = 256;

/// One resident page.
type Page = [u8; PAGE_SIZE as usize];

/// Page frames per slab. A slab is one zeroed 128 KiB block: its pages
/// cost resident memory only once written, and the system allocator
/// maps a block of this size on its own, so dropping the memory hands
/// the slabs straight back instead of leaving page-sized holes in the
/// heap.
const SLAB_PAGES: usize = 32;

/// Byte-addressable memory with a bump allocator.
///
/// # Examples
///
/// ```
/// use bm_pcie::HostMemory;
///
/// let mut mem = HostMemory::new(1 << 20);
/// let a = mem.alloc(8192).unwrap();
/// mem.write(a, &[1, 2, 3]);
/// assert_eq!(mem.read_vec(a, 3), vec![1, 2, 3]);
/// // Untouched bytes read as zero.
/// assert_eq!(mem.read_vec(a + 3, 2), vec![0, 0]);
/// ```
pub struct HostMemory {
    size: u64,
    /// Page number → frame number + 1 (0: not resident), for pages
    /// first written below the allocator's high-water mark. It ends at
    /// the highest such page written.
    table: Vec<u32>,
    /// The frames `table` points at, in first-write order, packed
    /// [`SLAB_PAGES`] to a slab.
    slabs: Vec<Box<[u8]>>,
    /// Frames handed out.
    frames: usize,
    /// Every other resident page, keyed by page number: pages first
    /// written at or above the mark (a later `alloc` may raise the mark
    /// over them; they stay here).
    stray: BTreeMap<u64, Box<Page>>,
    next_alloc: u64,
    /// The next free block of the page blocks are carved from; a
    /// multiple of the page size once that page is used up (or before
    /// the first block).
    next_block: u64,
    bytes_written: u64,
    bytes_read: u64,
}

impl fmt::Debug for HostMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostMemory")
            .field("size", &self.size)
            .field("resident_pages", &self.resident_pages())
            .field("next_alloc", &self.next_alloc)
            .finish()
    }
}

impl HostMemory {
    /// Creates a memory of `size` bytes. Allocation starts at one page to
    /// keep [`PciAddr::NULL`] unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than two pages.
    pub fn new(size: u64) -> Self {
        assert!(size >= 2 * PAGE_SIZE, "memory too small");
        HostMemory {
            size,
            table: Vec::new(),
            slabs: Vec::new(),
            frames: 0,
            stray: BTreeMap::new(),
            next_alloc: PAGE_SIZE,
            next_block: 0,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Total addressable size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Allocates `len` bytes, page-aligned, or `None` if the region is
    /// exhausted. (A bump allocator is all the simulation needs: regions
    /// live for the whole run.)
    pub fn alloc(&mut self, len: u64) -> Option<PciAddr> {
        let len = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if self.next_alloc.checked_add(len)? > self.size {
            return None;
        }
        let addr = PciAddr::new(self.next_alloc);
        self.next_alloc += len;
        Some(addr)
    }

    /// Allocates one [`BLOCK_BYTES`]-byte block, aligned to its size,
    /// or `None` if the region is exhausted. Blocks are carved in order
    /// from pages of [`Self::alloc`], so a block never crosses a page
    /// and no page holds both blocks and a page allocation.
    pub fn alloc_block(&mut self) -> Option<PciAddr> {
        if self.next_block.is_multiple_of(PAGE_SIZE) {
            self.next_block = self.alloc(PAGE_SIZE)?.raw();
        }
        let block = PciAddr::new(self.next_block);
        self.next_block += BLOCK_BYTES;
        Some(block)
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of memory.
    pub fn write(&mut self, addr: PciAddr, data: &[u8]) {
        self.check_range(addr, data.len() as u64);
        self.bytes_written += data.len() as u64;
        let mut offset = addr.raw();
        let mut remaining = data;
        while !remaining.is_empty() {
            let page_idx = offset / PAGE_SIZE;
            let in_page = (offset % PAGE_SIZE) as usize;
            let n = remaining.len().min(PAGE_SIZE as usize - in_page);
            let page = self.page_mut(page_idx);
            page[in_page..in_page + n].copy_from_slice(&remaining[..n]);
            remaining = &remaining[n..];
            offset += n as u64;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of memory.
    pub fn read(&mut self, addr: PciAddr, buf: &mut [u8]) {
        self.check_range(addr, buf.len() as u64);
        self.bytes_read += buf.len() as u64;
        let mut offset = addr.raw();
        let mut remaining = &mut buf[..];
        while !remaining.is_empty() {
            let page_idx = offset / PAGE_SIZE;
            let in_page = (offset % PAGE_SIZE) as usize;
            let n = remaining.len().min(PAGE_SIZE as usize - in_page);
            match self.page(page_idx) {
                Some(page) => remaining[..n].copy_from_slice(&page[in_page..in_page + n]),
                None => remaining[..n].fill(0),
            }
            remaining = &mut remaining[n..];
            offset += n as u64;
        }
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of memory.
    pub fn read_vec(&mut self, addr: PciAddr, len: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf);
        buf
    }

    /// Writes a little-endian `u64` (the representation of queue
    /// entries, PRP pointers, and doorbell values in simulated memory).
    pub fn write_u64(&mut self, addr: PciAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// A FNV-1a checksum of `len` bytes at `addr` — used by integrity
    /// tests to compare data across DMA hops without copying it again.
    pub fn checksum(&mut self, addr: PciAddr, len: u64) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let data = self.read_vec(addr, len);
        for b in data {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }

    /// Bytes written so far (DMA traffic accounting).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes read so far (DMA traffic accounting).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.frames + self.stray.len()
    }

    /// The resident page `idx`, if it was ever written.
    fn page(&self, idx: u64) -> Option<&[u8]> {
        match self.table.get(idx as usize) {
            Some(&frame) if frame != 0 => {
                let (slab, at) = frame_at(frame);
                Some(&self.slabs[slab][at..at + PAGE_SIZE as usize])
            }
            _ => self.stray.get(&idx).map(|page| &page[..]),
        }
    }

    /// Page `idx`, made resident (zeroed) on its first write: in the
    /// table when the allocator has handed it out, in the stray map
    /// otherwise.
    fn page_mut(&mut self, idx: u64) -> &mut [u8] {
        let frame = match self.table.get(idx as usize) {
            Some(&frame) if frame != 0 => frame,
            _ => match self.new_frame(idx) {
                Some(frame) => frame,
                None => {
                    let page = self.stray.entry(idx);
                    return &mut page.or_insert_with(|| Box::new([0; PAGE_SIZE as usize]))[..];
                }
            },
        };
        let (slab, at) = frame_at(frame);
        &mut self.slabs[slab][at..at + PAGE_SIZE as usize]
    }

    /// Enters page `idx` in the table with a fresh zeroed frame, unless
    /// the allocator has not handed it out yet or it is already a stray
    /// page.
    fn new_frame(&mut self, idx: u64) -> Option<u32> {
        if idx >= self.next_alloc / PAGE_SIZE || self.stray.contains_key(&idx) {
            return None;
        }
        let frame = u32::try_from(self.frames + 1).ok()?;
        let slot = idx as usize;
        if slot >= self.table.len() {
            self.table.resize(slot + 1, 0);
        }
        self.table[slot] = frame;
        if self.frames.is_multiple_of(SLAB_PAGES) {
            let slab = vec![0; SLAB_PAGES * PAGE_SIZE as usize];
            self.slabs.push(slab.into_boxed_slice());
        }
        self.frames += 1;
        Some(frame)
    }

    fn check_range(&self, addr: PciAddr, len: u64) {
        #[expect(
            clippy::panic,
            reason = "panic-path debt (ROADMAP item 4): an access past the end of the address space is a caller bug, like the size assert below"
        )]
        let end = addr
            .raw()
            .checked_add(len)
            .unwrap_or_else(|| panic!("address overflow at {addr}"));
        assert!(
            end <= self.size,
            "access [{addr}, {:#x}) beyond memory size {:#x}",
            end,
            self.size
        );
    }
}

/// The slab and byte offset of table entry `frame` (a frame number + 1).
fn frame_at(frame: u32) -> (usize, usize) {
    let f = frame as usize - 1;
    (f / SLAB_PAGES, f % SLAB_PAGES * PAGE_SIZE as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_until_written() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(4096).unwrap();
        assert_eq!(mem.read_vec(a, 16), vec![0; 16]);
        assert_eq!(mem.resident_pages(), 0);
        mem.write(a, &[0xff]);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_vec(a, 2), vec![0xff, 0x00]);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(3 * PAGE_SIZE).unwrap();
        let data: Vec<u8> = (0..(2 * PAGE_SIZE + 100))
            .map(|i| (i % 251) as u8)
            .collect();
        let start = a + (PAGE_SIZE - 50);
        mem.write(start, &data);
        assert_eq!(mem.read_vec(start, data.len() as u64), data);
    }

    #[test]
    fn alloc_is_page_aligned_and_bounded() {
        let mut mem = HostMemory::new(8 * PAGE_SIZE);
        let a = mem.alloc(1).unwrap();
        assert_eq!(a.raw() % PAGE_SIZE, 0);
        let b = mem.alloc(PAGE_SIZE + 1).unwrap();
        assert_eq!(b.raw(), a.raw() + PAGE_SIZE);
        // Exhaust: 1 (reserved) + 1 + 2 pages used, 4 remain.
        assert!(mem.alloc(4 * PAGE_SIZE).is_some());
        assert!(mem.alloc(1).is_none());
    }

    #[test]
    fn blocks_pack_sixteen_to_a_page() {
        let mut mem = HostMemory::new(1 << 20);
        let blocks: Vec<PciAddr> = (0..17).map(|_| mem.alloc_block().unwrap()).collect();
        let first = blocks[0];
        assert_eq!(first.page_offset(PAGE_SIZE), 0);
        for (i, block) in blocks[..16].iter().enumerate() {
            assert_eq!(*block, first + i as u64 * BLOCK_BYTES);
        }
        // The 17th block opens the next page.
        assert_eq!(blocks[16], first + PAGE_SIZE);
        for block in &blocks {
            mem.write(*block, &[0xff; BLOCK_BYTES as usize]);
        }
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn blocks_and_pages_never_share_a_page() {
        let mut mem = HostMemory::new(1 << 20);
        let block = mem.alloc_block().unwrap();
        let page = mem.alloc(1).unwrap();
        assert_eq!(page, block + PAGE_SIZE);
        // Blocks go on in their own page, past the page allocation.
        assert_eq!(mem.alloc_block().unwrap(), block + BLOCK_BYTES);
    }

    #[test]
    fn blocks_run_out_with_the_pages() {
        // One allocatable page: 16 blocks, then none.
        let mut mem = HostMemory::new(2 * PAGE_SIZE);
        for _ in 0..16 {
            assert!(mem.alloc_block().is_some());
        }
        assert!(mem.alloc_block().is_none());
        assert!(mem.alloc(1).is_none());
    }

    #[test]
    fn u64_is_little_endian() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(64).unwrap();
        mem.write_u64(a, 0xdead_beef_cafe_f00d);
        assert_eq!(mem.read_vec(a, 8), 0xdead_beef_cafe_f00du64.to_le_bytes());
    }

    #[test]
    fn checksum_detects_changes() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(4096).unwrap();
        mem.write(a, b"some payload");
        let c1 = mem.checksum(a, 4096);
        mem.write(a + 5, b"X");
        let c2 = mem.checksum(a, 4096);
        assert_ne!(c1, c2);
    }

    #[test]
    fn traffic_accounting() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(4096).unwrap();
        mem.write(a, &[0u8; 100]);
        let _ = mem.read_vec(a, 40);
        assert_eq!(mem.bytes_written(), 100);
        assert_eq!(mem.bytes_read(), 40);
    }

    #[test]
    fn stray_write_at_the_top_stays_out_of_the_table() {
        let mut mem = HostMemory::new(8 << 30);
        let a = mem.alloc(PAGE_SIZE).unwrap();
        mem.write(a, &[1]);
        mem.write(PciAddr::new((8 << 30) - 1), &[0xab]);
        assert_eq!(mem.resident_pages(), 2);
        assert_eq!(mem.read_vec(PciAddr::new((8 << 30) - 2), 2), vec![0, 0xab]);
        // The table ends at the one allocated page.
        assert!(mem.table.len() as u64 <= a.raw() / PAGE_SIZE + 1);
        assert_eq!(mem.stray.len(), 1);
    }

    #[test]
    fn alloc_over_a_stray_page_keeps_its_bytes() {
        let mut mem = HostMemory::new(1 << 20);
        let stray = PciAddr::new(3 * PAGE_SIZE + 10);
        mem.write(stray, b"early");
        let a = mem.alloc(4 * PAGE_SIZE).unwrap();
        assert!(a.raw() <= stray.raw());
        assert_eq!(mem.read_vec(stray, 5), b"early");
        mem.write(stray + 5, b"!");
        assert_eq!(mem.read_vec(stray, 6), b"early!");
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    #[should_panic(expected = "beyond memory size")]
    fn out_of_bounds_write_panics() {
        let mut mem = HostMemory::new(2 * PAGE_SIZE);
        mem.write(PciAddr::new(2 * PAGE_SIZE - 1), &[0, 0]);
    }
}
