//! Physical Region Pages.
//!
//! NVMe describes data buffers as PRP entries: page-aligned 64-bit
//! pointers. Transfers of one or two pages fit in the SQE's PRP1/PRP2
//! fields; larger transfers put a pointer to a *PRP list* page in PRP2.
//! The BMS-Engine's zero-copy mechanism (paper §IV-C) rewrites exactly
//! these values, so we build and walk them for real in simulated memory.

use bm_pcie::memory::{BLOCK_BYTES, PAGE_SIZE};
use bm_pcie::{DmaContext, HostMemory, PciAddr};
use std::fmt;

/// A data buffer described by PRP1/PRP2 (+ list) for a transfer of
/// `len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrpPair {
    /// First PRP entry: may have an in-page offset.
    pub prp1: PciAddr,
    /// Second entry: unused, a direct page, or a PRP-list pointer.
    pub prp2: PciAddr,
    /// Total transfer length in bytes.
    pub len: u64,
}

/// Error walking a malformed PRP chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrpError {
    /// PRP1 was null for a data-carrying command.
    NullPrp1,
    /// PRP2 was null but the transfer needs more than one page.
    NullPrp2,
    /// A PRP-list entry (other than the first) had an in-page offset.
    MisalignedEntry(PciAddr),
}

impl fmt::Display for PrpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrpError::NullPrp1 => write!(f, "PRP1 is null"),
            PrpError::NullPrp2 => write!(f, "PRP2 is null but transfer spans pages"),
            PrpError::MisalignedEntry(a) => write!(f, "PRP list entry {a} not page aligned"),
        }
    }
}

impl std::error::Error for PrpError {}

impl PrpPair {
    /// Describes a transfer over a *contiguous* buffer at `buf`,
    /// building a PRP list in `mem` if more than two pages are needed.
    /// (Real hosts pass scattered pages; for the simulation's purposes a
    /// contiguous region exercises the same PRP machinery.)
    ///
    /// The list is one flat run of entries, however long. Real NVMe
    /// chains list pages through their last entry; nothing here does:
    /// [`Self::segments`] and the BMS-Engine read the same flat list.
    /// A list of up to 32 entries (a 128 KiB buffer needs 31) takes a
    /// 256-byte block from [`HostMemory::alloc_block`], which never
    /// crosses a page; a longer one takes whole pages.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero or the list allocation fails.
    pub fn build(mem: &mut HostMemory, buf: PciAddr, len: u64) -> PrpPair {
        assert!(len > 0, "zero-length transfer has no PRPs");
        let first_page_bytes = PAGE_SIZE - buf.page_offset(PAGE_SIZE);
        if len <= first_page_bytes {
            return PrpPair {
                prp1: buf,
                prp2: PciAddr::NULL,
                len,
            };
        }
        let remaining = len - first_page_bytes;
        let extra_pages = remaining.div_ceil(PAGE_SIZE);
        let second = buf.page_base(PAGE_SIZE) + PAGE_SIZE;
        if extra_pages == 1 {
            return PrpPair {
                prp1: buf,
                prp2: second,
                len,
            };
        }
        let list: Vec<u8> = (0..extra_pages)
            .flat_map(|i| (second + i * PAGE_SIZE).raw().to_le_bytes())
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the caller sizes host memory; exhaustion is a harness sizing bug"
        )]
        let list_base = if list.len() as u64 <= BLOCK_BYTES {
            mem.alloc_block()
        } else {
            mem.alloc(list.len() as u64)
        }
        .expect("PRP list allocation");
        mem.write(list_base, &list);
        PrpPair {
            prp1: buf,
            prp2: list_base,
            len,
        }
    }

    /// Whether this pair uses a PRP list (rather than two direct pages).
    pub fn uses_list(&self) -> bool {
        let first_page_bytes = PAGE_SIZE - self.prp1.page_offset(PAGE_SIZE);
        self.len > first_page_bytes + PAGE_SIZE
    }

    /// Walks the chain into `(address, byte-length)` segments in transfer
    /// order, reading list pages from `mem`.
    ///
    /// # Errors
    ///
    /// Returns a [`PrpError`] for null or misaligned entries.
    pub fn segments(&self, mem: &mut impl DmaContext) -> Result<Vec<(PciAddr, u64)>, PrpError> {
        if self.prp1.is_null() {
            return Err(PrpError::NullPrp1);
        }
        let mut out = Vec::new();
        let first = (PAGE_SIZE - self.prp1.page_offset(PAGE_SIZE)).min(self.len);
        out.push((self.prp1, first));
        let mut remaining = self.len - first;
        if remaining == 0 {
            return Ok(out);
        }
        if self.prp2.is_null() {
            return Err(PrpError::NullPrp2);
        }
        if remaining <= PAGE_SIZE {
            // PRP2 is a direct data page.
            out.push((self.prp2, remaining));
            return Ok(out);
        }
        // PRP2 points at a list.
        let mut idx = 0u64;
        while remaining > 0 {
            let entry = PciAddr::new(mem.dma_read_u64(self.prp2 + idx * 8));
            if entry.page_offset(PAGE_SIZE) != 0 {
                return Err(PrpError::MisalignedEntry(entry));
            }
            let n = remaining.min(PAGE_SIZE);
            out.push((entry, n));
            remaining -= n;
            idx += 1;
        }
        Ok(out)
    }

    /// Number of PRP entries the transfer uses (1, 2, or 1 + list
    /// entries) — the quantity the engine stores in chip memory per
    /// command for DMA routing.
    pub fn entry_count(&self) -> u64 {
        let first = (PAGE_SIZE - self.prp1.page_offset(PAGE_SIZE)).min(self.len);
        let rest = self.len - first;
        1 + rest.div_ceil(PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> HostMemory {
        HostMemory::new(16 << 20)
    }

    #[test]
    fn single_page_transfer() {
        let mut m = mem();
        let buf = m.alloc(PAGE_SIZE).unwrap();
        let prp = PrpPair::build(&mut m, buf, 512);
        assert_eq!(prp.prp2, PciAddr::NULL);
        assert!(!prp.uses_list());
        assert_eq!(prp.segments(&mut m).unwrap(), vec![(buf, 512)]);
        assert_eq!(prp.entry_count(), 1);
    }

    #[test]
    fn two_page_transfer_uses_direct_prp2() {
        let mut m = mem();
        let buf = m.alloc(2 * PAGE_SIZE).unwrap();
        let prp = PrpPair::build(&mut m, buf, 2 * PAGE_SIZE);
        assert!(!prp.uses_list());
        assert_eq!(prp.prp2, buf + PAGE_SIZE);
        let segs = prp.segments(&mut m).unwrap();
        assert_eq!(segs, vec![(buf, PAGE_SIZE), (buf + PAGE_SIZE, PAGE_SIZE)]);
        assert_eq!(prp.entry_count(), 2);
    }

    #[test]
    fn large_transfer_builds_list() {
        let mut m = mem();
        let len = 128 * 1024; // the paper's 128K sequential block size
        let buf = m.alloc(len).unwrap();
        let prp = PrpPair::build(&mut m, buf, len);
        assert!(prp.uses_list());
        let segs = prp.segments(&mut m).unwrap();
        assert_eq!(segs.len() as u64, len / PAGE_SIZE);
        assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), len);
        // Segments are contiguous over the buffer.
        for (i, (addr, _)) in segs.iter().enumerate() {
            assert_eq!(*addr, buf + i as u64 * PAGE_SIZE);
        }
        assert_eq!(prp.entry_count() as usize, segs.len());
    }

    #[test]
    fn short_lists_share_pages() {
        // 64 buffers of 128 KiB: 31-entry lists, 16 to a page.
        let mut m = mem();
        let len = 128 * 1024;
        for _ in 0..64 {
            let buf = m.alloc(len).unwrap();
            assert!(PrpPair::build(&mut m, buf, len).uses_list());
        }
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn a_short_list_never_crosses_a_page() {
        let mut m = mem();
        // Lists of 2..=32 entries, twice over, land at every block
        // offset of several pages.
        for entries in (2..=32u64).chain(2..=32) {
            let len = (entries + 1) * PAGE_SIZE;
            let buf = m.alloc(len).unwrap();
            let prp = PrpPair::build(&mut m, buf, len);
            let last = prp.prp2 + (entries * 8 - 1);
            assert_eq!(prp.prp2.page_base(PAGE_SIZE), last.page_base(PAGE_SIZE));
            let segs = prp.segments(&mut m).unwrap();
            assert_eq!(segs.len() as u64, entries + 1);
            assert_eq!(segs.last().unwrap().0, buf + entries * PAGE_SIZE);
        }
    }

    #[test]
    fn a_33_entry_list_gets_a_page() {
        let mut m = mem();
        let short = |m: &mut HostMemory| {
            let buf = m.alloc(3 * PAGE_SIZE).unwrap();
            PrpPair::build(m, buf, 3 * PAGE_SIZE).prp2
        };
        let before = short(&mut m);
        let len = 34 * PAGE_SIZE;
        let buf = m.alloc(len).unwrap();
        let long = PrpPair::build(&mut m, buf, len);
        assert_eq!(long.prp2.page_offset(PAGE_SIZE), 0);
        assert_ne!(long.prp2.page_base(PAGE_SIZE), before.page_base(PAGE_SIZE));
        assert_eq!(long.segments(&mut m).unwrap().len(), 34);
        // Blocks go on in their own page, not in the long list's.
        assert_eq!(short(&mut m), before + BLOCK_BYTES);
    }

    #[test]
    fn unaligned_start_offsets_first_segment() {
        let mut m = mem();
        let page = m.alloc(3 * PAGE_SIZE).unwrap();
        let buf = page + 1024;
        let len = PAGE_SIZE + 2048;
        let prp = PrpPair::build(&mut m, buf, len);
        let segs = prp.segments(&mut m).unwrap();
        assert_eq!(segs[0], (buf, PAGE_SIZE - 1024));
        assert_eq!(segs.iter().map(|s| s.1).sum::<u64>(), len);
    }

    #[test]
    fn null_prps_rejected() {
        let mut m = mem();
        let bad = PrpPair {
            prp1: PciAddr::NULL,
            prp2: PciAddr::NULL,
            len: 512,
        };
        assert_eq!(bad.segments(&mut m), Err(PrpError::NullPrp1));
        let needs2 = PrpPair {
            prp1: PciAddr::new(PAGE_SIZE),
            prp2: PciAddr::NULL,
            len: 2 * PAGE_SIZE,
        };
        assert_eq!(needs2.segments(&mut m), Err(PrpError::NullPrp2));
    }

    #[test]
    fn misaligned_list_entry_rejected() {
        let mut m = mem();
        let buf = m.alloc(4 * PAGE_SIZE).unwrap();
        let list = m.alloc(PAGE_SIZE).unwrap();
        m.write_u64(list, (buf + PAGE_SIZE + 3).raw()); // bad entry
        let prp = PrpPair {
            prp1: buf,
            prp2: list,
            len: 3 * PAGE_SIZE,
        };
        assert!(matches!(
            prp.segments(&mut m),
            Err(PrpError::MisalignedEntry(_))
        ));
    }

    #[test]
    fn data_round_trip_through_segments() {
        // Write through segment addresses, read back linearly.
        let mut m = mem();
        let len = 3 * PAGE_SIZE + 100;
        let buf = m.alloc(len).unwrap();
        let prp = PrpPair::build(&mut m, buf, len);
        let mut cursor = 0u64;
        let segs = prp.segments(&mut m).unwrap();
        for (addr, n) in segs {
            let chunk: Vec<u8> = (cursor..cursor + n).map(|i| (i % 251) as u8).collect();
            m.write(addr, &chunk);
            cursor += n;
        }
        let all = m.read_vec(buf, len);
        for (i, b) in all.iter().enumerate() {
            assert_eq!(*b, (i % 251) as u8);
        }
    }
}
