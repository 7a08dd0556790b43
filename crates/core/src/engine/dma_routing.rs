//! DMA request routing and the *global PRP* — paper Fig. 4(b) and §IV-C.
//!
//! BM-Store's direct-attached architecture puts the engine between two
//! PCIe domains: the host's and the back-end SSDs'. To avoid buffering
//! data in FPGA memory, the engine rewrites each command's PRP entries
//! into **global PRPs**: the first 8 of the 16 reserved high bits of a
//! PRP address are repurposed as a 7-bit PF/VF *function id* plus a
//! 1-bit *PRP-list flag*. When the SSD later emits a memory read/write
//! TLP toward such an address, the engine strips the tag, selects the
//! host function from it, and forwards the TLP upstream — so the SSD
//! DMAs *directly* into host memory and the engine never copies data.
//!
//! Engine-local structures the SSD must reach (its SQ/CQ rings in the
//! host adaptor, and tagged PRP-list copies) live in a dedicated
//! *chip-memory window* starting at [`CHIP_WINDOW_BASE`], disjoint from
//! any host physical address, so the router can tell the domains apart
//! even for function 0 (whose tag bits are all zero on data pages).

use bm_pcie::{DmaContext, FunctionId, HostMemory, PciAddr};

/// Bit position of the 7-bit function id within a global PRP.
pub const FUNC_SHIFT: u32 = 57;
/// Bit position of the PRP-list flag.
pub const LIST_FLAG_SHIFT: u32 = 56;
/// Mask of all tag bits (the 8 repurposed reserved bits).
pub const TAG_MASK: u64 = 0xFF << LIST_FLAG_SHIFT;

/// Base of the engine chip-memory window as seen from the back-end bus.
/// Chosen above the largest host DRAM we model (768 GB) and below the
/// 2^48 physical-address limit, so it never collides with a host page.
pub const CHIP_WINDOW_BASE: u64 = 0xF0_0000_0000;

/// Encoder/decoder for global PRPs.
///
/// # Examples
///
/// ```
/// use bmstore_core::engine::dma_routing::GlobalPrp;
/// use bm_pcie::{FunctionId, PciAddr};
///
/// let host = PciAddr::new(0x7f_1234_5000);
/// let tagged = GlobalPrp::tag(host, FunctionId::new(77).unwrap(), false);
/// let (addr, func, is_list) = GlobalPrp::untag(tagged);
/// assert_eq!(addr, host);
/// assert_eq!(func.index(), 77);
/// assert!(!is_list);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalPrp;

impl GlobalPrp {
    /// Tags `addr` with `func` (and the list flag), producing a global
    /// PRP.
    ///
    /// # Panics
    ///
    /// Panics if `addr` already uses the reserved high bits — host
    /// physical addresses never do (they are < 2^48 on the paper's
    /// platform).
    pub fn tag(addr: PciAddr, func: FunctionId, is_list: bool) -> PciAddr {
        assert_eq!(
            addr.raw() & TAG_MASK,
            0,
            "address {addr} already uses reserved bits"
        );
        let mut v = addr.raw() | ((func.index() as u64) << FUNC_SHIFT);
        if is_list {
            v |= 1 << LIST_FLAG_SHIFT;
        }
        PciAddr::new(v)
    }

    /// Whether `addr` carries a non-zero tag. (Function 0 data pages
    /// have an all-zero tag; the router distinguishes them from chip
    /// memory by address range instead.)
    pub fn is_tagged(addr: PciAddr) -> bool {
        addr.raw() & TAG_MASK != 0
    }

    /// Strips the tag: returns `(host address, function, is_list)`.
    /// An all-zero tag decodes as function 0, no list flag.
    pub fn untag(addr: PciAddr) -> (PciAddr, FunctionId, bool) {
        #[expect(
            clippy::expect_used,
            reason = "the value is masked to 7 bits, which FunctionId::new always accepts"
        )]
        let func =
            FunctionId::new((addr.raw() >> FUNC_SHIFT) as u8 & 0x7F).expect("7 bits always fit");
        let is_list = addr.raw() & (1 << LIST_FLAG_SHIFT) != 0;
        (PciAddr::new(addr.raw() & !TAG_MASK), func, is_list)
    }
}

/// Routing statistics kept by the DMA-routing module (read by the I/O
/// monitor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoutingStats {
    /// TLPs routed upstream to host functions.
    pub to_host: u64,
    /// Bytes moved upstream (device → host, i.e. reads).
    pub bytes_to_host: u64,
    /// Bytes moved downstream (host → device, i.e. writes).
    pub bytes_from_host: u64,
    /// Accesses that stayed in engine chip memory (PRP lists, rings).
    pub chip_local: u64,
    /// TLPs dropped because the tag named an unknown function.
    pub dropped: u64,
}

/// A [`DmaContext`] over engine chip memory through its bus window:
/// addresses are `CHIP_WINDOW_BASE`-relative on the wire. The engine
/// uses this to build rings/lists at the same addresses the SSD will
/// later dereference.
pub struct ChipWindow<'a>(pub &'a mut HostMemory);

impl ChipWindow<'_> {
    fn local(addr: PciAddr) -> PciAddr {
        assert!(
            addr.raw() >= CHIP_WINDOW_BASE,
            "{addr} below the chip window"
        );
        PciAddr::new(addr.raw() - CHIP_WINDOW_BASE)
    }

    /// Translates a chip-local offset to its bus address.
    pub fn bus_addr(local: PciAddr) -> PciAddr {
        PciAddr::new(local.raw() + CHIP_WINDOW_BASE)
    }
}

impl DmaContext for ChipWindow<'_> {
    fn dma_read(&mut self, addr: PciAddr, buf: &mut [u8]) {
        self.0.read(Self::local(addr), buf);
    }

    fn dma_write(&mut self, addr: PciAddr, data: &[u8]) {
        self.0.write(Self::local(addr), data);
    }
}

/// The router: a [`DmaContext`] the back-end SSDs DMA through.
///
/// Addresses inside the chip window stay engine-local; everything else
/// is a (possibly tagged) host address: the tag selects the PF/VF, which
/// is validated before the TLP is forwarded upstream.
pub struct DmaRouter<'a> {
    host: &'a mut HostMemory,
    chip: &'a mut HostMemory,
    /// Functions currently valid (bound and enabled).
    valid_functions: &'a [bool],
    stats: &'a mut RoutingStats,
}

impl<'a> DmaRouter<'a> {
    /// Creates a router over the two memory domains.
    ///
    /// `valid_functions[i]` gates function `i`; TLPs naming an invalid
    /// function are dropped (and counted), as the RTL does.
    pub fn new(
        host: &'a mut HostMemory,
        chip: &'a mut HostMemory,
        valid_functions: &'a [bool],
        stats: &'a mut RoutingStats,
    ) -> Self {
        DmaRouter {
            host,
            chip,
            valid_functions,
            stats,
        }
    }

    /// `Some((resolved, is_host))`, or `None` for a dropped TLP.
    fn route(&mut self, addr: PciAddr) -> Option<(PciAddr, bool)> {
        let raw = addr.raw();
        if raw >= CHIP_WINDOW_BASE && raw < CHIP_WINDOW_BASE + self.chip.size() {
            self.stats.chip_local += 1;
            return Some((PciAddr::new(raw - CHIP_WINDOW_BASE), false));
        }
        let (host_addr, func, _) = GlobalPrp::untag(addr);
        if self
            .valid_functions
            .get(func.index() as usize)
            .copied()
            .unwrap_or(false)
        {
            self.stats.to_host += 1;
            Some((host_addr, true))
        } else {
            self.stats.dropped += 1;
            None
        }
    }
}

impl DmaContext for DmaRouter<'_> {
    fn dma_read(&mut self, addr: PciAddr, buf: &mut [u8]) {
        match self.route(addr) {
            Some((a, true)) => {
                self.stats.bytes_from_host += buf.len() as u64;
                self.host.read(a, buf);
            }
            Some((a, false)) => self.chip.read(a, buf),
            None => buf.fill(0), // dropped TLP: completion returns zeros
        }
    }

    fn dma_write(&mut self, addr: PciAddr, data: &[u8]) {
        match self.route(addr) {
            Some((a, true)) => {
                self.stats.bytes_to_host += data.len() as u64;
                self.host.write(a, data);
            }
            Some((a, false)) => self.chip.write(a, data),
            None => {} // dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(i: u8) -> FunctionId {
        FunctionId::new(i).unwrap()
    }

    #[test]
    fn tag_round_trip_all_functions() {
        let addr = PciAddr::new(0x0000_7fff_ffff_f000);
        for i in 0..128u8 {
            for list in [false, true] {
                let tagged = GlobalPrp::tag(addr, func(i), list);
                let (a, f, l) = GlobalPrp::untag(tagged);
                assert_eq!((a, f.index(), l), (addr, i, list));
            }
        }
    }

    #[test]
    #[should_panic(expected = "reserved bits")]
    fn tagging_a_tagged_address_panics() {
        let t = GlobalPrp::tag(PciAddr::new(0x1000), func(3), false);
        let _ = GlobalPrp::tag(t, func(4), false);
    }

    #[test]
    fn chip_window_translation() {
        let mut chip = HostMemory::new(1 << 20);
        let local = chip.alloc(4096).unwrap();
        let bus = ChipWindow::bus_addr(local);
        assert_eq!(bus.raw(), local.raw() + CHIP_WINDOW_BASE);
        let mut win = ChipWindow(&mut chip);
        win.dma_write(bus, b"ring-entry");
        let mut buf = [0u8; 10];
        win.dma_read(bus, &mut buf);
        assert_eq!(&buf, b"ring-entry");
        assert_eq!(chip.read_vec(local, 10), b"ring-entry");
    }

    #[test]
    fn router_moves_data_between_domains() {
        let mut host = HostMemory::new(1 << 20);
        let mut chip = HostMemory::new(1 << 20);
        let host_buf = host.alloc(4096).unwrap();
        host.write(host_buf, b"host-data");
        let chip_buf = chip.alloc(4096).unwrap();
        chip.write(chip_buf, b"chip-data");
        let valid = vec![true; 128];
        let mut stats = RoutingStats::default();
        let mut router = DmaRouter::new(&mut host, &mut chip, &valid, &mut stats);

        // Tagged read pulls from host memory.
        let mut buf = [0u8; 9];
        router.dma_read(GlobalPrp::tag(host_buf, func(5), false), &mut buf);
        assert_eq!(&buf, b"host-data");
        // Chip-window read pulls from chip memory.
        router.dma_read(ChipWindow::bus_addr(chip_buf), &mut buf);
        assert_eq!(&buf, b"chip-data");
        // Tagged write lands in host memory (zero-copy read path).
        router.dma_write(GlobalPrp::tag(host_buf, func(5), false), b"WRITEBACK");
        let DmaRouter { .. } = router; // end the borrows
        assert_eq!(host.read_vec(host_buf, 9), b"WRITEBACK");
        assert_eq!(stats.to_host, 2);
        assert_eq!(stats.chip_local, 1);
        assert_eq!(stats.bytes_to_host, 9);
        assert_eq!(stats.bytes_from_host, 9);
    }

    #[test]
    fn function_zero_data_pages_route_to_host() {
        // Function 0's tag bits are all zero: the router must still
        // treat low untagged addresses as host memory for PF0.
        let mut host = HostMemory::new(1 << 20);
        let mut chip = HostMemory::new(1 << 20);
        let host_buf = host.alloc(4096).unwrap();
        host.write(host_buf, b"pf0");
        let valid = vec![true; 128];
        let mut stats = RoutingStats::default();
        let mut router = DmaRouter::new(&mut host, &mut chip, &valid, &mut stats);
        let tagged = GlobalPrp::tag(host_buf, func(0), false);
        assert_eq!(tagged, host_buf, "function 0 tag is the identity");
        let mut buf = [0u8; 3];
        router.dma_read(tagged, &mut buf);
        assert_eq!(&buf, b"pf0");
        let DmaRouter { .. } = router; // end the borrows
        assert_eq!(stats.to_host, 1);
    }

    #[test]
    fn router_drops_invalid_functions() {
        let mut host = HostMemory::new(1 << 20);
        let mut chip = HostMemory::new(1 << 20);
        let host_buf = host.alloc(4096).unwrap();
        host.write(host_buf, b"secret");
        let mut valid = vec![true; 128];
        valid[9] = false;
        let mut stats = RoutingStats::default();
        let mut router = DmaRouter::new(&mut host, &mut chip, &valid, &mut stats);
        let mut buf = [0xAAu8; 6];
        router.dma_read(GlobalPrp::tag(host_buf, func(9), false), &mut buf);
        assert_eq!(&buf, &[0u8; 6], "dropped read returns zeros");
        router.dma_write(GlobalPrp::tag(host_buf, func(9), false), b"ATTACK");
        let DmaRouter { .. } = router; // end the borrows
        assert_eq!(host.read_vec(host_buf, 6), b"secret", "write dropped");
        assert_eq!(stats.dropped, 2);
    }
}
