//! The DMA port abstraction.
//!
//! A device (SSD controller) does not know what is on the other side of
//! its PCIe link: in a native attachment its memory reads and writes
//! land directly in host DRAM, while behind the BMS-Engine every access
//! is *routed by the function tag in its address* by the DMA-routing
//! module (paper §IV-C). The [`DmaContext`] trait is that seam: the SSD
//! model issues loads and stores against it, and each attachment
//! supplies an implementation — plain [`HostMemory`] for native/VFIO,
//! or the engine's router for BM-Store.

use crate::addr::PciAddr;
use crate::memory::HostMemory;

/// A byte-addressable DMA target as seen from a device.
///
/// Implementations decide how addresses are interpreted (identity for
/// host memory, tag-stripping and function routing for the BMS-Engine).
pub trait DmaContext {
    /// DMA read: device pulls `buf.len()` bytes from `addr`.
    fn dma_read(&mut self, addr: PciAddr, buf: &mut [u8]);

    /// DMA write: device pushes `data` to `addr`.
    fn dma_write(&mut self, addr: PciAddr, data: &[u8]);

    /// Reads a little-endian `u64` (queue entries, PRP pointers).
    fn dma_read_u64(&mut self, addr: PciAddr) -> u64 {
        let mut b = [0u8; 8];
        self.dma_read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    fn dma_write_u64(&mut self, addr: PciAddr, value: u64) {
        self.dma_write(addr, &value.to_le_bytes());
    }
}

impl<T: DmaContext + ?Sized> DmaContext for &mut T {
    fn dma_read(&mut self, addr: PciAddr, buf: &mut [u8]) {
        (**self).dma_read(addr, buf);
    }

    fn dma_write(&mut self, addr: PciAddr, data: &[u8]) {
        (**self).dma_write(addr, data);
    }
}

impl DmaContext for HostMemory {
    fn dma_read(&mut self, addr: PciAddr, buf: &mut [u8]) {
        self.read(addr, buf);
    }

    fn dma_write(&mut self, addr: PciAddr, data: &[u8]) {
        self.write(addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_memory_is_a_dma_context() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(4096).unwrap();
        {
            let ctx: &mut dyn DmaContext = &mut mem;
            ctx.dma_write(a, &[1, 2, 3]);
            let mut buf = [0u8; 3];
            ctx.dma_read(a, &mut buf);
            assert_eq!(buf, [1, 2, 3]);
            ctx.dma_write_u64(a + 8, 0xabcd);
            assert_eq!(ctx.dma_read_u64(a + 8), 0xabcd);
        }
    }

    #[test]
    fn trait_is_object_safe() {
        fn takes_dyn(_: &mut dyn DmaContext) {}
        let mut mem = HostMemory::new(1 << 20);
        takes_dyn(&mut mem);
    }
}
