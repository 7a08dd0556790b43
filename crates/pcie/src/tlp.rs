//! Transaction-layer packets.
//!
//! The paper's DMA-routing mechanism (§IV-C) works at TLP granularity:
//! the back-end SSD emits memory read/write TLPs whose *addresses* carry
//! the global-PRP function tag, and the BMS-Engine inspects each TLP to
//! route it to the right host PF/VF. We therefore model TLPs explicitly
//! rather than as abstract "DMA" calls.

use crate::addr::PciAddr;

/// Maximum payload of a single memory-write TLP (bytes). 256 is the
/// common MaxPayloadSize on server root ports.
pub const MAX_PAYLOAD: usize = 256;

/// TLP header overhead used by the link timing model (12-byte header +
/// framing/DLLP amortization).
pub const HEADER_OVERHEAD: u64 = 24;

/// One transaction-layer packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tlp {
    /// Posted memory write carrying payload bytes toward `addr`.
    MemWrite {
        /// Destination bus address (may carry a global-PRP function tag).
        addr: PciAddr,
        /// Payload bytes.
        data: Vec<u8>,
    },
    /// Non-posted memory read requesting `len` bytes from `addr`.
    MemRead {
        /// Source bus address (may carry a global-PRP function tag).
        addr: PciAddr,
        /// Number of bytes requested.
        len: u32,
        /// Tag correlating the completion with this request.
        tag: u16,
    },
    /// Completion-with-data answering a `MemRead` with matching `tag`.
    Completion {
        /// The request tag being completed.
        tag: u16,
        /// Returned bytes.
        data: Vec<u8>,
    },
    /// Message-signalled interrupt toward the host (MSI-X vector write).
    Msi {
        /// Interrupt vector index.
        vector: u16,
    },
    /// Vendor-defined message (the MCTP-over-PCIe carrier).
    VendorMsg {
        /// Opaque message body (an MCTP packet).
        body: Vec<u8>,
    },
}

impl Tlp {
    /// Total wire size in bytes (header overhead plus payload), used by
    /// the link bandwidth model.
    pub fn wire_size(&self) -> u64 {
        let payload = match self {
            Tlp::MemWrite { data, .. } => data.len() as u64,
            Tlp::MemRead { .. } => 0,
            Tlp::Completion { data, .. } => data.len() as u64,
            Tlp::Msi { .. } => 4,
            Tlp::VendorMsg { body } => body.len() as u64,
        };
        HEADER_OVERHEAD + payload
    }

    /// The routing address, for packets that carry one.
    pub fn addr(&self) -> Option<PciAddr> {
        match self {
            Tlp::MemWrite { addr, .. } | Tlp::MemRead { addr, .. } => Some(*addr),
            Tlp::Completion { .. } | Tlp::Msi { .. } | Tlp::VendorMsg { .. } => None,
        }
    }

    /// Splits a large transfer into maximum-payload memory-write TLPs.
    ///
    /// # Examples
    ///
    /// ```
    /// use bm_pcie::{Tlp, PciAddr};
    /// let tlps = Tlp::write_burst(PciAddr::new(0x1000), vec![0u8; 600]);
    /// assert_eq!(tlps.len(), 3); // 256 + 256 + 88
    /// ```
    pub fn write_burst(addr: PciAddr, data: Vec<u8>) -> Vec<Tlp> {
        if data.is_empty() {
            return Vec::new();
        }
        data.chunks(MAX_PAYLOAD)
            .enumerate()
            .map(|(i, chunk)| Tlp::MemWrite {
                addr: addr + (i * MAX_PAYLOAD) as u64,
                data: chunk.to_vec(),
            })
            .collect()
    }

    /// Number of TLPs and total wire bytes for a transfer of `len` bytes —
    /// cheap accounting without materializing packets, used on the data
    /// fast path where only timing matters.
    pub fn burst_accounting(len: u64) -> (u64, u64) {
        if len == 0 {
            return (0, 0);
        }
        let packets = len.div_ceil(MAX_PAYLOAD as u64);
        (packets, len + packets * HEADER_OVERHEAD)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes() {
        assert_eq!(
            Tlp::MemWrite {
                addr: PciAddr::new(0),
                data: vec![0; 100]
            }
            .wire_size(),
            124
        );
        assert_eq!(
            Tlp::MemRead {
                addr: PciAddr::new(0),
                len: 4096,
                tag: 1
            }
            .wire_size(),
            HEADER_OVERHEAD
        );
        assert_eq!(Tlp::Msi { vector: 3 }.wire_size(), HEADER_OVERHEAD + 4);
    }

    #[test]
    fn burst_split_preserves_data_layout() {
        let data: Vec<u8> = (0..600u32).map(|i| (i % 256) as u8).collect();
        let tlps = Tlp::write_burst(PciAddr::new(0x1000), data.clone());
        assert_eq!(tlps.len(), 3);
        let mut reassembled = Vec::new();
        let mut expect_addr = PciAddr::new(0x1000);
        for tlp in &tlps {
            match tlp {
                Tlp::MemWrite { addr, data } => {
                    assert_eq!(*addr, expect_addr);
                    expect_addr = *addr + data.len() as u64;
                    reassembled.extend_from_slice(data);
                }
                _ => panic!("expected MemWrite"),
            }
        }
        assert_eq!(reassembled, data);
    }

    #[test]
    fn empty_burst() {
        assert!(Tlp::write_burst(PciAddr::new(0), Vec::new()).is_empty());
        assert_eq!(Tlp::burst_accounting(0), (0, 0));
    }

    #[test]
    fn accounting_matches_materialized_burst() {
        for len in [1u64, 255, 256, 257, 4096, 131072] {
            let tlps = Tlp::write_burst(PciAddr::new(0), vec![0; len as usize]);
            let wire: u64 = tlps.iter().map(Tlp::wire_size).sum();
            let (packets, bytes) = Tlp::burst_accounting(len);
            assert_eq!(packets as usize, tlps.len(), "len {len}");
            assert_eq!(bytes, wire, "len {len}");
        }
    }

    #[test]
    fn addr_exposed_for_routable_tlps() {
        let w = Tlp::MemWrite {
            addr: PciAddr::new(5),
            data: vec![1],
        };
        assert_eq!(w.addr(), Some(PciAddr::new(5)));
        assert_eq!(Tlp::Msi { vector: 0 }.addr(), None);
    }
}
