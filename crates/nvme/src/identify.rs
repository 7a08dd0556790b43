//! Identify data structures.
//!
//! Enough of the identify-controller and identify-namespace pages for
//! the host driver model to enumerate BM-Store's front-end functions the
//! way a stock `nvme` driver would: model/serial/firmware strings plus
//! namespace geometry, serialized into the 4 KiB page the command DMAs
//! back.

use crate::field;
use crate::namespace::Namespace;
use crate::types::Nsid;

/// Size of an identify data page.
pub const IDENTIFY_PAGE_SIZE: usize = 4096;

/// Identify-controller data (CNS 01h), abridged to the fields the
/// simulation consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdentifyController {
    /// PCI vendor id.
    pub vid: u16,
    /// Serial number (up to 20 ASCII chars).
    pub serial: String,
    /// Model number (up to 40 ASCII chars).
    pub model: String,
    /// Firmware revision (up to 8 ASCII chars).
    pub firmware: String,
    /// Number of namespaces the controller supports.
    pub nn: u32,
    /// Maximum data transfer size as a power-of-two multiple of the
    /// minimum page size (0 = unlimited).
    pub mdts: u8,
}

impl IdentifyController {
    /// The identify page for a BM-Store front-end function.
    pub fn bm_store_front_end(function_index: u8) -> Self {
        IdentifyController {
            vid: 0x1ded, // Alibaba's PCI vendor id
            serial: format!("BMS{function_index:05}"),
            model: "BM-Store Virtual NVMe".to_string(),
            firmware: "1.0".to_string(),
            nn: 8,
            mdts: 5, // 128 KiB with 4 KiB pages
        }
    }

    /// Serializes into a 4 KiB identify page (byte offsets per spec:
    /// VID @0, SN @4, MN @24, FR @64, MDTS @77, NN @516).
    pub fn to_page(&self) -> Vec<u8> {
        let mut page = vec![0u8; IDENTIFY_PAGE_SIZE];
        page[0..2].copy_from_slice(&self.vid.to_le_bytes());
        write_padded(&mut page[4..24], &self.serial);
        write_padded(&mut page[24..64], &self.model);
        write_padded(&mut page[64..72], &self.firmware);
        page[77] = self.mdts;
        page[516..520].copy_from_slice(&self.nn.to_le_bytes());
        page
    }

    /// Parses a 4 KiB identify page; `None` if `page` is shorter than
    /// [`IDENTIFY_PAGE_SIZE`].
    pub fn from_page(page: &[u8]) -> Option<Self> {
        let page = page.first_chunk::<IDENTIFY_PAGE_SIZE>()?;
        Some(IdentifyController {
            vid: u16::from_le_bytes(field::<0, 2, _>(page)),
            serial: read_padded(&field::<4, 20, _>(page)),
            model: read_padded(&field::<24, 40, _>(page)),
            firmware: read_padded(&field::<64, 8, _>(page)),
            nn: u32::from_le_bytes(field::<516, 4, _>(page)),
            mdts: page[77],
        })
    }
}

/// Identify-namespace data (CNS 00h), abridged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentifyNamespace {
    /// Namespace size in logical blocks.
    pub nsze: u64,
    /// Logical block size in bytes.
    pub block_size: u64,
}

impl IdentifyNamespace {
    /// Builds the page content from a [`Namespace`].
    pub fn from_namespace(ns: &Namespace) -> Self {
        IdentifyNamespace {
            nsze: ns.blocks(),
            block_size: ns.block_size(),
        }
    }

    /// Reconstructs a [`Namespace`] under `nsid`.
    pub fn to_namespace(self, nsid: Nsid) -> Namespace {
        Namespace::new(nsid, self.nsze, self.block_size)
    }

    /// Serializes into a 4 KiB identify page (NSZE @0; the block size is
    /// encoded as the LBA-format shift @130 the way LBAF descriptors do).
    pub fn to_page(&self) -> Vec<u8> {
        let mut page = vec![0u8; IDENTIFY_PAGE_SIZE];
        page[0..8].copy_from_slice(&self.nsze.to_le_bytes());
        page[130] = self.block_size.trailing_zeros() as u8;
        page
    }

    /// Parses a 4 KiB identify page; `None` if `page` is shorter than
    /// [`IDENTIFY_PAGE_SIZE`] or its LBA-format shift is 64 or more.
    pub fn from_page(page: &[u8]) -> Option<Self> {
        let page = page.first_chunk::<IDENTIFY_PAGE_SIZE>()?;
        Some(IdentifyNamespace {
            nsze: u64::from_le_bytes(field::<0, 8, _>(page)),
            block_size: 1u64.checked_shl(u32::from(page[130]))?,
        })
    }
}

fn write_padded(dest: &mut [u8], s: &str) {
    let bytes = s.as_bytes();
    let n = bytes.len().min(dest.len());
    dest[..n].copy_from_slice(&bytes[..n]);
    for b in dest[n..].iter_mut() {
        *b = b' ';
    }
}

fn read_padded(src: &[u8]) -> String {
    String::from_utf8_lossy(src).trim_end().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_page_round_trip() {
        let id = IdentifyController::bm_store_front_end(17);
        let page = id.to_page();
        assert_eq!(page.len(), IDENTIFY_PAGE_SIZE);
        assert_eq!(IdentifyController::from_page(&page), Some(id.clone()));
        assert_eq!(id.serial, "BMS00017");
    }

    #[test]
    fn namespace_page_round_trip() {
        let ns = Namespace::new(Nsid::new(4).unwrap(), 1 << 28, 4096);
        let id = IdentifyNamespace::from_namespace(&ns);
        let back = IdentifyNamespace::from_page(&id.to_page()).unwrap();
        assert_eq!(back, id);
        assert_eq!(back.to_namespace(Nsid::new(4).unwrap()), ns);
    }

    #[test]
    fn long_strings_truncate() {
        let id = IdentifyController {
            vid: 1,
            serial: "s".repeat(100),
            model: "m".repeat(100),
            firmware: "f".repeat(100),
            nn: 1,
            mdts: 0,
        };
        let parsed = IdentifyController::from_page(&id.to_page()).unwrap();
        assert_eq!(parsed.serial.len(), 20);
        assert_eq!(parsed.model.len(), 40);
        assert_eq!(parsed.firmware.len(), 8);
    }
}
