//! Namespace geometry.

use crate::types::{Lba, Nsid};
use crate::Status;
use std::fmt;

/// One NVMe namespace: a contiguous logical-block space.
///
/// # Examples
///
/// ```
/// use bm_nvme::{Namespace, Nsid, Lba};
///
/// // The paper's bare-metal experiment: a 1536 GB namespace (§V-B).
/// let ns = Namespace::from_bytes(Nsid::new(1).unwrap(), 1536 << 30, 4096);
/// assert!(ns.check_range(Lba(0), 8).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Namespace {
    nsid: Nsid,
    blocks: u64,
    block_size: u64,
}

impl Namespace {
    /// Creates a namespace of `blocks` logical blocks of `block_size`.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is zero or `block_size` is not a power of two
    /// ≥ 512.
    pub fn new(nsid: Nsid, blocks: u64, block_size: u64) -> Self {
        assert!(blocks > 0, "namespace must hold at least one block");
        assert!(
            block_size.is_power_of_two() && block_size >= 512,
            "block size must be a power of two >= 512"
        );
        Namespace {
            nsid,
            blocks,
            block_size,
        }
    }

    /// Creates a namespace sized in bytes (rounded down to whole blocks).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Namespace::new`].
    pub fn from_bytes(nsid: Nsid, bytes: u64, block_size: u64) -> Self {
        Namespace::new(nsid, bytes / block_size, block_size)
    }

    /// The namespace id.
    pub fn nsid(&self) -> Nsid {
        self.nsid
    }

    /// Capacity in logical blocks.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Logical block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Capacity in bytes.
    pub fn bytes(&self) -> u64 {
        self.blocks * self.block_size
    }

    /// Validates that `[slba, slba + nblocks)` lies inside the namespace.
    ///
    /// # Errors
    ///
    /// Returns [`Status::LbaOutOfRange`] when it does not.
    pub fn check_range(&self, slba: Lba, nblocks: u32) -> Result<(), Status> {
        match slba.checked_add(nblocks as u64) {
            Some(end) if end.raw() <= self.blocks => Ok(()),
            _ => Err(Status::LbaOutOfRange),
        }
    }
}

impl fmt::Display for Namespace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} blocks x {} B = {:.1} GB)",
            self.nsid,
            self.blocks,
            self.block_size,
            self.bytes() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns() -> Namespace {
        Namespace::new(Nsid::new(1).unwrap(), 1000, 4096)
    }

    #[test]
    fn geometry() {
        let ns = ns();
        assert_eq!(ns.blocks(), 1000);
        assert_eq!(ns.bytes(), 4_096_000);
    }

    #[test]
    fn range_checks() {
        let ns = ns();
        assert!(ns.check_range(Lba(0), 1000).is_ok());
        assert!(ns.check_range(Lba(999), 1).is_ok());
        assert_eq!(ns.check_range(Lba(999), 2), Err(Status::LbaOutOfRange));
        assert_eq!(ns.check_range(Lba(1000), 1), Err(Status::LbaOutOfRange));
        assert_eq!(ns.check_range(Lba(u64::MAX), 2), Err(Status::LbaOutOfRange));
    }

    #[test]
    fn from_bytes_rounds_down() {
        let ns = Namespace::from_bytes(Nsid::new(2).unwrap(), 10_000, 4096);
        assert_eq!(ns.blocks(), 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_block_size() {
        Namespace::new(Nsid::new(1).unwrap(), 10, 1000);
    }

    #[test]
    fn display_mentions_size() {
        let s = ns().to_string();
        assert!(s.contains("ns1"), "{s}");
        assert!(s.contains("1000 blocks"), "{s}");
    }
}
