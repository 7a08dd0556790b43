//! PCIe addressing: bus addresses and BM-Store's flat function-id space.

use std::fmt;
use std::ops::{Add, Sub};

/// A 64-bit address on a PCIe memory domain (host physical memory, a BAR
/// window, or the engine's chip memory).
///
/// # Examples
///
/// ```
/// use bm_pcie::PciAddr;
/// let a = PciAddr::new(0x1000);
/// assert_eq!((a + 0x20).raw(), 0x1020);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PciAddr(u64);

impl PciAddr {
    /// The null address.
    pub const NULL: PciAddr = PciAddr(0);

    /// Wraps a raw 64-bit address.
    pub const fn new(raw: u64) -> Self {
        PciAddr(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Whether the address is null.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Rounds down to the containing page of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn page_base(self, page_size: u64) -> PciAddr {
        assert!(page_size.is_power_of_two(), "page size must be 2^n");
        PciAddr(self.0 & !(page_size - 1))
    }

    /// Byte offset within the containing page of `page_size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn page_offset(self, page_size: u64) -> u64 {
        assert!(page_size.is_power_of_two(), "page size must be 2^n");
        self.0 & (page_size - 1)
    }
}

impl Add<u64> for PciAddr {
    type Output = PciAddr;
    fn add(self, rhs: u64) -> PciAddr {
        PciAddr(self.0 + rhs)
    }
}

impl Sub<PciAddr> for PciAddr {
    type Output = u64;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`.
    fn sub(self, rhs: PciAddr) -> u64 {
        debug_assert!(self.0 >= rhs.0, "address underflow");
        self.0 - rhs.0
    }
}

impl fmt::Display for PciAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for PciAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// BM-Store's flat function index: the BMS-Engine exposes up to 128
/// front-end NVMe functions (4 PFs + 124 VFs) and routes DMA by a 7-bit
/// function id embedded in the *global PRP* (paper Fig. 4(b)).
///
/// # Examples
///
/// ```
/// use bm_pcie::FunctionId;
/// let f = FunctionId::new(5).unwrap();
/// assert_eq!(f.index(), 5);
/// assert!(FunctionId::new(128).is_none()); // only 7 bits
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FunctionId(u8);

impl FunctionId {
    /// Maximum number of functions addressable by the 7-bit id.
    pub const MAX_FUNCTIONS: u8 = 128;

    /// Creates a function id, or `None` if `index` does not fit in 7 bits.
    pub const fn new(index: u8) -> Option<Self> {
        if index < Self::MAX_FUNCTIONS {
            Some(FunctionId(index))
        } else {
            None
        }
    }

    /// The flat index in `[0, 128)`.
    pub const fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Display for FunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_arithmetic() {
        let a = PciAddr::new(0x1000);
        assert_eq!((a + 0x234).raw(), 0x1234);
        assert_eq!((a + 0x234) - a, 0x234);
        assert!(PciAddr::NULL.is_null());
        assert!(!a.is_null());
    }

    #[test]
    fn page_math() {
        let a = PciAddr::new(0x12345);
        assert_eq!(a.page_base(4096), PciAddr::new(0x12000));
        assert_eq!(a.page_offset(4096), 0x345);
        let aligned = PciAddr::new(0x4000);
        assert_eq!(aligned.page_base(4096), aligned);
        assert_eq!(aligned.page_offset(4096), 0);
    }

    #[test]
    #[should_panic(expected = "2^n")]
    fn page_math_rejects_non_power_of_two() {
        PciAddr::new(0).page_base(3000);
    }

    #[test]
    fn function_id_bounds() {
        assert_eq!(FunctionId::new(0).unwrap().index(), 0);
        assert_eq!(FunctionId::new(127).unwrap().index(), 127);
        assert!(FunctionId::new(128).is_none());
    }
}
