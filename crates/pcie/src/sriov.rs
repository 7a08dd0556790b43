//! SR-IOV function layout.
//!
//! The BMS-Engine presents a standard SR-IOV capability so that the host
//! sees plain NVMe controllers with no custom driver (the paper's
//! transparency requirement, §IV-A). [`SriovConfig`] describes the
//! PF/VF split and [`SriovConfig::enumerate`] lays out the full
//! 128-function table with BAR windows, exactly the "4 PFs and 124 VFs"
//! configuration of §IV-E.

use crate::addr::{Bdf, FunctionId, PciAddr};
use crate::function::{FunctionKind, PciFunction};
use std::fmt;

/// The PF/VF split of an SR-IOV device.
///
/// # Examples
///
/// ```
/// use bm_pcie::SriovConfig;
///
/// let cfg = SriovConfig::bm_store_default();
/// assert_eq!(cfg.physical_functions(), 4);
/// assert_eq!(cfg.virtual_functions(), 124);
/// let funcs = cfg.enumerate();
/// assert_eq!(funcs.len(), 128);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SriovConfig {
    pfs: u8,
    vfs: u8,
    bar0_len: u64,
    mmio_base: u64,
}

/// Error constructing an [`SriovConfig`] that exceeds the function space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SriovConfigError {
    requested: u16,
}

impl fmt::Display for SriovConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} functions requested but the id space holds {}",
            self.requested,
            FunctionId::MAX_FUNCTIONS
        )
    }
}

impl std::error::Error for SriovConfigError {}

impl SriovConfig {
    /// Default BAR0 window per function: 16 KiB of NVMe registers.
    pub const DEFAULT_BAR0_LEN: u64 = 0x4000;
    /// Default MMIO base where function BARs are laid out.
    pub const DEFAULT_MMIO_BASE: u64 = 0xf000_0000_0000;

    /// Creates a config with `pfs` physical and `vfs` virtual functions.
    ///
    /// # Errors
    ///
    /// Returns an error if `pfs + vfs` exceeds the 128-function space or
    /// `pfs` is zero.
    pub fn new(pfs: u8, vfs: u8) -> Result<Self, SriovConfigError> {
        let total = pfs as u16 + vfs as u16;
        if pfs == 0 || total > FunctionId::MAX_FUNCTIONS as u16 {
            return Err(SriovConfigError { requested: total });
        }
        Ok(SriovConfig {
            pfs,
            vfs,
            bar0_len: Self::DEFAULT_BAR0_LEN,
            mmio_base: Self::DEFAULT_MMIO_BASE,
        })
    }

    /// The paper's production configuration: 4 PFs + 124 VFs = 128
    /// independent NVMe devices (§IV-E).
    pub const fn bm_store_default() -> Self {
        const PFS: u8 = 4;
        const VFS: u8 = 124;
        const _: () = assert!(PFS as u16 + VFS as u16 <= FunctionId::MAX_FUNCTIONS as u16);
        SriovConfig {
            pfs: PFS,
            vfs: VFS,
            bar0_len: Self::DEFAULT_BAR0_LEN,
            mmio_base: Self::DEFAULT_MMIO_BASE,
        }
    }

    /// Number of physical functions.
    pub fn physical_functions(&self) -> u8 {
        self.pfs
    }

    /// Number of virtual functions.
    pub fn virtual_functions(&self) -> u8 {
        self.vfs
    }

    /// Total functions exposed.
    pub fn total_functions(&self) -> u8 {
        self.pfs + self.vfs
    }

    /// Per-function BAR0 window length.
    pub fn bar0_len(&self) -> u64 {
        self.bar0_len
    }

    /// Lays out every function: PFs first (ids `0..pfs`), then VFs
    /// round-robin-parented across the PFs, each with a disjoint BAR0
    /// window above `mmio_base`.
    pub fn enumerate(&self) -> Vec<PciFunction> {
        let mut out: Vec<PciFunction> = Vec::with_capacity(self.total_functions() as usize);
        // `new` bounded pfs + vfs by the function space, so every index
        // yields an id.
        for id in (0..self.total_functions()).filter_map(FunctionId::new) {
            let i = id.index();
            let kind = if i < self.pfs {
                FunctionKind::Physical
            } else {
                // A VF's parent is a PF, laid out before it.
                let parent = &out[usize::from((i - self.pfs) % self.pfs)];
                FunctionKind::Virtual {
                    parent: parent.id(),
                }
            };
            // ARI-style flat routing: device = i / 8, function = i % 8.
            let bdf = Bdf::new(0x3b, i / 8, i % 8);
            let bar0 = PciAddr::new(self.mmio_base + i as u64 * self.bar0_len);
            out.push(PciFunction::new(id, bdf, kind, bar0, self.bar0_len));
        }
        out
    }

    /// Finds the function whose BAR0 window contains `addr`, if any —
    /// O(1) because windows are laid out contiguously.
    pub fn route(&self, addr: PciAddr) -> Option<FunctionId> {
        let raw = addr.raw();
        if raw < self.mmio_base {
            return None;
        }
        let idx = (raw - self.mmio_base) / self.bar0_len;
        if idx < self.total_functions() as u64 {
            FunctionId::new(idx as u8)
        } else {
            None
        }
    }
}

impl Default for SriovConfig {
    fn default() -> Self {
        Self::bm_store_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let cfg = SriovConfig::bm_store_default();
        assert_eq!(cfg.total_functions(), 128);
        let funcs = cfg.enumerate();
        assert_eq!(funcs.iter().filter(|f| !f.is_virtual()).count(), 4);
        assert_eq!(funcs.iter().filter(|f| f.is_virtual()).count(), 124);
    }

    #[test]
    fn rejects_overflow_and_zero_pf() {
        assert!(SriovConfig::new(0, 10).is_err());
        assert!(SriovConfig::new(8, 121).is_err());
        assert!(SriovConfig::new(4, 124).is_ok());
        let err = SriovConfig::new(8, 121).unwrap_err();
        assert!(err.to_string().contains("129"));
    }

    #[test]
    fn bar_windows_are_disjoint_and_routable() {
        let cfg = SriovConfig::new(2, 6).unwrap();
        let funcs = cfg.enumerate();
        for (i, f) in funcs.iter().enumerate() {
            assert_eq!(f.id().index() as usize, i);
            assert_eq!(cfg.route(f.bar0()), Some(f.id()));
            assert_eq!(cfg.route(f.bar0() + (cfg.bar0_len() - 1)), Some(f.id()));
            for g in &funcs {
                if f.id() != g.id() {
                    assert!(!g.contains(f.bar0()), "{} overlaps {}", f.id(), g.id());
                }
            }
        }
        assert_eq!(cfg.route(PciAddr::new(0x1000)), None);
        let past_end = PciAddr::new(SriovConfig::DEFAULT_MMIO_BASE + 8 * cfg.bar0_len());
        assert_eq!(cfg.route(past_end), None);
    }

    #[test]
    fn vf_parents_round_robin() {
        let cfg = SriovConfig::new(2, 4).unwrap();
        let funcs = cfg.enumerate();
        let parents: Vec<u8> = funcs[2..]
            .iter()
            .map(|f| match f.kind() {
                FunctionKind::Virtual { parent } => parent.index(),
                FunctionKind::Physical => unreachable!(),
            })
            .collect();
        assert_eq!(parents, vec![0, 1, 0, 1]);
    }
}
