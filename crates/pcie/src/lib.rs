//! # bm-pcie — PCIe fabric model
//!
//! The transport substrate under both BM-Store and the baselines:
//!
//! * [`addr`] — bus addresses and the flat [`FunctionId`] space (4 PF +
//!   124 VF) the BMS-Engine routes DMA by,
//! * [`bus`] — the [`DmaContext`] seam: a device's DMA is an
//!   address-routed load or store, which plain host memory serves
//!   directly and the BMS-Engine's router serves by the function tag in
//!   each address,
//! * [`memory`] — simulated physical memory with real byte contents, the
//!   target of every DMA in the repository (data integrity through the
//!   whole stack is testable because bytes genuinely move), with a page
//!   allocator for buffers and rings and a 256-byte block allocator for
//!   short PRP lists,
//! * [`mctp`] — MCTP-over-PCIe packetization and reassembly, carrying the
//!   out-of-band NVMe-MI management traffic to the BMS-Controller.
//!
//! DMA is modelled per access, not per packet: the wire timing of a
//! transfer is charged by the scheme that issues it (a fixed bus hop, or
//! a `bm_sim::resource::BandwidthLink` for the store-and-forward
//! ablation).
//!
//! # Examples
//!
//! ```
//! use bm_pcie::memory::HostMemory;
//!
//! let mut mem = HostMemory::new(1 << 30); // 1 GiB host DRAM
//! let buf = mem.alloc(4096).unwrap();
//! mem.write(buf, b"hello");
//! assert_eq!(mem.read_vec(buf, 5), b"hello");
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::wildcard_enum_match_arm
    )
)]

pub mod addr;
pub mod bus;
pub mod mctp;
pub mod memory;

pub use addr::{FunctionId, PciAddr};
pub use bus::DmaContext;
pub use memory::HostMemory;
