//! # bm-pcie — PCIe fabric model
//!
//! The transport substrate under both BM-Store and the baselines:
//!
//! * [`addr`] — bus addresses, BDF notation, and the flat [`FunctionId`]
//!   space the BMS-Engine routes DMA by,
//! * [`memory`] — simulated physical memory with real byte contents, the
//!   target of every DMA in the repository (data integrity through the
//!   whole stack is testable because bytes genuinely move),
//! * [`function`] / [`sriov`] — PCIe functions and the SR-IOV physical /
//!   virtual function structure the BMS-Engine exposes (4 PF + 124 VF),
//! * [`tlp`] — transaction-layer packets (memory read/write, completions,
//!   vendor messages) that the DMA-routing module inspects,
//! * [`link`] — Gen3 link timing: per-TLP latency and shared bandwidth,
//! * [`mctp`] — MCTP-over-PCIe packetization and reassembly, carrying the
//!   out-of-band NVMe-MI management traffic to the BMS-Controller.
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
pub mod function;
pub mod link;
pub mod mctp;
pub mod memory;
pub mod sriov;
pub mod tlp;

pub use addr::{Bdf, FunctionId, PciAddr};
pub use bus::DmaContext;
pub use function::{FunctionKind, PciFunction};
pub use link::{LinkGen, PcieLink};
pub use memory::HostMemory;
pub use sriov::SriovConfig;
pub use tlp::Tlp;
