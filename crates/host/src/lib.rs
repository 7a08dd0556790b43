//! # bm-host — host-side model
//!
//! Models the part of the paper's testbed that lives above PCIe and
//! differs between hosts:
//!
//! * [`kernel`] — per-OS/kernel I/O-stack profiles (submit/complete CPU
//!   costs, added latency, block-layer plugging behaviour). These carry
//!   Table VI: BM-Store itself is host-independent, but the measured
//!   numbers differ across kernels because the *host stack* differs.
//! * [`HOST_CORES`] — the host's core count, the ceiling on how many
//!   cores a polling scheme (SPDK vhost) can dedicate.
//!
//! The guest side (doorbell exits, interrupt delivery) is the testbed's
//! per-VM state over `bm_baselines::vfio::VfioCosts`; a polling
//! scheme's cores are the baseline model's own servers.
//!
//! # Examples
//!
//! ```
//! use bm_host::kernel::KernelProfile;
//! let k = KernelProfile::centos79_310();
//! assert!(k.submit_cost.as_micros_f64() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod kernel;

pub use kernel::KernelProfile;

/// Cores of the paper's host: two 24-core Xeon 8163 sockets with
/// hyper-threading disabled (Table III, §V-A).
pub const HOST_CORES: usize = 48;
