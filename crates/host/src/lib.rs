//! # bm-host — host-side model
//!
//! Models the parts of the paper's testbed that live above PCIe:
//!
//! * [`kernel`] — per-OS/kernel I/O-stack profiles (submit/complete CPU
//!   costs, added latency, block-layer plugging behaviour). These carry
//!   Table VI: BM-Store itself is host-independent, but the measured
//!   numbers differ across kernels because the *host stack* differs.
//! * [`cpu`] — the host CPU pool: cores are busy-until resources, and
//!   polling schemes (SPDK vhost) reserve dedicated cores, which is the
//!   entire TCO argument of the paper.
//! * [`vm`] — the virtual-machine model: vCPU count, doorbell exit
//!   costs, and interrupt delivery costs per virtualization scheme.
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

pub mod cpu;
pub mod kernel;
pub mod vm;

pub use cpu::CpuPool;
pub use kernel::KernelProfile;
pub use vm::VmConfig;
