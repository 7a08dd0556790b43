//! # bm-baselines — the schemes BM-Store is compared against
//!
//! Bare-metal direct attachment (the paper's baseline for Table V and
//! Fig. 8) has no scheme-specific cost beyond the host kernel profile,
//! so it has no model here; the testbed's native scheme runs it.
//!
//! * [`vfio`] — VFIO passthrough into a VM: near-native, but the whole
//!   device is monopolized by one guest (no sharing), and completions
//!   pay posted-interrupt delivery.
//! * [`spdk`] — SPDK vhost: dedicated host polling cores emulate
//!   virtio-blk for guests. Fast for small I/O, but each core burns a
//!   CPU (Fig. 1), per-core throughput ceilings bind under load, and
//!   the 3.10-kernel host path degrades badly on large blocks (the
//!   seq-r-256 anomaly of §V-C).
//! * [`arm_offload`] — a LeapIO-style full ARM offload used by the
//!   ablation benches: the paper cites it reaching only ~68 % of native
//!   throughput (§III-B).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod arm_offload;
pub mod spdk;
pub mod vfio;

pub use spdk::{SpdkVhost, SpdkVhostConfig};
pub use vfio::VfioCosts;
