//! # bmstore — facade crate for the BM-Store reproduction
//!
//! Re-exports the workspace crates under one roof so examples and
//! integration tests can `use bmstore::...`. See the README for the
//! architecture overview and DESIGN.md for the full system inventory.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub use bm_baselines as baselines;
pub use bm_chaos as chaos;
pub use bm_host as host;
pub use bm_nvme as nvme;
pub use bm_pcie as pcie;
pub use bm_prof as prof;
pub use bm_sim as sim;
pub use bm_ssd as ssd;
pub use bm_testbed as testbed;
pub use bm_workloads as workloads;
pub use bmstore_core as core;
