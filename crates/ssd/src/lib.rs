//! # bm-ssd — NVMe SSD device model
//!
//! A behavioural and performance model of the Intel P4510-class NVMe
//! SSDs the paper's testbed attaches behind the BM-Store card:
//!
//! * [`calibration`] — named performance profiles with provenance; the
//!   default reproduces the P4510 2 TB envelope implied by the paper's
//!   own measurements (Table V / Fig. 8),
//! * [`perf`] — the queueing model: die-level read parallelism, a read
//!   bandwidth ceiling, and a write-cache drain pipe,
//! * [`store`] — logical block contents (full capture for integrity
//!   tests, deterministic patterns otherwise),
//! * [`firmware`] — firmware slots, image download/commit, and the
//!   activation freeze that hot-upgrade must mask,
//! * [`device`] — the controller: fetches SQEs from its rings through a
//!   [`DmaContext`](bm_pcie::DmaContext), walks PRPs, moves real bytes,
//!   and emits timed completions.
//!
//! # Examples
//!
//! ```
//! use bm_ssd::{Ssd, SsdConfig, SsdId};
//!
//! let ssd = Ssd::new(SsdConfig::p4510_2tb(SsdId(0)));
//! assert_eq!(ssd.capacity_bytes(), 2_000_000_000_000);
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

pub mod calibration;
pub mod device;
pub mod firmware;
pub mod perf;
pub mod store;

pub use calibration::PerfProfile;
pub use device::{CompletedIo, DataMode, ServiceStats, Ssd, SsdConfig, SsdId};
pub use firmware::{CommitAction, FirmwareBank};
pub use perf::PerfModel;
pub use store::BlockStore;
