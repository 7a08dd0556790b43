//! # bm-nvme — NVMe protocol model
//!
//! The wire-level NVMe machinery shared by the host driver model, the
//! SSD device model, and the BMS-Engine:
//!
//! * [`types`] — LBAs, namespace ids, command ids, queue ids,
//! * [`command`] — submission-queue entries with faithful 64-byte
//!   encoding (opcode, CID, NSID, PRP1/PRP2, SLBA, NLB) and
//!   completion-queue entries with the 16-byte layout (phase bit,
//!   status, SQ head),
//! * [`status`] — NVMe status codes,
//! * [`queue`] — SQ/CQ rings that live in simulated host memory and are
//!   operated through real memory reads/writes, plus the doorbell
//!   register layout,
//! * [`prp`] — PRP entry and PRP-list construction/walking (the data
//!   structure the BMS-Engine's global-PRP mechanism extends),
//! * [`namespace`] — namespace geometry,
//! * [`identify`] — identify-controller/namespace pages,
//! * [`mi`] — the NVMe Management Interface command set carried over
//!   MCTP to the BMS-Controller,
//! * [`log_page`] — the BM-Store vendor telemetry log page the
//!   controller serves out-of-band (per-function counters, outstanding
//!   gauge, latency buckets).
//!
//! # Examples
//!
//! ```
//! use bm_nvme::command::{IoOpcode, Sqe};
//! use bm_nvme::types::{Cid, Lba, Nsid};
//! use bm_pcie::PciAddr;
//!
//! let sqe = Sqe::io(
//!     IoOpcode::Read,
//!     Cid(7),
//!     Nsid::new(1).unwrap(),
//!     Lba(0x1234),
//!     8,
//!     PciAddr::new(0x2000),
//!     PciAddr::NULL,
//! );
//! let bytes = sqe.to_bytes();
//! assert_eq!(Sqe::from_bytes(&bytes).unwrap(), sqe);
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

pub mod command;
pub mod identify;
pub mod log_page;
pub mod mi;
pub mod namespace;
pub mod prp;
pub mod queue;
pub mod status;
pub mod types;

pub use command::{AdminOpcode, Cqe, IoOpcode, Opcode, Sqe};
pub use namespace::Namespace;
pub use queue::{BadSqe, CompletionQueue, DoorbellLayout, SubmissionQueue};
pub use status::Status;
pub use types::{Cid, Lba, Nsid, QueueId};
