//! # bmstore-core — the paper's contribution
//!
//! The two halves of BM-Store:
//!
//! * [`engine`] — the FPGA **BMS-Engine**: SR-IOV front-end, target
//!   controller, LBA mapping table (Fig. 4a), QoS (Fig. 5), global-PRP
//!   DMA routing (Fig. 4b), host adaptor, I/O counters, and the
//!   Table II resource model.
//! * [`controller`] — the ARM **BMS-Controller**: MCTP endpoint,
//!   NVMe-MI protocol analyzer, out-of-band management verbs, I/O
//!   monitor, hot-upgrade and hot-plug state machines.
//! * [`tco`] — the §VI-C total-cost-of-ownership model.
//!
//! See `DESIGN.md` at the repository root for the experiment index.

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

pub mod controller;
pub mod engine;
pub mod tco;

pub use engine::{
    BmsEngine, EngineAction, EngineConfig, EngineTiming, FailPolicy, Placement, RecoveryEvent,
    ResilienceStats,
};
