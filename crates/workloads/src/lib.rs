//! # bm-workloads — workload generators
//!
//! The drivers that exercise the testbed:
//!
//! * [`fio`] — the Table IV synthetic cases (random/sequential
//!   read/write at block size × queue depth × jobs), closed-loop,
//! * [`kvstore`] — a miniature LSM key-value store (WAL, memtable,
//!   SSTs, compaction) standing in for RocksDB, driven by [`ycsb`],
//! * [`oltp`] — a miniature page-based OLTP engine (buffer pool + redo
//!   log) standing in for MySQL, driven by TPC-C and Sysbench mixes,
//! * [`mixed`] — the §V-E multi-VM mixed-workload scenario.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod fio;
pub mod kvstore;
pub mod mixed;
pub mod oltp;
pub mod ycsb;

pub use fio::{run_fio, FioResult, FioSpec, RwMode};
