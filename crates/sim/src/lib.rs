//! # bm-sim — deterministic discrete-event simulation engine
//!
//! Foundation substrate for the BM-Store reproduction. Provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`Simulation`] — an event loop over a user-supplied *world* type,
//!   with events ordered by `(time, sequence)` so that runs are fully
//!   deterministic,
//! * [`rng::SimRng`] — a seeded random number generator with the sampling
//!   helpers the device models need,
//! * [`stats`] — latency histograms with percentiles, counters and
//!   time-series recorders used by the benchmark harness,
//! * [`resource`] — reusable queueing primitives (busy servers, token
//!   buckets, shared bandwidth links) from which the device performance
//!   models are composed,
//! * [`faults`] — a deterministic, seeded fault-event vocabulary
//!   ([`faults::FaultPlan`]) interpreted by the testbed so any scheme
//!   can run under SSD, MCTP and PCIe-link misbehaviour,
//! * [`telemetry`] — a span/event recorder keyed by a [`telemetry::CmdId`]
//!   correlation ID, with per-(tenant, function, opcode, stage) latency
//!   aggregation and Chrome-trace/JSONL exporters,
//! * [`metrics`] — a deterministic counter/gauge/time-series registry
//!   sampled by a periodic simulator event, with a Little's-law
//!   bottleneck report and Prometheus/CSV exporters,
//! * [`telemetry::critical_path`] — per-command blame attribution
//!   (queue-wait vs service vs retry vs crash-recovery, per stage)
//!   aggregated into per-`(tenant, opcode)` blame profiles,
//! * [`slo`] — a per-tenant SLO engine with multi-window burn-rate
//!   alerting, a progress-stall watchdog, and deterministic incident
//!   reports correlating alerts, fault windows and blame profiles,
//! * [`observe`] — the one owned [`Observer`] that holds the telemetry
//!   recorder, metrics registry, SLO engine and self-profiler and feeds
//!   them one event stream.
//!
//! # Examples
//!
//! ```
//! use bm_sim::{Simulation, SimTime, SimDuration};
//!
//! struct World { ticks: u32 }
//!
//! let mut sim = Simulation::new(World { ticks: 0 });
//! sim.schedule_in(SimDuration::from_us(5), |w: &mut World, _sched| {
//!     w.ticks += 1;
//! });
//! sim.run_until_idle();
//! assert_eq!(sim.world().ticks, 1);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_us(5));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod engine;
pub mod faults;
pub mod metrics;
pub mod observe;
pub mod resource;
pub mod rng;
pub mod slo;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use engine::{Action, Event, SchedulePastError, Scheduler, Simulation};
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use observe::Observer;
pub use rng::SimRng;
pub use slo::{Alert, SloConfig, SloEngine, SloSpec};
pub use telemetry::CmdId;
pub use time::{SimDuration, SimTime};
