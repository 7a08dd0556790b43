//! # bm-testbed — the composed simulation testbed
//!
//! Wires hosts, schemes (native / VFIO / BM-Store / SPDK vhost / ARM
//! offload), and back-end SSDs into one deterministic event-driven
//! simulation, and exposes the [`Client`] trait workloads implement.
//!
//! ## Architecture: the scheme effects pipeline
//!
//! The crate is split along one seam:
//!
//! * [`schemes`] — each I/O scheme implements the [`schemes::Scheme`]
//!   trait. A hook receives a pipeline event (a submission, a doorbell,
//!   a backend completion) and appends typed [`schemes::Effect`]s to a
//!   buffer the world lends it; it never touches the scheduler.
//! * [`world`] — a generic interpreter. [`World`] drives clients,
//!   dispatches pipeline stages into the scheme, and interprets the
//!   returned effects (schedule a stage, ring a backend SSD, raise an
//!   interrupt, charge the completion stack, deliver to the client,
//!   trace). It contains no per-scheme branches after construction.
//!
//! Every command traverses the same five observable points — submit →
//! translate → doorbell → backend → complete — and the world counts
//! each ([`World::stage_count`]) and logs every fault and recovery
//! action ([`World::fault_events`]) itself.
//!
//! ## Observation
//!
//! The testbed owns one [`bm_sim::observe::Observer`] holding whichever
//! of the telemetry recorder, metrics registry, SLO engine and
//! self-profiler the [`TestbedConfig`] turns on; the world reaches it
//! through `&mut self`, and [`Testbed::observer`] reads it after a run.
//! The BM-Store engine keeps its own observer, off by default: the
//! BM-Store scheme (on the data path) and the world (on the management,
//! crash, recovery and re-insert paths) swap the world's observer into
//! the engine for one call with `BmsEngine::with_observer` and swap it
//! back out, so nothing is shared and every component stays `Send`.
//!
//! ## Running a workload
//!
//! ```
//! use bm_testbed::{PipelineStage, Testbed, TestbedConfig, World};
//!
//! let tb = Testbed::new(TestbedConfig::native(1).with_telemetry());
//! assert_eq!(tb.device_count(), 1);
//! let world = World::new(tb).run(None); // no clients: returns immediately
//! assert_eq!(world.tb.device_count(), 1);
//! assert_eq!(world.stage_count(PipelineStage::Submit), 0);
//! let spans = world.tb.observer().telemetry().map(|t| t.spans().len());
//! assert_eq!(spans, Some(0));
//! assert!(world.tb.observer().metrics().is_none(), "metrics stay off");
//! ```
//!
//! ## Worked example: adding a scheme
//!
//! Suppose you want to model a hypothetical "CXL window" scheme where
//! the doorbell write itself carries the command to the device. The
//! whole job is one module in `src/schemes/` plus two lines of wiring:
//!
//! 1. **Implement [`schemes::Scheme`]** in `src/schemes/cxl.rs`. Keep
//!    per-device backend state (which SSD, which queue) in the struct;
//!    the world owns everything else:
//!
//!    ```ignore
//!    pub(crate) struct CxlScheme {
//!        attach: Vec<(usize, QueueId)>,                 // per DeviceId
//!        direct_map: HashMap<(usize, u16), DeviceId>,   // completions
//!    }
//!
//!    impl Scheme for CxlScheme {
//!        fn name(&self) -> &'static str { "cxl-window" }
//!
//!        // Doorbell → forward to the SSD in the same hop (no BUS_HOP:
//!        // the window write is the transport).
//!        fn on_doorbell(&mut self, now, dev, tail, _ctx, out: &mut Vec<Effect>) {
//!            let (ssd, qid) = self.attach[dev.0];
//!            out.push(Effect::ForwardToSsd { at: now, ssd, qid, tail });
//!        }
//!
//!        // The interpreter hands back each SSD completion.
//!        fn on_stage(&mut self, now, stage, ctx, out: &mut Vec<Effect>) {
//!            let Stage::BackendComplete { ssd, io } = stage else { .. };
//!            Ssd::deliver_read_payload(&io, ctx.host_mem);
//!            let cqe = ctx.ssds[ssd].post_completion(&io, ctx.host_mem)?;
//!            let dev = self.direct_map[&(ssd, io.qid.0)];
//!            out.push(Effect::Trace { stage: PipelineStage::Backend });
//!            out.push(Effect::RaiseInterrupt { at: now, dev, cid: cqe.cid, status: cqe.status });
//!        }
//!
//!        fn ack_host_cq(&mut self, _now, dev, head, ctx) {
//!            let (ssd, qid) = self.attach[dev.0];
//!            ctx.ssds[ssd].ring_cq_doorbell(qid, head);
//!        }
//!    }
//!
//!    // Construction: allocate rings via ctx.alloc_rings, attach SSD
//!    // queue views, push one `Device` per spec, return the boxed scheme.
//!    pub(crate) fn build(ctx: &mut BuildCtx) -> Box<dyn Scheme> { .. }
//!    ```
//!
//! 2. **Wire it up**: add `pub mod cxl;` to `src/schemes/mod.rs`, a
//!    `SchemeKind` variant, and one match arm in `Testbed::new`. That
//!    match is the only place in the crate that names the scheme.
//!
//! Latency modelling guidance: submit-side costs go in
//! [`schemes::Scheme::submit`] (override the default to add e.g. a
//! virtio kick), transport hops go in the `at` fields of the effects
//! you emit, and completion-stack costs are charged uniformly by the
//! interpreter (`Effect::ChargeCpu`), so schemes never duplicate them.
//! The scheme-equivalence suite in `tests/scheme_equivalence.rs` will
//! pick the new scheme up and check payload integrity and determinism
//! against the others once it is added to its scheme list.

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

pub mod config;
pub mod schemes;
pub mod types;
pub mod world;

pub use config::{DeviceSpec, SchemeKind, TestbedConfig};
pub use schemes::{Effect, FaultTraceEvent, PipelineStage, Scheme, SchemeCtx, Stage};
pub use types::{BufferId, Client, ClientId, ClientOutput, Completion, DeviceId, IoOp, IoRequest};
pub use world::{ProfilerView, Testbed, World, WorldEvent};
