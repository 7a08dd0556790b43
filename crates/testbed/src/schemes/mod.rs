//! The scheme effects pipeline.
//!
//! Every I/O scheme the testbed can run (native rings, VFIO
//! passthrough, the BM-Store engine, SPDK vhost, ARM offload)
//! implements one trait, [`Scheme`]. A scheme never touches the
//! scheduler: each hook appends [`Effect`]s to a buffer the world lends
//! it (pooled, so the hot path allocates none), and the generic event
//! loop in [`crate::world::World`] interprets them — scheduling
//! pipeline continuations ([`Stage`]), ringing backend doorbells,
//! raising interrupts, charging the host completion stack, delivering
//! to clients, and counting pipeline stages and fault events.
//!
//! ```text
//! submit ─▶ Stage::Doorbell ─▶ scheme hooks ─▶ Effect::ForwardToSsd
//!    ▲                                               │
//!    └── CompleteToClient ◀─ ChargeCpu ◀─ RaiseInterrupt ◀─ Stage::BackendComplete
//! ```
//!
//! Determinism: effects are applied strictly in the order a hook
//! appends them, and the scheduler breaks timestamp ties by insertion
//! order, so a scheme's event interleaving is a pure function of its
//! hook outputs.

pub mod arm_offload;
pub mod bm_store;
pub mod mediated;
pub mod native;
pub mod spdk;
pub mod vfio;

use crate::config::TestbedConfig;
use crate::types::DeviceId;
use crate::world::Device;
use bm_host::kernel::KernelProfile;
use bm_nvme::command::{Sqe, CQE_SIZE, SQE_SIZE};
use bm_nvme::queue::{CompletionQueue, SubmissionQueue};
use bm_nvme::types::{Cid, Lba, QueueId};
use bm_nvme::Status;
use bm_pcie::{FunctionId, HostMemory};
use bm_sim::observe::Observer;
use bm_sim::{SimDuration, SimTime};
use bm_ssd::{CompletedIo, Ssd, SsdId};
use bmstore_core::controller::BmsController;
use bmstore_core::engine::{BmsEngine, EngineAction};

/// Latency of a doorbell/MSI hop across the PCIe fabric.
pub(crate) const BUS_HOP: SimDuration = SimDuration::from_nanos(300);

/// Construction-time view of the testbed handed to the scheme
/// builders: they allocate rings, attach SSD queue views, and push the
/// tenant [`Device`]s they serve.
pub(crate) struct BuildCtx<'a> {
    pub(crate) cfg: &'a TestbedConfig,
    pub(crate) host_mem: &'a mut HostMemory,
    pub(crate) ssds: &'a mut Vec<Ssd>,
    pub(crate) devices: &'a mut Vec<Device>,
}

impl BuildCtx<'_> {
    /// Allocates an SQ/CQ pair of `entries` slots in host memory.
    pub(crate) fn alloc_rings(
        &mut self,
        qid: QueueId,
        entries: u16,
    ) -> (SubmissionQueue, CompletionQueue) {
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): host memory is sized for every ring; exhaustion is a harness sizing bug"
        )]
        let sq_base = self
            .host_mem
            .alloc(entries as u64 * SQE_SIZE)
            .expect("ring memory");
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): host memory is sized for every ring; exhaustion is a harness sizing bug"
        )]
        let cq_base = self
            .host_mem
            .alloc(entries as u64 * CQE_SIZE)
            .expect("ring memory");
        (
            SubmissionQueue::new(qid, sq_base, entries),
            CompletionQueue::new(qid, cq_base, entries),
        )
    }
}

/// Mutable testbed resources a scheme hook may touch: host physical
/// memory (rings, payloads) and the backend SSD models. Everything
/// else (devices, clients, the scheduler) is owned by the interpreter.
pub struct SchemeCtx<'a> {
    /// Host physical memory.
    pub host_mem: &'a mut HostMemory,
    /// Backend SSD models, indexed as configured.
    pub ssds: &'a mut Vec<Ssd>,
    /// The host kernel cost profile.
    pub kernel: &'a KernelProfile,
    /// The world's observer, which a scheme lends to the model it
    /// drives for the duration of the hook.
    pub obs: &'a mut Observer,
    /// Plain-DMA backend completions whose [`Stage::BackendComplete`]
    /// has not run to the end yet.
    pub completions: &'a mut CompletionSlots,
}

/// Where a [`Stage::BackendComplete`] finds its completion in
/// [`CompletionSlots`].
#[derive(Debug, Clone, Copy)]
pub struct CompletionSlot(u32);

/// Backend completions between the doorbell that produced them and the
/// stage that posts them, in recycled slots: the scheduled stage
/// carries a slot index, not the 72-byte completion, and a warm table
/// allocates nothing.
#[derive(Debug, Default)]
pub struct CompletionSlots {
    slots: Vec<CompletedIo>,
    /// Released slots, reused last-in first-out.
    free: Vec<CompletionSlot>,
}

impl CompletionSlots {
    /// Keeps `io` until its slot is released.
    pub(crate) fn park(&mut self, io: CompletedIo) -> CompletionSlot {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot.0 as usize] = io;
                slot
            }
            None => {
                self.slots.push(io);
                CompletionSlot(self.slots.len() as u32 - 1)
            }
        }
    }

    /// The completion parked in `slot`.
    pub fn get(&self, slot: CompletionSlot) -> &CompletedIo {
        &self.slots[slot.0 as usize]
    }

    /// Frees `slot` once its stage has posted the completion (a stage
    /// that retries later keeps it). Drops the read payload it held.
    pub fn release(&mut self, slot: CompletionSlot) {
        self.slots[slot.0 as usize].read_payload = None;
        self.free.push(slot);
    }
}

/// A deferred pipeline continuation. Stages are small (the scheduler
/// stores them inline and moves them on every event): a stage that
/// needs a fetched SQE or a backend completion carries the key under
/// which the scheme or [`CompletionSlots`] keeps it.
#[derive(Debug)]
pub enum Stage {
    /// `dev`'s SQ tail doorbell rings after the submit-side latency.
    /// Dispatched to [`Scheme::on_doorbell`] with the tail read at
    /// dispatch time; `cid` is the command that triggered it (carried
    /// for observation only).
    Doorbell {
        /// Device whose doorbell rings.
        dev: DeviceId,
        /// Command that triggered the ring.
        cid: Cid,
    },
    /// Mediated: one guest SQE leaves the mediator for the backend
    /// ring.
    Forward {
        /// Mediated device the SQE came from.
        dev: DeviceId,
        /// Its guest command id, under which the mediator parked the
        /// SQE it fetched (unique while the command is outstanding).
        cid: Cid,
    },
    /// A backend SSD on a plain-DMA ring finished a command (scheduled
    /// by [`Effect::ForwardToSsd`]).
    BackendComplete {
        /// Backend SSD index.
        ssd: usize,
        /// The finished command, in [`SchemeCtx::completions`].
        slot: CompletionSlot,
    },
    /// Mediated: the mediator writes the guest CQE and injects the
    /// interrupt.
    GuestComplete {
        /// Mediated device to complete on.
        dev: DeviceId,
        /// Completed command id.
        cid: Cid,
        /// Completion status.
        status: Status,
    },
    /// BM-Store: the host SQ-tail doorbell write reaches the engine.
    EngineDoorbell {
        /// Front-end function.
        func: FunctionId,
        /// Queue within the function.
        qid: QueueId,
        /// Tail value written.
        tail: u32,
    },
    /// BM-Store: the engine rings a backend SSD's SQ doorbell.
    EngineBackendDoorbell {
        /// Backend SSD behind the engine.
        ssd: SsdId,
        /// Tail value the engine wrote.
        tail: u32,
        /// Engine incarnation that minted the write. A crash bumps the
        /// engine's epoch, so in-flight doorbells from the dead
        /// instance are dropped when they land (the rings they
        /// targeted were reset).
        epoch: u64,
    },
    /// BM-Store: a backend SSD behind the engine's DMA router finished
    /// a batch of commands sharing one completion instant. Consecutive
    /// equal-time completions from one doorbell sweep ride a single
    /// scheduled event; the handler services each command in order, so
    /// the observable effect stream is identical to one event per
    /// command (the batch members held consecutive sequence numbers
    /// anyway).
    EngineBackendComplete {
        /// Backend SSD behind the engine.
        ssd: SsdId,
        /// The finished commands, in completion order.
        ios: Vec<CompletedIo>,
        /// Engine incarnation whose doorbell produced these
        /// completions; stale-epoch batches are dropped (the dead
        /// instance's command table no longer exists).
        epoch: u64,
    },
    /// BM-Store: the engine posts a host CQE (retried while the host
    /// CQ is full).
    EngineHostCompletion {
        /// Front-end function.
        func: FunctionId,
        /// Queue within the function.
        qid: QueueId,
        /// Completed command id.
        cid: Cid,
        /// Completion status.
        status: Status,
    },
    /// BM-Store: QoS pacing wakeup.
    EngineQosWakeup,
    /// BM-Store: a forwarded command's timeout deadline expires
    /// (dispatched to the engine's `check_deadline`; a no-op when the
    /// attempt completed in time). Only scheduled when the engine's
    /// command timeout is armed.
    EngineDeadline {
        /// Backend SSD the attempt targeted.
        ssd: SsdId,
        /// The forwarding attempt's sequence number.
        seq: u64,
    },
}

/// One typed output of a scheme hook, interpreted by the world's
/// generic event loop.
#[derive(Debug)]
pub enum Effect {
    /// Run `stage` at `at`. Ties on `at` preserve emission order.
    ScheduleAt {
        /// When the stage runs.
        at: SimTime,
        /// The continuation.
        stage: Stage,
    },
    /// Ring backend SSD `ssd`'s SQ doorbell at `at` over plain host
    /// DMA. Every resulting completion re-enters the pipeline as a
    /// [`Stage::BackendComplete`] at its completion time.
    ForwardToSsd {
        /// When the doorbell write lands.
        at: SimTime,
        /// Backend SSD index.
        ssd: usize,
        /// The SSD-side queue.
        qid: QueueId,
        /// Tail value to write.
        tail: u32,
    },
    /// Interrupt (MSI or mediator injection) at the host/guest owning
    /// `dev`: consume the CQE, acknowledge it through
    /// [`Scheme::ack_host_cq`], then charge the completion stack.
    /// Applied inline when `at` is not in the future (a mediator
    /// completing synchronously); scheduled otherwise.
    RaiseInterrupt {
        /// When the interrupt fires.
        at: SimTime,
        /// Interrupted device.
        dev: DeviceId,
        /// Fallback command id if the CQ poll comes up empty.
        cid: Cid,
        /// Fallback status if the CQ poll comes up empty.
        status: Status,
    },
    /// Charge the host completion stack for `dev` now — the guest IRQ
    /// vCPU (VM devices) or the per-queue softirq context — and emit a
    /// [`Effect::CompleteToClient`] at the resulting time.
    ChargeCpu {
        /// Device whose completion stack is charged.
        dev: DeviceId,
        /// Completed command id.
        cid: Cid,
        /// Completion status.
        status: Status,
    },
    /// Deliver the completion to the owning client at `at`.
    CompleteToClient {
        /// Delivery time.
        at: SimTime,
        /// Completed device.
        dev: DeviceId,
        /// Completed command id.
        cid: Cid,
        /// Completion status.
        status: Status,
    },
    /// Count one command passing `stage` (see `World::stage_count`).
    Trace {
        /// Pipeline point passed.
        stage: PipelineStage,
    },
    /// Log that a fault was injected or a recovery action was taken
    /// (never silent, per the fault model; see `World::fault_events`).
    FaultTrace {
        /// What happened.
        event: FaultTraceEvent,
    },
}

/// A fault or recovery action, as logged by the world. Injections come from the testbed's `FaultPlan`
/// interpreter; recoveries come from the engine's timeout machinery
/// and the management-link retransmit logic.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultTraceEvent {
    /// A `FaultPlan` event was injected into its target layer.
    Injected(bm_sim::faults::FaultKind),
    /// The management link dropped an MCTP packet.
    MctpPacketDropped,
    /// The management console retransmitted a request after a drop.
    MctpRetransmit {
        /// Retransmission attempt number (1 = first resend).
        attempt: u32,
    },
    /// A bus crossing was deferred to the end of a PCIe link-retrain
    /// window.
    LinkDeferred {
        /// When the deferred crossing actually happens.
        until: SimTime,
    },
    /// The engine's timeout machinery acted (retry, abort, quiesce, or
    /// slot reclamation).
    EngineRecovery(bmstore_core::engine::RecoveryEvent),
}

/// The points of the I/O pipeline the world counts commands at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// SQE built and pushed into the host SQ.
    Submit,
    /// Host LBA translated to the backend LBA.
    Translate,
    /// SQ tail doorbell rang at the scheme.
    Doorbell,
    /// Backend completion reached the host boundary.
    Backend,
    /// Completion delivered to the owning client.
    Complete,
}

impl PipelineStage {
    /// All stages, in pipeline order.
    pub const ALL: [PipelineStage; 5] = [
        PipelineStage::Submit,
        PipelineStage::Translate,
        PipelineStage::Doorbell,
        PipelineStage::Backend,
        PipelineStage::Complete,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            PipelineStage::Submit => 0,
            PipelineStage::Translate => 1,
            PipelineStage::Doorbell => 2,
            PipelineStage::Backend => 3,
            PipelineStage::Complete => 4,
        }
    }
}

/// One I/O scheme: how submissions reach a backend and how
/// completions come home. Implementations live in the sibling modules
/// ([`native`], [`bm_store`], [`spdk`], [`arm_offload`], with
/// [`mediated`] providing the shared software-mediation core); the
/// world selects one at construction time and never branches on the
/// scheme kind again.
pub trait Scheme {
    /// Short scheme name for diagnostics.
    fn name(&self) -> &'static str;

    /// Translates a host-visible LBA to the backend LBA for `dev`
    /// (identity for whole-disk schemes).
    fn translate(&self, dev: DeviceId, lba: Lba) -> Lba {
        let _ = dev;
        lba
    }

    /// A request for `dev` was pushed into its SQ at `now`. Appends to
    /// `out` the effects that carry it to the scheme's doorbell;
    /// submit-side latency beyond the kernel's submit cost lives here.
    /// The default rings the doorbell after the kernel submit path.
    fn submit(
        &mut self,
        now: SimTime,
        dev: DeviceId,
        sqe: &Sqe,
        kernel: &KernelProfile,
        out: &mut Vec<Effect>,
    ) {
        out.push(Effect::ScheduleAt {
            at: now + kernel.submit_cost,
            stage: Stage::Doorbell { dev, cid: sqe.cid },
        });
    }

    /// `dev`'s SQ tail doorbell (value `tail`) lands at the scheme.
    /// Appends the resulting effects to `out`.
    fn on_doorbell(
        &mut self,
        now: SimTime,
        dev: DeviceId,
        tail: u32,
        ctx: &mut SchemeCtx,
        out: &mut Vec<Effect>,
    );

    /// A pipeline continuation scheduled by an earlier effect fires;
    /// appends the resulting effects to `out`. Never called with
    /// [`Stage::Doorbell`] (that one is routed to
    /// [`Scheme::on_doorbell`] with the tail read at dispatch time).
    fn on_stage(&mut self, now: SimTime, stage: Stage, ctx: &mut SchemeCtx, out: &mut Vec<Effect>);

    /// The host consumed `dev`'s CQ up to `head`: acknowledge it
    /// backward (SSD CQ doorbell, guest CQ head, or engine CQ-head
    /// doorbell).
    fn ack_host_cq(&mut self, now: SimTime, dev: DeviceId, head: u32, ctx: &mut SchemeCtx);

    /// Host CPU seconds burnt by polling cores (non-zero only for
    /// SPDK vhost).
    fn polling_cpu_busy(&self) -> SimDuration {
        SimDuration::ZERO
    }

    /// BM-Store management plane (engine + controller), if present.
    fn bm_parts(&mut self) -> Option<(&mut BmsEngine, &mut BmsController)> {
        None
    }

    /// The BMS-Engine, if this scheme has one.
    fn engine(&self) -> Option<&BmsEngine> {
        None
    }

    /// The BMS-Controller, if this scheme has one.
    fn controller(&self) -> Option<&BmsController> {
        None
    }

    /// Converts engine actions produced outside the I/O path (the
    /// management plane) into effects appended to `out`. Non-BM-Store
    /// schemes have no engine and add nothing.
    fn on_engine_actions(&mut self, actions: Vec<EngineAction>, out: &mut Vec<Effect>) {
        let _ = (actions, out);
    }
}
