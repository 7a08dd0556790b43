//! Software-mediated data path shared by SPDK vhost and ARM offload.
//!
//! A `Mediator` polls the guest rings, pays its per-I/O processing
//! cost, forwards commands to backend rings it owns, consumes the
//! backend CQEs, and writes guest CQEs itself. The two concrete
//! mediators differ only in cost model, so everything ring-shaped
//! lives here once.

use super::{BuildCtx, Effect, PipelineStage, Scheme, SchemeCtx, Stage, BUS_HOP, QUEUE_ENTRIES};
use crate::types::DeviceId;
use crate::world::{Device, VmState};
use bm_baselines::vfio::VfioCosts;
use bm_host::kernel::KernelProfile;
use bm_nvme::command::{IoOpcode, Sqe};
use bm_nvme::queue::{CompletionQueue, SubmissionQueue};
use bm_nvme::types::{Lba, QueueId};
use bm_nvme::Cqe;
use bm_sim::resource::FifoServer;
use bm_sim::{SimDuration, SimTime};

/// Virtio kick cost on the guest (ioeventfd exit).
const VIRTIO_KICK: SimDuration = SimDuration::from_nanos(600);

/// The cost model of a software data path polling guest rings.
pub(crate) trait Mediator {
    /// Scheme name for diagnostics.
    fn scheme_name(&self) -> &'static str;
    /// A command was kicked at `now`; returns when the mediator has
    /// processed it and is ready to forward it to the backend.
    fn process_submission(&mut self, now: SimTime, bytes: u64, is_write: bool) -> SimTime;
    /// Delay from the backend CQE to the guest CQE + interrupt.
    fn completion_delay(&self) -> SimDuration;
    /// Host CPU seconds burnt polling so far.
    fn cpu_busy(&self) -> SimDuration {
        SimDuration::ZERO
    }
}

/// Per-device ring plumbing of a mediated device.
struct MediatedAttach {
    ssd: usize,
    qid: QueueId,
    lba_offset: u64,
    /// Mediator's consumer view of the guest SQ.
    fetch_sq: SubmissionQueue,
    /// Mediator's producer view of the SSD SQ.
    ssd_sq: SubmissionQueue,
    /// Fetched guest SQEs waiting for their [`Stage::Forward`], indexed
    /// by guest command id.
    parked: Vec<Sqe>,
    /// Mediator's producer view of the guest CQ.
    guest_cq: CompletionQueue,
    /// Consumer position on the SSD CQ (for its head doorbell).
    backend_cq_head: u16,
    backend_cq_entries: u16,
}

/// Guest rings polled by `M`, commands forwarded to backend rings the
/// mediator owns.
pub(crate) struct MediatedScheme<M: Mediator> {
    mediator: M,
    attach: Vec<MediatedAttach>,
}

/// Builds a mediated scheme around `mediator`. Devices carve slices of
/// the backend SSDs round-robin; `in_vm` adds guest interrupt state
/// (SPDK serves VMs, the ARM offload card serves the bare-metal host).
pub(crate) fn build<M: Mediator + 'static>(
    ctx: &mut BuildCtx,
    mediator: M,
    in_vm: bool,
) -> Box<dyn Scheme> {
    let entries = QUEUE_ENTRIES;
    let specs = ctx.cfg.devices.clone();
    let mut attach = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        let ssd = i % ctx.ssds.len();
        let size_blocks = spec.size_bytes / 4096;
        let lba_offset = (i / ctx.ssds.len()) as u64 * size_blocks;
        let (sq, cq) = ctx.alloc_rings(QueueId(1), entries);
        let fetch_sq = SubmissionQueue::new(QueueId(1), sq.base(), entries);
        let guest_cq = CompletionQueue::new(QueueId(1), cq.base(), entries);
        let (bsq, bcq) = ctx.alloc_rings(QueueId(1), entries);
        let ssd_view_sq = SubmissionQueue::new(QueueId(1), bsq.base(), entries);
        let ssd_view_cq = CompletionQueue::new(QueueId(1), bcq.base(), entries);
        let qid = ctx.ssds[ssd].attach_io_queues(ssd_view_sq, ssd_view_cq);
        attach.push(MediatedAttach {
            ssd,
            qid,
            lba_offset,
            fetch_sq,
            ssd_sq: bsq,
            parked: Vec::new(),
            guest_cq,
            backend_cq_head: 0,
            backend_cq_entries: entries,
        });
        let vm = in_vm.then(|| VmState {
            irq_cpu: FifoServer::new(),
            costs: VfioCosts {
                interrupt_delivery: SimDuration::from_us(4),
                ..VfioCosts::paper_default()
            },
        });
        ctx.devices.push(Device::new(sq, cq, vm, size_blocks));
    }
    Box::new(MediatedScheme { mediator, attach })
}

impl<M: Mediator> Scheme for MediatedScheme<M> {
    fn name(&self) -> &'static str {
        self.mediator.scheme_name()
    }

    fn translate(&self, dev: DeviceId, lba: Lba) -> Lba {
        Lba(lba.raw() + self.attach[dev.0].lba_offset)
    }

    fn submit(
        &mut self,
        now: SimTime,
        dev: DeviceId,
        sqe: &Sqe,
        kernel: &KernelProfile,
        out: &mut Vec<Effect>,
    ) {
        out.push(Effect::ScheduleAt {
            at: now + kernel.submit_cost + VIRTIO_KICK,
            stage: Stage::Doorbell { dev, cid: sqe.cid },
        });
    }

    fn on_doorbell(
        &mut self,
        now: SimTime,
        dev: DeviceId,
        tail: u32,
        ctx: &mut SchemeCtx,
        out: &mut Vec<Effect>,
    ) {
        // The poller notices the kick and fetches everything new.
        let att = &mut self.attach[dev.0];
        let _ = att.fetch_sq.doorbell_tail(tail);
        while let Ok(Some(sqe)) = att.fetch_sq.fetch(ctx.host_mem) {
            let bytes = sqe.transfer_len(4096);
            let is_write = sqe.io_opcode() == Some(IoOpcode::Write);
            let ready = self.mediator.process_submission(now, bytes, is_write);
            let slot = usize::from(sqe.cid.0);
            if slot >= att.parked.len() {
                att.parked.resize(slot + 1, sqe);
            }
            att.parked[slot] = sqe;
            out.push(Effect::ScheduleAt {
                at: ready,
                stage: Stage::Forward { dev, cid: sqe.cid },
            });
        }
    }

    fn on_stage(&mut self, now: SimTime, stage: Stage, ctx: &mut SchemeCtx, out: &mut Vec<Effect>) {
        match stage {
            // Mediator data path: push the SQE into the SSD's ring and
            // ring its doorbell.
            Stage::Forward { dev, cid } => {
                let att = &mut self.attach[dev.0];
                let sqe = att.parked[usize::from(cid.0)];
                #[expect(
                    clippy::expect_used,
                    reason = "panic-path debt (ROADMAP item 4): the back-end ring is sized above the guest queue depth"
                )]
                att.ssd_sq
                    .push(ctx.host_mem, &sqe)
                    .expect("backend ring sized above queue depth");
                out.push(Effect::ForwardToSsd {
                    at: now + BUS_HOP,
                    dev,
                    ssd: att.ssd,
                    qid: att.qid,
                    tail: att.ssd_sq.tail() as u32,
                });
            }
            Stage::BackendComplete { dev, ssd, slot } => {
                let Some(cqe) = ctx.post_backend_completion(now, dev, ssd, slot, out) else {
                    return;
                };
                // The mediator consumes the backend CQE (polling) and
                // acks the SSD CQ immediately.
                let att = &mut self.attach[dev.0];
                att.backend_cq_head = (att.backend_cq_head + 1) % att.backend_cq_entries;
                // The mediator's producer view of the SSD SQ learns the
                // consumption from the CQE.
                att.ssd_sq.sync_head(cqe.sq_head);
                ctx.ssds[ssd].ring_cq_doorbell(att.qid, att.backend_cq_head as u32);
                out.push(Effect::Trace {
                    stage: PipelineStage::Backend,
                });
                out.push(Effect::ScheduleAt {
                    at: now + self.mediator.completion_delay(),
                    stage: Stage::GuestComplete {
                        dev,
                        cid: cqe.cid,
                        status: cqe.status,
                    },
                });
            }
            // The mediator writes the guest CQE and injects the
            // interrupt in the same instant (`at == now` makes the
            // interpreter take it inline).
            Stage::GuestComplete { dev, cid, status } => {
                let cqe = Cqe {
                    result: 0,
                    sq_head: 0,
                    sq_id: QueueId(1),
                    cid,
                    phase: false,
                    status,
                };
                #[expect(
                    clippy::expect_used,
                    reason = "panic-path debt (ROADMAP item 4): the guest CQ is sized above the guest queue depth"
                )]
                self.attach[dev.0]
                    .guest_cq
                    .post(ctx.host_mem, cqe)
                    .expect("guest CQ sized above queue depth");
                out.push(Effect::RaiseInterrupt {
                    at: now,
                    dev,
                    cid,
                    status,
                });
            }
            other @ (Stage::Doorbell { .. }
            | Stage::EngineDoorbell { .. }
            | Stage::EngineBackendDoorbell { .. }
            | Stage::EngineBackendComplete { .. }
            | Stage::EngineHostCompletion { .. }
            | Stage::EngineQosWakeup
            | Stage::EngineDeadline) => {
                unreachable!("mediated scheme never schedules {other:?}")
            }
        }
    }

    fn ack_host_cq(&mut self, _now: SimTime, dev: DeviceId, head: u32, _ctx: &mut SchemeCtx) {
        let _ = self.attach[dev.0].guest_cq.doorbell_head(head);
    }

    fn polling_cpu_busy(&self) -> SimDuration {
        self.mediator.cpu_busy()
    }
}
