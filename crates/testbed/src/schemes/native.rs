//! Direct-attach scheme: host rings registered straight at the SSD.
//!
//! Serves both bare-metal native I/O and VFIO passthrough
//! ([`vfio`](super::vfio)): the data path is identical hardware
//! queue-pair DMA; VFIO only adds the guest-side interrupt costs, which
//! live in the device's [`VmState`](crate::world) and are charged by
//! the interpreter.

use super::{BuildCtx, Effect, PipelineStage, Scheme, SchemeCtx, Stage, BUS_HOP, QUEUE_ENTRIES};
use crate::types::DeviceId;
use crate::world::{Device, VmState};
use bm_baselines::vfio::VfioCosts;
use bm_nvme::queue::{CompletionQueue, SubmissionQueue};
use bm_nvme::types::QueueId;
use bm_sim::resource::FifoServer;
use bm_sim::SimTime;

/// One whole SSD per device, rings registered at the hardware.
pub(crate) struct DirectScheme {
    name: &'static str,
    /// Per-device backend: (ssd index, SSD-side queue id).
    attach: Vec<(usize, QueueId)>,
}

/// Builds the native (bare-metal) scheme.
pub(crate) fn build(ctx: &mut BuildCtx) -> Box<dyn Scheme> {
    build_direct(ctx, false, "native")
}

/// Shared constructor for native and VFIO: identical data path, VFIO
/// adds per-device VM interrupt state.
pub(crate) fn build_direct(ctx: &mut BuildCtx, in_vm: bool, name: &'static str) -> Box<dyn Scheme> {
    let entries = QUEUE_ENTRIES;
    let specs = ctx.cfg.devices.clone();
    let mut attach = Vec::new();
    for (i, _spec) in specs.iter().enumerate() {
        assert!(i < ctx.ssds.len(), "one whole SSD per direct device");
        let (sq, cq) = ctx.alloc_rings(QueueId(1), entries);
        let ssd_sq = SubmissionQueue::new(QueueId(1), sq.base(), entries);
        let ssd_cq = CompletionQueue::new(QueueId(1), cq.base(), entries);
        let qid = ctx.ssds[i].attach_io_queues(ssd_sq, ssd_cq);
        let blocks = ctx.ssds[i].namespace().blocks();
        attach.push((i, qid));
        let vm = in_vm.then(|| VmState {
            irq_cpu: FifoServer::new(),
            costs: VfioCosts::paper_default(),
        });
        ctx.devices.push(Device::new(sq, cq, vm, blocks));
    }
    Box::new(DirectScheme { name, attach })
}

impl Scheme for DirectScheme {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_doorbell(
        &mut self,
        now: SimTime,
        dev: DeviceId,
        tail: u32,
        _ctx: &mut SchemeCtx,
        out: &mut Vec<Effect>,
    ) {
        let (ssd, qid) = self.attach[dev.0];
        out.push(Effect::ForwardToSsd {
            at: now + BUS_HOP,
            dev,
            ssd,
            qid,
            tail,
        });
    }

    fn on_stage(&mut self, now: SimTime, stage: Stage, ctx: &mut SchemeCtx, out: &mut Vec<Effect>) {
        match stage {
            Stage::BackendComplete { dev, ssd, slot } => {
                let Some(cqe) = ctx.post_backend_completion(now, dev, ssd, slot, out) else {
                    return;
                };
                out.push(Effect::Trace {
                    stage: PipelineStage::Backend,
                });
                // Hardware MSI straight to the host/guest.
                out.push(Effect::RaiseInterrupt {
                    at: now + BUS_HOP,
                    dev,
                    cid: cqe.cid,
                    status: cqe.status,
                });
            }
            other @ (Stage::Doorbell { .. }
            | Stage::Forward { .. }
            | Stage::GuestComplete { .. }
            | Stage::EngineDoorbell { .. }
            | Stage::EngineBackendDoorbell { .. }
            | Stage::EngineBackendComplete { .. }
            | Stage::EngineHostCompletion { .. }
            | Stage::EngineQosWakeup
            | Stage::EngineDeadline) => {
                unreachable!("direct scheme never schedules {other:?}")
            }
        }
    }

    fn ack_host_cq(&mut self, _now: SimTime, dev: DeviceId, head: u32, ctx: &mut SchemeCtx) {
        let (ssd, qid) = self.attach[dev.0];
        ctx.ssds[ssd].ring_cq_doorbell(qid, head);
    }
}
