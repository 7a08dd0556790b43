//! Direct-attach scheme: host rings registered straight at the SSD.
//!
//! Serves both bare-metal native I/O and VFIO passthrough
//! ([`vfio`](super::vfio)): the data path is identical hardware
//! queue-pair DMA; VFIO only adds the guest-side interrupt costs, which
//! live in the device's [`VmState`](crate::world) and are charged by
//! the interpreter.

use super::{BuildCtx, Effect, PipelineStage, Scheme, SchemeCtx, Stage, BUS_HOP};
use crate::types::DeviceId;
use crate::world::{Device, VmState};
use bm_baselines::vfio::VfioCosts;
use bm_nvme::queue::{CompletionQueue, SubmissionQueue};
use bm_nvme::types::QueueId;
use bm_sim::resource::FifoServer;
use bm_sim::{SimDuration, SimTime};
use bm_ssd::Ssd;
use std::collections::BTreeMap;

/// One whole SSD per device, rings registered at the hardware.
pub(crate) struct DirectScheme {
    name: &'static str,
    /// Per-device backend: (ssd index, SSD-side queue id).
    attach: Vec<(usize, QueueId)>,
    /// Maps (ssd index, backend qid) → device for completions.
    direct_map: BTreeMap<(usize, u16), DeviceId>,
}

/// Builds the native (bare-metal) scheme.
pub(crate) fn build(ctx: &mut BuildCtx) -> Box<dyn Scheme> {
    build_direct(ctx, false, "native")
}

/// Shared constructor for native and VFIO: identical data path, VFIO
/// adds per-device VM interrupt state.
pub(crate) fn build_direct(ctx: &mut BuildCtx, in_vm: bool, name: &'static str) -> Box<dyn Scheme> {
    let entries = ctx.cfg.queue_entries;
    let specs = ctx.cfg.devices.clone();
    let mut attach = Vec::new();
    let mut direct_map = BTreeMap::new();
    for (i, _spec) in specs.iter().enumerate() {
        assert!(i < ctx.ssds.len(), "one whole SSD per direct device");
        let (sq, cq) = ctx.alloc_rings(QueueId(1), entries);
        let ssd_sq = SubmissionQueue::new(QueueId(1), sq.base(), entries);
        let ssd_cq = CompletionQueue::new(QueueId(1), cq.base(), entries);
        let qid = ctx.ssds[i].attach_io_queues(ssd_sq, ssd_cq);
        let blocks = ctx.ssds[i].namespace().blocks();
        direct_map.insert((i, qid.0), DeviceId(i));
        attach.push((i, qid));
        let vm = in_vm.then(|| VmState {
            irq_cpu: FifoServer::new(),
            costs: VfioCosts::paper_default(),
        });
        ctx.devices.push(Device::new(sq, cq, vm, blocks));
    }
    Box::new(DirectScheme {
        name,
        attach,
        direct_map,
    })
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
            ssd,
            qid,
            tail,
        });
    }

    fn on_stage(&mut self, now: SimTime, stage: Stage, ctx: &mut SchemeCtx, out: &mut Vec<Effect>) {
        match stage {
            Stage::BackendComplete { ssd, slot } => {
                let io = ctx.completions.get(slot);
                Ssd::deliver_read_payload(io, ctx.host_mem);
                let cqe = match ctx.ssds[ssd].post_completion(io, ctx.host_mem) {
                    Ok(cqe) => cqe,
                    Err(_) => {
                        // CQ full: retry after the host consumes.
                        out.push(Effect::ScheduleAt {
                            at: now + SimDuration::from_us(1),
                            stage: Stage::BackendComplete { ssd, slot },
                        });
                        return;
                    }
                };
                let qid = io.qid;
                ctx.completions.release(slot);
                #[expect(
                    clippy::expect_used,
                    reason = "panic-path debt (ROADMAP item 4): completions arrive only on queues the scheme mapped at build time"
                )]
                let dev = *self
                    .direct_map
                    .get(&(ssd, qid.0))
                    .expect("completion for mapped queue");
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
            | Stage::EngineDeadline { .. }) => {
                unreachable!("direct scheme never schedules {other:?}")
            }
        }
    }

    fn ack_host_cq(&mut self, _now: SimTime, dev: DeviceId, head: u32, ctx: &mut SchemeCtx) {
        let (ssd, qid) = self.attach[dev.0];
        ctx.ssds[ssd].ring_cq_doorbell(qid, head);
    }
}
