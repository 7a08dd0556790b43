//! BM-Store: the hardware BMS-Engine fronts virtual NVMe functions,
//! translates and forwards to the backend SSD pool through its DMA
//! router, and posts host CQEs itself. The BMS-Controller rides along
//! for the management plane (exposed via [`Scheme::bm_parts`]).

use super::{BuildCtx, Effect, FaultTraceEvent, PipelineStage, Scheme, SchemeCtx, Stage, BUS_HOP};
use crate::types::DeviceId;
use crate::world::{Device, VmState};
use bm_baselines::vfio::VfioCosts;
use bm_nvme::queue::DoorbellLayout;
use bm_nvme::types::QueueId;
use bm_pcie::{FunctionId, HostMemory};
use bm_sim::resource::FifoServer;
use bm_sim::{SimDuration, SimTime};
use bm_ssd::{CompletedIo, Ssd, SsdId};
use bmstore_core::controller::BmsController;
use bmstore_core::engine::{BmsEngine, EngineAction, EngineConfig};

/// Virtual NVMe functions exported by the BMS-Engine.
pub(crate) struct BmStoreScheme {
    engine: Box<BmsEngine>,
    controller: Box<BmsController>,
    /// Per-device front-end identity: (function, queue).
    funcs: Vec<(FunctionId, QueueId)>,
    bufs: Buffers,
}

/// Buffers the data path reuses, so a command's trip through the
/// engine and the SSDs allocates nothing once they are warm.
#[derive(Default)]
struct Buffers {
    /// Engine actions of one call, drained into effects.
    actions: Vec<EngineAction>,
    /// Completions of one back-end doorbell, before batching.
    ios: Vec<CompletedIo>,
    /// Emptied completion batches, recycled by the next doorbell.
    batches: Vec<Vec<CompletedIo>>,
}

/// Builds the BM-Store scheme: engine + controller, backend rings
/// attached to every SSD, one front-end function per device spec.
pub(crate) fn build(ctx: &mut BuildCtx, in_vm: bool) -> Box<dyn Scheme> {
    let entries = super::QUEUE_ENTRIES;
    let specs = ctx.cfg.devices.clone();
    let mut engine_cfg = EngineConfig::paper_default(ctx.ssds.len());
    engine_cfg.store_and_forward_bw = ctx.cfg.store_and_forward_bw;
    if let Some(timeout) = ctx.cfg.command_timeout {
        engine_cfg = engine_cfg.with_command_timeout(timeout, ctx.cfg.engine_fail_policy);
    }
    engine_cfg.fail_policy = ctx.cfg.engine_fail_policy;
    engine_cfg.debug_drop_journal_tail = ctx.cfg.engine_drop_journal_tail;
    let mut engine = Box::new(BmsEngine::new(engine_cfg));
    let controller = Box::new(BmsController::new(bm_pcie::mctp::Eid(8)));
    for (i, ssd) in ctx.ssds.iter_mut().enumerate() {
        let (sq, cq) = engine.ssd_rings(SsdId(i as u8));
        ssd.attach_io_queues(sq, cq);
    }
    let mut funcs = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): FunctionId holds 128 functions and the harness builds fewer devices"
        )]
        let func = FunctionId::new(i as u8).expect("≤128 devices");
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the harness sizes the back-end for every namespace it binds"
        )]
        engine
            .bind_namespace(func, spec.size_bytes, spec.placement)
            .expect("binding fits the back-end");
        engine.set_qos_limit(func, spec.qos);
        engine.set_function_enabled(func, true);
        let (sq, cq) = ctx.alloc_rings(QueueId(1), entries);
        engine
            .function_mut(func)
            .create_io_cq(QueueId(1), cq.base(), entries);
        engine
            .function_mut(func)
            .create_io_sq(QueueId(1), sq.base(), entries);
        funcs.push((func, QueueId(1)));
        let vm = in_vm.then(|| VmState {
            irq_cpu: FifoServer::new(),
            costs: VfioCosts::paper_default(),
        });
        ctx.devices
            .push(Device::new(sq, cq, vm, spec.size_bytes / 4096));
    }
    Box::new(BmStoreScheme {
        engine,
        controller,
        funcs,
        bufs: Buffers::default(),
    })
}

/// Maps front-end identity back to the device: [`build`] gives device
/// `i` function `i`, so its index is the function's, and the entry
/// confirms the queue. `None` for a queue no device owns.
fn device_for(funcs: &[(FunctionId, QueueId)], func: FunctionId, qid: QueueId) -> Option<DeviceId> {
    let i = usize::from(func.index());
    (funcs.get(i) == Some(&(func, qid))).then_some(DeviceId(i))
}

/// Engine actions become scheduled pipeline stages, in order, drained
/// from `actions` into `out`. Recovery events the engine logged while
/// producing them go first, so observers see the recovery before its
/// consequences.
fn actions_to_effects(
    engine: &mut BmsEngine,
    actions: &mut Vec<EngineAction>,
    out: &mut Vec<Effect>,
) {
    out.extend(
        engine
            .take_recovery_events()
            .into_iter()
            .map(|event| Effect::FaultTrace {
                event: FaultTraceEvent::EngineRecovery(event),
            }),
    );
    out.extend(actions.drain(..).map(|action| match action {
        EngineAction::BackendDoorbell { ssd, tail, at } => Effect::ScheduleAt {
            at,
            stage: Stage::EngineBackendDoorbell {
                ssd,
                tail,
                epoch: engine.ring_epoch(ssd),
            },
        },
        EngineAction::HostCompletion {
            func,
            qid,
            cid,
            status,
            at,
        } => Effect::ScheduleAt {
            at,
            stage: Stage::EngineHostCompletion {
                func,
                qid,
                cid,
                status,
            },
        },
        EngineAction::QosWakeup { at } => Effect::ScheduleAt {
            at,
            stage: Stage::EngineQosWakeup,
        },
        EngineAction::CommandDeadline { at } => Effect::ScheduleAt {
            at,
            stage: Stage::EngineDeadline,
        },
    }));
}

/// One engine pipeline stage, run while the engine holds the world's
/// observer; its effects go to `out`.
#[expect(
    clippy::too_many_arguments,
    reason = "the scheme's disjoint borrows are passed apart so the engine can hold the world's observer"
)]
fn engine_stage(
    engine: &mut BmsEngine,
    funcs: &[(FunctionId, QueueId)],
    bufs: &mut Buffers,
    now: SimTime,
    stage: Stage,
    host_mem: &mut HostMemory,
    ssds: &mut [Ssd],
    out: &mut Vec<Effect>,
) {
    match stage {
        Stage::EngineDoorbell { func, qid, tail } => {
            if engine.is_crashed() {
                // The doorbell write sits in the fabric until the
                // card reboots; the recovery action is scheduled at
                // the same instant but was inserted first, so the
                // engine is back up when this lands again.
                out.push(Effect::ScheduleAt {
                    at: engine.restart_at().max(now),
                    stage: Stage::EngineDoorbell { func, qid, tail },
                });
                return;
            }
            engine.host_doorbell_write_into(
                now,
                func,
                DoorbellLayout::sq_tail_offset(qid),
                tail,
                host_mem,
                &mut bufs.actions,
            );
            actions_to_effects(engine, &mut bufs.actions, out);
        }
        Stage::EngineBackendDoorbell { ssd, tail, epoch } => {
            if epoch != engine.ring_epoch(ssd) {
                // Minted before this SSD's rings were reset (engine
                // crash, hot-plug swap, or surprise re-insert).
                return;
            }
            let mut router = engine.dma_router(host_mem);
            ssds[ssd.0 as usize].ring_sq_doorbell_into(
                now,
                QueueId(1),
                tail,
                &mut router,
                &mut bufs.ios,
            );
            // Consecutive completions sharing an instant become one
            // scheduled event; they held consecutive sequence
            // numbers before, so batching cannot reorder anything.
            // Batches start at capacity 1: most hold one completion.
            let mut iter = bufs.ios.drain(..).peekable();
            while let Some(io) = iter.next() {
                let at = io.at;
                let mut ios = bufs.batches.pop().unwrap_or_else(|| Vec::with_capacity(1));
                ios.push(io);
                while let Some(next) = iter.next_if(|n| n.at == at) {
                    ios.push(next);
                }
                out.push(Effect::ScheduleAt {
                    at,
                    stage: Stage::EngineBackendComplete { ssd, ios, epoch },
                });
            }
        }
        Stage::EngineBackendComplete {
            ssd,
            mut ios,
            epoch,
        } => {
            if epoch != engine.ring_epoch(ssd) {
                ios.clear();
            }
            for io in ios.drain(..) {
                // Device-service span, recorded while the back-end CID
                // still resolves to its origin (the drain below frees it).
                engine.record_backend_span(
                    ssd,
                    io.cid,
                    io.submitted_at,
                    now,
                    io.status.is_success(),
                );
                {
                    let mut router = engine.dma_router(host_mem);
                    Ssd::deliver_read_payload(&io, &mut router);
                    let _ = ssds[ssd.0 as usize].post_completion(&io, &mut router);
                }
                let cq_head =
                    engine.on_backend_completion_into(now, ssd, host_mem, &mut bufs.actions);
                ssds[ssd.0 as usize].ring_cq_doorbell(QueueId(1), cq_head);
                actions_to_effects(engine, &mut bufs.actions, out);
            }
            bufs.batches.push(ios);
        }
        Stage::EngineHostCompletion {
            func,
            qid,
            cid,
            status,
        } => {
            if !engine.deliver_host_completion(func, qid, cid, status, host_mem) {
                // Host CQ full: retry after the host consumes.
                out.push(Effect::ScheduleAt {
                    at: now + SimDuration::from_us(2),
                    stage: Stage::EngineHostCompletion {
                        func,
                        qid,
                        cid,
                        status,
                    },
                });
                return;
            }
            let Some(dev) = device_for(funcs, func, qid) else {
                return; // no device to interrupt
            };
            out.push(Effect::Trace {
                stage: PipelineStage::Backend,
            });
            out.push(Effect::RaiseInterrupt {
                at: now + engine.timing().interrupt,
                dev,
                cid,
                status,
            });
        }
        Stage::EngineQosWakeup => {
            let mut actions = engine.qos_wakeup(now, host_mem);
            actions_to_effects(engine, &mut actions, out);
        }
        Stage::EngineDeadline => {
            let mut actions = engine.check_deadline(now, host_mem);
            actions_to_effects(engine, &mut actions, out);
        }
        other @ (Stage::Doorbell { .. }
        | Stage::Forward { .. }
        | Stage::BackendComplete { .. }
        | Stage::GuestComplete { .. }) => unreachable!("bm-store scheme never schedules {other:?}"),
    }
}

impl Scheme for BmStoreScheme {
    fn name(&self) -> &'static str {
        "bm-store"
    }

    fn on_doorbell(
        &mut self,
        now: SimTime,
        dev: DeviceId,
        tail: u32,
        _ctx: &mut SchemeCtx,
        out: &mut Vec<Effect>,
    ) {
        let (func, qid) = self.funcs[dev.0];
        out.push(Effect::ScheduleAt {
            at: now + BUS_HOP,
            stage: Stage::EngineDoorbell { func, qid, tail },
        });
    }

    fn on_stage(&mut self, now: SimTime, stage: Stage, ctx: &mut SchemeCtx, out: &mut Vec<Effect>) {
        let (funcs, bufs) = (&self.funcs, &mut self.bufs);
        let (host_mem, ssds) = (&mut *ctx.host_mem, &mut *ctx.ssds);
        self.engine.with_observer(ctx.obs, |engine| {
            engine_stage(engine, funcs, bufs, now, stage, host_mem, ssds, out)
        });
    }

    fn ack_host_cq(&mut self, now: SimTime, dev: DeviceId, head: u32, ctx: &mut SchemeCtx) {
        let (func, qid) = self.funcs[dev.0];
        let _ = self.engine.host_doorbell_write(
            now,
            func,
            DoorbellLayout::cq_head_offset(qid),
            head,
            ctx.host_mem,
        );
    }

    fn bm_parts(&mut self) -> Option<(&mut BmsEngine, &mut BmsController)> {
        Some((&mut self.engine, &mut self.controller))
    }

    fn engine(&self) -> Option<&BmsEngine> {
        Some(&self.engine)
    }

    fn controller(&self) -> Option<&BmsController> {
        Some(&self.controller)
    }

    fn on_engine_actions(&mut self, mut actions: Vec<EngineAction>, out: &mut Vec<Effect>) {
        actions_to_effects(&mut self.engine, &mut actions, out);
    }
}
