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
use bm_ssd::{Ssd, SsdId};
use bmstore_core::controller::BmsController;
use bmstore_core::engine::{BmsEngine, EngineAction, EngineConfig};

/// Virtual NVMe functions exported by the BMS-Engine.
pub(crate) struct BmStoreScheme {
    engine: Box<BmsEngine>,
    controller: Box<BmsController>,
    /// Per-device front-end identity: (function, queue).
    funcs: Vec<(FunctionId, QueueId)>,
}

/// Builds the BM-Store scheme: engine + controller, backend rings
/// attached to every SSD, one front-end function per device spec.
pub(crate) fn build(ctx: &mut BuildCtx, in_vm: bool) -> Box<dyn Scheme> {
    let entries = ctx.cfg.queue_entries;
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
        let func = FunctionId::new(i as u8).expect("≤128 devices");
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
    })
}

/// Maps front-end identity back to the device.
fn device_for(funcs: &[(FunctionId, QueueId)], func: FunctionId, qid: QueueId) -> DeviceId {
    funcs
        .iter()
        .position(|&(f, q)| f == func && q == qid)
        .map(DeviceId)
        .expect("device for function")
}

/// Engine actions become scheduled pipeline stages, in order. Recovery
/// events the engine logged while producing them are drained first, so
/// observers see the recovery before its consequences.
fn actions_to_effects(engine: &mut BmsEngine, actions: Vec<EngineAction>) -> Vec<Effect> {
    let mut effects: Vec<Effect> = engine
        .take_recovery_events()
        .into_iter()
        .map(|event| Effect::FaultTrace {
            event: FaultTraceEvent::EngineRecovery(event),
        })
        .collect();
    effects.extend(actions.into_iter().map(|action| match action {
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
        EngineAction::CommandDeadline { ssd, seq, at } => Effect::ScheduleAt {
            at,
            stage: Stage::EngineDeadline { ssd, seq },
        },
    }));
    effects
}

/// One engine pipeline stage, run while the engine holds the world's
/// observer.
fn engine_stage(
    engine: &mut BmsEngine,
    funcs: &[(FunctionId, QueueId)],
    now: SimTime,
    stage: Stage,
    host_mem: &mut HostMemory,
    ssds: &mut [Ssd],
) -> Vec<Effect> {
    match stage {
        Stage::EngineDoorbell { func, qid, tail } => {
            if engine.is_crashed() {
                // The doorbell write sits in the fabric until the
                // card reboots; the recovery action is scheduled at
                // the same instant but was inserted first, so the
                // engine is back up when this lands again.
                return vec![Effect::ScheduleAt {
                    at: engine.restart_at().max(now),
                    stage: Stage::EngineDoorbell { func, qid, tail },
                }];
            }
            let actions = engine.host_doorbell_write(
                now,
                func,
                DoorbellLayout::sq_tail_offset(qid),
                tail,
                host_mem,
            );
            actions_to_effects(engine, actions)
        }
        Stage::EngineBackendDoorbell { ssd, tail, epoch } => {
            if epoch != engine.ring_epoch(ssd) {
                // Minted before this SSD's rings were reset (engine
                // crash, hot-plug swap, or surprise re-insert).
                return Vec::new();
            }
            let mut router = engine.dma_router(host_mem);
            let completions =
                ssds[ssd.0 as usize].ring_sq_doorbell(now, QueueId(1), tail, &mut router);
            // Consecutive completions sharing an instant become one
            // scheduled event; they held consecutive sequence
            // numbers before, so batching cannot reorder anything.
            let mut effects = Vec::new();
            let mut iter = completions.into_iter().peekable();
            while let Some(io) = iter.next() {
                let at = io.at;
                let mut ios = vec![io];
                while let Some(next) = iter.next_if(|n| n.at == at) {
                    ios.push(next);
                }
                effects.push(Effect::ScheduleAt {
                    at,
                    stage: Stage::EngineBackendComplete { ssd, ios, epoch },
                });
            }
            effects
        }
        Stage::EngineBackendComplete { ssd, ios, epoch } => {
            if epoch != engine.ring_epoch(ssd) {
                return Vec::new();
            }
            let mut effects = Vec::new();
            for io in ios {
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
                let (actions, cq_head) = engine.on_backend_completion(now, ssd, host_mem);
                ssds[ssd.0 as usize].ring_cq_doorbell(QueueId(1), cq_head);
                effects.extend(actions_to_effects(engine, actions));
            }
            effects
        }
        Stage::EngineHostCompletion {
            func,
            qid,
            cid,
            status,
        } => {
            if !engine.deliver_host_completion(func, qid, cid, status, host_mem) {
                // Host CQ full: retry after the host consumes.
                return vec![Effect::ScheduleAt {
                    at: now + SimDuration::from_us(2),
                    stage: Stage::EngineHostCompletion {
                        func,
                        qid,
                        cid,
                        status,
                    },
                }];
            }
            let dev = device_for(funcs, func, qid);
            vec![
                Effect::Trace {
                    stage: PipelineStage::Backend,
                },
                Effect::RaiseInterrupt {
                    at: now + engine.timing().interrupt,
                    dev,
                    cid,
                    status,
                },
            ]
        }
        Stage::EngineQosWakeup => {
            let actions = engine.qos_wakeup(now, host_mem);
            actions_to_effects(engine, actions)
        }
        Stage::EngineDeadline { ssd, seq } => {
            let actions = engine.check_deadline(now, ssd, seq, host_mem);
            actions_to_effects(engine, actions)
        }
        // bm-lint: allow(wildcard-arm): a scheme only receives stages it scheduled itself; a misrouted variant fails loudly here in every build
        other => unreachable!("bm-store scheme never schedules {other:?}"),
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
    ) -> Vec<Effect> {
        let (func, qid) = self.funcs[dev.0];
        vec![Effect::ScheduleAt {
            at: now + BUS_HOP,
            stage: Stage::EngineDoorbell { func, qid, tail },
        }]
    }

    fn on_stage(&mut self, now: SimTime, stage: Stage, ctx: &mut SchemeCtx) -> Vec<Effect> {
        let funcs = &self.funcs;
        let (host_mem, ssds) = (&mut *ctx.host_mem, &mut *ctx.ssds);
        self.engine.with_observer(ctx.obs, |engine| {
            engine_stage(engine, funcs, now, stage, host_mem, ssds)
        })
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

    fn on_engine_actions(&mut self, actions: Vec<EngineAction>) -> Vec<Effect> {
        actions_to_effects(&mut self.engine, actions)
    }
}
