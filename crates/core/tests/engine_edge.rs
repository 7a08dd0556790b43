//! Engine edge cases: back-pressure on the host CQ, QoS releases into a
//! paused SSD, unbind racing in-flight and QoS-held I/O, flushes and
//! buffered commands across a cross-bay hot-plug, zero-byte namespaces,
//! missing data pointers, malformed SQEs, and observers lent in turn.

use bm_nvme::command::{IoOpcode, Sqe};
use bm_nvme::queue::DoorbellLayout;
use bm_nvme::types::{Cid, Lba, Nsid, QueueId};
use bm_nvme::{Status, SubmissionQueue};
use bm_pcie::{FunctionId, HostMemory, PciAddr};
use bm_sim::metrics::{names, stages, MetricKey, MetricsRegistry};
use bm_sim::observe::Observer;
use bm_sim::telemetry::{AggKey, TelemetryRecorder, TelemetryStage};
use bm_sim::{SimDuration, SimTime};
use bm_ssd::SsdId;
use bmstore_core::engine::qos::QosLimit;
use bmstore_core::engine::{BindError, BmsEngine, EngineAction, EngineConfig, Placement};

fn fid(i: u8) -> FunctionId {
    FunctionId::new(i).unwrap()
}

/// Engine with function 0 bound+enabled and a registered I/O queue of
/// `entries` slots; returns the host-side SQ view.
fn rig(entries: u16) -> (BmsEngine, HostMemory, SubmissionQueue) {
    rig_on(fid(0), entries)
}

/// [`rig`] for any function `func`.
fn rig_on(func: FunctionId, entries: u16) -> (BmsEngine, HostMemory, SubmissionQueue) {
    rig_with(2, func, Placement::Single(SsdId(0)), entries)
}

/// An engine of `ssds` SSDs with a 256 GiB namespace bound to `func`
/// by `placement`, `func` enabled, and a registered I/O queue of
/// `entries` slots; returns the host-side SQ view.
fn rig_with(
    ssds: usize,
    func: FunctionId,
    placement: Placement,
    entries: u16,
) -> (BmsEngine, HostMemory, SubmissionQueue) {
    let mut engine = BmsEngine::new(EngineConfig::paper_default(ssds));
    let mut host = HostMemory::new(1 << 30);
    engine.bind_namespace(func, 256 << 30, placement).unwrap();
    engine.set_function_enabled(func, true);
    let sq_base = host.alloc(entries as u64 * 64).unwrap();
    let cq_base = host.alloc(entries as u64 * 16).unwrap();
    engine
        .function_mut(func)
        .create_io_cq(QueueId(1), cq_base, entries);
    engine
        .function_mut(func)
        .create_io_sq(QueueId(1), sq_base, entries);
    let host_sq = SubmissionQueue::new(QueueId(1), sq_base, entries);
    (engine, host, host_sq)
}

fn read_sqe(cid: u16) -> Sqe {
    Sqe::io(
        IoOpcode::Read,
        Cid(cid),
        Nsid::new(1).unwrap(),
        Lba(cid as u64 * 8),
        1,
        PciAddr::new(0x100_0000),
        PciAddr::NULL,
    )
}

#[test]
fn host_cq_backpressure_rejects_delivery_until_consumed() {
    let (mut engine, mut host, _) = rig(4);
    // Post 3 completions (capacity of a 4-entry ring) without the host
    // consuming; the 4th delivery must be refused, not lost.
    for i in 0..3u16 {
        assert!(engine.deliver_host_completion(
            fid(0),
            QueueId(1),
            Cid(i),
            Status::Success,
            &mut host,
        ));
    }
    assert!(
        !engine.deliver_host_completion(fid(0), QueueId(1), Cid(9), Status::Success, &mut host),
        "full host CQ must refuse delivery"
    );
    // Host consumes one entry and rings the CQ doorbell.
    let _ = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::cq_head_offset(QueueId(1)),
        1,
        &mut host,
    );
    assert!(engine.deliver_host_completion(fid(0), QueueId(1), Cid(9), Status::Success, &mut host));
}

#[test]
fn malformed_sqe_completes_under_its_own_cid() {
    let (mut engine, mut host, mut host_sq) = rig(64);
    host_sq.push(&mut host, &read_sqe(7)).unwrap();
    // Overwrite the opcode byte with one the model does not implement.
    host.write(host_sq.base(), &[0x7F]);
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        u32::from(host_sq.tail()),
        &mut host,
    );
    assert!(
        matches!(
            actions.as_slice(),
            [EngineAction::HostCompletion {
                cid: Cid(7),
                status: Status::InvalidOpcode,
                ..
            }]
        ),
        "the host's command 7 must complete with InvalidOpcode: {actions:?}"
    );
}

#[test]
fn qos_release_into_paused_ssd_lands_in_backlog() {
    let (mut engine, mut host, mut host_sq) = rig(64);
    engine.set_qos_limit(fid(0), QosLimit::iops(100.0));
    // Burst = 10 tokens: push 12 commands; 2 defer.
    for i in 0..12u16 {
        host_sq.push(&mut host, &read_sqe(i)).unwrap();
    }
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        12,
        &mut host,
    );
    let deferred = actions
        .iter()
        .filter(|a| matches!(a, EngineAction::QosWakeup { .. }))
        .count();
    assert_eq!(deferred, 2);
    // Pause the SSD, then let the QoS dispatcher release: the commands
    // must buffer, not forward.
    engine.pause_ssd(SsdId(0));
    let late = SimTime::ZERO + SimDuration::from_secs(1);
    let actions = engine.qos_wakeup(late, &mut host);
    assert!(
        actions
            .iter()
            .all(|a| !matches!(a, EngineAction::BackendDoorbell { .. })),
        "paused SSD must not receive doorbells"
    );
    assert_eq!(engine.save_io_context(SsdId(0)).buffered, 2);
    // Resume flushes both: two commands pushed at the same instant
    // coalesce into one doorbell carrying the final tail.
    let actions = engine.resume_ssd(late + SimDuration::from_ms(1), SsdId(0), &mut host);
    let tails: Vec<u32> = actions
        .iter()
        .filter_map(|a| match a {
            EngineAction::BackendDoorbell { tail, .. } => Some(*tail),
            _ => None,
        })
        .collect();
    assert_eq!(tails, [12], "one coalesced ring sweeping both commands");
}

#[test]
fn unbind_after_forwarding_still_completes_inflight() {
    let (mut engine, mut host, mut host_sq) = rig(64);
    host_sq.push(&mut host, &read_sqe(1)).unwrap();
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        1,
        &mut host,
    );
    assert!(matches!(
        actions[0],
        EngineAction::BackendDoorbell { ssd: SsdId(0), .. }
    ));
    // Management unbinds while the command is at the SSD.
    assert!(engine.unbind_namespace(fid(0)));
    // The SSD completes; fetch its view and post a CQE by hand.
    let (mut ssd_sq, mut ssd_cq) = engine.ssd_rings(SsdId(0));
    ssd_sq.doorbell_tail(1).unwrap();
    let mut router_mem = HostMemory::new(1 << 20);
    let fetched = {
        let mut router = engine.dma_router(&mut router_mem);
        ssd_sq.fetch(&mut router).unwrap().unwrap()
    };
    {
        let mut router = engine.dma_router(&mut router_mem);
        ssd_cq
            .post(
                &mut router,
                bm_nvme::Cqe::success(fetched.cid, QueueId(1), ssd_sq.head(), false),
            )
            .unwrap();
    }
    let (actions, _) = engine.on_backend_completion(SimTime::ZERO, SsdId(0), &mut host);
    // The tenant still gets its completion for the in-flight command.
    assert!(matches!(
        actions[0],
        EngineAction::HostCompletion {
            cid: Cid(1),
            status: Status::Success,
            ..
        }
    ));
    // New I/O after the unbind is rejected as an invalid namespace.
    host_sq.push(&mut host, &read_sqe(2)).unwrap();
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        2,
        &mut host,
    );
    assert!(matches!(
        actions[0],
        EngineAction::HostCompletion {
            status: Status::InvalidNamespace,
            ..
        }
    ));
}

/// Rings function 0's queue-1 doorbell at `now` with `tail`.
fn ring(
    engine: &mut BmsEngine,
    host: &mut HostMemory,
    now: SimTime,
    tail: u16,
) -> Vec<EngineAction> {
    let db = DoorbellLayout::sq_tail_offset(QueueId(1));
    engine.host_doorbell_write(now, fid(0), db, u32::from(tail), host)
}

/// Submits 12 reads under a 100 IOPS limit: the 10-token burst forwards
/// ten, and commands 10 and 11 wait in QoS.
fn defer_two_reads() -> (BmsEngine, HostMemory) {
    let (mut engine, mut host, mut host_sq) = rig(64);
    engine.set_qos_limit(fid(0), QosLimit::iops(100.0));
    for i in 0..12u16 {
        host_sq.push(&mut host, &read_sqe(i)).unwrap();
    }
    let actions = ring(&mut engine, &mut host, SimTime::ZERO, host_sq.tail());
    let wakeups = actions
        .iter()
        .filter(|a| matches!(a, EngineAction::QosWakeup { .. }))
        .count();
    assert_eq!(wakeups, 2);
    (engine, host)
}

/// The host completions in `actions`; panics on any other action.
fn completions(actions: &[EngineAction]) -> Vec<(u16, Status)> {
    actions
        .iter()
        .map(|a| match a {
            EngineAction::HostCompletion { cid, status, .. } => (cid.0, *status),
            other => panic!("a QoS-held command of a dead namespace went on: {other:?}"),
        })
        .collect()
}

#[test]
fn qos_held_commands_of_an_unbound_namespace_complete_invalid_namespace() {
    let (mut engine, mut host) = defer_two_reads();
    assert!(engine.unbind_namespace(fid(0)));
    let actions = engine.qos_wakeup(SimTime::ZERO + SimDuration::from_secs(1), &mut host);
    let dead = [
        (10, Status::InvalidNamespace),
        (11, Status::InvalidNamespace),
    ];
    assert_eq!(completions(&actions), dead);
    // Counted as failed commands, and the outstanding gauge holds only
    // the ten forwarded reads still at the SSD.
    assert_eq!(engine.counters().function(fid(0)).errors, 2);
    assert_eq!(engine.monitor_regs(fid(0)).outstanding, 10);
}

#[test]
fn qos_held_commands_never_reach_a_namespace_bound_after_them() {
    let (mut engine, mut host) = defer_two_reads();
    assert!(engine.unbind_namespace(fid(0)));
    engine
        .bind_namespace(fid(0), 256 << 30, Placement::Single(SsdId(1)))
        .unwrap();
    let actions = engine.qos_wakeup(SimTime::ZERO + SimDuration::from_secs(1), &mut host);
    let dead = [
        (10, Status::InvalidNamespace),
        (11, Status::InvalidNamespace),
    ];
    assert_eq!(completions(&actions), dead);
    assert_eq!(engine.adaptor().port(SsdId(1)).forwarded(), 0);
}

#[test]
fn flush_after_a_cross_bay_hot_plug_rings_the_new_bay_only() {
    let (mut engine, mut host, mut host_sq) = rig_with(4, fid(0), Placement::Single(SsdId(1)), 64);
    // What HotPlugPrepare { ssd: 1 } and HotPlugComplete { old: 1,
    // new: 3 } do to the engine.
    engine.pause_ssd(SsdId(1));
    engine.retarget_ssd(SsdId(1), SsdId(3));
    let now = SimTime::from_nanos(1_000);
    assert!(engine.resume_ssd(now, SsdId(3), &mut host).is_empty());
    assert!(engine.resume_ssd(now, SsdId(1), &mut host).is_empty());
    let row_base = engine.function(fid(0)).binding().unwrap().row_base;
    assert_eq!(engine.mapping().map(row_base, Lba(0)).unwrap().0, SsdId(3));
    let flush = Sqe::io(
        IoOpcode::Flush,
        Cid(1),
        Nsid::ONE,
        Lba(0),
        1,
        PciAddr::NULL,
        PciAddr::NULL,
    );
    host_sq.push(&mut host, &flush).unwrap();
    let actions = ring(&mut engine, &mut host, now, host_sq.tail());
    let rung: Vec<SsdId> = actions
        .iter()
        .filter_map(|a| match a {
            EngineAction::BackendDoorbell { ssd, .. } => Some(*ssd),
            _ => None,
        })
        .collect();
    assert_eq!(rung, [SsdId(3)], "{actions:?}");
}

#[test]
fn buffered_commands_follow_a_cross_bay_hot_plug() {
    let (mut engine, mut host, mut host_sq) = rig_with(4, fid(0), Placement::Single(SsdId(1)), 64);
    // HotPlugPrepare { ssd: 1 } pauses the bay; a read arrives and
    // buffers; HotPlugComplete { old: 1, new: 3 } retargets and resumes
    // the new bay, then the old one.
    engine.pause_ssd(SsdId(1));
    host_sq.push(&mut host, &read_sqe(1)).unwrap();
    let now = SimTime::from_nanos(1_000);
    assert!(ring(&mut engine, &mut host, now, host_sq.tail()).is_empty());
    assert_eq!(engine.backlog_len(SsdId(1)), 1);
    engine.retarget_ssd(SsdId(1), SsdId(3)).unwrap();
    let mut actions = engine.resume_ssd(now, SsdId(3), &mut host);
    actions.extend(engine.resume_ssd(now, SsdId(1), &mut host));
    let rung: Vec<SsdId> = actions
        .iter()
        .filter_map(|a| match a {
            EngineAction::BackendDoorbell { ssd, .. } => Some(*ssd),
            _ => None,
        })
        .collect();
    assert_eq!(rung, [SsdId(3)], "{actions:?}");
    assert_eq!(engine.adaptor().port(SsdId(1)).forwarded(), 0);
}

#[test]
fn a_zero_byte_namespace_is_refused() {
    let mut engine = BmsEngine::new(EngineConfig::paper_default(2));
    let placements = [Placement::RoundRobin, Placement::Single(SsdId(0))];
    for placement in placements {
        assert_eq!(
            engine.bind_namespace(fid(1), 0, placement),
            Err(BindError::ZeroSize)
        );
        assert!(engine.function(fid(1)).binding().is_none());
    }
    engine
        .bind_namespace(fid(1), 1 << 30, Placement::RoundRobin)
        .unwrap();
    assert_eq!(engine.function(fid(1)).binding().unwrap().row_base, 0);
}

#[test]
fn disabled_function_drops_dma_but_enabled_routes() {
    let (mut engine, _, _) = rig(16);
    let mut host = HostMemory::new(1 << 20);
    let page = host.alloc(4096).unwrap();
    host.write(page, b"tenant-data");
    use bm_pcie::DmaContext;
    use bmstore_core::engine::dma_routing::GlobalPrp;
    let tagged = GlobalPrp::tag(page, fid(0), false);
    {
        let mut router = engine.dma_router(&mut host);
        let mut buf = [0u8; 11];
        router.dma_read(tagged, &mut buf);
        assert_eq!(&buf, b"tenant-data");
    }
    // The operator disables the function: in-flight tags no longer route.
    engine.set_function_enabled(fid(0), false);
    {
        let mut router = engine.dma_router(&mut host);
        let mut buf = [0xFFu8; 11];
        router.dma_read(tagged, &mut buf);
        assert_eq!(&buf, &[0u8; 11], "dropped TLP returns zeros");
    }
    assert_eq!(engine.routing_stats().dropped, 1);
}

#[test]
fn multiple_io_queues_on_one_function_stay_independent() {
    let (mut engine, mut host, mut sq1) = rig(16);
    // The driver creates a second I/O queue pair (qid=2).
    let sq2_base = host.alloc(16 * 64).unwrap();
    let cq2_base = host.alloc(16 * 16).unwrap();
    assert!(engine
        .function_mut(fid(0))
        .create_io_cq(QueueId(2), cq2_base, 16));
    assert!(engine
        .function_mut(fid(0))
        .create_io_sq(QueueId(2), sq2_base, 16));
    let mut sq2 = SubmissionQueue::new(QueueId(2), sq2_base, 16);

    sq1.push(&mut host, &read_sqe(1)).unwrap();
    sq2.push(&mut host, &read_sqe(2)).unwrap();
    let a1 = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        1,
        &mut host,
    );
    let a2 = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(2)),
        1,
        &mut host,
    );
    assert!(matches!(a1[0], EngineAction::BackendDoorbell { .. }));
    assert!(matches!(a2[0], EngineAction::BackendDoorbell { .. }));

    // Complete both through the back end; each lands on its own queue.
    let (mut ssd_sq, mut ssd_cq) = engine.ssd_rings(SsdId(0));
    ssd_sq.doorbell_tail(2).unwrap();
    let mut scratch = HostMemory::new(1 << 20);
    for _ in 0..2 {
        let fetched = {
            let mut router = engine.dma_router(&mut scratch);
            ssd_sq.fetch(&mut router).unwrap().unwrap()
        };
        let mut router = engine.dma_router(&mut scratch);
        ssd_cq
            .post(
                &mut router,
                bm_nvme::Cqe::success(fetched.cid, QueueId(1), ssd_sq.head(), false),
            )
            .unwrap();
    }
    let (actions, _) = engine.on_backend_completion(SimTime::ZERO, SsdId(0), &mut host);
    let mut qids: Vec<u16> = actions
        .iter()
        .filter_map(|a| match a {
            EngineAction::HostCompletion { qid, .. } => Some(qid.0),
            _ => None,
        })
        .collect();
    qids.sort_unstable();
    assert_eq!(qids, vec![1, 2], "each completion routed to its queue");
    // Queue deletion works and further doorbells to it are ignored.
    assert!(engine.function_mut(fid(0)).delete_io_queue(QueueId(2)));
    let none = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(2)),
        1,
        &mut host,
    );
    assert!(none.is_empty());
}

#[test]
fn missing_data_pointers_complete_invalid_field() {
    // Function 1 is a VF: its non-zero tag would turn a forwarded null
    // pointer into a non-null global PRP that routes to host address 0.
    let (mut engine, mut host, mut host_sq) = rig_on(fid(1), 16);
    let page = PciAddr::new(0x100_0000);
    let cmds = [
        (3, page, PciAddr::NULL),          // needs a PRP list
        (2, page, PciAddr::NULL),          // needs PRP2 as a data page
        (1, PciAddr::NULL, PciAddr::NULL), // needs PRP1
    ];
    for (cid, &(blocks, prp1, prp2)) in cmds.iter().enumerate() {
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(cid as u16),
            Nsid::ONE,
            Lba(0),
            blocks,
            prp1,
            prp2,
        );
        host_sq.push(&mut host, &sqe).unwrap();
    }
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(1),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        3,
        &mut host,
    );
    let statuses: Vec<(u16, Status)> = actions
        .iter()
        .map(|a| match a {
            EngineAction::HostCompletion { cid, status, .. } => (cid.0, *status),
            other => panic!("malformed command reached the back end: {other:?}"),
        })
        .collect();
    assert_eq!(
        statuses,
        [
            (0, Status::InvalidField),
            (1, Status::InvalidField),
            (2, Status::InvalidField),
        ]
    );
    assert_eq!(engine.adaptor().port(SsdId(0)).forwarded(), 0);
    // A flush moves no data, so null pointers are fine there.
    let flush = Sqe::io(
        IoOpcode::Flush,
        Cid(3),
        Nsid::ONE,
        Lba(0),
        1,
        PciAddr::NULL,
        PciAddr::NULL,
    );
    host_sq.push(&mut host, &flush).unwrap();
    let _ = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(1),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        4,
        &mut host,
    );
    assert_eq!(engine.adaptor().port(SsdId(0)).forwarded(), 1);
}

/// One observer with metrics and telemetry on.
fn full_observer() -> Observer {
    let telemetry = TelemetryRecorder::new(TelemetryRecorder::DEFAULT_CAPACITY);
    Observer::new(Some(telemetry), Some(MetricsRegistry::new()), None, None)
}

#[test]
fn lent_observers_count_only_their_own_calls() {
    let (mut engine, mut host, mut host_sq) = rig(64);
    // The SSD's persistent view of its rings, as the testbed keeps it.
    let (mut ssd_sq, mut ssd_cq) = engine.ssd_rings(SsdId(0));
    let mut ssd_mem = HostMemory::new(1 << 20);
    let mut observers = [full_observer(), full_observer()];
    let mut next_cid = 0u16;
    // A, then a fresh B, then A again: each call runs one full round
    // trip of `n` reads (doorbell, back-end service, completion).
    for (which, n) in [(0, 5u16), (1, 7), (0, 3)] {
        let obs = &mut observers[which];
        let now = SimTime::from_nanos(u64::from(next_cid) * 10_000);
        for _ in 0..n {
            obs.begin_command(now, 0, next_cid, IoOpcode::Read.code());
            host_sq.push(&mut host, &read_sqe(next_cid)).unwrap();
            next_cid += 1;
        }
        engine.with_observer(obs, |engine| {
            let tail = u32::from(host_sq.tail());
            let db = DoorbellLayout::sq_tail_offset(QueueId(1));
            let actions = engine.host_doorbell_write(now, fid(0), db, tail, &mut host);
            let Some(&EngineAction::BackendDoorbell { tail, .. }) = actions.last() else {
                panic!("no back-end doorbell: {actions:?}");
            };
            ssd_sq.doorbell_tail(tail).unwrap();
            let done = now + SimDuration::from_us(80);
            while let Some(sqe) = ssd_sq.fetch(&mut engine.dma_router(&mut ssd_mem)).unwrap() {
                engine.record_backend_span(SsdId(0), sqe.cid, now, done, true);
                let cqe = bm_nvme::Cqe::success(sqe.cid, QueueId(1), ssd_sq.head(), false);
                ssd_cq
                    .post(&mut engine.dma_router(&mut ssd_mem), cqe)
                    .unwrap();
            }
            let (actions, _) = engine.on_backend_completion(done, SsdId(0), &mut host);
            assert_eq!(actions.len(), usize::from(n), "{actions:?}");
        });
    }
    // A counts its 5 + 3 commands and B its 7; the gauge peaks at the
    // deepest burst each one saw.
    for (obs, want, peak) in [(&observers[0], 8u64, 5.0), (&observers[1], 7, 7.0)] {
        let reg = obs.metrics().unwrap();
        let f0 = |name| MetricKey::labeled(name, "function", "f0");
        let ssd_arrivals = MetricKey::labeled(names::STAGE_ARRIVALS, "stage", stages::SSD);
        assert_eq!(reg.counter(&f0(names::ENGINE_STARTED)), want);
        assert_eq!(reg.counter(&f0(names::ENGINE_FINISHED)), want);
        assert_eq!(reg.counter(&ssd_arrivals), want);
        let outstanding = reg.gauge(&f0(names::ENGINE_OUTSTANDING)).unwrap();
        assert_eq!((outstanding.value(), outstanding.peak()), (0.0, peak));
        let rec = obs.telemetry().unwrap();
        for stage in [
            TelemetryStage::Fetch,
            TelemetryStage::Backend,
            TelemetryStage::Completion,
        ] {
            let key = AggKey {
                tenant: 0,
                function: 0,
                opcode: IoOpcode::Read.code(),
                stage,
            };
            assert_eq!(
                rec.histogram(&key).map(|h| h.count()),
                Some(want),
                "{stage:?}"
            );
        }
    }
}
