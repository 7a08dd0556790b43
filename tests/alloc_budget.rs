//! Allocation budget for the event-loop hot path.
//!
//! Two claims, measured with `bm-prof`'s counting global allocator
//! (the same one the profiler uses for per-scope attribution):
//!
//! 1. Pure scheduler churn — non-capturing (zero-sized) actions being
//!    scheduled and fired in steady state — performs **zero** heap
//!    allocations: the timer wheel recycles arena nodes through its
//!    free list, boxing a ZST closure is free, and batch/slot vectors
//!    stop growing after warm-up.
//! 2. A steady-state BM-Store 4K-random-read window grows the
//!    scheduler's node arena by **zero** slots: every event entry is
//!    recycled, so scheduler-entry allocations are warm-up-only.
//! 3. The same window allocates at most 1.1 times per completed I/O
//!    across the whole `World`: pipeline hops are typed events stored
//!    inline, effects and engine actions go into reused buffers, and
//!    host commands sit in a CID-indexed table. The one allocation left
//!    per I/O is the `ClientOutput.requests` vector the `Client` trait
//!    returns. The same holds with a 5 ms command timeout armed (the
//!    engine's retry entries sit in a window indexed by sequence
//!    number, not in tree nodes) and for SPDK vhost 4K writes (fetched
//!    SQEs and backend completions are parked in reused tables, not
//!    carried in the events).
//! 4. On a standalone BMS-Engine, the doorbell that forwards a 32-block
//!    read allocates no more often than one that forwards a 1-block
//!    read: the 31-entry PRP list is read, tagged and written into chip
//!    memory through a reused buffer.
//!
//! Everything lives in one `#[test]` so the measured windows run on one
//! thread, and the counting allocator is **thread-scoped**: only the
//! thread that armed it bumps the counter. The libtest harness (or any
//! other runtime thread) waking up mid-window therefore cannot register
//! as a false positive, so the windows need no retries.

use std::cell::RefCell;
use std::rc::Rc;

use bmstore::core::engine::{BmsEngine, EngineAction, EngineConfig, FailPolicy, Placement};
use bmstore::nvme::command::{IoOpcode, Sqe};
use bmstore::nvme::prp::PrpPair;
use bmstore::nvme::queue::DoorbellLayout;
use bmstore::nvme::types::{Cid, Lba, Nsid, QueueId};
use bmstore::nvme::{CompletionQueue, Cqe, SubmissionQueue};
use bmstore::pcie::memory::PAGE_SIZE;
use bmstore::pcie::{FunctionId, HostMemory};
use bmstore::prof::alloc::{self, CountingAlloc};
use bmstore::sim::stats::IoStats;
use bmstore::sim::{SimDuration, SimTime, Simulation};
use bmstore::ssd::SsdId;
use bmstore::testbed::{PipelineStage, SchemeKind, Testbed, TestbedConfig, World};
use bmstore::workloads::fio::{FioJob, FioSpec};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Ticks(u64);

/// A self-rescheduling zero-sized action: the increment varies with the
/// tick count so successive events land in different wheel slots and
/// levels, exercising placement, cascade and recycling.
fn chain(w: &mut Ticks, s: &mut bmstore::sim::Scheduler<Ticks>) {
    w.0 += 1;
    let step = 501 + (w.0 % 7) * 9_777;
    s.schedule_in(SimDuration::from_nanos(step), chain);
}

fn pure_scheduler_steady_state_is_allocation_free() {
    let mut sim = Simulation::new(Ticks(0));
    // A standing population of 64 chains at staggered offsets.
    for i in 0..64u64 {
        sim.schedule_in(SimDuration::from_nanos(100 + i * 37), chain);
    }
    // Warm-up: size the arena, slot lists and batch buffer.
    while sim.world().0 < 5_000 {
        assert!(sim.step(), "chains keep the queue non-empty");
    }
    // Counting is thread-scoped, so one window suffices: anything the
    // counter sees was allocated by this thread's event loop.
    let before = alloc::events();
    while sim.world().0 < 55_000 {
        assert!(sim.step(), "chains keep the queue non-empty");
    }
    assert_eq!(
        alloc::events() - before,
        0,
        "steady-state scheduling of ZST actions must not touch the heap"
    );
}

/// The Fig. 8 bare-metal 4K-random-read rig, scaled down: ramp ends at
/// 12.5 ms, measurement ends at 112.5 ms.
fn bm_store_read_rig() -> World {
    fio_rig(
        TestbedConfig::bm_store_bare_metal(1),
        FioSpec::rand_r_128().scaled(0.25),
    )
}

/// `spec` on every device of a testbed built from `cfg`.
fn fio_rig(cfg: TestbedConfig, spec: FioSpec) -> World {
    let seed_base = cfg.seed;
    let mut tb = Testbed::new(cfg);
    let devices = tb.device_count();
    let mut jobs = Vec::new();
    for d in 0..devices {
        for j in 0..spec.numjobs {
            let stats = Rc::new(RefCell::new(IoStats::new()));
            jobs.push(FioJob::new(
                &mut tb,
                bmstore::testbed::DeviceId(d),
                spec,
                j,
                seed_base ^ (0x00F1_0000 + d as u64),
                stats,
                None,
            ));
        }
    }
    let mut world = World::new(tb);
    for job in jobs {
        world.add_client(Box::new(job));
    }
    world
}

fn at_ms(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_ms(ms)
}

fn bm_store_read_window_does_not_grow_the_arena() {
    let mut world = bm_store_read_rig();
    // Snapshot the scheduler's arena size across the steady-state
    // window (well past ramp-up at 12.5 ms).
    let snaps: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    for ms in [40u64, 60, 80, 100] {
        let sink = Rc::clone(&snaps);
        world.schedule_action(at_ms(ms), move |_w, s| {
            sink.borrow_mut().push(s.arena_slots());
        });
    }
    let world = world.run(None);
    let snaps = snaps.borrow();
    assert_eq!(snaps.len(), 4, "all snapshot actions fired");
    assert!(
        snaps.iter().all(|&n| n == snaps[0]),
        "scheduler arena must stop growing in steady state: {snaps:?}"
    );
    assert!(world.events_fired > 0, "the run retired events");
}

/// Asserts that the steady-state window 40–100 ms of `world` makes at
/// most 1.1 heap allocations per completed I/O.
fn window_allocates_once_per_io(name: &str, mut world: World) {
    // (allocation events, completed I/Os) at both ends of a steady-state
    // window; reserved up front so recording allocates nothing.
    let marks: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::with_capacity(2)));
    for ms in [40u64, 100] {
        let sink = Rc::clone(&marks);
        world.schedule_action(at_ms(ms), move |w, _s| {
            let allocs = alloc::events();
            let completed = w.stage_count(PipelineStage::Complete);
            sink.borrow_mut().push((allocs, completed));
        });
    }
    world.run(None);
    let marks = marks.borrow();
    let [(allocs0, done0), (allocs1, done1)] = marks[..] else {
        panic!("both window marks fired: {marks:?}");
    };
    let ios = done1 - done0;
    assert!(ios > 10_000, "{name}: the window completed {ios} I/Os");
    let per_io = (allocs1 - allocs0) as f64 / ios as f64;
    assert!(
        per_io <= 1.1,
        "{name}: {per_io:.3} heap allocations per completed I/O ({} over {ios} I/Os)",
        allocs1 - allocs0
    );
}

fn bm_store_read_window_allocates_once_per_io() {
    window_allocates_once_per_io("bm-store read", bm_store_read_rig());
    let cfg = TestbedConfig::bm_store_bare_metal(1)
        .with_command_timeout(SimDuration::from_ms(5), FailPolicy::QuiesceReplay);
    let rig = fio_rig(cfg, FioSpec::rand_r_128().scaled(0.25));
    window_allocates_once_per_io("bm-store read, 5 ms timeout", rig);
}

fn spdk_write_window_allocates_once_per_io() {
    let cfg = TestbedConfig::single_vm(SchemeKind::SpdkVhost { cores: 1 });
    let rig = fio_rig(cfg, FioSpec::rand_w_16().scaled(0.25));
    window_allocates_once_per_io("spdk vhost write", rig);
}

/// A BMS-Engine on one SSD with function 0 bound, its I/O queue pair,
/// the SSD's view of the back-end rings, and a 32-page host buffer.
struct EngineRig {
    engine: BmsEngine,
    host: HostMemory,
    host_sq: SubmissionQueue,
    ssd_sq: SubmissionQueue,
    ssd_cq: CompletionQueue,
    buf: PrpPair,
}

impl EngineRig {
    fn new() -> Self {
        let func = FunctionId::new(0).unwrap();
        let mut engine = BmsEngine::new(EngineConfig::paper_default(1));
        let mut host = HostMemory::new(1 << 30);
        engine
            .bind_namespace(func, 256 << 30, Placement::Single(SsdId(0)))
            .unwrap();
        engine.set_function_enabled(func, true);
        let sq_base = host.alloc(64 * 64).unwrap();
        let cq_base = host.alloc(64 * 16).unwrap();
        engine
            .function_mut(func)
            .create_io_cq(QueueId(1), cq_base, 64);
        engine
            .function_mut(func)
            .create_io_sq(QueueId(1), sq_base, 64);
        let (ssd_sq, ssd_cq) = engine.ssd_rings(SsdId(0));
        let buf = host.alloc(32 * PAGE_SIZE).unwrap();
        let buf = PrpPair::build(&mut host, buf, 32 * PAGE_SIZE);
        EngineRig {
            engine,
            host,
            host_sq: SubmissionQueue::new(QueueId(1), sq_base, 64),
            ssd_sq,
            ssd_cq,
            buf,
        }
    }

    /// Submits one read of `blocks` blocks and returns the allocation
    /// events of the doorbell that forwards it. The SSD then completes
    /// it, so the next read reuses its back-end CID and chip slot.
    fn read(&mut self, blocks: u32) -> u64 {
        let func = FunctionId::new(0).unwrap();
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(self.host_sq.tail()),
            Nsid::ONE,
            Lba(0),
            blocks,
            self.buf.prp1,
            self.buf.prp2,
        );
        self.host_sq.push(&mut self.host, &sqe).unwrap();
        let tail = u32::from(self.host_sq.tail());
        let sq_doorbell = DoorbellLayout::sq_tail_offset(QueueId(1));
        let before = alloc::events();
        let actions =
            self.engine
                .host_doorbell_write(SimTime::ZERO, func, sq_doorbell, tail, &mut self.host);
        let allocs = alloc::events() - before;
        let EngineAction::BackendDoorbell { tail, .. } = actions[0] else {
            panic!("read not forwarded: {actions:?}");
        };
        self.ssd_sq.doorbell_tail(tail).unwrap();
        let mut router = self.engine.dma_router(&mut self.host);
        let fwd = self.ssd_sq.fetch(&mut router).unwrap().unwrap();
        let cqe = Cqe::success(fwd.cid, QueueId(1), self.ssd_sq.head(), false);
        self.ssd_cq.post(&mut router, cqe).unwrap();
        let (_, cq_head) =
            self.engine
                .on_backend_completion(SimTime::ZERO, SsdId(0), &mut self.host);
        self.ssd_cq.doorbell_head(cq_head).unwrap();
        allocs
    }
}

fn prp_list_doorbell_allocates_like_a_single_page_read() {
    let mut rig = EngineRig::new();
    // Warm-up: sizes the engine's reused buffers and makes the chip
    // pages of the ring and of the PRP-list slot resident.
    rig.read(32);
    let single_page = rig.read(1);
    let prp_list = rig.read(32);
    assert!(
        prp_list <= single_page,
        "a 32-block doorbell allocates {prp_list} times, a 1-block one {single_page}"
    );
}

#[test]
fn hot_path_allocation_budget() {
    alloc::arm();
    pure_scheduler_steady_state_is_allocation_free();
    bm_store_read_window_does_not_grow_the_arena();
    bm_store_read_window_allocates_once_per_io();
    spdk_write_window_allocates_once_per_io();
    prp_list_doorbell_allocates_like_a_single_page_read();
}
