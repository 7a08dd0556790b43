//! The composed simulation world: a generic interpreter for the
//! scheme effects pipeline.
//!
//! A [`World`] owns one host (memory, kernel profile), the
//! back-end SSDs, the [`Scheme`] under test (built from
//! [`crate::schemes`] at construction time), the tenant devices, and
//! the registered workload [`Client`]s. The world never branches on
//! which scheme is running: it submits requests, hands pipeline events
//! to the scheme's hooks, and interprets the [`Effect`]s they return.
//!
//! ```text
//! client ──submit──▶ host SQ ──Stage::Doorbell──▶ Scheme hooks ──▶ SSD model
//!    ▲                                                                │
//!    └──CompleteToClient──◀ ChargeCpu ◀──RaiseInterrupt◀── effects ◀──┘
//! ```
//!
//! Every hop is a scheduled event at the latency the respective model
//! computes, so fio-style measurements emerge rather than being
//! asserted. The pipeline's hops are typed [`WorldEvent`]s stored
//! inline in the scheduler, the hooks' effects go into pooled buffers,
//! and in-flight host commands sit in a CID-indexed table, so a
//! command's trip through the loop allocates nothing.

use crate::config::{SchemeKind, TestbedConfig};
use crate::schemes::{
    self, BuildCtx, CompletionSlots, Effect, FaultTraceEvent, PipelineStage, Scheme, SchemeCtx,
    Stage,
};
use crate::types::{BufferId, Client, ClientId, Completion, DeviceId, IoOp, IoRequest};
use bm_baselines::vfio::VfioCosts;
use bm_host::kernel::KernelProfile;
use bm_nvme::command::{IoOpcode, Sqe};
use bm_nvme::mi::{HealthStatus, MiResponse};
use bm_nvme::prp::PrpPair;
use bm_nvme::queue::{CompletionQueue, SubmissionQueue};
use bm_nvme::types::{Cid, Nsid, QueueId};
use bm_nvme::Status;
use bm_pcie::mctp::Eid;
use bm_pcie::{HostMemory, PciAddr};
use bm_prof::{Profiler, Snapshot};
use bm_sim::faults::FaultKind;
use bm_sim::metrics::{Metric, MetricsRegistry};
use bm_sim::observe::Observer;
use bm_sim::resource::FifoServer;
use bm_sim::slo::{self, Alert, SloEngine};
use bm_sim::telemetry::critical_path::{self, BlameWindows, CriticalPathAnalysis};
use bm_sim::telemetry::{TelemetryRecorder, TelemetryStage};
use bm_sim::{Event, Scheduler, SimDuration, SimTime, Simulation};
use bm_ssd::firmware::CommitAction;
use bm_ssd::{CompletedIo, Ssd, SsdConfig, SsdId};
use bmstore_core::controller::commands::BmsCommand;
use bmstore_core::controller::{request_packets, BackendAdmin, BmsController, ControllerAction};
use bmstore_core::engine::{BmsEngine, EngineAction};
use std::any::Any;
use std::collections::VecDeque;

pub(crate) struct PendingHost {
    pub(crate) client: ClientId,
    pub(crate) tag: u64,
    pub(crate) submitted: SimTime,
    pub(crate) bytes: u64,
    pub(crate) is_write: bool,
}

/// Guest-side interrupt state of a device handed to a VM.
pub(crate) struct VmState {
    pub(crate) irq_cpu: FifoServer,
    pub(crate) costs: VfioCosts,
}

/// In-flight host commands of one device, indexed by CID. It grows on
/// demand to the highest CID in use (CIDs are handed out lowest first),
/// so a shallow queue on a deep ring costs only the slots it uses.
#[derive(Default)]
pub(crate) struct PendingTable {
    slots: Vec<Option<PendingHost>>,
    len: usize,
}

impl PendingTable {
    fn insert(&mut self, cid: Cid, pending: PendingHost) {
        let i = cid.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        if self.slots[i].replace(pending).is_none() {
            self.len += 1;
        }
    }

    fn get(&self, cid: Cid) -> Option<&PendingHost> {
        self.slots.get(cid.0 as usize)?.as_ref()
    }

    fn remove(&mut self, cid: Cid) -> Option<PendingHost> {
        let pending = self.slots.get_mut(cid.0 as usize)?.take();
        if pending.is_some() {
            self.len -= 1;
        }
        pending
    }

    /// Commands in flight.
    fn len(&self) -> usize {
        self.len
    }
}

/// One tenant device: the host-side rings and in-flight bookkeeping.
/// How its doorbell reaches a backend is the scheme's business.
pub(crate) struct Device {
    pub(crate) sq: SubmissionQueue,
    pub(crate) cq: CompletionQueue,
    pub(crate) free_cids: Vec<u16>,
    pub(crate) pending: PendingTable,
    pub(crate) waiting: VecDeque<(ClientId, IoRequest)>,
    pub(crate) vm: Option<VmState>,
    pub(crate) size_blocks: u64,
    /// Per-queue completion softirq context (irq affinity spreads
    /// device queues over cores, so the serialization is per device).
    pub(crate) softirq: FifoServer,
}

impl Device {
    pub(crate) fn new(
        sq: SubmissionQueue,
        cq: CompletionQueue,
        vm: Option<VmState>,
        size_blocks: u64,
    ) -> Device {
        let entries = sq.entries();
        Device {
            sq,
            cq,
            free_cids: (0..entries - 1).rev().collect(),
            pending: PendingTable::default(),
            waiting: VecDeque::new(),
            vm,
            size_blocks,
            softirq: FifoServer::new(),
        }
    }
}

/// The composed testbed (everything except the clients).
pub struct Testbed {
    cfg: TestbedConfig,
    /// Host physical memory (rings, PRP lists, data buffers).
    pub host_mem: HostMemory,
    kernel: KernelProfile,
    ssds: Vec<Ssd>,
    /// The scheme under test. `Option` only so hooks can borrow the
    /// scheme and the rest of the testbed simultaneously (take /
    /// put-back); it is always present between events.
    scheme: Option<Box<dyn Scheme>>,
    devices: Vec<Device>,
    buffers: Vec<PrpPair>,
    /// Telemetry, metrics, SLO and profiler, each present only when the
    /// config turns it on.
    obs: Observer,
}

impl Testbed {
    /// Builds the testbed from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (e.g. more
    /// whole-disk devices than SSDs for a direct scheme).
    pub fn new(cfg: TestbedConfig) -> Self {
        let mut ssds: Vec<Ssd> = (0..cfg.ssds)
            .map(|i| {
                let mut ssd_cfg = SsdConfig::p4510_2tb(SsdId(i as u8))
                    .with_profile(cfg.ssd_profile.clone())
                    .with_data_mode(cfg.data_mode);
                ssd_cfg.seed ^= cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Ssd::new(ssd_cfg)
            })
            .collect();
        let mut host_mem = HostMemory::new(8 << 30);
        let mut devices = Vec::new();
        let obs = Observer::new(
            cfg.telemetry
                .then(|| TelemetryRecorder::new(TelemetryRecorder::DEFAULT_CAPACITY)),
            cfg.metrics.then(MetricsRegistry::new),
            cfg.slo.clone().map(SloEngine::new),
            cfg.profiler.then(Profiler::new),
        );
        let scheme = {
            let mut ctx = BuildCtx {
                cfg: &cfg,
                host_mem: &mut host_mem,
                ssds: &mut ssds,
                devices: &mut devices,
            };
            match ctx.cfg.scheme.clone() {
                SchemeKind::Native => schemes::native::build(&mut ctx),
                SchemeKind::Vfio => schemes::vfio::build(&mut ctx),
                SchemeKind::BmStore { in_vm } => schemes::bm_store::build(&mut ctx, in_vm),
                SchemeKind::SpdkVhost { cores } => schemes::spdk::build(&mut ctx, cores),
                SchemeKind::ArmOffload => schemes::arm_offload::build(&mut ctx),
            }
        };
        Testbed {
            kernel: cfg.kernel.clone(),
            scheme: Some(scheme),
            devices,
            buffers: Vec::new(),
            obs,
            host_mem,
            ssds,
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// The scheme under test. The `Option` is a take/put-back cell for
    /// the event hooks; between events it is always occupied, so this
    /// is the single audited access point for that invariant.
    pub(crate) fn scheme_ref(&self) -> &dyn Scheme {
        #[expect(
            clippy::expect_used,
            reason = "take/put-back invariant — the scheme is absent only inside with_scheme's borrow window, which cannot call back in here"
        )]
        self.scheme.as_deref().expect("scheme present")
    }

    /// Name of the scheme under test.
    pub fn scheme_name(&self) -> &'static str {
        self.scheme_ref().name()
    }

    /// Number of tenant devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Size of a device in logical blocks.
    ///
    /// # Panics
    ///
    /// Panics if `dev` is out of range.
    pub fn device_blocks(&self, dev: DeviceId) -> u64 {
        self.devices[dev.0].size_blocks
    }

    /// Registers a DMA buffer of `bytes` and prebuilds its PRPs.
    ///
    /// # Panics
    ///
    /// Panics if host memory is exhausted.
    pub fn register_buffer(&mut self, bytes: u64) -> BufferId {
        #[expect(
            clippy::expect_used,
            reason = "documented contract — registration is setup-time, before the clock starts; exhaustion here is a harness sizing bug"
        )]
        let buf = self.host_mem.alloc(bytes).expect("buffer memory");
        let prp = PrpPair::build(&mut self.host_mem, buf, bytes);
        self.buffers.push(prp);
        BufferId(self.buffers.len() - 1)
    }

    /// Buffer base address (integrity tests write patterns through it).
    ///
    /// # Panics
    ///
    /// Panics if `buf` was not registered.
    pub fn buffer_addr(&self, buf: BufferId) -> PciAddr {
        self.buffers[buf.0].prp1
    }

    /// The observer: telemetry recorder, metrics registry, SLO engine
    /// and profiler, each `None` unless the config turned it on.
    pub fn observer(&self) -> &Observer {
        &self.obs
    }

    /// The wall-clock self-profiler (its snapshot is `None` unless the
    /// config's `profiler` flag was set).
    pub fn profiler(&self) -> ProfilerView<'_> {
        ProfilerView(self.obs.profiler())
    }

    /// Access to the BMS-Engine when running the BM-Store scheme.
    pub fn engine(&self) -> Option<&BmsEngine> {
        self.scheme.as_ref().and_then(|s| s.engine())
    }

    /// Access to the BMS-Controller when running BM-Store.
    pub fn controller(&self) -> Option<&BmsController> {
        self.scheme.as_ref().and_then(|s| s.controller())
    }

    /// Access to a back-end SSD.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn ssd(&self, i: usize) -> &Ssd {
        &self.ssds[i]
    }

    /// The host kernel profile in use.
    pub fn kernel(&self) -> &KernelProfile {
        &self.kernel
    }

    /// Host CPU seconds burnt by polling cores (0 except for SPDK).
    pub fn polling_cpu_busy(&self) -> SimDuration {
        self.scheme
            .as_ref()
            .map(|s| s.polling_cpu_busy())
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Read access to the testbed's self-profiler.
#[derive(Debug, Clone, Copy)]
pub struct ProfilerView<'a>(Option<&'a Profiler>);

impl ProfilerView<'_> {
    /// The end-of-run profile; `None` when the profiler is off.
    pub fn snapshot(&self) -> Option<Snapshot> {
        self.0.map(Profiler::snapshot)
    }
}

/// The scheduler of a [`World`] run.
type Sched = Scheduler<World, WorldEvent>;

/// A boxed event: harness actions, faults, management commands, sampler
/// ticks and the engine restart.
type RawAction = Box<dyn FnOnce(&mut World, &mut Sched)>;

/// One scheduled event of a [`World`] run, stored inline in the
/// scheduler's arena. The I/O pipeline's hops are typed, so scheduling
/// them allocates nothing; rare events ride as one boxed closure.
/// Payloads larger than a few words (fetched SQEs, backend
/// completions) stay with their owner and the event carries their key,
/// which keeps every event 40 bytes.
pub struct WorldEvent(Hop);

const _: () = assert!(std::mem::size_of::<WorldEvent>() <= 40);

enum Hop {
    /// A scheme pipeline continuation ([`Effect::ScheduleAt`]).
    Stage(Stage),
    /// A backend SQ doorbell over plain host DMA lands
    /// ([`Effect::ForwardToSsd`]).
    SsdDoorbell {
        dev: DeviceId,
        ssd: usize,
        qid: QueueId,
        tail: u32,
    },
    /// An interrupt reaches the host or guest ([`Effect::RaiseInterrupt`]).
    Interrupt {
        dev: DeviceId,
        cid: Cid,
        status: Status,
    },
    /// A completion reaches its client ([`Effect::CompleteToClient`]).
    Deliver {
        dev: DeviceId,
        cid: Cid,
        status: Status,
    },
    /// A scheduled client call: its start or a timer. (Completions are
    /// delivered in the event that completes them, never scheduled.)
    Client(ClientId, Wake),
    /// Anything else.
    Action(RawAction),
}

impl Event<World> for WorldEvent {
    fn fire(self, w: &mut World, s: &mut Sched) {
        match self.0 {
            Hop::Stage(stage) => w.run_stage(s, stage),
            Hop::SsdDoorbell {
                dev,
                ssd,
                qid,
                tail,
            } => w.ring_ssd_doorbell(s, dev, ssd, qid, tail),
            Hop::Interrupt { dev, cid, status } => w.host_notify(s, dev, cid, status),
            Hop::Deliver { dev, cid, status } => {
                w.tb.obs.enter("deliver");
                w.deliver_to_client(s, dev, cid, status);
                w.tb.obs.exit();
            }
            Hop::Client(id, Wake::Start) => w.call_client(s, id, ClientCall::Start),
            Hop::Client(id, Wake::Timer) => w.call_client(s, id, ClientCall::Timer),
            Hop::Action(f) => f(w, s),
        }
    }
}

/// Schedules a typed hop at `at`.
fn hop_at(s: &mut Sched, at: SimTime, hop: Hop) {
    s.schedule_event_at(at, WorldEvent(hop));
}

/// Schedules a boxed event at `at`.
fn action_at(s: &mut Sched, at: SimTime, f: impl FnOnce(&mut World, &mut Sched) + 'static) {
    hop_at(s, at, Hop::Action(Box::new(f)));
}

/// Cold-boot time of the card firmware after a power loss (the
/// capacitor-backed journal flush plus the boot ROM path).
const POWER_LOSS_RESTART: SimDuration = SimDuration::from_ms(5);

enum ClientCall {
    Start,
    Completion(Completion),
    Timer,
}

/// The client calls a [`Hop::Client`] schedules.
#[derive(Clone, Copy)]
enum Wake {
    Start,
    Timer,
}

/// Link-level fault state the world interprets itself (SSD-level faults
/// live inside the device models). Defaults are inert: `link_until` in
/// the past defers nothing, zero `mctp_drops` drops nothing.
#[derive(Default)]
struct FaultRuntime {
    /// Bus crossings before this instant are deferred to it.
    link_until: SimTime,
    /// Number of upcoming MCTP packets the management link will eat.
    mctp_drops: u32,
}

/// Profile segment for one dispatched pipeline stage. Exhaustive on
/// purpose: adding a [`Stage`] variant forces a naming decision here,
/// so the profiler's key set stays in lockstep with the pipeline.
fn stage_seg(stage: &Stage) -> &'static str {
    match stage {
        Stage::Doorbell { .. } => "stage:Doorbell",
        Stage::Forward { .. } => "stage:Forward",
        Stage::BackendComplete { .. } => "stage:BackendComplete",
        Stage::GuestComplete { .. } => "stage:GuestComplete",
        Stage::EngineDoorbell { .. } => "stage:EngineDoorbell",
        Stage::EngineBackendDoorbell { .. } => "stage:EngineBackendDoorbell",
        Stage::EngineBackendComplete { .. } => "stage:EngineBackendComplete",
        Stage::EngineHostCompletion { .. } => "stage:EngineHostCompletion",
        Stage::EngineQosWakeup => "stage:EngineQosWakeup",
        Stage::EngineDeadline => "stage:EngineDeadline",
    }
}

/// Profile segment for one interpreted scheme effect; exhaustive for
/// the same reason as [`stage_seg`].
fn effect_seg(effect: &Effect) -> &'static str {
    match effect {
        Effect::ScheduleAt { .. } => "fx:ScheduleAt",
        Effect::ForwardToSsd { .. } => "fx:ForwardToSsd",
        Effect::RaiseInterrupt { .. } => "fx:RaiseInterrupt",
        Effect::ChargeCpu { .. } => "fx:ChargeCpu",
        Effect::CompleteToClient { .. } => "fx:CompleteToClient",
        Effect::Trace { .. } => "fx:Trace",
        Effect::FaultTrace { .. } => "fx:FaultTrace",
    }
}

/// The world: testbed + clients, driven by [`World::run`].
pub struct World {
    /// The composed testbed.
    pub tb: Testbed,
    clients: Vec<Option<Box<dyn Client>>>,
    pending_mgmt: Vec<(SimTime, BmsCommand)>,
    pending_raw: Vec<(SimTime, RawAction)>,
    mgmt_responses: Vec<(SimTime, MiResponse)>,
    next_mgmt_tag: u8,
    /// Commands that passed each [`PipelineStage`], by stage index.
    stage_counts: [u64; 5],
    /// Every fault injected and recovery action taken, in order.
    fault_events: Vec<(SimTime, FaultTraceEvent)>,
    faults: FaultRuntime,
    /// Emptied effect buffers, lent to the next scheme hook (hooks nest,
    /// so there can be several).
    effect_pool: Vec<Vec<Effect>>,
    /// Completions of one plain-DMA backend doorbell.
    completed_ios: Vec<CompletedIo>,
    /// Plain-DMA completions waiting for their stage.
    completions: CompletionSlots,
    /// Total simulator events fired by the last [`World::run`] (zero
    /// before any run). Dividing by host wall-clock time yields the
    /// harness's events-per-second throughput figure.
    pub events_fired: u64,
    /// Peak simulator event-queue depth observed by the last
    /// [`World::run`] (zero before any run).
    pub peak_event_queue: usize,
    /// Events the scheduler clamped forward to "now" because they were
    /// scheduled in the past (zero before any run; non-zero indicates
    /// a model emitting stale timestamps).
    pub clamped_past: u64,
    /// Scheduler arena slots allocated by the last [`World::run`]
    /// (zero before any run; unbounded growth indicates an event leak).
    pub arena_slots: usize,
    /// When the last run's event queue drained (incident reports close
    /// open fault windows at this instant).
    run_end: SimTime,
}

impl World {
    /// Wraps a testbed with no clients yet.
    pub fn new(tb: Testbed) -> Self {
        World {
            tb,
            clients: Vec::new(),
            pending_mgmt: Vec::new(),
            pending_raw: Vec::new(),
            mgmt_responses: Vec::new(),
            next_mgmt_tag: 0,
            stage_counts: [0; 5],
            fault_events: Vec::new(),
            faults: FaultRuntime::default(),
            effect_pool: Vec::new(),
            completed_ios: Vec::new(),
            completions: CompletionSlots::default(),
            events_fired: 0,
            peak_event_queue: 0,
            clamped_past: 0,
            arena_slots: 0,
            run_end: SimTime::ZERO,
        }
    }

    /// Commands that passed `stage` of submit → translate → doorbell →
    /// backend → complete.
    pub fn stage_count(&self, stage: PipelineStage) -> u64 {
        self.stage_counts[stage.index()]
    }

    /// Every fault injected and recovery action taken, with its time,
    /// in the order they happened.
    pub fn fault_events(&self) -> &[(SimTime, FaultTraceEvent)] {
        &self.fault_events
    }

    fn observe(&mut self, stage: PipelineStage) {
        self.stage_counts[stage.index()] += 1;
    }

    fn observe_fault(&mut self, now: SimTime, event: FaultTraceEvent) {
        self.fault_events.push((now, event));
    }

    /// Schedules an out-of-band management command (sent to the
    /// BMS-Controller over MCTP) at `at`. Only meaningful for BM-Store
    /// testbeds.
    pub fn schedule_command(&mut self, at: SimTime, cmd: BmsCommand) {
        self.pending_mgmt.push((at, cmd));
    }

    /// Schedules an arbitrary harness action at `at` (e.g. the physical
    /// SSD swap of a hot-plug experiment).
    pub fn schedule_action(
        &mut self,
        at: SimTime,
        f: impl FnOnce(&mut World, &mut Scheduler<World, WorldEvent>) + 'static,
    ) {
        self.pending_raw.push((at, Box::new(f)));
    }

    /// Management responses received so far, with their arrival times.
    pub fn mgmt_responses(&self) -> &[(SimTime, MiResponse)] {
        &self.mgmt_responses
    }

    /// Registers a client.
    pub fn add_client(&mut self, client: Box<dyn Client>) -> ClientId {
        self.clients.push(Some(client));
        ClientId(self.clients.len() - 1)
    }

    /// Runs the simulation until the event queue drains (or `deadline`
    /// passes); returns the world for inspection.
    pub fn run(mut self, deadline: Option<SimTime>) -> World {
        let ids: Vec<ClientId> = (0..self.clients.len()).map(ClientId).collect();
        let mgmt = std::mem::take(&mut self.pending_mgmt);
        let raw = std::mem::take(&mut self.pending_raw);
        let plan: Vec<_> = self.tb.cfg.fault_plan.events().to_vec();
        let mut sim: Simulation<World, WorldEvent> = Simulation::typed(self);
        let s = sim.scheduler_mut();
        for id in ids {
            hop_at(s, SimTime::ZERO, Hop::Client(id, Wake::Start));
        }
        for ev in plan {
            action_at(s, ev.at, move |w, s| w.apply_fault(s, ev.kind));
        }
        for (at, cmd) in mgmt {
            action_at(s, at, move |w, s| w.do_management(s, cmd));
        }
        for (at, f) in raw {
            action_at(s, at, move |w, s| {
                w.tb.obs.enter("action");
                f(w, s);
                w.tb.obs.exit();
            });
        }
        if sim.world().tb.obs.metrics().is_some() {
            let interval = sim.world().tb.cfg.metrics_interval;
            action_at(sim.scheduler_mut(), SimTime::ZERO, move |w, s| {
                w.sample_metrics(s, interval);
            });
        }
        if sim.world().tb.obs.profiler().is_some() {
            // Profiled run: drive the scheduler one event at a time so
            // the profiler sees each retirement. `step`/`step_until`
            // replicate `run_until_idle`/`run_until` exactly (same pop
            // order, same deadline clamp), so event execution — and
            // therefore every figure — is byte-identical to the fast
            // path below; the profiler only reads the host clock.
            fn prof(sim: &mut Simulation<World, WorldEvent>) -> Option<&mut Profiler> {
                sim.world_mut().tb.obs.profiler_mut()
            }
            if let Some(p) = prof(&mut sim) {
                p.run_begin();
            }
            loop {
                let fired = match deadline {
                    Some(t) => sim.step_until(t),
                    None => sim.step(),
                };
                if !fired {
                    break;
                }
                let sched = sim.scheduler_mut();
                let (events, arena) = (sched.events_fired(), sched.arena_slots());
                if let Some(p) = prof(&mut sim) {
                    p.on_event_retired(events, arena);
                }
            }
            if let Some(p) = prof(&mut sim) {
                p.run_end();
            }
        } else {
            match deadline {
                Some(t) => {
                    sim.run_until(t);
                }
                None => {
                    sim.run_until_idle();
                }
            }
        }
        let (fired, peak, clamped, arena) = {
            let sched = sim.scheduler_mut();
            (
                sched.events_fired(),
                sched.peak_pending(),
                sched.clamped_past(),
                sched.arena_slots(),
            )
        };
        let end = sim.now();
        let mut world = sim.into_world();
        world.events_fired = fired;
        world.peak_event_queue = peak;
        world.clamped_past = clamped;
        world.arena_slots = arena;
        world.run_end = end;
        world.export_run_stats(end);
        world
    }

    /// End-of-run export: the scheduler's lifetime stats and the
    /// engine's resilience counters land in the registry as scrapeable
    /// counters/gauges (the per-tick sampler only sees snapshots; these
    /// are the exact totals).
    fn export_run_stats(&mut self, now: SimTime) {
        let resilience = self.tb.engine().map(|e| e.resilience_stats());
        let Some(m) = self.tb.obs.metrics_mut() else {
            return;
        };
        m.counter_add(Metric::SchedEventsFired.of(0), self.events_fired);
        m.counter_add(Metric::SchedClampedPast.of(0), self.clamped_past);
        if let Some(r) = resilience {
            m.counter_add(Metric::EngineRecoveries.of(0), r.recoveries);
            m.counter_add(Metric::EngineRecoveryReplayed.of(0), r.replayed);
            m.counter_add(Metric::EngineRecoveryAborted.of(0), r.aborted_on_recovery);
            m.counter_add(Metric::EngineRecoveryTime.of(0), r.recovery_time.as_nanos());
        }
        let peak = self.peak_event_queue as f64;
        m.gauge_set(now, Metric::SchedPeakPending.of(0), peak);
        m.gauge_set(now, Metric::SchedArenaSlots.of(0), self.arena_slots as f64);
    }

    /// Borrow a client back after a run (e.g. to read its statistics).
    ///
    /// # Panics
    ///
    /// Panics if the id is invalid.
    pub fn client(&self, id: ClientId) -> &dyn Client {
        #[expect(
            clippy::expect_used,
            reason = "documented contract — the doc comment says \"Panics if the id is invalid\"; ids only come from add_client"
        )]
        self.clients[id.0].as_deref().expect("client present")
    }

    /// Borrow a client back as its concrete type after a run; `None`
    /// if the id is invalid or the client is not a `T`.
    pub fn client_as<T: Client>(&self, id: ClientId) -> Option<&T> {
        let client: &dyn Any = self.clients.get(id.0)?.as_deref()?;
        client.downcast_ref()
    }

    /// The simulation time at which the last run drained (ZERO before
    /// any run).
    pub fn run_end(&self) -> SimTime {
        self.run_end
    }

    /// The SLO alert log, in emission order (empty with no policy).
    pub fn slo_alerts(&self) -> &[Alert] {
        self.tb.obs.slo().map(|e| e.alerts()).unwrap_or(&[])
    }

    /// Critical-path blame analysis of the last run's telemetry,
    /// correlated against the fault/recovery windows on the metrics
    /// timeline. `None` when telemetry is disabled.
    pub fn critical_path(&self) -> Option<CriticalPathAnalysis> {
        let rec = self.tb.obs.telemetry()?;
        let windows = BlameWindows::from_annotations(self.annotations(), self.run_end);
        Some(critical_path::analyze(rec, &windows))
    }

    /// The metrics timeline's annotations (empty with metrics off).
    fn annotations(&self) -> &[bm_sim::metrics::Annotation] {
        self.tb.obs.metrics().map_or(&[], |m| m.annotations())
    }

    /// Renders the deterministic incident report for the last run:
    /// alerts + fault/recovery windows + `extra_events` (e.g. chaos
    /// oracle violations) in one ordered timeline, followed by blame
    /// profiles and the `top_k` slowest critical paths.
    pub fn incident_report(&self, extra_events: &[(SimTime, String)], top_k: usize) -> String {
        let analysis = self.critical_path();
        let (recoveries, replayed, aborted_on_recovery) = self
            .tb
            .engine()
            .map(|e| {
                let r = e.resilience_stats();
                (r.recoveries, r.replayed, r.aborted_on_recovery)
            })
            .unwrap_or((0, 0, 0));
        slo::render_incident(&slo::IncidentInput {
            alerts: self.slo_alerts(),
            annotations: self.annotations(),
            blame: analysis.as_ref(),
            extra_events,
            recoveries,
            replayed,
            aborted_on_recovery,
            top_k,
        })
    }

    fn call_client(&mut self, s: &mut Sched, id: ClientId, call: ClientCall) {
        let now = s.now();
        self.tb.obs.enter(match &call {
            ClientCall::Start => "client:start",
            ClientCall::Completion(_) => "client:completion",
            ClientCall::Timer => "client:timer",
        });
        #[expect(
            clippy::expect_used,
            reason = "take/put-back invariant — the client is put back unconditionally below, and client hooks cannot re-enter here"
        )]
        let mut client = self.clients[id.0].take().expect("client present");
        let out = match call {
            ClientCall::Start => client.start(now),
            ClientCall::Completion(c) => client.on_completion(now, c),
            ClientCall::Timer => client.on_timer(now),
        };
        self.clients[id.0] = Some(client);
        for req in out.requests {
            self.submit_request(s, id, req);
        }
        if let Some(at) = out.next_timer {
            hop_at(s, at, Hop::Client(id, Wake::Timer));
        }
        self.tb.obs.exit();
    }

    /// Runs `f` with the scheme taken out of the testbed, so hooks can
    /// borrow the scheme and the remaining testbed resources at once.
    fn with_scheme<R>(&mut self, f: impl FnOnce(&mut dyn Scheme, &mut SchemeCtx) -> R) -> R {
        #[expect(
            clippy::expect_used,
            reason = "take/put-back invariant — the scheme is put back unconditionally after the hook returns, and hooks cannot re-enter here"
        )]
        let mut scheme = self.tb.scheme.take().expect("scheme present");
        let out = {
            let mut ctx = SchemeCtx {
                host_mem: &mut self.tb.host_mem,
                ssds: &mut self.tb.ssds,
                kernel: &self.tb.kernel,
                obs: &mut self.tb.obs,
                completions: &mut self.completions,
            };
            f(scheme.as_mut(), &mut ctx)
        };
        self.tb.scheme = Some(scheme);
        out
    }

    /// An emptied effect buffer to lend a scheme hook.
    fn take_effects(&mut self) -> Vec<Effect> {
        self.effect_pool.pop().unwrap_or_default()
    }

    /// Entry point for client I/O.
    fn submit_request(&mut self, s: &mut Sched, client: ClientId, req: IoRequest) {
        let popped = self.tb.devices[req.dev.0].free_cids.pop();
        match popped {
            Some(cid) => self.do_submit(s, client, req, Cid(cid)),
            None => self.tb.devices[req.dev.0].waiting.push_back((client, req)),
        }
    }

    fn do_submit(&mut self, s: &mut Sched, client: ClientId, req: IoRequest, cid: Cid) {
        let now = s.now();
        self.tb.obs.enter("submit");
        let (prp, bytes) = if req.op == IoOp::Flush {
            (
                PrpPair {
                    prp1: PciAddr::NULL,
                    prp2: PciAddr::NULL,
                    len: 0,
                },
                0,
            )
        } else {
            let prp = self.tb.buffers[req.buf.0];
            let bytes = req.blocks as u64 * 4096;
            debug_assert!(bytes <= prp.len, "buffer too small for request");
            (prp, bytes)
        };
        let lba = self.tb.scheme_ref().translate(req.dev, req.lba);
        let opcode = match req.op {
            IoOp::Read => IoOpcode::Read,
            IoOp::Write => IoOpcode::Write,
            IoOp::Flush => IoOpcode::Flush,
        };
        let sqe = Sqe::io(
            opcode,
            cid,
            Nsid::ONE,
            lba,
            req.blocks.max(1),
            prp.prp1,
            prp.prp2,
        );
        let dev = &mut self.tb.devices[req.dev.0];
        #[expect(
            clippy::expect_used,
            reason = "config invariant — submit() gates on queue-depth credits, so the ring can never be full here"
        )]
        dev.sq
            .push(&mut self.tb.host_mem, &sqe)
            .expect("ring sized above queue depth");
        dev.pending.insert(
            cid,
            PendingHost {
                client,
                tag: req.tag,
                submitted: now,
                bytes,
                is_write: req.op.is_write(),
            },
        );
        self.observe(PipelineStage::Submit);
        self.observe(PipelineStage::Translate);
        // Open the root telemetry span; the scheme's stage spans hang
        // off the CmdId this allocates. Inert when telemetry is off.
        self.tb
            .obs
            .begin_command(now, req.dev.0 as u16, cid.0, sqe.opcode.code());
        #[expect(
            clippy::expect_used,
            reason = "take/put-back invariant — restored right after submit, which cannot re-enter the testbed"
        )]
        let mut scheme = self.tb.scheme.take().expect("scheme present");
        let mut effects = self.take_effects();
        scheme.submit(now, req.dev, &sqe, &self.tb.kernel, &mut effects);
        self.tb.scheme = Some(scheme);
        self.apply_effects(s, effects);
        self.tb.obs.exit();
    }

    /// Dispatches a pipeline continuation back into the scheme.
    fn run_stage(&mut self, s: &mut Sched, stage: Stage) {
        let now = s.now();
        self.tb.obs.enter(stage_seg(&stage));
        let mut effects = self.take_effects();
        match stage {
            Stage::Doorbell { dev, cid } => {
                let tail = self.tb.devices[dev.0].sq.tail() as u32;
                self.observe(PipelineStage::Doorbell);
                // Host submission span: SQE push → doorbell ring.
                let (cmd, opcode) = self.tb.obs.lookup(dev.0 as u16, cid.0);
                if cmd.is_some() {
                    let submitted = self.tb.devices[dev.0]
                        .pending
                        .get(cid)
                        .map(|p| p.submitted)
                        .unwrap_or(now);
                    self.tb.obs.span(
                        cmd,
                        dev.0 as u16,
                        dev.0 as u8,
                        opcode,
                        TelemetryStage::Submit,
                        submitted,
                        now,
                        true,
                    );
                }
                self.with_scheme(|scheme, ctx| {
                    scheme.on_doorbell(now, dev, tail, ctx, &mut effects)
                });
            }
            other @ (Stage::Forward { .. }
            | Stage::BackendComplete { .. }
            | Stage::GuestComplete { .. }
            | Stage::EngineDoorbell { .. }
            | Stage::EngineBackendDoorbell { .. }
            | Stage::EngineBackendComplete { .. }
            | Stage::EngineHostCompletion { .. }
            | Stage::EngineQosWakeup
            | Stage::EngineDeadline) => {
                self.with_scheme(|scheme, ctx| scheme.on_stage(now, other, ctx, &mut effects))
            }
        }
        self.apply_effects(s, effects);
        self.tb.obs.exit();
    }

    /// Applies `effects` in order, then returns the emptied buffer to
    /// the pool.
    fn apply_effects(&mut self, s: &mut Sched, mut effects: Vec<Effect>) {
        for effect in effects.drain(..) {
            self.apply_effect(s, effect);
        }
        self.effect_pool.push(effects);
    }

    /// Management-plane engine actions, converted by the scheme and
    /// applied.
    fn apply_engine_actions(&mut self, s: &mut Sched, actions: Vec<EngineAction>) {
        let mut effects = self.take_effects();
        if let Some(scheme) = self.tb.scheme.as_mut() {
            scheme.on_engine_actions(actions, &mut effects);
        }
        self.apply_effects(s, effects);
    }

    /// A bus crossing scheduled inside a PCIe link-retrain window is
    /// deferred to the window's end (and the deferral is observable).
    /// Inert when no retrain is active: `link_until` defaults to time
    /// zero, which nothing precedes.
    fn defer_past_retrain(&mut self, s: &Sched, at: SimTime) -> SimTime {
        if at < self.faults.link_until {
            let until = self.faults.link_until;
            self.observe_fault(s.now(), FaultTraceEvent::LinkDeferred { until });
            until
        } else {
            at
        }
    }

    /// The generic interpreter: one typed effect, one event-loop rule.
    fn apply_effect(&mut self, s: &mut Sched, effect: Effect) {
        self.tb.obs.enter(effect_seg(&effect));
        match effect {
            Effect::ScheduleAt { at, stage } => {
                // Doorbell MMIO writes cross the PCIe link; completions
                // and internal engine timers do not. Every stage is
                // named so adding one forces a link-crossing decision.
                let at = match stage {
                    Stage::Doorbell { .. }
                    | Stage::Forward { .. }
                    | Stage::EngineDoorbell { .. }
                    | Stage::EngineBackendDoorbell { .. } => self.defer_past_retrain(s, at),
                    Stage::BackendComplete { .. }
                    | Stage::GuestComplete { .. }
                    | Stage::EngineBackendComplete { .. }
                    | Stage::EngineHostCompletion { .. }
                    | Stage::EngineQosWakeup
                    | Stage::EngineDeadline => at,
                };
                hop_at(s, at, Hop::Stage(stage));
            }
            Effect::ForwardToSsd {
                at,
                dev,
                ssd,
                qid,
                tail,
            } => {
                let at = self.defer_past_retrain(s, at);
                hop_at(
                    s,
                    at,
                    Hop::SsdDoorbell {
                        dev,
                        ssd,
                        qid,
                        tail,
                    },
                );
            }
            Effect::RaiseInterrupt {
                at,
                dev,
                cid,
                status,
            } => {
                let at = self.defer_past_retrain(s, at);
                // A mediator injecting at the current instant completes
                // inline, in the same event (not behind queued peers).
                if at <= s.now() {
                    self.host_notify(s, dev, cid, status);
                } else {
                    hop_at(s, at, Hop::Interrupt { dev, cid, status });
                }
            }
            Effect::ChargeCpu { dev, cid, status } => self.charge_cpu(s, dev, cid, status),
            Effect::CompleteToClient {
                at,
                dev,
                cid,
                status,
            } => hop_at(s, at, Hop::Deliver { dev, cid, status }),
            Effect::Trace { stage } => self.observe(stage),
            Effect::FaultTrace { event } => self.observe_fault(s.now(), event),
        }
        self.tb.obs.exit();
    }

    /// A backend SSD's SQ doorbell over plain host DMA lands: each
    /// completion re-enters the pipeline at its completion time, for
    /// `dev`, whose commands the queue carries.
    fn ring_ssd_doorbell(
        &mut self,
        s: &mut Sched,
        dev: DeviceId,
        ssd: usize,
        qid: QueueId,
        tail: u32,
    ) {
        self.tb.obs.enter("ssd:doorbell");
        let tb = &mut self.tb;
        let ios = &mut self.completed_ios;
        tb.ssds[ssd].ring_sq_doorbell_into(s.now(), qid, tail, &mut tb.host_mem, ios);
        for io in ios.drain(..) {
            let at = io.at;
            let slot = self.completions.park(io);
            hop_at(s, at, Hop::Stage(Stage::BackendComplete { dev, ssd, slot }));
        }
        self.tb.obs.exit();
    }

    /// Injects one scheduled fault into its target layer.
    fn apply_fault(&mut self, s: &mut Sched, kind: FaultKind) {
        let now = s.now();
        self.tb.obs.enter("fault");
        match kind {
            FaultKind::SsdLatencySpike { ssd, extra, until } => {
                if let Some(dev) = self.tb.ssds.get_mut(ssd) {
                    dev.inject_latency_spike(extra, until);
                }
            }
            FaultKind::SsdStall { ssd, until } => {
                if let Some(dev) = self.tb.ssds.get_mut(ssd) {
                    dev.inject_stall(until);
                }
            }
            FaultKind::SsdDeath { ssd } => {
                if let Some(dev) = self.tb.ssds.get_mut(ssd) {
                    dev.inject_death();
                }
            }
            FaultKind::SsdErrorBurst {
                ssd,
                probability,
                until,
            } => {
                let rng = self.tb.cfg.fault_plan.rng_for_ssd(ssd);
                if let Some(dev) = self.tb.ssds.get_mut(ssd) {
                    dev.inject_error_burst(probability, until, rng);
                }
            }
            FaultKind::SsdDropCommands { ssd, count } => {
                if let Some(dev) = self.tb.ssds.get_mut(ssd) {
                    dev.inject_command_drops(count);
                }
            }
            FaultKind::MctpDrop { count } => self.faults.mctp_drops += count,
            FaultKind::LinkRetrain { until } => {
                self.faults.link_until = self.faults.link_until.max(until);
            }
            FaultKind::EngineCrash { restart_after } => {
                self.crash_engine(s, now + restart_after);
            }
            FaultKind::PowerLoss { torn_writes } => {
                // The whole card loses power: every SSD's un-acked
                // writes may tear, then the engine cold-restarts.
                for i in 0..self.tb.ssds.len() {
                    let rng = self.tb.cfg.fault_plan.rng_for_ssd(i);
                    self.tb.ssds[i].power_loss(now, torn_writes, rng);
                }
                self.crash_engine(s, now + POWER_LOSS_RESTART);
            }
            FaultKind::SsdReinsert { ssd } => self.reinsert_ssd(s, ssd),
        }
        self.observe_fault(now, FaultTraceEvent::Injected(kind));
        // Fault windows annotate the metrics timeline, so utilization
        // excursions in the report line up with their cause, and appear
        // in the exported trace as instants.
        let (end, label) = match kind {
            FaultKind::SsdLatencySpike { until, .. } => (Some(until), "fault:ssd-latency-spike"),
            FaultKind::SsdStall { until, .. } => (Some(until), "fault:ssd-stall"),
            FaultKind::SsdDeath { .. } => (None, "fault:ssd-death"),
            FaultKind::SsdErrorBurst { until, .. } => (Some(until), "fault:ssd-error-burst"),
            FaultKind::SsdDropCommands { .. } => (None, "fault:ssd-drop-commands"),
            FaultKind::MctpDrop { .. } => (None, "fault:mctp-drop"),
            FaultKind::LinkRetrain { until } => (Some(until), "fault:link-retrain"),
            FaultKind::EngineCrash { restart_after } => {
                (Some(now + restart_after), "fault:engine-crash")
            }
            FaultKind::PowerLoss { .. } => (Some(now + POWER_LOSS_RESTART), "fault:power-loss"),
            FaultKind::SsdReinsert { .. } => (None, "fault:ssd-reinsert"),
        };
        self.tb.obs.fault(now, end, label);
        self.tb.obs.exit();
    }

    /// The periodic metrics sampler: refreshes occupancy gauges from
    /// every layer, snapshots all gauges into their bounded series, and
    /// re-arms itself. It stops once the event queue is otherwise empty
    /// — in a drained discrete-event simulation nothing can schedule
    /// new work, so rescheduling would keep `run_until_idle` alive
    /// forever.
    fn sample_metrics(&mut self, s: &mut Sched, interval: SimDuration) {
        let now = s.now();
        self.tb.obs.enter("sampler");
        self.record_scheduler_sample(now, s);
        self.record_metric_sample(now);
        self.evaluate_slo(now);
        if s.pending() > 0 {
            action_at(s, now + interval, move |w, s| w.sample_metrics(s, interval));
        }
        self.tb.obs.exit();
    }

    /// Per-tick scheduler stats: occupancy gauges (snapshotted into
    /// series by the gauge pass) plus cumulative tallies sampled as
    /// series, so event-rate and clamp excursions line up with the rest
    /// of the timeline. Runs before `record_metric_sample` so this
    /// tick's `snapshot_gauges` captures the fresh values.
    fn record_scheduler_sample(&mut self, now: SimTime, s: &Sched) {
        let Some(m) = self.tb.obs.metrics_mut() else {
            return;
        };
        m.sample(now, Metric::SchedEventsFired.of(0), s.events_fired() as f64);
        m.gauge_set(now, Metric::SchedPending.of(0), s.pending() as f64);
        m.sample(now, Metric::SchedClampedPast.of(0), s.clamped_past() as f64);
        m.gauge_set(now, Metric::SchedArenaSlots.of(0), s.arena_slots() as f64);
    }

    /// One SLO evaluation tick: burn rates + the stall watchdog over
    /// the commands in flight host-side.
    fn evaluate_slo(&mut self, now: SimTime) {
        if self.tb.obs.slo().is_none() {
            return;
        }
        let outstanding: u64 = self
            .tb
            .devices
            .iter()
            .map(|d| (d.pending.len() + d.waiting.len()) as u64)
            .sum();
        self.tb.obs.sampler_tick(now, outstanding);
    }

    /// One sampling tick: read live occupancy state into gauges and
    /// cumulative-tally series. The sampler only *reads* the pipeline
    /// (ports, backlogs, device queues, SSD service tallies); the few
    /// event-time pushes (stage busy, MCTP counters) happen where the
    /// events fire.
    fn record_metric_sample(&mut self, now: SimTime) {
        let tb = &mut self.tb;
        let Some(m) = tb.obs.metrics_mut() else {
            return;
        };
        m.mark_sample_tick(now);
        // Host-side tenant queues (every scheme).
        for (i, dev) in tb.devices.iter().enumerate() {
            m.gauge_set(now, Metric::HostSqInflight.of(i), dev.pending.len() as f64);
            m.gauge_set(now, Metric::HostSqWaiting.of(i), dev.waiting.len() as f64);
        }
        // SSD service tallies (cumulative counters, sampled as series so
        // windowed service-time utilization falls out of any two ticks).
        for (i, ssd) in tb.ssds.iter().enumerate() {
            let stats = ssd.service_stats();
            m.sample(now, Metric::SsdBusy.of(i), stats.busy.as_nanos_f64());
            m.sample(now, Metric::SsdOps.of(i), stats.ops as f64);
        }
        // BM-Store engine: per-port occupancy and the conservation
        // tallies (live == forwarded - completed - abandoned).
        if let Some(engine) = tb.scheme.as_deref().and_then(|s| s.engine()) {
            for (i, port) in engine.adaptor().ports().enumerate() {
                let backlog = engine.backlog_len(SsdId(i as u8)) as f64;
                m.gauge_set(now, Metric::DoorbellBacklog.of(i), backlog);
                m.gauge_set(now, Metric::BackendInflight.of(i), port.inflight() as f64);
                m.gauge_set(now, Metric::BackendLive.of(i), port.live() as f64);
                m.gauge_set(
                    now,
                    Metric::BackendZombies.of(i),
                    port.zombie_count() as f64,
                );
                let bytes = port.inflight_bytes() as f64;
                m.gauge_set(now, Metric::DmaInflightBytes.of(i), bytes);
                m.sample(now, Metric::BackendForwarded.of(i), port.forwarded() as f64);
                m.sample(now, Metric::BackendCompleted.of(i), port.completed() as f64);
                m.sample(now, Metric::BackendAbandoned.of(i), port.abandoned() as f64);
            }
        }
        // Management plane: torn reassemblies pending at the controller.
        if let Some(controller) = tb.scheme.as_deref().and_then(|s| s.controller()) {
            let partials = controller.assembler().in_progress() as f64;
            m.gauge_set(now, Metric::MctpPartials.of(0), partials);
        }
        // Snapshot every gauge into its series at this tick.
        m.snapshot_gauges(now);
    }

    /// Interrupt arrives at the host/guest: consume the CQE, ack it
    /// through the scheme, then charge the completion-side stack.
    fn host_notify(&mut self, s: &mut Sched, dev_id: DeviceId, cid: Cid, status: Status) {
        let now = s.now();
        self.tb.obs.enter("notify");
        let (cid, status, head) = {
            let dev = &mut self.tb.devices[dev_id.0];
            let polled = dev.cq.poll(&mut self.tb.host_mem);
            let (cid, status) = polled.map(|c| (c.cid, c.status)).unwrap_or((cid, status));
            (cid, status, dev.cq.head() as u32)
        };
        self.with_scheme(|scheme, ctx| scheme.ack_host_cq(now, dev_id, head, ctx));
        self.apply_effect(
            s,
            Effect::ChargeCpu {
                dev: dev_id,
                cid,
                status,
            },
        );
        self.tb.obs.exit();
    }

    /// Completion-side stack latency: guest IRQ vCPU or host softirq.
    fn charge_cpu(&mut self, s: &mut Sched, dev_id: DeviceId, cid: Cid, status: Status) {
        let now = s.now();
        let dev = &mut self.tb.devices[dev_id.0];
        let is_write = dev.pending.get(cid).map(|p| p.is_write).unwrap_or(false);
        let deliver_at = match &mut dev.vm {
            Some(vm) => {
                let mut cost = vm.costs.guest_complete;
                if is_write {
                    cost += vm.costs.guest_write_complete_extra;
                }
                let start = now + vm.costs.interrupt_delivery;
                vm.irq_cpu.occupy(start, cost) + self.tb.kernel.extra_latency
            }
            None => {
                let t = dev.softirq.occupy(now, self.tb.kernel.softirq_per_io);
                t + self.tb.kernel.complete_cost + self.tb.kernel.extra_latency
            }
        };
        self.apply_effect(
            s,
            Effect::CompleteToClient {
                at: deliver_at,
                dev: dev_id,
                cid,
                status,
            },
        );
    }

    fn deliver_to_client(&mut self, s: &mut Sched, dev_id: DeviceId, cid: Cid, status: Status) {
        let now = s.now();
        let Some(pending) = self.tb.devices[dev_id.0].pending.remove(cid) else {
            return; // duplicate/late notify (defensive)
        };
        {
            let dev = &mut self.tb.devices[dev_id.0];
            dev.free_cids.push(cid.0);
            // The device consumed one SQE for this completion; retire
            // the slot in the host's ring view.
            dev.sq.retire();
        }
        self.observe(PipelineStage::Complete);
        self.tb.obs.completion(
            now,
            dev_id.0 as u16,
            cid.0,
            now.saturating_since(pending.submitted),
            status.is_success(),
        );
        let completed = if self.tb.cfg.apply_plug_factor {
            let real = now.saturating_since(pending.submitted);
            pending.submitted
                + SimDuration::from_nanos((real.as_nanos_f64() * self.tb.kernel.plug_factor) as u64)
        } else {
            now
        };
        let completion = Completion {
            tag: pending.tag,
            dev: dev_id,
            submitted: pending.submitted,
            completed,
            status,
            bytes: pending.bytes,
            is_write: pending.is_write,
        };
        // Refill from the waiting queue before calling the client, so a
        // full ring drains fairly.
        if let Some((client, req)) = self.tb.devices[dev_id.0].waiting.pop_front() {
            if let Some(cid) = self.tb.devices[dev_id.0].free_cids.pop() {
                self.do_submit(s, client, req, Cid(cid));
            }
        }
        let client = pending.client;
        self.call_client(s, client, ClientCall::Completion(completion));
    }

    /// Sends one management command through the full MCTP → controller
    /// path and applies the resulting actions.
    ///
    /// The link may be eating packets ([`FaultKind::MctpDrop`]). A torn
    /// message never reaches the protocol analyzer — the reassembler
    /// holds (or rejects) the partial — so the console retransmits the
    /// whole request with the same tag, up to three times. A fresh SOM
    /// packet resets any stale partial, making the retransmit safe and
    /// the command exactly-once.
    fn do_management(&mut self, s: &mut Sched, cmd: BmsCommand) {
        const MAX_RETRANSMITS: u32 = 3;
        let now = s.now();
        self.tb.obs.enter("mgmt");
        self.next_mgmt_tag = (self.next_mgmt_tag + 1) % 8;
        for attempt in 0..=MAX_RETRANSMITS {
            if attempt > 0 {
                // With ≥1 packet missing the message cannot have
                // reassembled; whatever the torn attempt produced (at
                // most a reassembly error) is discarded and the console
                // resends.
                self.observe_fault(now, FaultTraceEvent::MctpRetransmit { attempt });
                self.tb.obs.count(Metric::MctpRetransmits.of(0), 1);
            }
            let Some((actions, dropped)) = self.send_management(now, &cmd) else {
                break;
            };
            if dropped == 0 {
                self.handle_controller_actions(s, actions);
                break;
            }
            for _ in 0..dropped {
                self.observe_fault(now, FaultTraceEvent::MctpPacketDropped);
            }
            self.tb
                .obs
                .count(Metric::MctpDropped.of(0), u64::from(dropped));
        }
        self.tb.obs.exit();
    }

    /// One transmission of `cmd` over the MCTP link to the controller,
    /// with the world's observer lent to the engine. Returns the
    /// controller's actions and how many packets the link ate; `None`
    /// when the scheme has no management plane.
    fn send_management(
        &mut self,
        now: SimTime,
        cmd: &BmsCommand,
    ) -> Option<(Vec<ControllerAction>, u32)> {
        let tb = &mut self.tb;
        let faults = &mut self.faults;
        let (engine, controller) = tb.scheme.as_mut()?.bm_parts()?;
        let packets = request_packets(Eid(9), controller.eid(), self.next_mgmt_tag, cmd);
        let mut driver = AdminDriver {
            ssds: &mut tb.ssds,
            now,
        };
        let host_mem = &mut tb.host_mem;
        let mut dropped = 0u32;
        let actions = engine.with_observer(&mut tb.obs, |engine| {
            let mut actions = Vec::new();
            for pkt in packets {
                if faults.mctp_drops > 0 {
                    faults.mctp_drops -= 1;
                    dropped += 1;
                    continue;
                }
                actions.extend(controller.on_packet(now, pkt, engine, &mut driver, host_mem));
            }
            actions
        });
        Some((actions, dropped))
    }

    fn handle_controller_actions(&mut self, s: &mut Sched, actions: Vec<ControllerAction>) {
        for action in actions {
            match action {
                ControllerAction::Respond { packets } => {
                    // Reassemble on the console side and log the response.
                    let mut asm = bm_pcie::mctp::Assembler::new();
                    for p in packets {
                        if let Ok(Some(msg)) = asm.push(p) {
                            if let Ok(resp) = MiResponse::from_bytes(&msg.body) {
                                self.mgmt_responses.push((s.now(), resp));
                            }
                        }
                    }
                }
                ControllerAction::FinishUpgrade { ssd, at } => {
                    action_at(s, at, move |w, s| {
                        let now = s.now();
                        let engine_actions = {
                            let tb = &mut w.tb;
                            let Some(scheme) = tb.scheme.as_mut() else {
                                return;
                            };
                            let Some((engine, controller)) = scheme.bm_parts() else {
                                return;
                            };
                            let host_mem = &mut tb.host_mem;
                            engine.with_observer(&mut tb.obs, |engine| {
                                controller.finish_upgrade(now, ssd, engine, host_mem)
                            })
                        };
                        w.apply_engine_actions(s, engine_actions);
                    });
                }
                ControllerAction::Engine(a) => self.apply_engine_actions(s, vec![a]),
            }
        }
    }

    /// Physically replaces SSD `idx` with a factory-fresh device and
    /// re-attaches the engine's back-end rings (the operator action of
    /// a hot-plug, between prepare and complete).
    ///
    /// # Panics
    ///
    /// Panics if not running the BM-Store scheme.
    pub fn swap_ssd_hardware(&mut self, idx: usize) {
        let tb = &mut self.tb;
        #[expect(
            clippy::expect_used,
            reason = "same take/put-back invariant as scheme_mut(); field access kept so cfg stays borrowable alongside"
        )]
        let scheme = tb.scheme.as_deref_mut().expect("scheme present");
        #[expect(
            clippy::panic,
            reason = "documented test-API precondition — the doc comment says \"Panics if not running the BM-Store scheme\""
        )]
        let Some((engine, _)) = scheme.bm_parts() else {
            panic!("hot-plug swap requires the BM-Store scheme");
        };
        let cfg = SsdConfig::p4510_2tb(SsdId(idx as u8))
            .with_profile(tb.cfg.ssd_profile.clone())
            .with_data_mode(tb.cfg.data_mode);
        let mut fresh = Ssd::new(cfg);
        // Zombie adaptor slots (commands abandoned to the departed
        // device) can never complete now — reclaim them — and the
        // back-end rings restart from zero on both sides.
        engine.on_ssd_replaced(SsdId(idx as u8));
        let (sq, cq) = engine.ssd_rings(SsdId(idx as u8));
        fresh.attach_io_queues(sq, cq);
        tb.ssds[idx] = fresh;
    }

    /// Crashes the BMS-Engine firmware at the current instant and
    /// schedules the cold restart. A crash while already down only
    /// extends the outage — the pending restart re-arms itself.
    fn crash_engine(&mut self, s: &mut Sched, restart_at: SimTime) {
        let now = s.now();
        let was_crashed = {
            let tb = &mut self.tb;
            let Some(scheme) = tb.scheme.as_mut() else {
                return;
            };
            let Some((engine, _)) = scheme.bm_parts() else {
                return;
            };
            let was_crashed = engine.is_crashed();
            engine.with_observer(&mut tb.obs, |engine| engine.crash(now, restart_at));
            was_crashed
        };
        // Flush the crash recovery-log entry to the observer now, not
        // when the next I/O happens to pass through the scheme.
        self.apply_engine_actions(s, Vec::new());
        if !was_crashed {
            action_at(s, restart_at, |w, s| w.restart_engine(s));
        }
    }

    /// The firmware comes back up: back-end rings re-attach on both
    /// sides, the crash journal replays or aborts, and the resulting
    /// engine actions re-enter the pipeline. Deferred host doorbells
    /// land at the same instant but were inserted later, so recovery
    /// runs first.
    fn restart_engine(&mut self, s: &mut Sched) {
        let now = s.now();
        let extended = self
            .tb
            .engine()
            .map(|e| e.restart_at())
            .unwrap_or(SimTime::ZERO);
        if extended > now {
            // A second crash during the outage pushed the restart out.
            action_at(s, extended, |w, s| w.restart_engine(s));
            return;
        }
        let engine_actions = {
            let tb = &mut self.tb;
            let Some(scheme) = tb.scheme.as_mut() else {
                return;
            };
            let Some((engine, _)) = scheme.bm_parts() else {
                return;
            };
            if !engine.is_crashed() {
                return;
            }
            // The crash reset the engine-side ring state; reset the
            // SSD side to match and attach fresh queue views before
            // the journal replays anything into them.
            for (i, ssd) in tb.ssds.iter_mut().enumerate() {
                ssd.reset();
                let (sq, cq) = engine.ssd_rings(SsdId(i as u8));
                ssd.attach_io_queues(sq, cq);
            }
            let host_mem = &mut tb.host_mem;
            engine.with_observer(&mut tb.obs, |engine| engine.recover(now, host_mem))
        };
        self.apply_engine_actions(s, engine_actions);
    }

    /// Surprise re-attach of a dead SSD in the same bay: the device
    /// (and its stored data) survives, rings restart from zero, and —
    /// behind the engine — zombie slots are reclaimed and quiesced
    /// traffic resumes.
    fn reinsert_ssd(&mut self, s: &mut Sched, idx: usize) {
        let now = s.now();
        let engine_actions = {
            let tb = &mut self.tb;
            if tb.ssds.get(idx).is_none() {
                return;
            }
            tb.ssds[idx].revive();
            let Some(scheme) = tb.scheme.as_mut() else {
                return;
            };
            let Some((engine, _)) = scheme.bm_parts() else {
                return;
            };
            let sid = SsdId(idx as u8);
            tb.ssds[idx].reset();
            let host_mem = &mut tb.host_mem;
            let actions = engine.with_observer(&mut tb.obs, |engine| {
                engine.surprise_reinsert(now, sid, host_mem)
            });
            let (sq, cq) = engine.ssd_rings(sid);
            tb.ssds[idx].attach_io_queues(sq, cq);
            actions
        };
        self.apply_engine_actions(s, engine_actions);
    }
}

/// The controller's private admin channel to the physical SSDs.
struct AdminDriver<'a> {
    ssds: &'a mut Vec<Ssd>,
    now: SimTime,
}

impl BackendAdmin for AdminDriver<'_> {
    fn firmware_download(&mut self, ssd: SsdId, image: &[u8]) -> Result<(), Status> {
        let dev = self
            .ssds
            .get_mut(ssd.0 as usize)
            .ok_or(Status::InternalError)?;
        let mut offset = 0u64;
        for chunk in image.chunks(4096) {
            dev.mgmt_firmware_download(offset, chunk)?;
            offset += chunk.len() as u64;
        }
        Ok(())
    }

    fn firmware_commit_activate(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        slot: u8,
    ) -> Result<SimDuration, Status> {
        let _ = now;
        let dev = self
            .ssds
            .get_mut(ssd.0 as usize)
            .ok_or(Status::InternalError)?;
        match dev.mgmt_firmware_commit(self.now, slot as usize, CommitAction::ActivateNow)? {
            Some(dur) => Ok(dur),
            None => Err(Status::InvalidFirmwareImage),
        }
    }

    fn firmware_version(&mut self, ssd: SsdId) -> String {
        self.ssds
            .get(ssd.0 as usize)
            .map(|d| d.firmware().running().0.clone())
            .unwrap_or_default()
    }

    fn health(&mut self, ssd: SsdId) -> HealthStatus {
        let reads = self
            .ssds
            .get(ssd.0 as usize)
            .map(|d| d.perf().reads())
            .unwrap_or(0);
        HealthStatus {
            temperature_k: 305 + (reads % 5) as u16,
            percent_used: 1,
            available_spare: 100,
            critical_warning: 0,
        }
    }
}
