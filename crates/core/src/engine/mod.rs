//! The BMS-Engine — the FPGA half of BM-Store (paper Fig. 3, §IV).
//!
//! Six modules, exactly the paper's decomposition:
//!
//! | paper module       | here                |
//! |--------------------|---------------------|
//! | SR-IOV layer       | [`front_end`]       |
//! | Target controller  | [`BmsEngine`] glue  |
//! | I/O (LBA) mapping  | [`mapping`]         |
//! | QoS                | [`qos`]             |
//! | DMA request routing| [`dma_routing`]     |
//! | Host adaptor       | [`host_adaptor`]    |
//!
//! plus the I/O counters ([`counters`]) and the Table II resource model
//! ([`resources`]).
//!
//! The engine is a *pure state machine*: methods take the current
//! simulated time and memory handles and return [`EngineAction`]s with
//! explicit timestamps; the testbed turns actions into scheduled events.
//! Per-stage latencies ([`EngineTiming`]) sum to the ~3 µs extra round
//! trip the paper measures (§V-B).

pub mod counters;
pub mod dma_routing;
pub mod front_end;
pub mod host_adaptor;
mod journal;
pub mod mapping;
pub mod qos;
pub mod resources;
mod retry;

use crate::engine::counters::IoCounters;
use crate::engine::dma_routing::{ChipWindow, DmaRouter, GlobalPrp, RoutingStats};
use crate::engine::front_end::{Binding, FrontEndFunction};
use crate::engine::host_adaptor::{HostAdaptor, Outstanding, MAX_FORWARD_PAGES};
use crate::engine::mapping::{ChunkAllocator, MapError, MappingTable, ENTRIES_PER_ROW};
use crate::engine::qos::{Admission, NamespaceQos, QosLimit};
use crate::engine::retry::SeqWindow;
use bm_nvme::command::{AdminOpcode, IoOpcode, Opcode, Sqe};
use bm_nvme::identify::{IdentifyController, IdentifyNamespace};
use bm_nvme::queue::{BadSqe, DoorbellLayout};
use bm_nvme::types::{Cid, Lba, Nsid, QueueId};
use bm_nvme::{Cqe, Status};
use bm_pcie::memory::PAGE_SIZE;
use bm_pcie::{DmaContext, FunctionId, HostMemory, PciAddr};
use bm_sim::metrics::{Metric, Stage as MetricStage};
use bm_sim::observe::Observer;
use bm_sim::resource::BandwidthLink;
use bm_sim::telemetry::{CmdId, TelemetryEventKind, TelemetryStage};
use bm_sim::{SimDuration, SimTime};
use bm_ssd::SsdId;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};

/// Per-stage latencies of the hardware pipeline.
///
/// Calibrated so the full extra round trip (fetch + pipeline + forward
/// on the way down, CQE forward + interrupt on the way up) is ~3 µs —
/// the constant overhead Table V measures for BM-Store over native.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineTiming {
    /// Host doorbell rings → SQE fetched into the engine.
    pub command_fetch: SimDuration,
    /// LBA mapping + QoS + command rewrite (pipelined in hardware).
    pub pipeline: SimDuration,
    /// Push into the back-end ring + back-end doorbell.
    pub backend_forward: SimDuration,
    /// Back-end CQE observed → host CQE written.
    pub cqe_forward: SimDuration,
    /// MSI to the host function.
    pub interrupt: SimDuration,
    /// Handling time for admin commands answered by the engine.
    pub admin_processing: SimDuration,
}

impl EngineTiming {
    /// The shipped engine's pipeline latencies.
    pub const PAPER: EngineTiming = EngineTiming {
        command_fetch: SimDuration::from_nanos(900),
        pipeline: SimDuration::from_nanos(200),
        backend_forward: SimDuration::from_nanos(500),
        cqe_forward: SimDuration::from_nanos(800),
        interrupt: SimDuration::from_nanos(600),
        admin_processing: SimDuration::from_us(5),
    };

    /// The total engine-added round-trip latency.
    pub fn round_trip(&self) -> SimDuration {
        self.command_fetch
            + self.pipeline
            + self.backend_forward
            + self.cqe_forward
            + self.interrupt
    }
}

/// Capacity of each back-end SSD: a 2 TB P4510.
const SSD_CAPACITY_BYTES: u64 = 2_000_000_000_000;
/// Depth of each back-end SQ/CQ ring.
const BACKEND_QUEUE_ENTRIES: u16 = 1024;
/// Engine chip (BRAM/URAM-backed) memory size.
const CHIP_MEM_BYTES: u64 = 64 << 20;
/// Logical block size of all namespaces.
const BLOCK_SIZE: u64 = 4096;
/// Mapping-table rows.
const MAPPING_ROWS: usize = 128;

/// Engine construction parameters: what differs between the figures,
/// ablations and fault campaigns. The hardware's fixed shape (4 PFs +
/// 124 VFs, one 2 TB capacity per SSD, 1024-entry back-end rings, 64 MiB
/// of chip memory, 4 KiB blocks, 128 mapping rows and
/// [`EngineTiming::PAPER`]) is not configurable.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Back-end SSD count (≤ 4 in the shipped hardware).
    pub ssd_count: usize,
    /// Ablation: when set, the engine *buffers data in its own DRAM*
    /// instead of routing DMA zero-copy — every payload byte crosses
    /// the card memory at this rate (bytes/s), once on each direction
    /// of the store-and-forward. `None` = the paper's zero-copy design.
    pub store_and_forward_bw: Option<f64>,
    /// Per-command back-end timeout. With it set, every forwarded
    /// attempt keeps a retry entry with its deadline, and one engine
    /// timer ([`EngineAction::CommandDeadline`]) fires at the earliest
    /// live deadline, not one event per attempt. `None` (the default)
    /// disables the timeout machinery entirely: no timer is armed and
    /// no retry state is kept, so the fault-free pipeline is
    /// byte-identical to a build without it.
    pub command_timeout: Option<SimDuration>,
    /// Forwarding attempts after the first before a command is declared
    /// persistently failed (only meaningful with `command_timeout`).
    pub max_retries: u32,
    /// What to do with a persistently failed command.
    pub fail_policy: FailPolicy,
    /// Chaos-testing sabotage knob: silently drop the last journaled
    /// record when a crash writes the journal, so one in-flight command
    /// is lost across recovery. Exists so the chaos harness can prove
    /// its invariant oracles catch a real conservation bug; never set
    /// outside those tests.
    #[doc(hidden)]
    pub debug_drop_journal_tail: bool,
}

impl EngineConfig {
    /// The paper's shipped configuration: 4 PFs + 124 VFs front-end,
    /// up to 4 × 2 TB P4510 back-end, 64 GB chunks.
    pub fn paper_default(ssd_count: usize) -> Self {
        EngineConfig {
            ssd_count,
            store_and_forward_bw: None,
            command_timeout: None,
            max_retries: 2,
            fail_policy: FailPolicy::AbortToHost,
            debug_drop_journal_tail: false,
        }
    }

    /// Enables the per-command timeout machinery (see
    /// [`EngineConfig::command_timeout`]).
    pub fn with_command_timeout(mut self, timeout: SimDuration, policy: FailPolicy) -> Self {
        self.command_timeout = Some(timeout);
        self.fail_policy = policy;
        self
    }
}

/// Timed effects the engine hands back to the simulation harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineAction {
    /// Ring the back-end doorbell of `ssd` with `tail` at `at`.
    BackendDoorbell {
        /// Target SSD.
        ssd: SsdId,
        /// New SQ tail value.
        tail: u32,
        /// When the doorbell write lands.
        at: SimTime,
    },
    /// Complete a host command: post the CQE and raise the interrupt at
    /// `at` (call [`BmsEngine::deliver_host_completion`]).
    HostCompletion {
        /// Front-end function.
        func: FunctionId,
        /// Host queue.
        qid: QueueId,
        /// Host command id.
        cid: Cid,
        /// Completion status.
        status: Status,
        /// When the CQE lands in host memory.
        at: SimTime,
    },
    /// QoS buffered a command; call [`BmsEngine::qos_wakeup`] at `at`.
    QosWakeup {
        /// When the earliest buffered command releases.
        at: SimTime,
    },
    /// The engine's deadline timer was armed: call
    /// [`BmsEngine::check_deadline`] at `at`, the earliest deadline of
    /// a live forwarding attempt. At most one timer is armed at a time;
    /// the call expires every attempt due by then and re-arms the timer
    /// at the next live deadline. Only emitted when
    /// [`EngineConfig::command_timeout`] is set.
    CommandDeadline {
        /// When the timer fires.
        at: SimTime,
    },
}

/// Policy for a command whose retries are exhausted (paper-implied
/// resilience: the engine must never lose a command silently).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailPolicy {
    /// Complete the command to the host with [`Status::Aborted`] — the
    /// host sees an explicit abort, never silence.
    #[default]
    AbortToHost,
    /// Quiesce the SSD (as a hot-plug prepare would) and keep the
    /// command at the front of the backlog for replay when management
    /// resumes the device — e.g. after a hardware replacement.
    QuiesceReplay,
}

/// A fault-recovery action the engine took, drained via
/// [`BmsEngine::take_recovery_events`] and surfaced as pipeline trace
/// events by the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// An attempt timed out and the command was forwarded again.
    TimeoutRetry {
        /// SSD the command targets.
        ssd: SsdId,
        /// Retry number (1 = first retry).
        attempt: u32,
    },
    /// Retries exhausted; the command completed to the host with
    /// [`Status::Aborted`].
    TimeoutAbort {
        /// SSD the command targeted.
        ssd: SsdId,
        /// Originating front-end function.
        func: FunctionId,
        /// Host command id.
        cid: Cid,
    },
    /// Retries exhausted; the SSD was quiesced and the command buffered
    /// for replay on resume.
    TimeoutQuiesce {
        /// The quiesced SSD.
        ssd: SsdId,
        /// Commands now buffered behind the pause.
        buffered: usize,
    },
    /// A hardware replacement reclaimed abandoned (zombie) slots.
    SlotsReclaimed {
        /// The replaced SSD.
        ssd: SsdId,
        /// Slots reclaimed.
        count: usize,
    },
    /// The engine firmware crashed: rings quiesced, pipeline state
    /// journaled to the persistent-model region.
    EngineCrashed {
        /// Commands captured in the crash journal.
        journaled: usize,
    },
    /// The engine restarted and ran recovery over the crash journal.
    EngineRecovered {
        /// Journaled commands re-entered into the pipeline.
        replayed: u32,
        /// Journaled commands aborted to the host.
        aborted: u32,
    },
}

/// Counters for the timeout/retry and crash-recovery machinery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Attempts that hit their deadline.
    pub timeouts: u64,
    /// Re-forwarded attempts.
    pub retries: u64,
    /// Commands aborted to the host.
    pub aborts: u64,
    /// Quiesce-and-replay escalations.
    pub quiesces: u64,
    /// Completed crash-recovery cycles.
    pub recoveries: u64,
    /// Journaled commands re-entered into the pipeline on recovery.
    pub replayed: u64,
    /// Journaled commands aborted to the host on recovery.
    pub aborted_on_recovery: u64,
    /// Total wall time spent crashed (crash instant → recovery done).
    pub recovery_time: SimDuration,
}

/// Why a bind operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BindError {
    /// Not enough free chunks on the back-end.
    OutOfCapacity,
    /// Not enough mapping-table rows.
    OutOfRows,
    /// The function already has a binding.
    AlreadyBound,
    /// The namespace would hold no bytes.
    ZeroSize,
}

impl std::fmt::Display for BindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindError::OutOfCapacity => write!(f, "insufficient back-end capacity"),
            BindError::OutOfRows => write!(f, "mapping table exhausted"),
            BindError::AlreadyBound => write!(f, "function already bound"),
            BindError::ZeroSize => write!(f, "namespace size is zero"),
        }
    }
}

impl std::error::Error for BindError {}

/// Chunk placement policy for a new namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All chunks from one SSD (the paper's §V-B single-disk binding).
    Single(SsdId),
    /// Chunks striped round-robin across all SSDs (the §V-D policy).
    RoundRobin,
}

/// A host command's identity: (function index, host queue id, host
/// CID). The fan-out table counts a command's spans down under it.
type HostKey = (u8, u16, u16);

/// One host I/O command, decoded and validated once at the doorbell.
/// As the target controller hands a checked command down the hardware
/// pipeline (§IV, Fig. 3), every later stage — QoS, mapping, the
/// back-end port, retries and the crash journal — carries this record,
/// or a [`Span`] of it, and none looks the command up again.
#[derive(Debug, Clone, Copy)]
struct HostIo {
    func: FunctionId,
    qid: QueueId,
    cid: Cid,
    op: IoOpcode,
    /// First host LBA.
    slba: Lba,
    /// Transfer length in blocks.
    blocks: u32,
    /// The host's data pointers: each span reads its pages through them.
    prp1: PciAddr,
    prp2: PciAddr,
    /// First mapping-table row of the binding that validated the
    /// command. Rows are never reused, so this also names the binding.
    row_base: usize,
    /// When the engine fetched the SQE.
    fetched_at: SimTime,
    /// Telemetry correlation ID ([`CmdId::NONE`] when telemetry is off).
    cmd: CmdId,
}

impl HostIo {
    /// The fan-out table's key for this command.
    fn key(&self) -> HostKey {
        (self.func.index(), self.qid.0, self.cid.0)
    }

    /// The origin-table record of an attempt that moves `blocks` of
    /// this command's blocks (a flush moves none).
    fn origin(&self, blocks: u32, pushed_at: SimTime, seq: u64) -> Outstanding {
        let bytes = if self.op == IoOpcode::Flush {
            0
        } else {
            u64::from(blocks) * BLOCK_SIZE
        };
        Outstanding {
            func: self.func,
            host_qid: self.qid,
            host_cid: self.cid,
            bytes,
            op: self.op,
            fetched_at: self.fetched_at,
            pushed_at,
            seq,
            cmd: self.cmd,
        }
    }
}

/// The blocks of a [`HostIo`] one back-end command carries: blocks
/// `first..first + blocks` of the host transfer at `lba` on `ssd` (a
/// flush's span names the whole command). [`BmsEngine::push_to_port`]
/// builds the back-end SQE from it on every forwarding attempt.
#[derive(Debug, Clone, Copy)]
struct Span {
    io: HostIo,
    ssd: SsdId,
    /// Physical LBA of the span's first block.
    lba: Lba,
    first: u32,
    blocks: u32,
    /// Timed-out forwarding attempts so far (timeout machinery).
    retries: u32,
}

// Backlogs, retry entries and the journal hold spans by value, so a
// span's size is every queued command's footprint: keep it in 96 bytes.
const _: () = assert!(std::mem::size_of::<Span>() <= 96);

impl Span {
    /// Reads the host PRP entries of this span's blocks into `out`, as
    /// the little-endian bytes of a PRP list, and tags each in place
    /// with the command's function (a global PRP, §IV-C). Block 0 is
    /// PRP1 and block 1 of a two-block command is PRP2; block `b` of a
    /// longer one is entry `b - 1` of the host's flat PRP list, so a
    /// span's list entries take one read.
    fn read_tagged_prps(&self, host: &mut HostMemory, out: &mut Vec<u8>) {
        let io = &self.io;
        out.clear();
        let end = self.first + self.blocks;
        let mut b = self.first;
        if b == 0 {
            out.extend_from_slice(&io.prp1.raw().to_le_bytes());
            b = 1;
        }
        if b < end {
            if io.blocks == 2 {
                out.extend_from_slice(&io.prp2.raw().to_le_bytes());
            } else {
                let at = out.len();
                out.resize(at + (end - b) as usize * 8, 0);
                host.read(io.prp2 + u64::from(b - 1) * 8, &mut out[at..]);
            }
        }
        for entry in out.chunks_exact_mut(8) {
            let tagged = GlobalPrp::tag(prp_at(entry, 0), io.func, false);
            entry.copy_from_slice(&tagged.raw().to_le_bytes());
        }
    }
}

/// Entry `i` of a PRP list held as little-endian bytes.
fn prp_at(list: &[u8], i: usize) -> PciAddr {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&list[i * 8..i * 8 + 8]);
    PciAddr::new(u64::from_le_bytes(raw))
}

/// Heap entry for QoS releases.
#[derive(Debug)]
struct QosRelease {
    at: SimTime,
    seq: u64,
    io: HostIo,
}

/// Where the doorbell's checks send a valid command.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// Map and forward it now.
    Forward,
    /// QoS holds it until this instant.
    Defer(SimTime),
    /// A flush: one back-end flush to each SSD in the set (bit `i` =
    /// SSD `i`), the SSDs the binding's mapping rows point at.
    FanOut(u8),
}

impl PartialEq for QosRelease {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for QosRelease {}
impl PartialOrd for QosRelease {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QosRelease {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq)) // min-heap
    }
}

/// Snapshot of in-flight state taken before a hot-upgrade (§IV-D).
#[derive(Debug, Clone)]
pub struct IoContext {
    /// The SSD whose context was saved.
    pub ssd: SsdId,
    /// In-flight command origins at save time.
    pub inflight: Vec<Outstanding>,
    /// Commands buffered while paused.
    pub buffered: usize,
}

/// The BMS-Engine.
pub struct BmsEngine {
    cfg: EngineConfig,
    functions: Vec<FrontEndFunction>,
    valid_functions: Vec<bool>,
    mapping: MappingTable,
    next_free_row: usize,
    chunk_alloc: ChunkAllocator,
    adaptor: HostAdaptor,
    chip: HostMemory,
    counters: IoCounters,
    routing_stats: RoutingStats,
    qos_heap: BinaryHeap<QosRelease>,
    qos_seq: u64,
    /// Per-SSD: paused flag and buffered commands.
    paused: Vec<bool>,
    backlog: Vec<VecDeque<Span>>,
    /// Host commands expanded into several back-end commands: counts
    /// down to zero, tracking the worst status seen.
    fanout: BTreeMap<HostKey, (u8, Status)>,
    /// Present only in the store-and-forward ablation.
    copy_link: Option<BandwidthLink>,
    /// Monotonic id for forwarding attempts (also assigned with the
    /// timeout machinery off — a bare counter costs nothing).
    cmd_seq: u64,
    /// Attempts whose deadline has not fired yet, by `seq`. Populated
    /// only when [`EngineConfig::command_timeout`] is set; every push
    /// then takes the next `seq`, so the live entries form a window.
    /// One timeout and a clock that never goes back make deadlines grow
    /// with `seq`: the front entry's is the earliest.
    pending_retry: SeqWindow<RetryEntry>,
    /// When the one deadline timer fires, if it is armed. Armed at or
    /// before every live entry's deadline, and whenever an entry is
    /// live; a timer event at any other instant is stale.
    deadline_timer: Option<SimTime>,
    /// Recovery actions not yet drained by the harness.
    recovery_log: Vec<RecoveryEvent>,
    resilience: ResilienceStats,
    /// Firmware-dead flag: between [`Self::crash`] and [`Self::recover`]
    /// the data plane is down and the harness defers doorbells.
    crashed: bool,
    /// Per-SSD ring incarnation: bumped whenever that SSD's back-end
    /// rings reset (engine crash = all of them; hot-plug replacement or
    /// surprise re-insert = just that one). The harness stamps back-end
    /// stages with the minting ring epoch and drops stale ones, fencing
    /// reused CIDs on the fresh rings from the dead incarnation's
    /// in-flight events.
    ring_epochs: Vec<u64>,
    /// When the current (or last) crash happened.
    crashed_at: SimTime,
    /// When the firmware cold-restart completes (valid while crashed).
    restart_at: SimTime,
    /// The persistent-model journal region written by [`Self::crash`].
    journal: journal::Journal,
    /// Where spans and stage accounting go. Off by default (every call
    /// is then a no-op); a harness lends its own for one call at a time
    /// through [`Self::with_observer`].
    obs: Observer,
    /// Reused span buffer for [`Self::forward_io`] (hot path).
    span_scratch: Vec<Span>,
    /// Reused SQE fetch buffer for [`Self::host_doorbell_write_into`]:
    /// parsed entries, or the CID and status of ones that did not parse.
    sqe_scratch: Vec<Result<Sqe, BadSqe>>,
    /// Reused back-end completion buffer for
    /// [`Self::on_backend_completion_into`].
    done_scratch: Vec<(Outstanding, Cqe)>,
    /// Reused tagged-PRP buffer for [`Self::push_to_port`].
    prp_scratch: Vec<u8>,
}

/// Merges runs of *consecutive* actions one burst produced, in
/// `actions[from..]` (what the current call appended): back-end
/// doorbells for the same SSD at the same time keep only the final tail
/// (ringing once with the last tail sweeps every command the earlier
/// rings would have), and identical QoS wakeups collapse to one. Only
/// adjacent actions merge — they carry consecutive event sequence
/// numbers at the same tick, so nothing can interleave between them and
/// the surviving event order is unchanged.
fn coalesce_actions(actions: &mut Vec<EngineAction>, from: usize) {
    let mut kept = from;
    for i in from + 1..actions.len() {
        let later = actions[i];
        let merged = match (&mut actions[kept], later) {
            (
                EngineAction::BackendDoorbell {
                    ssd: s1,
                    tail: t1,
                    at: a1,
                },
                EngineAction::BackendDoorbell {
                    ssd: s2,
                    tail: t2,
                    at: a2,
                },
            ) if *s1 == s2 && *a1 == a2 => {
                *t1 = t2;
                true
            }
            (EngineAction::QosWakeup { at: a1 }, EngineAction::QosWakeup { at: a2 }) => *a1 == a2,
            _ => false,
        };
        if !merged {
            kept += 1;
            actions[kept] = later;
        }
    }
    actions.truncate(actions.len().min(kept + 1));
}

/// Retry bookkeeping for one in-flight forwarding attempt.
#[derive(Debug, Clone)]
struct RetryEntry {
    /// The attempt's back-end CID, on `port`.
    cid: Cid,
    /// The bay whose port holds `cid`: the span's SSD when it was
    /// forwarded. A cross-bay hot-plug retargets the span, not this.
    port: SsdId,
    /// When the attempt times out.
    deadline: SimTime,
    /// The span, re-enqueued as it is on retry (`push_to_port` builds
    /// its SQE afresh each attempt).
    span: Span,
}

impl std::fmt::Debug for BmsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BmsEngine")
            .field("functions", &self.functions.len())
            .field("ssds", &self.adaptor.len())
            .field("mapping_rows", &self.mapping.rows())
            .finish()
    }
}

impl BmsEngine {
    /// Builds an engine from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the chip memory cannot hold the back-end rings.
    pub fn new(cfg: EngineConfig) -> Self {
        let mut chip = HostMemory::new(CHIP_MEM_BYTES);
        let adaptor = HostAdaptor::new(cfg.ssd_count, BACKEND_QUEUE_ENTRIES, &mut chip);
        let functions = (0..FunctionId::MAX_FUNCTIONS)
            .filter_map(FunctionId::new)
            .map(FrontEndFunction::new)
            .collect::<Vec<_>>();
        let total = functions.len();
        BmsEngine {
            mapping: MappingTable::new(MAPPING_ROWS, BLOCK_SIZE),
            next_free_row: 0,
            chunk_alloc: ChunkAllocator::new(cfg.ssd_count, SSD_CAPACITY_BYTES),
            adaptor,
            chip,
            counters: IoCounters::new(total),
            routing_stats: RoutingStats::default(),
            valid_functions: vec![false; total],
            functions,
            qos_heap: BinaryHeap::new(),
            qos_seq: 0,
            paused: vec![false; cfg.ssd_count],
            backlog: (0..cfg.ssd_count).map(|_| VecDeque::new()).collect(),
            fanout: BTreeMap::new(),
            copy_link: cfg.store_and_forward_bw.map(BandwidthLink::new),
            cmd_seq: 0,
            pending_retry: SeqWindow::default(),
            deadline_timer: None,
            recovery_log: Vec::new(),
            resilience: ResilienceStats::default(),
            crashed: false,
            ring_epochs: vec![0; cfg.ssd_count],
            crashed_at: SimTime::ZERO,
            restart_at: SimTime::ZERO,
            journal: journal::Journal::default(),
            obs: Observer::default(),
            span_scratch: Vec::new(),
            sqe_scratch: Vec::new(),
            done_scratch: Vec::new(),
            prp_scratch: Vec::new(),
            cfg,
        }
    }

    /// Runs `f` with `obs` installed as the engine's observer, then
    /// swaps it back out: the one way a harness lends its observer to
    /// the engine for a call, without sharing it. Inside, the engine
    /// records per-stage spans (fetch, translate, QoS, DMA, completion)
    /// against the [`CmdId`]s the submitter opened, and accumulates
    /// per-stage busy time and pipeline counters. The periodic sampler
    /// reads occupancy through [`Self::adaptor`] and
    /// [`Self::backlog_len`] instead of hooking the hot path.
    pub fn with_observer<R>(&mut self, obs: &mut Observer, f: impl FnOnce(&mut Self) -> R) -> R {
        std::mem::swap(&mut self.obs, obs);
        let out = f(self);
        std::mem::swap(&mut self.obs, obs);
        out
    }

    /// Read-only view of the back-end ports (the metrics sampler reads
    /// per-SSD occupancy, in-flight bytes and conservation tallies).
    pub fn adaptor(&self) -> &HostAdaptor {
        &self.adaptor
    }

    /// How many commands are buffered toward `ssd` (paused, ring-full,
    /// or quiesce-replay backlog) — the doorbell-backlog gauge.
    ///
    /// # Panics
    ///
    /// Panics if `ssd` has no back-end port.
    pub fn backlog_len(&self, ssd: SsdId) -> usize {
        self.backlog[ssd.0 as usize].len()
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The engine's timing parameters.
    pub fn timing(&self) -> &EngineTiming {
        &EngineTiming::PAPER
    }

    /// The I/O counter bank (read by the BMS-Controller over AXI).
    pub fn counters(&self) -> &IoCounters {
        &self.counters
    }

    /// One function's monitoring registers (outstanding gauge + latency
    /// buckets) — the AXI read the controller's log-page path does.
    pub fn monitor_regs(&self, func: FunctionId) -> counters::MonitorRegs {
        self.counters.regs(func)
    }

    /// Records the back-end device-service span of an in-flight
    /// forwarded command. The harness calls this when the SSD reports a
    /// completion — the engine itself only sees the doorbell and CQE
    /// endpoints, not the device-internal service interval. A no-op
    /// when telemetry is off, the slot is free, or the slot is a zombie
    /// (stale completion of an abandoned command).
    pub fn record_backend_span(
        &mut self,
        ssd: SsdId,
        backend_cid: Cid,
        start: SimTime,
        end: SimTime,
        ok: bool,
    ) {
        // The SSD service interval is the `ssd` stage of the bottleneck
        // report, charged whether or not a span recorder is attached.
        self.obs
            .stage_busy(MetricStage::Ssd, end.saturating_since(start), 1);
        if self.obs.telemetry().is_none() {
            return;
        }
        let Some(origin) = self.adaptor.port(ssd).origin_of(backend_cid) else {
            return;
        };
        if origin.cmd.is_some() {
            self.obs.span(
                origin.cmd,
                origin.func.index() as u16,
                origin.func.index(),
                origin.op.code(),
                TelemetryStage::Backend,
                start,
                end,
                ok,
            );
        }
    }

    /// DMA routing statistics.
    pub fn routing_stats(&self) -> RoutingStats {
        self.routing_stats
    }

    /// The mapping table (read-only view).
    pub fn mapping(&self) -> &MappingTable {
        &self.mapping
    }

    /// Builds the SSD-side ring descriptors for `ssd` (used when the
    /// testbed attaches a device, and again after hot-plug replacement).
    ///
    /// # Panics
    ///
    /// Panics if `ssd` has no back-end port.
    pub fn ssd_rings(&self, ssd: SsdId) -> (bm_nvme::SubmissionQueue, bm_nvme::CompletionQueue) {
        self.adaptor.port(ssd).ssd_side_rings()
    }

    /// The [`DmaRouter`] back-end SSDs DMA through.
    pub fn dma_router<'a>(&'a mut self, host: &'a mut HostMemory) -> DmaRouter<'a> {
        DmaRouter::new(
            host,
            &mut self.chip,
            &self.valid_functions,
            &mut self.routing_stats,
        )
    }

    // ------------------------------------------------------------------
    // Management plane (called by the BMS-Controller)
    // ------------------------------------------------------------------

    /// Function state access.
    pub fn function(&self, func: FunctionId) -> &FrontEndFunction {
        &self.functions[func.index() as usize]
    }

    /// Mutable function state access.
    pub fn function_mut(&mut self, func: FunctionId) -> &mut FrontEndFunction {
        &mut self.functions[func.index() as usize]
    }

    /// Host enabled/disabled the controller (CC.EN write).
    pub fn set_function_enabled(&mut self, func: FunctionId, enabled: bool) {
        self.valid_functions[func.index() as usize] = enabled;
    }

    /// Creates and binds a namespace of `size_bytes` to `func`.
    ///
    /// # Errors
    ///
    /// Returns a [`BindError`] if `size_bytes` is zero or the function,
    /// capacity, or mapping rows are unavailable.
    pub fn bind_namespace(
        &mut self,
        func: FunctionId,
        size_bytes: u64,
        placement: Placement,
    ) -> Result<(), BindError> {
        let idx = func.index() as usize;
        if self.functions[idx].binding().is_some() {
            return Err(BindError::AlreadyBound);
        }
        if size_bytes == 0 {
            return Err(BindError::ZeroSize);
        }
        let chunks = size_bytes.div_ceil(mapping::CHUNK_BYTES) as usize;
        let rows = Binding::rows_for_chunks(chunks);
        if self.next_free_row + rows > self.mapping.rows() {
            return Err(BindError::OutOfRows);
        }
        let entries = match placement {
            Placement::Single(ssd) => self.chunk_alloc.alloc_on(ssd, chunks),
            Placement::RoundRobin => self.chunk_alloc.alloc_round_robin(chunks),
        }
        .map_err(|_| BindError::OutOfCapacity)?;
        let row_base = self.next_free_row;
        self.next_free_row += rows;
        for (i, e) in entries.iter().enumerate() {
            #[expect(
                clippy::expect_used,
                reason = "panic-path debt (ROADMAP item 4): the rows were reserved above"
            )]
            self.mapping
                .install(row_base + i / ENTRIES_PER_ROW, i % ENTRIES_PER_ROW, *e)
                .expect("rows reserved above");
        }
        self.functions[idx].bind(Binding {
            size_bytes,
            block_size: BLOCK_SIZE,
            row_base,
            rows,
            qos: NamespaceQos::new(QosLimit::UNLIMITED),
        });
        Ok(())
    }

    /// Unbinds `func`'s namespace, releasing the chunks its mapping rows
    /// hold. (Mapping rows are leaked until the table is rebuilt —
    /// matching the simple allocator the shipped firmware uses.)
    ///
    /// Returns whether a binding existed.
    pub fn unbind_namespace(&mut self, func: FunctionId) -> bool {
        let idx = func.index() as usize;
        match self.functions[idx].unbind() {
            Some(binding) => {
                self.chunk_alloc
                    .release(self.mapping.chunks(binding.row_base, binding.rows));
                #[expect(
                    clippy::expect_used,
                    reason = "panic-path debt (ROADMAP item 4): a binding's rows were installed in the table"
                )]
                self.mapping
                    .clear_rows(binding.row_base, binding.rows)
                    .expect("binding rows are in-table");
                true
            }
            None => false,
        }
    }

    /// Sets the QoS limit for `func`'s namespace. Returns whether a
    /// binding existed.
    pub fn set_qos_limit(&mut self, func: FunctionId, limit: QosLimit) -> bool {
        self.functions[func.index() as usize].set_qos(limit)
    }

    /// Pauses forwarding to `ssd` (hot-upgrade/hot-plug quiesce):
    /// commands targeting it buffer inside the engine.
    pub fn pause_ssd(&mut self, ssd: SsdId) {
        self.paused[ssd.0 as usize] = true;
    }

    /// Whether `ssd` is paused.
    pub fn is_paused(&self, ssd: SsdId) -> bool {
        self.paused[ssd.0 as usize]
    }

    /// Saves the I/O context for `ssd` (paper: "store I/O context
    /// during firmware upgrading").
    pub fn save_io_context(&self, ssd: SsdId) -> IoContext {
        IoContext {
            ssd,
            inflight: self.adaptor.port(ssd).inflight_origins(),
            buffered: self.backlog[ssd.0 as usize].len(),
        }
    }

    /// Resumes forwarding to `ssd`, flushing buffered commands.
    pub fn resume_ssd(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        host: &mut HostMemory,
    ) -> Vec<EngineAction> {
        self.paused[ssd.0 as usize] = false;
        let mut actions = Vec::new();
        self.drain_backlog(now, ssd, host, &mut actions);
        coalesce_actions(&mut actions, 0);
        actions
    }

    /// Moves every chunk on `from` to the same chunk on `to` — the
    /// hot-plug identity-preserving migration to another bay (§IV-D):
    /// the mapping entries targeting `from` target `to` instead, and the
    /// chunk allocator's two free lists swap, so `to` owns the moved
    /// chunks and `from` is left a spare bay. Commands buffered toward
    /// `from` follow, in order, behind any buffered toward `to`, and so
    /// do the spans of attempts in flight on `from`: a retry or a crash
    /// replay forwards them to `to`, while a timeout still abandons the
    /// attempt on `from`'s port, which holds its CID. Each span keeps
    /// its physical LBA, since chunk `i` of `from` is now chunk `i` of
    /// `to`. Returns how many entries were rewritten, or `None`,
    /// changing nothing, unless `to` is a spare bay: one with no chunk
    /// allocated.
    pub fn retarget_ssd(&mut self, from: SsdId, to: SsdId) -> Option<usize> {
        if !self.chunk_alloc.move_bay(from, to) {
            return None;
        }
        let moved = std::mem::take(&mut self.backlog[from.0 as usize]);
        self.backlog[to.0 as usize].extend(moved.into_iter().map(|span| Span { ssd: to, ..span }));
        for entry in self.pending_retry.values_mut() {
            if entry.span.ssd == from {
                entry.span.ssd = to;
            }
        }
        Some(self.mapping.retarget_ssd(from, to))
    }

    /// Fires the deadline timer (call at the
    /// [`EngineAction::CommandDeadline`] time).
    ///
    /// A no-op while crashed, or unless `now` is the instant the timer
    /// is armed for: a crash voids the timer, and only the latest
    /// arming counts. Otherwise every attempt whose deadline is at or
    /// before `now` expires, oldest first. Its slot is abandoned (a
    /// later stale completion is swallowed, never double-delivered) and
    /// the command is either forwarded again, or — once
    /// [`EngineConfig::max_retries`] is exhausted — handled per
    /// [`EngineConfig::fail_policy`]: aborted to the host with
    /// [`Status::Aborted`], or quiesced into the backlog for buffered
    /// replay on the next management resume. The timer then re-arms at
    /// the earliest deadline still live, if any.
    pub fn check_deadline(&mut self, now: SimTime, host: &mut HostMemory) -> Vec<EngineAction> {
        let mut actions = Vec::new();
        if self.crashed || self.deadline_timer != Some(now) {
            return actions;
        }
        // Deadlines grow with `seq`, so the due attempts are a prefix
        // of the window. The timer stays armed at `now` meanwhile, so a
        // retry pushed below, due a timeout after `now`, arms nothing.
        while let Some((seq, _)) = self
            .pending_retry
            .front()
            .filter(|(_, e)| e.deadline <= now)
        {
            if let Some(entry) = self.pending_retry.remove(seq) {
                self.expire_attempt(now, seq, entry, host, &mut actions);
            }
        }
        self.deadline_timer = self.pending_retry.front().map(|(_, e)| e.deadline);
        if let Some(at) = self.deadline_timer {
            actions.push(EngineAction::CommandDeadline { at });
        }
        coalesce_actions(&mut actions, 0);
        actions
    }

    /// Times out attempt `seq`, which [`Self::check_deadline`] took off
    /// the window: abandons its slot, then retries, aborts or quiesces.
    fn expire_attempt(
        &mut self,
        now: SimTime,
        seq: u64,
        entry: RetryEntry,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) {
        let mut span = entry.span;
        let ssd = span.ssd;
        let Some(origin) = self.adaptor.port_mut(entry.port).abandon(entry.cid) else {
            return; // slot already resolved (defensive)
        };
        debug_assert_eq!(origin.seq, seq);
        self.resilience.timeouts += 1;
        self.obs.count(Metric::EngineTimeouts.of(0), 1);
        // The abandoned attempt's DMA window closes here, unsuccessfully;
        // retry/abort events attach to the same owning command.
        if origin.cmd.is_some() {
            self.obs.span(
                origin.cmd,
                origin.func.index() as u16,
                origin.func.index(),
                origin.op.code(),
                TelemetryStage::Dma,
                origin.pushed_at,
                now,
                false,
            );
        }
        let tenant = origin.func.index() as u16;
        let opcode = origin.op.code();
        if span.retries < self.cfg.max_retries {
            span.retries += 1;
            self.resilience.retries += 1;
            self.obs.count(Metric::EngineRetries.of(0), 1);
            self.recovery_log.push(RecoveryEvent::TimeoutRetry {
                ssd,
                attempt: span.retries,
            });
            if origin.cmd.is_some() {
                self.obs.event(
                    now,
                    origin.cmd,
                    tenant,
                    opcode,
                    TelemetryEventKind::Retry {
                        attempt: span.retries,
                    },
                );
            }
            self.enqueue_backend(now, span, host, actions);
        } else {
            match self.cfg.fail_policy {
                FailPolicy::AbortToHost => {
                    self.resilience.aborts += 1;
                    self.recovery_log.push(RecoveryEvent::TimeoutAbort {
                        ssd,
                        func: origin.func,
                        cid: origin.host_cid,
                    });
                    if origin.cmd.is_some() {
                        self.obs.event(
                            now,
                            origin.cmd,
                            tenant,
                            opcode,
                            TelemetryEventKind::Mark {
                                label: "timeout-abort",
                            },
                        );
                    }
                    self.finish_origin(now, origin, Status::Aborted, actions);
                }
                FailPolicy::QuiesceReplay => {
                    self.pause_ssd(ssd);
                    self.backlog[ssd.0 as usize].push_front(span);
                    self.resilience.quiesces += 1;
                    self.recovery_log.push(RecoveryEvent::TimeoutQuiesce {
                        ssd,
                        buffered: self.backlog[ssd.0 as usize].len(),
                    });
                    if origin.cmd.is_some() {
                        self.obs.event(
                            now,
                            origin.cmd,
                            tenant,
                            opcode,
                            TelemetryEventKind::Mark {
                                label: "timeout-quiesce",
                            },
                        );
                    }
                }
            }
        }
    }

    /// Tells the engine the hardware behind `ssd` was physically
    /// replaced (hot-plug): abandoned zombie slots can never receive
    /// their stale completions now, so they are reclaimed, and the
    /// back-end rings restart from zero to match the factory-fresh
    /// device's views (see [`host_adaptor::BackEndPort::reset_rings`]).
    pub fn on_ssd_replaced(&mut self, ssd: SsdId) {
        let port = self.adaptor.port_mut(ssd);
        let count = port.reap_zombies();
        port.reset_rings(&mut self.chip);
        self.ring_epochs[ssd.0 as usize] += 1;
        if count > 0 {
            self.recovery_log
                .push(RecoveryEvent::SlotsReclaimed { ssd, count });
        }
    }

    /// Surprise re-attach of SSD `ssd` in its bay: the device rebooted,
    /// so the rings reset on both sides and in-flight attempts can
    /// never complete. Live attempts are aborted to the host (fan-out
    /// siblings on healthy SSDs still count down normally), zombie
    /// slots are reaped, and — if the SSD was quiesced — forwarding
    /// resumes and the backlog drains. The harness must attach fresh
    /// SSD-side queue views after this returns.
    pub fn surprise_reinsert(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        host: &mut HostMemory,
    ) -> Vec<EngineAction> {
        let port = self.adaptor.port_mut(ssd);
        let origins = port.abandon_all_live();
        let count = port.reap_zombies() + origins.len();
        port.reset_rings(&mut self.chip);
        self.ring_epochs[ssd.0 as usize] += 1;
        let mut actions = Vec::new();
        for origin in origins {
            // The retry entry's span dies with the attempt — the
            // deadline timer must not resurrect the command.
            self.pending_retry.remove(origin.seq);
            self.finish_origin(now, origin, Status::Aborted, &mut actions);
        }
        if count > 0 {
            self.recovery_log
                .push(RecoveryEvent::SlotsReclaimed { ssd, count });
        }
        if self.paused[ssd.0 as usize] {
            self.paused[ssd.0 as usize] = false;
            self.drain_backlog(now, ssd, host, &mut actions);
        }
        coalesce_actions(&mut actions, 0);
        actions
    }

    /// Drains the recovery actions taken since the last call (the
    /// testbed surfaces them as pipeline fault-trace events).
    pub fn take_recovery_events(&mut self) -> Vec<RecoveryEvent> {
        std::mem::take(&mut self.recovery_log)
    }

    /// Timeout/retry counters.
    pub fn resilience_stats(&self) -> ResilienceStats {
        self.resilience
    }

    // ------------------------------------------------------------------
    // Crash / recovery state machine
    // ------------------------------------------------------------------

    /// Whether the firmware is currently crashed (data plane down).
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The ring incarnation of `ssd`'s back-end rings (see the field
    /// docs): bumped by engine crashes, hot-plug replacement, and
    /// surprise re-inserts. The harness stamps it onto back-end stages
    /// and drops stages minted under an older one, fencing the reset
    /// rings from in-flight events.
    pub fn ring_epoch(&self, ssd: SsdId) -> u64 {
        self.ring_epochs[ssd.0 as usize]
    }

    /// When the current cold-restart completes. Meaningful only while
    /// [`BmsEngine::is_crashed`]; the harness re-schedules host
    /// doorbells that arrive during the outage to this instant.
    pub fn restart_at(&self) -> SimTime {
        self.restart_at
    }

    /// The engine firmware dies at `now` and will cold-restart at
    /// `restart_at`.
    ///
    /// Models the card-local crash path: the watchdog catches the dead
    /// firmware, journals the volatile pipeline state to the
    /// persistent-model region (the §IV-D "store I/O context" mechanism
    /// applied to a whole-engine failure), quiesces the back-end rings,
    /// and bumps every ring epoch so events minted by the dead instance
    /// are fenced. Until [`BmsEngine::recover`] runs, host SQ doorbells are
    /// deferred by the harness and QoS/deadline callbacks are no-ops.
    ///
    /// A crash while already crashed just extends the outage.
    pub fn crash(&mut self, now: SimTime, restart_at: SimTime) {
        if self.crashed {
            self.restart_at = self.restart_at.max(restart_at);
            return;
        }
        self.crashed = true;
        for e in &mut self.ring_epochs {
            *e += 1;
        }
        self.crashed_at = now;
        self.restart_at = restart_at;
        let mut journal = journal::Journal {
            paused: self.paused.clone(),
            fanout: std::mem::take(&mut self.fanout),
            ..journal::Journal::default()
        };
        // Command table first: in-flight attempts that kept their span
        // (the timeout machinery's retry entries), in forwarding order
        // — replay must not reorder attempts. The deadline timer goes
        // with them; the replays re-arm it.
        let pending = std::mem::take(&mut self.pending_retry);
        self.deadline_timer = None;
        let mut journaled_seqs = BTreeSet::new();
        for (seq, entry) in pending.into_entries() {
            journaled_seqs.insert(seq);
            journal.spans.push(entry.span);
        }
        // Then the buffered backlog behind them, per SSD in FIFO order.
        for backlog in &mut self.backlog {
            journal.spans.extend(backlog.drain(..));
        }
        // QoS-deferred commands, in release order. The release FIFO does
        // not survive — replay re-enters at the forwarding step.
        let mut deferred: Vec<QosRelease> = self.qos_heap.drain().collect();
        deferred.sort_by_key(|r| (r.at, r.seq));
        journal.deferred.extend(deferred.into_iter().map(|r| r.io));
        for f in &mut self.functions {
            if let Some(b) = f.binding_mut() {
                b.qos.clear_buffered();
            }
        }
        // Quiesce the rings: every live slot is abandoned. Slots whose
        // command has a journaled copy replay on restart; the rest are
        // orphans recovery can only abort. The dead instance's stale
        // completions can never arrive on the reset rings (the ring
        // epoch fence drops them), so zombies are reaped immediately.
        for i in 0..self.adaptor.len() {
            let ssd = SsdId(i as u8);
            let port = self.adaptor.port_mut(ssd);
            for origin in port.abandon_all_live() {
                if !journaled_seqs.contains(&origin.seq) {
                    journal.orphans.push(origin);
                }
            }
            port.reap_zombies();
            port.reset_rings(&mut self.chip);
        }
        if self.cfg.debug_drop_journal_tail {
            journal.spans.pop();
        }
        let journaled = journal.len();
        self.journal = journal;
        self.recovery_log
            .push(RecoveryEvent::EngineCrashed { journaled });
    }

    /// The firmware cold-restart completes: replay or abort every
    /// command in the crash journal per [`EngineConfig::fail_policy`].
    ///
    /// `QuiesceReplay` re-enqueues journaled span attempts and
    /// re-forwards QoS-deferred commands (restoring the fan-out
    /// countdown first, so multi-span commands still complete exactly
    /// once); orphans — in-flight attempts with no journaled copy —
    /// are aborted to the host. `AbortToHost` aborts everything, one
    /// [`Status::Aborted`] completion per host command. The harness
    /// must re-attach fresh SSD ring views *before* calling this (the
    /// crash reset the engine-side rings to zero).
    ///
    /// A no-op if the engine is not crashed.
    pub fn recover(&mut self, now: SimTime, host: &mut HostMemory) -> Vec<EngineAction> {
        if !self.crashed {
            return Vec::new();
        }
        self.crashed = false;
        let journal::Journal {
            paused,
            fanout,
            spans,
            deferred,
            orphans,
        } = std::mem::take(&mut self.journal);
        // Management-plane quiesce state survives the restart.
        self.paused = paused;
        let orphan_keys: BTreeSet<HostKey> = orphans.iter().map(Outstanding::host_key).collect();
        let mut actions = Vec::new();
        let mut replayed: u32 = 0;
        let mut aborted: u32 = 0;
        // One abort per host command, however many journaled records
        // share its key.
        let mut abort_seen = BTreeSet::new();
        let mut abort_once =
            |this: &mut Self, origin: Outstanding, actions: &mut Vec<EngineAction>| {
                if abort_seen.insert(origin.host_key()) {
                    aborted += 1;
                    this.finish_origin(now, origin, Status::Aborted, actions);
                }
            };
        match self.cfg.fail_policy {
            FailPolicy::QuiesceReplay => {
                // Restore the fan-out countdown for replayed commands.
                // Orphaned commands abort whole: their keys stay out so
                // the single abort completion is untracked, and their
                // sibling span records are dropped below (replaying
                // them would count the countdown down to a second
                // host completion).
                for (key, v) in fanout {
                    if !orphan_keys.contains(&key) {
                        self.fanout.insert(key, v);
                    }
                }
                for span in spans {
                    if orphan_keys.contains(&span.io.key()) {
                        continue;
                    }
                    replayed += 1;
                    self.enqueue_backend(now, span, host, &mut actions);
                }
                for io in deferred {
                    if orphan_keys.contains(&io.key()) {
                        continue;
                    }
                    replayed += 1;
                    self.forward_io(now, io, host, &mut actions);
                }
            }
            FailPolicy::AbortToHost => {
                // The fan-out table is not restored: each command gets
                // exactly one untracked abort completion.
                let attempts = spans.iter().map(|s| s.io.origin(s.blocks, now, 0));
                let held = deferred.iter().map(|io| io.origin(io.blocks, now, 0));
                for origin in attempts.chain(held) {
                    abort_once(self, origin, &mut actions);
                }
            }
        }
        for origin in orphans {
            abort_once(self, origin, &mut actions);
        }
        self.resilience.recoveries += 1;
        self.resilience.replayed += u64::from(replayed);
        self.resilience.aborted_on_recovery += u64::from(aborted);
        self.resilience.recovery_time += now.saturating_since(self.crashed_at);
        self.recovery_log
            .push(RecoveryEvent::EngineRecovered { replayed, aborted });
        // The outage window on the metrics timeline: incident reports
        // and blame attribution read these back as crash-recovery time.
        if let Some(m) = self.obs.metrics_mut() {
            let label = format!("recovery:replayed={replayed} aborted={aborted}");
            m.annotate(self.crashed_at, Some(now), label);
        }
        coalesce_actions(&mut actions, 0);
        actions
    }

    // ------------------------------------------------------------------
    // Host-facing data plane
    // ------------------------------------------------------------------

    /// Host MMIO write into a function's BAR0.
    ///
    /// Doorbell writes drive the whole fetch-map-forward pipeline;
    /// anything else is a register write the model tracks elsewhere.
    pub fn host_doorbell_write(
        &mut self,
        now: SimTime,
        func: FunctionId,
        bar_offset: u64,
        value: u32,
        host: &mut HostMemory,
    ) -> Vec<EngineAction> {
        let mut actions = Vec::new();
        self.host_doorbell_write_into(now, func, bar_offset, value, host, &mut actions);
        actions
    }

    /// [`Self::host_doorbell_write`] appending its actions to `actions`,
    /// so a harness that reuses one buffer allocates nothing per
    /// doorbell.
    pub fn host_doorbell_write_into(
        &mut self,
        now: SimTime,
        func: FunctionId,
        bar_offset: u64,
        value: u32,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) {
        let Some((qid, is_cq)) = DoorbellLayout::decode(bar_offset) else {
            return;
        };
        let f = &mut self.functions[func.index() as usize];
        let Some(pair) = f.queue(qid) else {
            return;
        };
        if is_cq {
            // Host consumed completions. Accepted even while crashed:
            // the head doorbell only acknowledges consumption, and
            // dropping it would wedge the completion fabric's view of
            // free CQ space across the outage.
            let _ = pair.cq.doorbell_head(value);
            return;
        }
        if self.crashed {
            // Firmware dead: SQ tails are not fetched. The harness
            // defers the doorbell stage to the restart instant, so a
            // direct call landing here is dropped, not deferred.
            return;
        }
        if pair.sq.doorbell_tail(value).is_err() {
            return;
        }
        // Fetch every newly published SQE (reused buffer — one doorbell
        // per request in the closed-loop benches, so this is hot).
        let mut sqes = std::mem::take(&mut self.sqe_scratch);
        debug_assert!(sqes.is_empty());
        loop {
            let f = &mut self.functions[func.index() as usize];
            let Some(pair) = f.queue(qid) else {
                break;
            };
            match pair.sq.fetch(host) {
                Ok(Some(sqe)) => sqes.push(Ok(sqe)),
                Ok(None) => break,
                Err(bad) => sqes.push(Err(bad)),
            }
        }
        let fetch_at = now + EngineTiming::PAPER.command_fetch;
        if !sqes.is_empty() {
            let n = sqes.len() as u64;
            let busy = EngineTiming::PAPER.command_fetch * n;
            self.obs.stage_busy(MetricStage::FrontEnd, busy, n);
        }
        let from = actions.len();
        for fetched in sqes.drain(..) {
            let sqe = match fetched {
                Ok(sqe) => sqe,
                Err(bad) => {
                    // An entry that does not parse still names its
                    // command: complete it under that CID.
                    actions.push(EngineAction::HostCompletion {
                        func,
                        qid,
                        cid: bad.cid,
                        status: bad.status,
                        at: fetch_at + EngineTiming::PAPER.admin_processing,
                    });
                    continue;
                }
            };
            match sqe.opcode {
                Opcode::Admin(op) => {
                    let status = self.handle_admin(func, op, &sqe, host);
                    actions.push(EngineAction::HostCompletion {
                        func,
                        qid,
                        cid: sqe.cid,
                        status,
                        at: fetch_at + EngineTiming::PAPER.admin_processing,
                    });
                }
                Opcode::Io(op) => {
                    // Join the submitter's span tree: the doorbell →
                    // SQE-fetched window is the SR-IOV layer's share.
                    let (cmd, opcode) = self.obs.lookup(func.index() as u16, sqe.cid.0);
                    if cmd.is_some() {
                        self.obs.span(
                            cmd,
                            func.index() as u16,
                            func.index(),
                            opcode,
                            TelemetryStage::Fetch,
                            now,
                            fetch_at,
                            true,
                        );
                    }
                    match self.decode_io(fetch_at, func, qid, op, &sqe, cmd) {
                        Ok((io, route)) => self.start_io(fetch_at, io, route, host, actions),
                        Err(status) => {
                            self.counters.record(func, false, 0, true);
                            actions.push(EngineAction::HostCompletion {
                                func,
                                qid,
                                cid: sqe.cid,
                                status,
                                at: fetch_at
                                    + EngineTiming::PAPER.pipeline
                                    + EngineTiming::PAPER.cqe_forward,
                            });
                        }
                    }
                }
            }
        }
        self.sqe_scratch = sqes;
        coalesce_actions(actions, from);
    }

    fn handle_admin(
        &mut self,
        func: FunctionId,
        op: AdminOpcode,
        sqe: &Sqe,
        host: &mut HostMemory,
    ) -> Status {
        let idx = func.index() as usize;
        match op {
            AdminOpcode::Identify => {
                let cns = sqe.cdw10 & 0xFF;
                let page = if cns == 1 {
                    IdentifyController::bm_store_front_end(func.index()).to_page()
                } else {
                    match self.functions[idx].binding() {
                        Some(b) => IdentifyNamespace {
                            nsze: b.blocks(),
                            block_size: b.block_size,
                        }
                        .to_page(),
                        None => IdentifyNamespace {
                            nsze: 0,
                            block_size: BLOCK_SIZE,
                        }
                        .to_page(),
                    }
                };
                if !sqe.prp1.is_null() {
                    host.write(sqe.prp1, &page);
                }
                Status::Success
            }
            AdminOpcode::CreateIoCq => {
                let qid = QueueId((sqe.cdw10 & 0xFFFF) as u16);
                let entries = ((sqe.cdw10 >> 16) as u16) + 1;
                if self.functions[idx].create_io_cq(qid, sqe.prp1, entries) {
                    Status::Success
                } else {
                    Status::InvalidField
                }
            }
            AdminOpcode::CreateIoSq => {
                let qid = QueueId((sqe.cdw10 & 0xFFFF) as u16);
                let entries = ((sqe.cdw10 >> 16) as u16) + 1;
                if self.functions[idx].create_io_sq(qid, sqe.prp1, entries) {
                    Status::Success
                } else {
                    Status::InvalidField
                }
            }
            AdminOpcode::DeleteIoSq | AdminOpcode::DeleteIoCq => {
                let qid = QueueId((sqe.cdw10 & 0xFFFF) as u16);
                if self.functions[idx].delete_io_queue(qid) || op == AdminOpcode::DeleteIoCq {
                    Status::Success
                } else {
                    Status::InvalidField
                }
            }
            AdminOpcode::SetFeatures | AdminOpcode::GetFeatures | AdminOpcode::GetLogPage => {
                Status::Success
            }
            // Tenants cannot touch physical firmware through a virtual
            // controller; the out-of-band path owns it (§IV-D).
            AdminOpcode::FirmwareDownload | AdminOpcode::FirmwareCommit => Status::InvalidOpcode,
        }
    }

    /// Records one engine stage span for `io` (no-op without a CmdId).
    fn tel_span(&mut self, io: &HostIo, stage: TelemetryStage, start: SimTime, end: SimTime) {
        if io.cmd.is_some() {
            self.obs.span(
                io.cmd,
                io.func.index() as u16,
                io.func.index(),
                io.op.code(),
                stage,
                start,
                end,
                true,
            );
        }
    }

    /// The target controller's one look at a fetched I/O command: the
    /// checks, QoS admission and, for a flush, the SSDs it fans out to,
    /// all against the binding `func` has now. Returns the command's
    /// record and where it goes next, or the status it is refused with.
    fn decode_io(
        &mut self,
        now: SimTime,
        func: FunctionId,
        qid: QueueId,
        op: IoOpcode,
        sqe: &Sqe,
        cmd: CmdId,
    ) -> Result<(HostIo, Route), Status> {
        let binding = self.functions[func.index() as usize]
            .binding_mut()
            .ok_or(Status::InvalidNamespace)?;
        let io = HostIo {
            func,
            qid,
            cid: sqe.cid,
            op,
            slba: sqe.slba,
            blocks: sqe.nlb_blocks(),
            prp1: sqe.prp1,
            prp2: sqe.prp2,
            row_base: binding.row_base,
            fetched_at: now,
            cmd,
        };
        if sqe.nsid != Some(Nsid::ONE) {
            return Err(Status::LbaOutOfRange);
        }
        if op == IoOpcode::Flush {
            // Flushes move no data and bypass QoS.
            let ssds = self
                .mapping
                .chunks(binding.row_base, binding.rows)
                .fold(0u8, |set, e| set | (1 << e.ssd().0));
            return Ok((io, Route::FanOut(ssds)));
        }
        let in_range = io
            .slba
            .checked_add(u64::from(io.blocks))
            .is_some_and(|end| end.raw() <= binding.blocks());
        if !in_range {
            return Err(Status::LbaOutOfRange);
        }
        // A transfer needs PRP1, and PRP2 once it spans a second page
        // (what `PrpPair::segments` demands on the native path). Its PRP
        // list must also fit the chip-memory slot each forwarded command
        // gets; a longer one would overwrite the next slot's.
        if io.prp1.is_null()
            || (io.blocks > 1 && io.prp2.is_null())
            || io.blocks > MAX_FORWARD_PAGES
        {
            return Err(Status::InvalidField);
        }
        let route = match binding.qos.admit(now, u64::from(io.blocks) * BLOCK_SIZE) {
            Admission::Immediate => Route::Forward,
            Admission::Deferred(at) => Route::Defer(at),
        };
        Ok((io, route))
    }

    /// Takes a command the doorbell accepted into the pipeline: gauges
    /// it, then forwards it, holds it for QoS, or fans a flush out.
    fn start_io(
        &mut self,
        now: SimTime,
        io: HostIo,
        route: Route,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) {
        // Attribute the mapping/rewrite pipeline window to the
        // Translate stage.
        let idx = io.func.index() as usize;
        self.counters.command_started(io.func);
        if let Some(m) = self.obs.metrics_mut() {
            let outstanding = self.counters.regs(io.func).outstanding;
            m.stage_busy(MetricStage::TargetCtrl, EngineTiming::PAPER.pipeline, 1);
            m.counter_add(Metric::EngineStarted.of(idx), 1);
            m.gauge_set(
                now,
                Metric::EngineOutstanding.of(idx),
                f64::from(outstanding),
            );
        }
        self.tel_span(
            &io,
            TelemetryStage::Translate,
            now,
            now + EngineTiming::PAPER.pipeline,
        );
        match route {
            Route::Forward => self.forward_io(now, io, host, actions),
            Route::Defer(at) => {
                self.counters.record_deferred(io.func);
                let wait = at.saturating_since(now);
                self.obs.stage_busy(MetricStage::Qos, wait, 1);
                self.tel_span(&io, TelemetryStage::Qos, now, at);
                self.qos_seq += 1;
                self.qos_heap.push(QosRelease {
                    at,
                    seq: self.qos_seq,
                    io,
                });
                actions.push(EngineAction::QosWakeup { at });
            }
            Route::FanOut(ssds) => {
                let n = u64::from(ssds.count_ones());
                let busy = EngineTiming::PAPER.pipeline * n;
                self.obs.stage_busy(MetricStage::Mapping, busy, n);
                // Single-target commands skip the fan-out table:
                // `finish_origin` treats an untracked origin as its own
                // completion, with the same status and timing.
                if n > 1 {
                    self.fanout.insert(io.key(), (n as u8, Status::Success));
                }
                for i in (0..8).filter(|i| ssds & (1 << i) != 0) {
                    let span = Span {
                        io,
                        ssd: SsdId(i),
                        lba: io.slba,
                        first: 0,
                        blocks: io.blocks,
                        retries: 0,
                    };
                    self.enqueue_backend(now, span, host, actions);
                }
            }
        }
    }

    /// Maps an admitted read or write through the mapping rows it was
    /// validated against and forwards it, one back-end command per chunk
    /// it touches. A command whose rows were cleared while QoS held it
    /// (its namespace was unbound) completes with
    /// [`Status::InvalidNamespace`] and sends nothing to the back end.
    fn forward_io(
        &mut self,
        now: SimTime,
        io: HostIo,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) {
        // Split on chunk boundaries into a reused buffer — single-span
        // commands dominate and must not allocate.
        let mut spans = std::mem::take(&mut self.span_scratch);
        if self.split_spans_into(&io, &mut spans).is_err() {
            let origin = io.origin(0, now, 0);
            self.finish_origin(now, origin, Status::InvalidNamespace, actions);
        } else {
            let n = spans.len() as u64;
            let busy = EngineTiming::PAPER.pipeline * n;
            self.obs.stage_busy(MetricStage::Mapping, busy, n);
            // Single-span commands skip the fan-out table (see the
            // flush fan-out in `start_io`).
            if spans.len() > 1 {
                self.fanout
                    .insert(io.key(), (spans.len() as u8, Status::Success));
            }
            for &span in &spans {
                self.enqueue_backend(now, span, host, actions);
            }
        }
        spans.clear();
        self.span_scratch = spans;
    }

    /// Maps `io` through its binding's rows into `spans`, one per chunk
    /// it touches, or fails if a row entry is no longer valid.
    fn split_spans_into(&self, io: &HostIo, spans: &mut Vec<Span>) -> Result<(), MapError> {
        let cs = self.mapping.chunk_blocks();
        spans.clear();
        let mut first = 0;
        while first < io.blocks {
            let hl = io.slba.raw() + u64::from(first);
            let in_chunk = cs - hl % cs;
            let blocks = u64::from(io.blocks - first).min(in_chunk) as u32;
            let (ssd, lba) = self.mapping.map(io.row_base, Lba(hl))?;
            spans.push(Span {
                io: *io,
                ssd,
                lba,
                first,
                blocks,
                retries: 0,
            });
            first += blocks;
        }
        Ok(())
    }

    /// Queues one span toward its SSD (or buffers it if the SSD is
    /// paused / the ring is full).
    fn enqueue_backend(
        &mut self,
        now: SimTime,
        span: Span,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) {
        let sidx = span.ssd.0 as usize;
        if self.paused[sidx]
            || !self.backlog[sidx].is_empty()
            || !self.adaptor.port(span.ssd).has_capacity()
        {
            self.backlog[sidx].push_back(span);
            return;
        }
        self.push_to_port(now, span, host, actions);
    }

    /// Forwards one span: reserves its back-end CID, builds its SQE —
    /// the physical LBA, and global PRPs for the span's host pages —
    /// and rings the SSD's doorbell.
    fn push_to_port(
        &mut self,
        now: SimTime,
        span: Span,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) {
        let (io, ssd) = (span.io, span.ssd);
        self.cmd_seq += 1;
        let seq = self.cmd_seq;
        let origin = io.origin(span.blocks, now, seq);
        let bytes = origin.bytes;
        let backend_cid = self.adaptor.port_mut(ssd).reserve(origin);
        if let Some(timeout) = self.cfg.command_timeout {
            let deadline = now + timeout;
            self.pending_retry.insert(
                seq,
                RetryEntry {
                    cid: backend_cid,
                    port: ssd,
                    deadline,
                    span,
                },
            );
            // An armed timer fires no later than this deadline; it
            // re-arms for this attempt when the attempt reaches the
            // front of the window.
            if self.deadline_timer.is_none() {
                self.deadline_timer = Some(deadline);
                actions.push(EngineAction::CommandDeadline { at: deadline });
            }
        }
        let (prp1, prp2) = if io.op == IoOpcode::Flush {
            (PciAddr::NULL, PciAddr::NULL)
        } else {
            // A span of more than two pages gets its tagged list in the
            // command's chip slot (the "global PRP stored into chip
            // memory" of §IV-C): its 256-byte block for up to 32
            // entries, its page beyond.
            debug_assert_eq!(
                BLOCK_SIZE, PAGE_SIZE,
                "block == page keeps PRP slicing exact"
            );
            let prps = &mut self.prp_scratch;
            span.read_tagged_prps(host, prps);
            let prp2 = match span.blocks {
                1 => PciAddr::NULL,
                2 => prp_at(prps, 1),
                n => {
                    let list_slot = self.adaptor.port(ssd).list_slot(backend_cid, n - 1);
                    ChipWindow(&mut self.chip).dma_write(list_slot, &prps[8..]);
                    list_slot
                }
            };
            (prp_at(prps, 0), prp2)
        };
        let sqe = Sqe::io(
            io.op,
            backend_cid,
            Nsid::ONE,
            span.lba,
            span.blocks,
            prp1,
            prp2,
        );
        let tail = self.adaptor.port_mut(ssd).push_sqe(&mut self.chip, &sqe);
        let mut at = now + EngineTiming::PAPER.pipeline + EngineTiming::PAPER.backend_forward;
        // Store-and-forward ablation: write payloads must land in card
        // DRAM before the SSD can fetch them.
        if io.op == IoOpcode::Write {
            if let Some(link) = &mut self.copy_link {
                at = at.max(link.transfer(now, bytes));
            }
        }
        // Forward window: ring push + doorbell, plus any store-and-
        // forward link wait (the DMA-bound case the profiler must name).
        let busy = at.saturating_since(now);
        self.obs.stage_busy(MetricStage::DmaRouting, busy, 1);
        actions.push(EngineAction::BackendDoorbell { ssd, tail, at });
    }

    /// Releases QoS-buffered commands due at `now`.
    pub fn qos_wakeup(&mut self, now: SimTime, host: &mut HostMemory) -> Vec<EngineAction> {
        let mut actions = Vec::new();
        if self.crashed {
            // The crash journaled the deferred commands; wakeups armed
            // by the dead instance are void.
            return actions;
        }
        while let Some(top) = self.qos_heap.peek() {
            if top.at > now {
                actions.push(EngineAction::QosWakeup { at: top.at });
                break;
            }
            let Some(rel) = self.qos_heap.pop() else {
                break;
            };
            // Keep the buffer bookkeeping of the binding that admitted
            // the command in sync; a later binding never buffered it.
            let binding = self.functions[rel.io.func.index() as usize].binding_mut();
            if let Some(b) = binding.filter(|b| b.row_base == rel.io.row_base) {
                let _ = b.qos.pop_due(now);
            }
            self.forward_io(now, rel.io, host, &mut actions);
        }
        coalesce_actions(&mut actions, 0);
        actions
    }

    /// Handles completions the SSD posted into its back-end CQ: resolves
    /// origins, counts down fan-outs, and emits host completions.
    /// Also returns the CQ head to acknowledge to the SSD.
    pub fn on_backend_completion(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        host: &mut HostMemory,
    ) -> (Vec<EngineAction>, u32) {
        let mut actions = Vec::new();
        let cq_head = self.on_backend_completion_into(now, ssd, host, &mut actions);
        (actions, cq_head)
    }

    /// [`Self::on_backend_completion`] appending its actions to
    /// `actions`; returns the CQ head to acknowledge to the SSD.
    pub fn on_backend_completion_into(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) -> u32 {
        let mut done = std::mem::take(&mut self.done_scratch);
        let cq_head = self
            .adaptor
            .port_mut(ssd)
            .drain_completions(&mut self.chip, &mut done);
        let from = actions.len();
        for (origin, cqe) in done.drain(..) {
            if !self.pending_retry.is_empty() {
                self.pending_retry.remove(origin.seq);
            }
            // One DMA-routing span per forwarding attempt: push into the
            // back-end ring → back-end completion observed.
            if origin.cmd.is_some() {
                self.obs.span(
                    origin.cmd,
                    origin.func.index() as u16,
                    origin.func.index(),
                    origin.op.code(),
                    TelemetryStage::Dma,
                    origin.pushed_at,
                    now,
                    cqe.status.is_success(),
                );
            }
            self.finish_origin(now, origin, cqe.status, actions);
        }
        self.done_scratch = done;
        // Freed slots: drain any backlog.
        self.drain_backlog(now, ssd, host, actions);
        coalesce_actions(actions, from);
        cq_head
    }

    fn finish_origin(
        &mut self,
        now: SimTime,
        origin: Outstanding,
        status: Status,
        actions: &mut Vec<EngineAction>,
    ) {
        let key = origin.host_key();
        let entry = self.fanout.get_mut(&key);
        let finished = match entry {
            Some((remaining, worst)) => {
                if !status.is_success() {
                    *worst = status;
                }
                *remaining -= 1;
                if *remaining == 0 {
                    self.fanout.remove(&key).map(|(_, worst)| worst)
                } else {
                    None
                }
            }
            None => Some(status), // untracked (defensive)
        };
        if let Some(final_status) = finished {
            self.counters.record(
                origin.func,
                origin.op.is_write(),
                origin.bytes,
                !final_status.is_success(),
            );
            let mut at = now + EngineTiming::PAPER.cqe_forward;
            // Store-and-forward ablation: read payloads cross the card
            // DRAM on the way up.
            if origin.op == IoOpcode::Read && origin.bytes > 0 {
                if let Some(link) = &mut self.copy_link {
                    at = at.max(link.transfer(now, origin.bytes) + EngineTiming::PAPER.cqe_forward);
                }
            }
            // Latch the engine-observed latency (fetch → CQE posted)
            // into the monitoring registers, and close the pipeline's
            // outstanding gauge.
            self.counters
                .command_finished(origin.func, at.saturating_since(origin.fetched_at));
            if let Some(m) = self.obs.metrics_mut() {
                // Any wait beyond the CQE forward slot is store-and-
                // forward copy time: it belongs to the DMA routing
                // stage, not the host adaptor (busy only — forwards
                // already counted the arrival).
                let copy_wait = at.saturating_since(now + EngineTiming::PAPER.cqe_forward);
                let busy = at.saturating_since(now) + EngineTiming::PAPER.interrupt - copy_wait;
                let outstanding = self.counters.regs(origin.func).outstanding;
                let idx = origin.func.index() as usize;
                if copy_wait > SimDuration::ZERO {
                    m.stage_busy(MetricStage::DmaRouting, copy_wait, 0);
                }
                m.stage_busy(MetricStage::HostAdaptor, busy, 1);
                m.counter_add(Metric::EngineFinished.of(idx), 1);
                m.gauge_set(
                    now,
                    Metric::EngineOutstanding.of(idx),
                    f64::from(outstanding),
                );
            }
            if origin.cmd.is_some() {
                self.obs.span(
                    origin.cmd,
                    origin.func.index() as u16,
                    origin.func.index(),
                    origin.op.code(),
                    TelemetryStage::Completion,
                    now,
                    at,
                    final_status.is_success(),
                );
            }
            actions.push(EngineAction::HostCompletion {
                func: origin.func,
                qid: origin.host_qid,
                cid: origin.host_cid,
                status: final_status,
                at,
            });
        }
    }

    /// Forwards commands buffered toward `ssd` while it has capacity,
    /// appending the resulting actions.
    fn drain_backlog(
        &mut self,
        now: SimTime,
        ssd: SsdId,
        host: &mut HostMemory,
        actions: &mut Vec<EngineAction>,
    ) {
        let sidx = ssd.0 as usize;
        while !self.paused[sidx] && self.adaptor.port(ssd).has_capacity() {
            let Some(span) = self.backlog[sidx].pop_front() else {
                break;
            };
            self.push_to_port(now, span, host, actions);
        }
    }

    /// Posts a host CQE (call at the action's `at` time). Returns `true`
    /// when an MSI should be raised `timing.interrupt` later.
    pub fn deliver_host_completion(
        &mut self,
        func: FunctionId,
        qid: QueueId,
        cid: Cid,
        status: Status,
        host: &mut HostMemory,
    ) -> bool {
        let f = &mut self.functions[func.index() as usize];
        let Some(pair) = f.queue(qid) else {
            return false;
        };
        let cqe = Cqe {
            result: 0,
            sq_head: pair.sq.head(),
            sq_id: qid,
            cid,
            phase: false,
            status,
        };
        pair.cq.post(host, cqe).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::mapping::MapEntry;

    fn engine() -> (BmsEngine, HostMemory) {
        let engine = BmsEngine::new(EngineConfig::paper_default(4));
        let host = HostMemory::new(1 << 30);
        (engine, host)
    }

    fn fid(i: u8) -> FunctionId {
        FunctionId::new(i).unwrap()
    }

    #[test]
    fn timing_sums_to_three_microseconds() {
        let rt = EngineTiming::PAPER.round_trip().as_micros_f64();
        assert!((2.5..3.5).contains(&rt), "round trip {rt}");
    }

    #[test]
    fn bind_allocates_rows_and_chunks() {
        let (mut engine, _) = engine();
        // The paper's 1536 GB single-SSD binding = 24 chunks, 3 rows.
        engine
            .bind_namespace(fid(0), 1536 << 30, Placement::Single(SsdId(0)))
            .unwrap();
        let b = engine.function(fid(0)).binding().unwrap();
        assert_eq!(b.rows, 3);
        let chunks: Vec<_> = engine.mapping().chunks(b.row_base, b.rows).collect();
        assert_eq!(chunks.len(), 24);
        assert!(chunks.iter().all(|e| e.ssd() == SsdId(0)));
        // Mapping resolves inside the binding.
        let (ssd, _) = engine.mapping().map(b.row_base, Lba(0)).unwrap();
        assert_eq!(ssd, SsdId(0));
    }

    #[test]
    fn bind_errors() {
        let (mut engine, _) = engine();
        engine
            .bind_namespace(fid(1), 256 << 30, Placement::RoundRobin)
            .unwrap();
        assert_eq!(
            engine.bind_namespace(fid(1), 1 << 30, Placement::RoundRobin),
            Err(BindError::AlreadyBound)
        );
        // 4 × 2 TB = 124 chunks total; 120 remain after the first bind.
        assert_eq!(
            engine.bind_namespace(fid(2), 10_000 << 30, Placement::RoundRobin),
            Err(BindError::OutOfCapacity)
        );
    }

    #[test]
    fn unbind_releases_capacity() {
        let (mut engine, _) = engine();
        engine
            .bind_namespace(fid(0), 256 << 30, Placement::RoundRobin)
            .unwrap();
        assert!(engine.unbind_namespace(fid(0)));
        assert!(!engine.unbind_namespace(fid(0)));
        // Chunks came back.
        engine
            .bind_namespace(fid(1), 256 << 30, Placement::RoundRobin)
            .unwrap();
    }

    #[test]
    fn doorbell_to_backend_flow() {
        let (mut engine, mut host) = engine();
        engine
            .bind_namespace(fid(0), 256 << 30, Placement::Single(SsdId(2)))
            .unwrap();
        engine.set_function_enabled(fid(0), true);
        // Host creates rings.
        let sq_base = host.alloc(64 * 64).unwrap();
        let cq_base = host.alloc(64 * 16).unwrap();
        engine
            .function_mut(fid(0))
            .create_io_cq(QueueId(1), cq_base, 64);
        engine
            .function_mut(fid(0))
            .create_io_sq(QueueId(1), sq_base, 64);
        // Host pushes a read SQE and rings the doorbell.
        let buf = host.alloc(4096).unwrap();
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(7),
            Nsid::new(1).unwrap(),
            Lba(100),
            1,
            buf,
            PciAddr::NULL,
        );
        let mut host_sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 64);
        host_sq.push(&mut host, &sqe).unwrap();
        let actions = engine.host_doorbell_write(
            SimTime::ZERO,
            fid(0),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            1,
            &mut host,
        );
        assert_eq!(actions.len(), 1);
        match actions[0] {
            EngineAction::BackendDoorbell { ssd, tail, at } => {
                assert_eq!(ssd, SsdId(2));
                assert_eq!(tail, 1);
                assert!(at > SimTime::ZERO);
            }
            ref other => panic!("unexpected action {other:?}"),
        }
        // The forwarded SQE has a mapped (physical) LBA and tagged PRP1.
        let (mut ssd_sq, _) = engine.ssd_rings(SsdId(2));
        ssd_sq.doorbell_tail(1).unwrap();
        let mut router_host = HostMemory::new(1 << 20);
        let mut router = engine.dma_router(&mut router_host);
        let fwd = ssd_sq.fetch(&mut router).unwrap().unwrap();
        assert!(GlobalPrp::is_tagged(fwd.prp1) || fwd.prp1 == buf);
        let (untagged, func, _) = GlobalPrp::untag(fwd.prp1);
        assert_eq!(untagged, buf);
        assert_eq!(func, fid(0));
        // Physical LBA differs from host LBA unless chunk 0 mapped to 0.
        let b = engine.function(fid(0)).binding().unwrap();
        let (_, pl) = engine.mapping().map(b.row_base, Lba(100)).unwrap();
        assert_eq!(fwd.slba, pl);
    }

    #[test]
    fn prp_lists_take_the_chip_slot_their_length_fits() {
        // PRP1 plus 31, 32 and 33 list entries: the first two fit the
        // CID's 256-byte block, the third needs its 4 KiB slot.
        for pages in [32u32, 33, 34] {
            let (mut engine, mut host) = engine();
            engine
                .bind_namespace(fid(0), 256 << 30, Placement::Single(SsdId(0)))
                .unwrap();
            engine.set_function_enabled(fid(0), true);
            let sq_base = host.alloc(64 * 64).unwrap();
            let cq_base = host.alloc(64 * 16).unwrap();
            engine
                .function_mut(fid(0))
                .create_io_cq(QueueId(1), cq_base, 64);
            engine
                .function_mut(fid(0))
                .create_io_sq(QueueId(1), sq_base, 64);
            let len = u64::from(pages) * PAGE_SIZE;
            let buf = host.alloc(len).unwrap();
            let prp = bm_nvme::prp::PrpPair::build(&mut host, buf, len);
            let sqe = Sqe::io(
                IoOpcode::Read,
                Cid(3),
                Nsid::ONE,
                Lba(0),
                pages,
                prp.prp1,
                prp.prp2,
            );
            let mut host_sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 64);
            host_sq.push(&mut host, &sqe).unwrap();
            engine.host_doorbell_write(
                SimTime::ZERO,
                fid(0),
                DoorbellLayout::sq_tail_offset(QueueId(1)),
                1,
                &mut host,
            );
            let (mut ssd_sq, _) = engine.ssd_rings(SsdId(0));
            ssd_sq.doorbell_tail(1).unwrap();
            let fwd = ssd_sq
                .fetch(&mut engine.dma_router(&mut host))
                .unwrap()
                .unwrap();
            let port = engine.adaptor().port(SsdId(0));
            let (block, page) = (port.list_slot(fwd.cid, 2), port.list_slot(fwd.cid, 512));
            assert_ne!(block, page);
            let want = if pages - 1 <= 32 { block } else { page };
            assert_eq!(fwd.prp2, want, "{pages}-page read");
            // The SSD walks the tagged list from that slot over the
            // host buffer.
            let fwd_prp = bm_nvme::prp::PrpPair {
                prp1: fwd.prp1,
                prp2: fwd.prp2,
                len,
            };
            let segs = fwd_prp.segments(&mut engine.dma_router(&mut host)).unwrap();
            assert_eq!(segs.len() as u32, pages);
            for (i, (addr, _)) in segs.iter().enumerate() {
                let (untagged, func, _) = GlobalPrp::untag(*addr);
                assert_eq!((untagged, func), (buf + i as u64 * PAGE_SIZE, fid(0)));
            }
        }
    }

    #[test]
    fn unbound_function_gets_invalid_namespace() {
        let (mut engine, mut host) = engine();
        engine.set_function_enabled(fid(5), true);
        let sq_base = host.alloc(64 * 64).unwrap();
        let cq_base = host.alloc(64 * 16).unwrap();
        engine
            .function_mut(fid(5))
            .create_io_cq(QueueId(1), cq_base, 64);
        engine
            .function_mut(fid(5))
            .create_io_sq(QueueId(1), sq_base, 64);
        let sqe = Sqe::io(
            IoOpcode::Write,
            Cid(1),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            PciAddr::new(0x5000),
            PciAddr::NULL,
        );
        let mut host_sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 64);
        host_sq.push(&mut host, &sqe).unwrap();
        let actions = engine.host_doorbell_write(
            SimTime::ZERO,
            fid(5),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            1,
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

    #[test]
    fn paused_ssd_buffers_commands() {
        let (mut engine, mut host) = engine();
        engine
            .bind_namespace(fid(0), 64 << 30, Placement::Single(SsdId(0)))
            .unwrap();
        engine.set_function_enabled(fid(0), true);
        let sq_base = host.alloc(64 * 64).unwrap();
        let cq_base = host.alloc(64 * 16).unwrap();
        engine
            .function_mut(fid(0))
            .create_io_cq(QueueId(1), cq_base, 64);
        engine
            .function_mut(fid(0))
            .create_io_sq(QueueId(1), sq_base, 64);
        engine.pause_ssd(SsdId(0));
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(1),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            PciAddr::new(0x8000),
            PciAddr::NULL,
        );
        let mut host_sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 64);
        host_sq.push(&mut host, &sqe).unwrap();
        let actions = engine.host_doorbell_write(
            SimTime::ZERO,
            fid(0),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            1,
            &mut host,
        );
        assert!(actions.is_empty(), "command buffered, not forwarded");
        let ctx = engine.save_io_context(SsdId(0));
        assert_eq!(ctx.buffered, 1);
        // Resume flushes the buffer.
        let actions = engine.resume_ssd(SimTime::from_nanos(1000), SsdId(0), &mut host);
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            EngineAction::BackendDoorbell { ssd: SsdId(0), .. }
        ));
    }

    #[test]
    fn qos_defers_and_releases() {
        let (mut engine, mut host) = engine();
        engine
            .bind_namespace(fid(0), 64 << 30, Placement::Single(SsdId(0)))
            .unwrap();
        engine.set_function_enabled(fid(0), true);
        engine.set_qos_limit(fid(0), QosLimit::iops(100.0));
        let sq_base = host.alloc(1024 * 64).unwrap();
        let cq_base = host.alloc(1024 * 16).unwrap();
        engine
            .function_mut(fid(0))
            .create_io_cq(QueueId(1), cq_base, 256);
        engine
            .function_mut(fid(0))
            .create_io_sq(QueueId(1), sq_base, 256);
        let mut host_sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 256);
        // Push 15 commands: the 100 ms burst (10 tokens) passes, 5 defer.
        for i in 0..15u16 {
            let sqe = Sqe::io(
                IoOpcode::Read,
                Cid(i),
                Nsid::new(1).unwrap(),
                Lba(0),
                1,
                PciAddr::new(0x8000),
                PciAddr::NULL,
            );
            host_sq.push(&mut host, &sqe).unwrap();
        }
        let actions = engine.host_doorbell_write(
            SimTime::ZERO,
            fid(0),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            15,
            &mut host,
        );
        // The ten admitted commands forward at the same instant, so
        // their doorbells coalesce into one ring carrying the final
        // tail; the five deferred releases have distinct wakeup times.
        let doorbell_tails: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::BackendDoorbell { tail, .. } => Some(*tail),
                _ => None,
            })
            .collect();
        let wakeups = actions
            .iter()
            .filter(|a| matches!(a, EngineAction::QosWakeup { .. }))
            .count();
        assert_eq!(doorbell_tails, [10], "one coalesced ring, final tail");
        assert_eq!(wakeups, 5);
        assert_eq!(engine.counters().function(fid(0)).qos_deferred, 5);
        // Wake up after the last release: all five forward (again one
        // coalesced doorbell, five commands deep).
        let late = SimTime::ZERO + SimDuration::from_secs(1);
        let actions = engine.qos_wakeup(late, &mut host);
        let released_tails: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::BackendDoorbell { tail, .. } => Some(*tail),
                _ => None,
            })
            .collect();
        assert_eq!(released_tails, [15]);
    }

    #[test]
    fn io_across_a_chunk_boundary_splits_into_two_spans() {
        let (mut engine, _) = engine();
        engine
            .bind_namespace(fid(0), 256 << 30, Placement::RoundRobin)
            .unwrap();
        let row_base = engine.function(fid(0)).binding().unwrap().row_base;
        let cs = engine.mapping().chunk_blocks();
        // Start 8 blocks before a boundary and run 8 blocks past it:
        // impossible for one back-end command, so the engine must split.
        let io = HostIo {
            func: fid(0),
            qid: QueueId(1),
            cid: Cid(5),
            op: IoOpcode::Read,
            slba: Lba(cs - 8),
            blocks: 16,
            prp1: PciAddr::new(0x10_0000),
            prp2: PciAddr::new(0x10_1000),
            row_base,
            fetched_at: SimTime::ZERO,
            cmd: CmdId::NONE,
        };
        let mut spans = Vec::new();
        engine.split_spans_into(&io, &mut spans).unwrap();
        let layout: Vec<_> = spans.iter().map(|s| (s.first, s.blocks)).collect();
        assert_eq!(layout, [(0, 8), (8, 8)], "split at the boundary");
        for span in &spans {
            let hl = Lba(cs - 8 + u64::from(span.first));
            assert_eq!(engine.mapping().map(row_base, hl), Ok((span.ssd, span.lba)));
        }
        // Round-robin placement puts adjacent chunks on different SSDs.
        assert_ne!(spans[0].ssd, spans[1].ssd);
    }

    #[test]
    fn retarget_for_hot_plug() {
        let (mut engine, _) = engine();
        engine
            .bind_namespace(fid(0), 256 << 30, Placement::Single(SsdId(1)))
            .unwrap();
        let row_base = engine.function(fid(0)).binding().unwrap().row_base;
        assert_eq!(engine.retarget_ssd(SsdId(1), SsdId(3)), Some(4));
        let (ssd, _) = engine.mapping().map(row_base, Lba(0)).unwrap();
        assert_eq!(ssd, SsdId(3));
    }

    /// Every chunk `funcs`' bindings hold, per the mapping table.
    fn chunks_of(engine: &BmsEngine, funcs: &[u8]) -> Vec<MapEntry> {
        funcs
            .iter()
            .filter_map(|&f| engine.function(fid(f)).binding())
            .flat_map(|b| engine.mapping().chunks(b.row_base, b.rows))
            .collect()
    }

    #[test]
    fn cross_bay_hot_plug_moves_chunk_ownership() {
        let (mut engine, _) = engine();
        let start = engine.chunk_alloc.free_total();
        engine
            .bind_namespace(fid(0), 128 << 30, Placement::Single(SsdId(1)))
            .unwrap();
        assert_eq!(engine.retarget_ssd(SsdId(1), SsdId(3)), Some(2));
        // Bay 3 now owns the moved chunks: a namespace placed there
        // gets others.
        engine
            .bind_namespace(fid(1), 128 << 30, Placement::Single(SsdId(3)))
            .unwrap();
        let held = chunks_of(&engine, &[0, 1]);
        let distinct: BTreeSet<u8> = held.iter().map(|e| e.raw()).collect();
        assert_eq!((held.len(), distinct.len()), (4, 4), "{held:?}");
        // Unbinding the moved namespace returns its chunks to bay 3.
        assert!(engine.unbind_namespace(fid(0)));
        assert!(engine.unbind_namespace(fid(1)));
        assert_eq!(engine.chunk_alloc.free_total(), start);
        // Every chunk is handed out once when the whole card is bound.
        engine
            .bind_namespace(
                fid(2),
                start as u64 * mapping::CHUNK_BYTES,
                Placement::RoundRobin,
            )
            .unwrap();
        let all = chunks_of(&engine, &[2]);
        let distinct: BTreeSet<u8> = all.iter().map(|e| e.raw()).collect();
        assert_eq!((all.len(), distinct.len()), (start, start));
    }

    #[test]
    fn hot_plug_onto_an_occupied_bay_is_refused() {
        let (mut engine, _) = engine();
        for (f, ssd) in [(0, 1), (1, 3)] {
            engine
                .bind_namespace(fid(f), 128 << 30, Placement::Single(SsdId(ssd)))
                .unwrap();
        }
        let table = chunks_of(&engine, &[0, 1]);
        let alloc = engine.chunk_alloc.clone();
        assert_eq!(engine.retarget_ssd(SsdId(1), SsdId(3)), None);
        assert_eq!(chunks_of(&engine, &[0, 1]), table);
        assert_eq!(engine.chunk_alloc, alloc);
        // A bay the card lacks is no spare either.
        assert_eq!(engine.retarget_ssd(SsdId(1), SsdId(4)), None);
        assert_eq!(chunks_of(&engine, &[0, 1]), table);
    }

    /// Every back-end SSD's ring epoch, in SSD order.
    fn ring_epochs(engine: &BmsEngine) -> Vec<u64> {
        (0..engine.adaptor().len())
            .map(|i| engine.ring_epoch(SsdId(i as u8)))
            .collect()
    }

    /// An engine with the timeout machinery armed and function 0 bound
    /// to SSD 0, with the host submission queue and the SSD-side
    /// completion queue a test drives it through.
    struct TimeoutRig {
        engine: BmsEngine,
        host: HostMemory,
        sq: bm_nvme::SubmissionQueue,
        ssd_cq: bm_nvme::CompletionQueue,
        buf: PciAddr,
        /// Back-end completions posted so far (the CQEs' SQ head).
        posted: u16,
    }

    impl TimeoutRig {
        fn new(timeout: SimDuration, max_retries: u32, policy: FailPolicy) -> TimeoutRig {
            let mut cfg = EngineConfig::paper_default(4).with_command_timeout(timeout, policy);
            cfg.max_retries = max_retries;
            let mut engine = BmsEngine::new(cfg);
            let mut host = HostMemory::new(1 << 30);
            engine
                .bind_namespace(fid(0), 64 << 30, Placement::Single(SsdId(0)))
                .unwrap();
            engine.set_function_enabled(fid(0), true);
            let sq_base = host.alloc(64 * 64).unwrap();
            let cq_base = host.alloc(64 * 16).unwrap();
            engine
                .function_mut(fid(0))
                .create_io_cq(QueueId(1), cq_base, 64);
            engine
                .function_mut(fid(0))
                .create_io_sq(QueueId(1), sq_base, 64);
            let buf = host.alloc(4096).unwrap();
            let sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 64);
            let (_, ssd_cq) = engine.ssd_rings(SsdId(0));
            TimeoutRig {
                engine,
                host,
                sq,
                ssd_cq,
                buf,
                posted: 0,
            }
        }

        /// The rig with one read (host CID 9) forwarded at time zero,
        /// and the deadline the timer was armed for.
        fn with_one_read(
            timeout: SimDuration,
            max_retries: u32,
            policy: FailPolicy,
        ) -> (TimeoutRig, SimTime) {
            let mut rig = TimeoutRig::new(timeout, max_retries, policy);
            let actions = rig.submit(SimTime::ZERO, &[9]);
            assert!(
                actions
                    .iter()
                    .any(|a| matches!(a, EngineAction::BackendDoorbell { .. })),
                "command still forwarded"
            );
            let [deadline] = timers(&actions)[..] else {
                panic!("one timer armed: {actions:?}");
            };
            (rig, deadline)
        }

        /// Submits one 4 KiB read per host CID in `cids` and rings the
        /// doorbell once at `now`.
        fn submit(&mut self, now: SimTime, cids: &[u16]) -> Vec<EngineAction> {
            for &cid in cids {
                let sqe = Sqe::io(
                    IoOpcode::Read,
                    Cid(cid),
                    Nsid::ONE,
                    Lba(0),
                    1,
                    self.buf,
                    PciAddr::NULL,
                );
                self.sq.push(&mut self.host, &sqe).unwrap();
            }
            self.engine.host_doorbell_write(
                now,
                fid(0),
                DoorbellLayout::sq_tail_offset(QueueId(1)),
                u32::from(self.sq.tail()),
                &mut self.host,
            )
        }

        /// SSD 0 completes the forwarded command holding back-end CID
        /// `cid` at `now`.
        fn complete(&mut self, now: SimTime, cid: u16) -> Vec<EngineAction> {
            self.posted += 1;
            let cqe = Cqe::success(Cid(cid), QueueId(1), self.posted, false);
            let mut router_host = HostMemory::new(1 << 20);
            let mut router = self.engine.dma_router(&mut router_host);
            self.ssd_cq.post(&mut router, cqe).unwrap();
            self.engine
                .on_backend_completion(now, SsdId(0), &mut self.host)
                .0
        }

        /// Fires the deadline timer's event at `now`.
        fn fire(&mut self, now: SimTime) -> Vec<EngineAction> {
            self.engine.check_deadline(now, &mut self.host)
        }
    }

    /// The instants of the deadline timers `actions` arm.
    fn timers(actions: &[EngineAction]) -> Vec<SimTime> {
        actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::CommandDeadline { at } => Some(*at),
                _ => None,
            })
            .collect()
    }

    /// When a read submitted at `now` is forwarded: after the SQE fetch.
    fn forwarded_at(now: SimTime) -> SimTime {
        now + EngineTiming::PAPER.command_fetch
    }

    #[test]
    fn many_forwarded_commands_arm_one_timer() {
        let timeout = SimDuration::from_ms(10);
        let mut rig = TimeoutRig::new(timeout, 1, FailPolicy::AbortToHost);
        let actions = rig.submit(SimTime::ZERO, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(timers(&actions), [forwarded_at(SimTime::ZERO) + timeout]);
        // With no deadline action between them, the eight same-instant
        // doorbells coalesce into one ring carrying the final tail.
        let tails: Vec<u32> = actions
            .iter()
            .filter_map(|a| match a {
                EngineAction::BackendDoorbell { tail, .. } => Some(*tail),
                _ => None,
            })
            .collect();
        assert_eq!(tails, [8]);
        // Later commands find the timer armed and arm nothing.
        let later = rig.submit(SimTime::from_nanos(1_000), &[10, 11, 12]);
        assert!(timers(&later).is_empty(), "got {later:?}");
    }

    #[test]
    fn stuck_command_expires_at_its_own_deadline() {
        let timeout = SimDuration::from_ms(10);
        let mut rig = TimeoutRig::new(timeout, 1, FailPolicy::AbortToHost);
        let ms = |n| SimTime::ZERO + SimDuration::from_ms(n);
        let first = timers(&rig.submit(ms(0), &[1]));
        assert!(timers(&rig.submit(ms(1), &[2])).is_empty());
        assert!(timers(&rig.submit(ms(2), &[3])).is_empty());
        let stuck = forwarded_at(ms(1)) + timeout;
        let next = forwarded_at(ms(2)) + timeout;
        // The first command (back-end CID 0) completes; the second is
        // stuck behind it in the window.
        rig.complete(ms(3), 0);
        // The timer armed for the completed command finds nothing due
        // and re-arms at the stuck command's own deadline.
        assert_eq!(first, [forwarded_at(ms(0)) + timeout]);
        let actions = rig.fire(first[0]);
        assert_eq!(actions, [EngineAction::CommandDeadline { at: stuck }]);
        assert_eq!(rig.engine.resilience_stats().timeouts, 0);
        // At that deadline the stuck command alone expires and is
        // retried; the timer then targets the next live attempt, not
        // the retry, whose deadline is later.
        let actions = rig.fire(stuck);
        assert_eq!(rig.engine.resilience_stats().timeouts, 1);
        assert_eq!(timers(&actions), [next]);
        assert!(actions
            .iter()
            .any(|a| matches!(a, EngineAction::BackendDoorbell { .. })));
        assert!(matches!(
            rig.engine.take_recovery_events()[..],
            [RecoveryEvent::TimeoutRetry { attempt: 1, .. }]
        ));
        // The third command expires at its deadline, and the retry is
        // the last live attempt.
        let actions = rig.fire(next);
        assert_eq!(rig.engine.resilience_stats().timeouts, 2);
        assert_eq!(timers(&actions), [stuck + timeout]);
    }

    #[test]
    fn crash_voids_the_timer_and_recovery_rearms_it() {
        let timeout = SimDuration::from_ms(10);
        let (mut rig, deadline) = TimeoutRig::with_one_read(timeout, 1, FailPolicy::QuiesceReplay);
        let crash_at = SimTime::from_nanos(2_000);
        let restart_at = crash_at + SimDuration::from_us(100);
        rig.engine.crash(crash_at, restart_at);
        let actions = rig.engine.recover(restart_at, &mut rig.host);
        // The replayed attempt arms a fresh timer at its own deadline.
        assert_eq!(timers(&actions), [restart_at + timeout]);
        // The timer minted before the crash is void.
        assert!(rig.fire(deadline).is_empty());
        assert_eq!(rig.engine.resilience_stats().timeouts, 0);
        // The fresh one expires the replayed attempt.
        let actions = rig.fire(restart_at + timeout);
        assert_eq!(rig.engine.resilience_stats().timeouts, 1);
        assert_eq!(timers(&actions), [restart_at + timeout * 2]);
    }

    #[test]
    fn stale_or_superseded_timer_events_are_no_ops() {
        let timeout = SimDuration::from_us(10);
        let (mut rig, deadline) = TimeoutRig::with_one_read(timeout, 1, FailPolicy::AbortToHost);
        let ns = deadline.as_nanos();
        // Only the armed instant fires the timer, even with the command
        // about to be due (before it) or overdue (after it).
        assert!(rig.fire(SimTime::from_nanos(ns - 1)).is_empty());
        assert!(rig.fire(SimTime::from_nanos(ns + 1)).is_empty());
        assert_eq!(rig.engine.resilience_stats().timeouts, 0);
        // The armed event retries the command and re-arms for the retry.
        let actions = rig.fire(deadline);
        assert_eq!(timers(&actions), [deadline + timeout]);
        assert_eq!(rig.engine.resilience_stats().timeouts, 1);
        // A second event at the superseded instant does nothing.
        assert!(rig.fire(deadline).is_empty());
        assert_eq!(rig.engine.resilience_stats().timeouts, 1);
        assert!(matches!(
            rig.engine.take_recovery_events()[..],
            [RecoveryEvent::TimeoutRetry { attempt: 1, .. }]
        ));
    }

    #[test]
    fn timeout_retries_then_aborts_to_host() {
        let timeout = SimDuration::from_us(10);
        let (mut rig, deadline) = TimeoutRig::with_one_read(timeout, 1, FailPolicy::AbortToHost);
        // The SSD never completes the command (injected drop): the
        // deadline fires and the engine re-forwards once, re-arming the
        // timer for the fresh attempt.
        let actions = rig.fire(deadline);
        let [deadline2] = timers(&actions)[..] else {
            panic!("retry re-armed the timer: {actions:?}");
        };
        assert_eq!(deadline2, deadline + timeout);
        assert!(actions
            .iter()
            .any(|a| matches!(a, EngineAction::BackendDoorbell { .. })));
        assert_eq!(rig.engine.resilience_stats().retries, 1);
        assert!(matches!(
            rig.engine.take_recovery_events()[..],
            [RecoveryEvent::TimeoutRetry { attempt: 1, .. }]
        ));

        // The retry times out too: retries exhausted, abort to host.
        let actions = rig.fire(deadline2);
        assert!(
            matches!(
                actions[..],
                [EngineAction::HostCompletion {
                    status: Status::Aborted,
                    cid: Cid(9),
                    ..
                }]
            ),
            "got {actions:?}"
        );
        let stats = rig.engine.resilience_stats();
        assert_eq!(stats.timeouts, 2);
        assert_eq!(stats.aborts, 1);
        assert!(matches!(
            rig.engine.take_recovery_events()[..],
            [RecoveryEvent::TimeoutAbort { .. }]
        ));
    }

    #[test]
    fn timeout_quiesce_buffers_for_replay() {
        let (mut rig, deadline) =
            TimeoutRig::with_one_read(SimDuration::from_us(10), 0, FailPolicy::QuiesceReplay);
        let actions = rig.fire(deadline);
        assert!(actions.is_empty(), "no host-visible action on quiesce");
        assert!(rig.engine.is_paused(SsdId(0)));
        assert_eq!(rig.engine.save_io_context(SsdId(0)).buffered, 1);
        assert_eq!(rig.engine.resilience_stats().quiesces, 1);
        // Management resumes the device (e.g. after a hot-plug swap):
        // the command replays.
        let actions =
            rig.engine
                .resume_ssd(deadline + SimDuration::from_ms(1), SsdId(0), &mut rig.host);
        assert!(actions
            .iter()
            .any(|a| matches!(a, EngineAction::BackendDoorbell { .. })));
        assert!(actions
            .iter()
            .any(|a| matches!(a, EngineAction::CommandDeadline { .. })));
    }

    #[test]
    fn deadline_after_completion_is_a_no_op() {
        let (mut rig, deadline) =
            TimeoutRig::with_one_read(SimDuration::from_us(10), 1, FailPolicy::AbortToHost);
        // The SSD completes in time.
        let actions = rig.complete(SimTime::from_nanos(5_000), 0);
        assert!(actions.iter().any(|a| matches!(
            a,
            EngineAction::HostCompletion {
                status: Status::Success,
                ..
            }
        )));
        // The timer fires afterwards and must do nothing, not even
        // re-arm: no attempt is live.
        assert!(rig.fire(deadline).is_empty());
        assert_eq!(rig.engine.resilience_stats().timeouts, 0);
        assert!(rig.engine.take_recovery_events().is_empty());
    }

    #[test]
    fn crash_journals_and_quiesce_replay_replays() {
        let (mut rig, _deadline) =
            TimeoutRig::with_one_read(SimDuration::from_ms(10), 1, FailPolicy::QuiesceReplay);
        let crash_at = SimTime::from_nanos(2_000);
        let restart_at = crash_at + SimDuration::from_us(100);
        let rings_before = ring_epochs(&rig.engine);
        rig.engine.crash(crash_at, restart_at);
        assert!(rig.engine.is_crashed());
        let bumped: Vec<u64> = rings_before.iter().map(|e| e + 1).collect();
        assert_eq!(
            ring_epochs(&rig.engine),
            bumped,
            "a crash resets every ring"
        );
        assert_eq!(rig.engine.restart_at(), restart_at);
        assert!(matches!(
            rig.engine.take_recovery_events()[..],
            [RecoveryEvent::EngineCrashed { journaled: 1 }]
        ));
        // Data plane down: SQ doorbells are dropped, stale deadlines
        // and QoS wakeups are void.
        let actions = rig.engine.host_doorbell_write(
            crash_at,
            fid(0),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            1,
            &mut rig.host,
        );
        assert!(actions.is_empty(), "SQ doorbell while crashed");
        assert!(rig.fire(restart_at).is_empty());
        assert!(rig.engine.qos_wakeup(restart_at, &mut rig.host).is_empty());

        // Restart: the journaled in-flight command replays.
        let actions = rig.engine.recover(restart_at, &mut rig.host);
        assert!(!rig.engine.is_crashed());
        assert!(actions
            .iter()
            .any(|a| matches!(a, EngineAction::BackendDoorbell { ssd: SsdId(0), .. })));
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, EngineAction::CommandDeadline { .. })),
            "replayed attempt re-arms the timer"
        );
        let stats = rig.engine.resilience_stats();
        assert_eq!(stats.recoveries, 1);
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.aborted_on_recovery, 0);
        assert_eq!(stats.recovery_time, SimDuration::from_us(100));
        assert!(matches!(
            rig.engine.take_recovery_events()[..],
            [RecoveryEvent::EngineRecovered {
                replayed: 1,
                aborted: 0,
            }]
        ));

        // The replayed attempt completes end-to-end, exactly once, on
        // the reset rings.
        rig.ssd_cq = rig.engine.ssd_rings(SsdId(0)).1;
        rig.posted = 0;
        let actions = rig.complete(restart_at + SimDuration::from_us(50), 0);
        assert!(
            matches!(
                actions[..],
                [EngineAction::HostCompletion {
                    status: Status::Success,
                    cid: Cid(9),
                    ..
                }]
            ),
            "got {actions:?}"
        );
    }

    #[test]
    fn crash_with_abort_policy_aborts_each_command_once() {
        let (mut rig, _deadline) =
            TimeoutRig::with_one_read(SimDuration::from_ms(10), 1, FailPolicy::AbortToHost);
        let crash_at = SimTime::from_nanos(2_000);
        rig.engine
            .crash(crash_at, crash_at + SimDuration::from_us(100));
        let actions = rig
            .engine
            .recover(crash_at + SimDuration::from_us(100), &mut rig.host);
        assert!(
            matches!(
                actions[..],
                [EngineAction::HostCompletion {
                    status: Status::Aborted,
                    cid: Cid(9),
                    ..
                }]
            ),
            "got {actions:?}"
        );
        let stats = rig.engine.resilience_stats();
        assert_eq!(stats.replayed, 0);
        assert_eq!(stats.aborted_on_recovery, 1);
    }

    #[test]
    fn crash_without_timeout_machinery_orphans_abort() {
        // No command timeout → no retry entry keeps the span, so the
        // in-flight attempt is an orphan recovery can only abort, even
        // under the replay policy.
        let mut cfg = EngineConfig::paper_default(4);
        cfg.fail_policy = FailPolicy::QuiesceReplay;
        let mut engine = BmsEngine::new(cfg);
        let mut host = HostMemory::new(1 << 30);
        engine
            .bind_namespace(fid(0), 64 << 30, Placement::Single(SsdId(0)))
            .unwrap();
        engine.set_function_enabled(fid(0), true);
        let sq_base = host.alloc(64 * 64).unwrap();
        let cq_base = host.alloc(64 * 16).unwrap();
        engine
            .function_mut(fid(0))
            .create_io_cq(QueueId(1), cq_base, 64);
        engine
            .function_mut(fid(0))
            .create_io_sq(QueueId(1), sq_base, 64);
        let buf = host.alloc(4096).unwrap();
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(9),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            buf,
            PciAddr::NULL,
        );
        let mut host_sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 64);
        host_sq.push(&mut host, &sqe).unwrap();
        let actions = engine.host_doorbell_write(
            SimTime::ZERO,
            fid(0),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            1,
            &mut host,
        );
        assert!(actions
            .iter()
            .any(|a| matches!(a, EngineAction::BackendDoorbell { .. })));
        let crash_at = SimTime::from_nanos(2_000);
        engine.crash(crash_at, crash_at + SimDuration::from_us(100));
        let actions = engine.recover(crash_at + SimDuration::from_us(100), &mut host);
        assert!(
            matches!(
                actions[..],
                [EngineAction::HostCompletion {
                    status: Status::Aborted,
                    cid: Cid(9),
                    ..
                }]
            ),
            "got {actions:?}"
        );
        let stats = engine.resilience_stats();
        assert_eq!(stats.replayed, 0);
        assert_eq!(stats.aborted_on_recovery, 1);
    }

    #[test]
    fn double_crash_extends_the_outage() {
        let (rig, _deadline) =
            TimeoutRig::with_one_read(SimDuration::from_ms(10), 1, FailPolicy::QuiesceReplay);
        let (mut engine, mut host) = (rig.engine, rig.host);
        let t1 = SimTime::from_nanos(2_000);
        engine.crash(t1, t1 + SimDuration::from_us(50));
        let rings = ring_epochs(&engine);
        engine.crash(
            t1 + SimDuration::from_us(10),
            t1 + SimDuration::from_us(200),
        );
        assert_eq!(ring_epochs(&engine), rings, "still the same outage");
        assert_eq!(engine.restart_at(), t1 + SimDuration::from_us(200));
        let actions = engine.recover(engine.restart_at(), &mut host);
        assert!(!engine.is_crashed());
        assert_eq!(engine.resilience_stats().recoveries, 1);
        assert!(!actions.is_empty());
    }

    #[test]
    fn dropped_journal_tail_loses_a_command() {
        // The chaos sabotage knob: with the tail record dropped the
        // journaled command vanishes — recovery replays nothing and the
        // host never hears back. The chaos oracles must catch this.
        let mut cfg = EngineConfig::paper_default(4)
            .with_command_timeout(SimDuration::from_ms(10), FailPolicy::QuiesceReplay);
        cfg.debug_drop_journal_tail = true;
        let mut engine = BmsEngine::new(cfg);
        let mut host = HostMemory::new(1 << 30);
        engine
            .bind_namespace(fid(0), 64 << 30, Placement::Single(SsdId(0)))
            .unwrap();
        engine.set_function_enabled(fid(0), true);
        let sq_base = host.alloc(64 * 64).unwrap();
        let cq_base = host.alloc(64 * 16).unwrap();
        engine
            .function_mut(fid(0))
            .create_io_cq(QueueId(1), cq_base, 64);
        engine
            .function_mut(fid(0))
            .create_io_sq(QueueId(1), sq_base, 64);
        let buf = host.alloc(4096).unwrap();
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(9),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            buf,
            PciAddr::NULL,
        );
        let mut host_sq = bm_nvme::SubmissionQueue::new(QueueId(1), sq_base, 64);
        host_sq.push(&mut host, &sqe).unwrap();
        engine.host_doorbell_write(
            SimTime::ZERO,
            fid(0),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            1,
            &mut host,
        );
        let crash_at = SimTime::from_nanos(2_000);
        engine.crash(crash_at, crash_at + SimDuration::from_us(100));
        let actions = engine.recover(crash_at + SimDuration::from_us(100), &mut host);
        assert!(actions.is_empty(), "the command was silently lost");
        assert_eq!(engine.resilience_stats().replayed, 0);
    }
}
