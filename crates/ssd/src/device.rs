//! The SSD controller.
//!
//! An [`Ssd`] serves whatever queues its attachment point created for it
//! — rings in host DRAM when native-attached, rings in the BMS-Engine's
//! host adaptor when behind BM-Store. It consumes doorbells, fetches and
//! parses SQEs through a [`DmaContext`], walks PRPs, moves block data,
//! and reports *timed* completions that the caller turns into CQE posts
//! and interrupts at the right simulated instant.

use crate::calibration::PerfProfile;
use crate::firmware::{CommitAction, FirmwareBank};
use crate::perf::PerfModel;
use crate::store::BlockStore;
use bm_nvme::command::{AdminOpcode, IoOpcode, Opcode, Sqe};
use bm_nvme::identify::{IdentifyController, IdentifyNamespace};
use bm_nvme::prp::PrpPair;
use bm_nvme::queue::{CompletionQueue, QueueFull, SubmissionQueue};
use bm_nvme::types::{Cid, Lba, Nsid, QueueId};
use bm_nvme::{Cqe, Namespace, Status};
use bm_pcie::{DmaContext, PciAddr};
use bm_sim::{SimDuration, SimRng, SimTime};
use bytes::Bytes;
use std::collections::VecDeque;
use std::fmt;

/// Identifies one physical SSD behind the card.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SsdId(pub u8);

impl fmt::Display for SsdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ssd{}", self.0)
    }
}

/// Whether block payloads actually move through simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataMode {
    /// Move and retain real bytes — integrity tests.
    Full,
    /// Account sizes only — long performance runs.
    #[default]
    TimingOnly,
}

/// Construction parameters for an [`Ssd`].
#[derive(Debug, Clone)]
pub struct SsdConfig {
    /// Device identity.
    pub id: SsdId,
    /// Usable capacity in bytes.
    pub capacity_bytes: u64,
    /// Logical block size in bytes.
    pub block_size: u64,
    /// Performance profile.
    pub profile: PerfProfile,
    /// Payload handling mode.
    pub data_mode: DataMode,
    /// Seed for the device's RNG stream.
    pub seed: u64,
    /// Initial firmware version string.
    pub firmware: String,
}

impl SsdConfig {
    /// The paper's device: a 2.0 TB Intel P4510 (Table III).
    pub fn p4510_2tb(id: SsdId) -> Self {
        SsdConfig {
            id,
            capacity_bytes: 2_000_000_000_000,
            block_size: 4096,
            profile: PerfProfile::p4510_2tb(),
            data_mode: DataMode::TimingOnly,
            seed: 0x5D_u64 << 8 | id.0 as u64,
            firmware: "VDV10131".to_string(),
        }
    }

    /// Switches to full data capture (integrity tests).
    pub fn with_data_mode(mut self, mode: DataMode) -> Self {
        self.data_mode = mode;
        self
    }

    /// Overrides the performance profile.
    pub fn with_profile(mut self, profile: PerfProfile) -> Self {
        self.profile = profile;
        self
    }
}

/// One timed completion produced by the controller.
#[derive(Debug)]
pub struct CompletedIo {
    /// When the command finishes inside the device.
    pub at: SimTime,
    /// When the device started servicing it (the doorbell-driven fetch
    /// that pulled the SQE). `at - submitted_at` is the device-internal
    /// service interval telemetry reports as the back-end span.
    pub submitted_at: SimTime,
    /// The queue the command arrived on.
    pub qid: QueueId,
    /// The command id to complete.
    pub cid: Cid,
    /// Completion status.
    pub status: Status,
    /// Bytes transferred (0 for flush/admin).
    pub bytes: u64,
    /// Whether the command was a host→device write.
    pub is_write: bool,
    /// For reads in [`DataMode::Full`]: `(address, data)` pairs the
    /// device DMAs toward the host at completion time. The payloads are
    /// refcounted views into the block store's data — carrying a
    /// completion around does not copy it.
    pub read_payload: Option<Vec<(PciAddr, Bytes)>>,
    /// Set when a firmware commit activated new firmware: how long the
    /// device stays frozen.
    pub fw_activation: Option<SimDuration>,
}

struct QueuePair {
    sq: SubmissionQueue,
    cq: CompletionQueue,
}

/// Injected misbehaviour, armed by the testbed's fault interpreter.
///
/// The default state is inert: no field is consulted beyond a cheap
/// comparison against `SimTime::ZERO` / `0`, and no RNG is drawn, so a
/// fault-free run is byte-identical to a build without fault support.
#[derive(Debug, Default)]
struct FaultState {
    /// Extra latency added to completions of commands arriving before
    /// `extra_until`.
    extra_latency: SimDuration,
    extra_until: SimTime,
    /// Surprise removal: every subsequent I/O errors immediately.
    dead: bool,
    /// Probabilistic error window: each I/O before `error_until` fails
    /// with `error_probability`, drawn from `error_rng` (forked from
    /// the fault plan's seed, never the device's own stream).
    error_probability: f64,
    error_until: SimTime,
    error_rng: Option<SimRng>,
    /// I/O commands still to be silently swallowed (consumed from the
    /// SQ but never completed — the stimulus for engine timeouts).
    drop_remaining: u32,
}

/// One recently persisted write, kept so a power-loss fault can tear
/// it. `old` holds the overwritten content of each block (captured
/// before the write landed); `complete_at` is the device-internal
/// completion time — a write whose completion has already fired by the
/// power-loss instant is durable and never torn.
#[derive(Debug, Clone)]
struct RecentWrite {
    slba: Lba,
    old: Vec<Bytes>,
    complete_at: SimTime,
}

/// Depth of the torn-write log: only this many most-recent writes are
/// candidates for tearing, bounding the capture cost per device.
const TORN_WRITE_LOG_DEPTH: usize = 32;

/// Cumulative device-service accounting: every completion's internal
/// service interval (`at - submitted_at`, injected spikes included)
/// summed over the run. `busy / elapsed` is the service-time occupancy
/// the metrics sampler turns into the SSD utilization series; it can
/// exceed 1.0 while multiple flash dies service commands in parallel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Commands serviced (error completions included).
    pub ops: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Summed service intervals.
    pub busy: SimDuration,
}

/// The SSD device model.
///
/// See the [crate documentation](crate) for the composition and
/// `tests/` for end-to-end usage through real rings.
pub struct Ssd {
    cfg: SsdConfig,
    ns: Namespace,
    perf: PerfModel,
    firmware: FirmwareBank,
    store: BlockStore,
    admin: Option<QueuePair>,
    io: Vec<QueuePair>,
    fetched: u64,
    errors: u64,
    /// End LBA of the most recent read (sequential-stream detection for
    /// mechanical profiles).
    last_read_end: u64,
    service: ServiceStats,
    faults: FaultState,
    /// Torn-write candidates, newest last. Only populated in
    /// [`DataMode::Full`]; empty (and free) in timing-only runs.
    recent_writes: VecDeque<RecentWrite>,
}

impl fmt::Debug for Ssd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ssd")
            .field("id", &self.cfg.id)
            .field("capacity", &self.cfg.capacity_bytes)
            .field("firmware", &self.firmware.running().0)
            .field("io_queues", &self.io.len())
            .finish()
    }
}

impl Ssd {
    /// Creates a device from its configuration.
    pub fn new(cfg: SsdConfig) -> Self {
        let ns = Namespace::from_bytes(Nsid::ONE, cfg.capacity_bytes, cfg.block_size);
        let mut rng = SimRng::seed_from(cfg.seed);
        let perf = PerfModel::new(cfg.profile.clone(), rng.fork(1));
        let store = BlockStore::new(
            cfg.id.0 as u64,
            cfg.block_size,
            matches!(cfg.data_mode, DataMode::Full),
        );
        let firmware = FirmwareBank::new(&cfg.firmware);
        Ssd {
            ns,
            perf,
            firmware,
            store,
            admin: None,
            io: Vec::new(),
            fetched: 0,
            errors: 0,
            last_read_end: u64::MAX,
            service: ServiceStats::default(),
            faults: FaultState::default(),
            recent_writes: VecDeque::new(),
            cfg,
        }
    }

    /// Device identity.
    pub fn id(&self) -> SsdId {
        self.cfg.id
    }

    /// Usable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.cfg.capacity_bytes
    }

    /// The device's single physical namespace.
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// The performance model (e.g. to query the freeze horizon).
    pub fn perf(&self) -> &PerfModel {
        &self.perf
    }

    /// The firmware bank.
    pub fn firmware(&self) -> &FirmwareBank {
        &self.firmware
    }

    /// The block store.
    pub fn store(&self) -> &BlockStore {
        &self.store
    }

    /// Commands fetched so far.
    pub fn fetched(&self) -> u64 {
        self.fetched
    }

    /// Commands completed with error status.
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Cumulative service-time accounting (see [`ServiceStats`]).
    pub fn service_stats(&self) -> ServiceStats {
        self.service
    }

    /// Arms a latency spike: completions of commands arriving before
    /// `until` take `extra` longer.
    pub fn inject_latency_spike(&mut self, extra: SimDuration, until: SimTime) {
        self.faults.extra_latency = extra;
        self.faults.extra_until = until;
    }

    /// Stalls the device: no command issued before `until` completes
    /// earlier than `until` (maps onto the performance model's freeze
    /// horizon, the same machinery firmware activation uses).
    pub fn inject_stall(&mut self, until: SimTime) {
        self.perf.freeze_until(until);
    }

    /// Kills the device permanently (surprise removal): every
    /// subsequent I/O completes quickly with [`Status::InternalError`].
    pub fn inject_death(&mut self) {
        self.faults.dead = true;
    }

    /// Arms a probabilistic error window: until `until`, each I/O
    /// independently fails with `probability`, sampled from `rng`
    /// (fork it from the fault plan seed so device timing streams stay
    /// untouched).
    pub fn inject_error_burst(&mut self, probability: f64, until: SimTime, rng: SimRng) {
        self.faults.error_probability = probability;
        self.faults.error_until = until;
        self.faults.error_rng = Some(rng);
    }

    /// Arms silent command loss: the next `count` I/O submissions are
    /// consumed from the queue but never complete.
    pub fn inject_command_drops(&mut self, count: u32) {
        self.faults.drop_remaining += count;
    }

    /// Power loss at `now`: up to `torn_writes` of the newest *un-acked*
    /// writes (device completion not yet fired at `now`) are torn —
    /// persisted content reverts to the pre-write bytes from a
    /// 512-byte-aligned cut point to the end of the write, modelling a
    /// capacitor-backed flush that stopped mid-stripe. Writes whose
    /// completion already fired are durable and never touched, so a
    /// read-back oracle over host-acked writes stays exact. Returns the
    /// number of writes actually torn (always 0 in timing-only mode).
    ///
    /// `rng` must be forked from the fault plan's seed: the tear
    /// geometry is fault-plan state, not device-timing state.
    pub fn power_loss(&mut self, now: SimTime, torn_writes: u32, mut rng: SimRng) -> u32 {
        let mut victims = Vec::new();
        while let Some(w) = self.recent_writes.pop_back() {
            if victims.len() as u32 >= torn_writes {
                break;
            }
            if w.complete_at > now {
                victims.push(w);
            }
        }
        // The rest of the log is moot: the outage reboots the device.
        self.recent_writes.clear();
        let bs = self.ns.block_size();
        let sectors_per_block = (bs / 512).max(1);
        let torn = victims.len() as u32;
        for w in victims {
            let nblocks = w.old.len() as u64;
            if nblocks == 0 {
                continue;
            }
            // New data persisted up to the cut; old bytes resurface
            // from the cut sector to the end of the write.
            let cut_block = rng.below(nblocks);
            let cut_off = (rng.below(sectors_per_block) * 512) as usize;
            for i in cut_block..nblocks {
                let lba = w.slba + i;
                let old = &w.old[i as usize];
                if i == cut_block && cut_off > 0 {
                    let mut merged = self.store.read_block(lba).to_vec();
                    if merged.len() == old.len() && cut_off < merged.len() {
                        merged[cut_off..].copy_from_slice(&old[cut_off..]);
                        self.store.write_block(lba, &merged);
                    }
                } else {
                    self.store.write_block(lba, old);
                }
            }
        }
        torn
    }

    /// Re-inserts a previously dead device (surprise-removal undo): the
    /// dead flag clears; queue attachment is the caller's job (the
    /// engine resets rings and re-attaches, as for a fresh hot-plug).
    pub fn revive(&mut self) {
        self.faults.dead = false;
    }

    /// Attaches the admin queue pair (replacing any previous one).
    pub fn attach_admin_queues(&mut self, sq: SubmissionQueue, cq: CompletionQueue) {
        self.admin = Some(QueuePair { sq, cq });
    }

    /// Attaches an I/O queue pair; returns its queue id (1-based).
    pub fn attach_io_queues(&mut self, sq: SubmissionQueue, cq: CompletionQueue) -> QueueId {
        self.io.push(QueuePair { sq, cq });
        QueueId(self.io.len() as u16)
    }

    /// Number of attached I/O queues.
    pub fn io_queue_count(&self) -> usize {
        self.io.len()
    }

    /// Resets the controller: queues detach, in-flight state drops, the
    /// content store and firmware bank survive (hot-plug replacement
    /// constructs a new `Ssd` instead).
    pub fn reset(&mut self) {
        self.admin = None;
        self.io.clear();
    }

    fn pair_mut(&mut self, qid: QueueId) -> Option<&mut QueuePair> {
        if qid.is_admin() {
            self.admin.as_mut()
        } else {
            self.io.get_mut(qid.0 as usize - 1)
        }
    }

    /// Handles an SQ tail doorbell: fetches every newly published SQE
    /// and returns their timed completions, in fetch order.
    ///
    /// A write for a queue with no attached pair, or of a tail outside
    /// the ring, is dropped as a controller drops an invalid doorbell
    /// write: nothing is fetched.
    pub fn ring_sq_doorbell(
        &mut self,
        now: SimTime,
        qid: QueueId,
        tail: u32,
        dma: &mut dyn DmaContext,
    ) -> Vec<CompletedIo> {
        let mut out = Vec::new();
        self.ring_sq_doorbell_into(now, qid, tail, dma, &mut out);
        out
    }

    /// [`Ssd::ring_sq_doorbell`] appending the completions to `out`, so
    /// a caller that reuses one buffer allocates nothing per doorbell.
    pub fn ring_sq_doorbell_into(
        &mut self,
        now: SimTime,
        qid: QueueId,
        tail: u32,
        mut dma: &mut dyn DmaContext,
        out: &mut Vec<CompletedIo>,
    ) {
        let valid = self
            .pair_mut(qid)
            .is_some_and(|pair| pair.sq.doorbell_tail(tail).is_ok());
        if !valid {
            return;
        }
        let first = out.len();
        // Each turn finds the pair the doorbell just checked again
        // (processing borrows the whole device); no command detaches it.
        while let Some(pair) = self.pair_mut(qid).filter(|pair| !pair.sq.is_empty()) {
            let fetch = pair.sq.fetch(&mut dma);
            self.fetched += 1;
            match fetch {
                Ok(Some(sqe)) => {
                    if self.faults.drop_remaining > 0 && matches!(sqe.opcode, Opcode::Io(_)) {
                        // Injected loss: the SQE is consumed but no
                        // completion will ever be posted.
                        self.faults.drop_remaining -= 1;
                        continue;
                    }
                    out.push(self.process(now, qid, sqe, dma));
                }
                Ok(None) => break,
                Err(bad) => {
                    // Unparseable entry: complete the command it names
                    // with the error immediately.
                    self.errors += 1;
                    out.push(CompletedIo {
                        at: now + SimDuration::from_us(1),
                        submitted_at: now,
                        qid,
                        cid: bad.cid,
                        status: bad.status,
                        bytes: 0,
                        is_write: false,
                        read_payload: None,
                        fw_activation: None,
                    });
                }
            }
        }
        for io in &out[first..] {
            self.service.ops += 1;
            self.service.bytes += io.bytes;
            self.service.busy += io.at.saturating_since(io.submitted_at);
        }
    }

    fn process(
        &mut self,
        now: SimTime,
        qid: QueueId,
        sqe: Sqe,
        dma: &mut dyn DmaContext,
    ) -> CompletedIo {
        let mut done = match sqe.opcode {
            Opcode::Io(op) => self.process_io(now, qid, op, sqe, dma),
            Opcode::Admin(op) => self.process_admin(now, qid, op, sqe, dma),
        };
        if now < self.faults.extra_until {
            done.at += self.faults.extra_latency;
        }
        done
    }

    fn fail(&mut self, now: SimTime, qid: QueueId, cid: Cid, status: Status) -> CompletedIo {
        self.errors += 1;
        CompletedIo {
            at: now + SimDuration::from_us(2),
            submitted_at: now,
            qid,
            cid,
            status,
            bytes: 0,
            is_write: false,
            read_payload: None,
            fw_activation: None,
        }
    }

    fn process_io(
        &mut self,
        now: SimTime,
        qid: QueueId,
        op: IoOpcode,
        sqe: Sqe,
        mut dma: &mut dyn DmaContext,
    ) -> CompletedIo {
        if self.faults.dead {
            return self.fail(now, qid, sqe.cid, Status::InternalError);
        }
        if now < self.faults.error_until {
            let fires = self
                .faults
                .error_rng
                .as_mut()
                .is_some_and(|rng| rng.chance(self.faults.error_probability));
            if fires {
                return self.fail(now, qid, sqe.cid, Status::InternalError);
            }
        }
        if sqe.nsid != Some(self.ns.nsid()) {
            return self.fail(now, qid, sqe.cid, Status::InvalidNamespace);
        }
        if op == IoOpcode::Flush {
            return CompletedIo {
                at: self.perf.flush_completion(now),
                submitted_at: now,
                qid,
                cid: sqe.cid,
                status: Status::Success,
                bytes: 0,
                is_write: false,
                read_payload: None,
                fw_activation: None,
            };
        }
        let nblocks = sqe.nlb_blocks();
        if let Err(status) = self.ns.check_range(sqe.slba, nblocks) {
            return self.fail(now, qid, sqe.cid, status);
        }
        let bytes = sqe.transfer_len(self.ns.block_size());
        let full_data = matches!(self.cfg.data_mode, DataMode::Full);
        let prp = PrpPair {
            prp1: sqe.prp1,
            prp2: sqe.prp2,
            len: bytes,
        };
        match op {
            IoOpcode::Write => {
                let mut old = Vec::new();
                if full_data {
                    let segments = match prp.segments(&mut dma) {
                        Ok(s) => s,
                        Err(_) => return self.fail(now, qid, sqe.cid, Status::InvalidField),
                    };
                    let mut data = Vec::with_capacity(bytes as usize);
                    for (addr, len) in segments {
                        let mut buf = vec![0u8; len as usize];
                        dma.dma_read(addr, &mut buf);
                        data.extend_from_slice(&buf);
                    }
                    let bs = self.ns.block_size() as usize;
                    old.reserve(nblocks as usize);
                    for (i, block) in data.chunks(bs).enumerate() {
                        // Cheap refcounted view of the overwritten
                        // content, kept so a power loss can tear the
                        // write back (see [`Ssd::power_loss`]).
                        old.push(self.store.read_block(sqe.slba + i as u64));
                        self.store.write_block(sqe.slba + i as u64, block);
                    }
                }
                let at = self.perf.write_completion(now, bytes);
                if full_data {
                    if self.recent_writes.len() >= TORN_WRITE_LOG_DEPTH {
                        self.recent_writes.pop_front();
                    }
                    self.recent_writes.push_back(RecentWrite {
                        slba: sqe.slba,
                        old,
                        complete_at: at,
                    });
                }
                CompletedIo {
                    at,
                    submitted_at: now,
                    qid,
                    cid: sqe.cid,
                    status: Status::Success,
                    bytes,
                    is_write: true,
                    read_payload: None,
                    fw_activation: None,
                }
            }
            IoOpcode::Read => {
                let sequential = sqe.slba.raw() == self.last_read_end;
                self.last_read_end = sqe.slba.raw() + nblocks as u64;
                let read_payload = if full_data {
                    let segments = match prp.segments(&mut dma) {
                        Ok(s) => s,
                        Err(_) => return self.fail(now, qid, sqe.cid, Status::InvalidField),
                    };
                    if nblocks == 1 && segments.len() == 1 && segments[0].1 == bytes {
                        // 4 KiB random read: hand the host a view of the
                        // stored block, no copies at all.
                        Some(vec![(segments[0].0, self.store.read_block(sqe.slba))])
                    } else {
                        let mut data = Vec::with_capacity(bytes as usize);
                        for i in 0..nblocks as u64 {
                            data.extend_from_slice(&self.store.read_block(sqe.slba + i));
                        }
                        let data = Bytes::from(data);
                        let mut payload = Vec::with_capacity(segments.len());
                        let mut cursor = 0usize;
                        for (addr, len) in segments {
                            payload.push((addr, data.slice(cursor..cursor + len as usize)));
                            cursor += len as usize;
                        }
                        Some(payload)
                    }
                } else {
                    None
                };
                CompletedIo {
                    at: self.perf.read_completion(now, bytes, sequential),
                    submitted_at: now,
                    qid,
                    cid: sqe.cid,
                    status: Status::Success,
                    bytes,
                    is_write: false,
                    read_payload,
                    fw_activation: None,
                }
            }
            IoOpcode::Flush => unreachable!("handled above"),
        }
    }

    fn process_admin(
        &mut self,
        now: SimTime,
        qid: QueueId,
        op: AdminOpcode,
        sqe: Sqe,
        dma: &mut dyn DmaContext,
    ) -> CompletedIo {
        let admin_latency = SimDuration::from_us(20);
        let mut fw_activation = None;
        let status = match op {
            AdminOpcode::Identify => {
                // CNS 01h = controller, 00h = namespace.
                let page = if sqe.cdw10 & 0xFF == 1 {
                    let mut idc = IdentifyController::bm_store_front_end(self.cfg.id.0);
                    idc.model = "INTEL SSDPE2KX020T8".to_string();
                    idc.firmware = self.firmware.running().0.clone();
                    idc.nn = 1;
                    idc.to_page()
                } else {
                    IdentifyNamespace::from_namespace(&self.ns).to_page()
                };
                if !sqe.prp1.is_null() {
                    dma.dma_write(sqe.prp1, &page);
                }
                Status::Success
            }
            AdminOpcode::FirmwareDownload => {
                // CDW10 = NUMD (dwords, 0-based), CDW11 = OFST (dwords).
                let numd = (sqe.cdw10 as u64 + 1) * 4;
                let ofst = sqe.cdw11 as u64 * 4;
                let mut buf = vec![0u8; numd as usize];
                if !sqe.prp1.is_null() {
                    dma.dma_read(sqe.prp1, &mut buf);
                }
                match self.firmware.download_chunk(ofst, &buf) {
                    Ok(()) => Status::Success,
                    Err(s) => s,
                }
            }
            AdminOpcode::FirmwareCommit => {
                let slot = (sqe.cdw10 & 0x7) as usize;
                let action = CommitAction::from_code((sqe.cdw10 >> 3) & 0x7);
                match action {
                    Some(action) => match self.firmware.commit(slot, action) {
                        Ok(true) => {
                            let dur = self.perf.sample_fw_activation();
                            self.perf.freeze_until(now + dur);
                            fw_activation = Some(dur);
                            Status::Success
                        }
                        Ok(false) => Status::Success,
                        Err(s) => s,
                    },
                    None => Status::InvalidField,
                }
            }
            AdminOpcode::GetLogPage | AdminOpcode::GetFeatures | AdminOpcode::SetFeatures => {
                Status::Success
            }
            AdminOpcode::CreateIoSq
            | AdminOpcode::CreateIoCq
            | AdminOpcode::DeleteIoSq
            | AdminOpcode::DeleteIoCq => {
                // Queue lifecycle is managed structurally by the
                // attachment point in this model; acknowledge.
                Status::Success
            }
        };
        if !status.is_success() {
            self.errors += 1;
        }
        CompletedIo {
            at: now + admin_latency,
            submitted_at: now,
            qid,
            cid: sqe.cid,
            status,
            bytes: 0,
            is_write: false,
            read_payload: None,
            fw_activation,
        }
    }

    /// Posts the CQE for a completion into the owning CQ ring (call at
    /// `io.at`). Returns the CQE as posted.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the host has not consumed the CQ.
    ///
    /// # Panics
    ///
    /// Panics if the queue pair was detached in the meantime.
    pub fn post_completion(
        &mut self,
        io: &CompletedIo,
        mut dma: &mut dyn DmaContext,
    ) -> Result<Cqe, QueueFull> {
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the queue pair was attached when the command was fetched"
        )]
        let pair = self
            .pair_mut(io.qid)
            .expect("completion for attached queue");
        let sq_head = pair.sq.head();
        let cqe = Cqe {
            result: 0,
            sq_head,
            sq_id: io.qid,
            cid: io.cid,
            phase: false, // assigned by the ring
            status: io.status,
        };
        pair.cq.post(&mut dma, cqe)?;
        Ok(cqe)
    }

    /// Delivers a read's payload toward the host (call at completion
    /// time, before posting the CQE).
    pub fn deliver_read_payload(io: &CompletedIo, dma: &mut dyn DmaContext) {
        if let Some(payload) = &io.read_payload {
            for (addr, data) in payload {
                dma.dma_write(*addr, data);
            }
        }
    }

    /// Management-plane firmware download (the BMS-Controller's private
    /// admin channel; the ring-based path is exercised by the admin
    /// queue tests).
    ///
    /// # Errors
    ///
    /// Propagates firmware-bank status errors.
    pub fn mgmt_firmware_download(&mut self, offset: u64, data: &[u8]) -> Result<(), Status> {
        self.firmware.download_chunk(offset, data)
    }

    /// Management-plane firmware commit. On activation, freezes the
    /// device and returns the activation duration.
    ///
    /// # Errors
    ///
    /// Propagates firmware-bank status errors.
    pub fn mgmt_firmware_commit(
        &mut self,
        now: SimTime,
        slot: usize,
        action: CommitAction,
    ) -> Result<Option<SimDuration>, Status> {
        match self.firmware.commit(slot, action)? {
            true => {
                let dur = self.perf.sample_fw_activation();
                self.perf.freeze_until(now + dur);
                Ok(Some(dur))
            }
            false => Ok(None),
        }
    }

    /// Handles a CQ head doorbell (host consumed entries). A write for
    /// a queue with no attached pair, or of a head outside the ring, is
    /// dropped.
    pub fn ring_cq_doorbell(&mut self, qid: QueueId, head: u32) {
        if let Some(pair) = self.pair_mut(qid) {
            let _ = pair.cq.doorbell_head(head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_nvme::command::{CQE_SIZE, SQE_SIZE};
    use bm_pcie::HostMemory;

    fn rig(data_mode: DataMode) -> (HostMemory, Ssd) {
        let mut mem = HostMemory::new(64 << 20);
        let mut ssd = Ssd::new(SsdConfig::p4510_2tb(SsdId(0)).with_data_mode(data_mode));
        let sq_base = mem.alloc(1024 * SQE_SIZE).unwrap();
        let cq_base = mem.alloc(1024 * CQE_SIZE).unwrap();
        ssd.attach_io_queues(
            SubmissionQueue::new(QueueId(1), sq_base, 1024),
            CompletionQueue::new(QueueId(1), cq_base, 1024),
        );
        let asq = mem.alloc(16 * SQE_SIZE).unwrap();
        let acq = mem.alloc(16 * CQE_SIZE).unwrap();
        ssd.attach_admin_queues(
            SubmissionQueue::new(QueueId::ADMIN, asq, 16),
            CompletionQueue::new(QueueId::ADMIN, acq, 16),
        );
        (mem, ssd)
    }

    /// Pushes `sqe` onto queue 1 and rings the doorbell; the host-side
    /// SQ state is mirrored through a scratch SubmissionQueue.
    fn submit_io(
        mem: &mut HostMemory,
        ssd: &mut Ssd,
        host_sq: &mut SubmissionQueue,
        now: SimTime,
        sqe: &Sqe,
    ) -> Vec<CompletedIo> {
        host_sq.push(mem, sqe).unwrap();
        ssd.ring_sq_doorbell(now, QueueId(1), host_sq.tail() as u32, mem)
    }

    #[test]
    fn write_then_read_round_trips_data() {
        let mut mem = HostMemory::new(64 << 20);
        let mut ssd = Ssd::new(SsdConfig::p4510_2tb(SsdId(1)).with_data_mode(DataMode::Full));
        let sq_base = mem.alloc(64 * SQE_SIZE).unwrap();
        let cq_base = mem.alloc(64 * CQE_SIZE).unwrap();
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 64);
        ssd.attach_io_queues(
            SubmissionQueue::new(QueueId(1), sq_base, 64),
            CompletionQueue::new(QueueId(1), cq_base, 64),
        );

        // Host buffer with a pattern.
        let buf = mem.alloc(16 * 4096).unwrap();
        let pattern: Vec<u8> = (0..16 * 4096u32).map(|i| (i % 253) as u8).collect();
        mem.write(buf, &pattern);
        let prp = PrpPair::build(&mut mem, buf, pattern.len() as u64);
        let write = Sqe::io(
            IoOpcode::Write,
            Cid(1),
            Nsid::new(1).unwrap(),
            Lba(100),
            16,
            prp.prp1,
            prp.prp2,
        );
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, SimTime::ZERO, &write);
        assert_eq!(done.len(), 1);
        assert!(done[0].is_write);
        assert!(done[0].status.is_success());

        // Read into a different buffer.
        let rbuf = mem.alloc(16 * 4096).unwrap();
        let rprp = PrpPair::build(&mut mem, rbuf, pattern.len() as u64);
        let read = Sqe::io(
            IoOpcode::Read,
            Cid(2),
            Nsid::new(1).unwrap(),
            Lba(100),
            16,
            rprp.prp1,
            rprp.prp2,
        );
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, done[0].at, &read);
        assert_eq!(done.len(), 1);
        Ssd::deliver_read_payload(&done[0], &mut mem);
        let cqe = ssd.post_completion(&done[0], &mut mem).unwrap();
        assert!(cqe.status.is_success());
        assert_eq!(mem.read_vec(rbuf, pattern.len() as u64), pattern);
    }

    #[test]
    fn invalid_doorbell_writes_are_dropped() {
        let mut mem = HostMemory::new(1 << 20);
        let mut ssd = Ssd::new(SsdConfig::p4510_2tb(SsdId(0)));
        let sq_base = mem.alloc(4 * SQE_SIZE).unwrap();
        let cq_base = mem.alloc(4 * CQE_SIZE).unwrap();
        let buf = mem.alloc(4096).unwrap();
        ssd.attach_io_queues(
            SubmissionQueue::new(QueueId(1), sq_base, 4),
            CompletionQueue::new(QueueId(1), cq_base, 4),
        );
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 4);
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(1),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            buf,
            PciAddr::NULL,
        );
        host_sq.push(&mut mem, &sqe).unwrap();
        // Queue 2 is not attached, and 4 is past the end of a 4-entry
        // ring: neither tail write fetches the published entry.
        assert!(ssd
            .ring_sq_doorbell(SimTime::ZERO, QueueId(2), 1, &mut mem)
            .is_empty());
        assert!(ssd
            .ring_sq_doorbell(SimTime::ZERO, QueueId(1), 4, &mut mem)
            .is_empty());
        assert_eq!(ssd.fetched(), 0);
        // Nor does either head write move a completion queue.
        ssd.ring_cq_doorbell(QueueId(2), 1);
        ssd.ring_cq_doorbell(QueueId(1), 4);
        // The valid tail still fetches the entry, and the CQ still holds
        // three completions before it fills: its head stayed at 0.
        let done = ssd.ring_sq_doorbell(SimTime::ZERO, QueueId(1), 1, &mut mem);
        assert_eq!(done.len(), 1);
        assert_eq!(ssd.fetched(), 1);
        for _ in 0..3 {
            assert!(ssd.post_completion(&done[0], &mut mem).is_ok());
        }
        assert!(ssd.post_completion(&done[0], &mut mem).is_err());
    }

    #[test]
    fn out_of_range_read_fails() {
        let (mut mem, mut ssd) = rig(DataMode::TimingOnly);
        let blocks = ssd.namespace().blocks();
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(3),
            Nsid::new(1).unwrap(),
            Lba(blocks), // first invalid LBA
            1,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        );
        // Use a scratch host SQ matching the rig's ring base.
        let sq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE);
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 1024);
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, SimTime::ZERO, &sqe);
        assert_eq!(done[0].status, Status::LbaOutOfRange);
        assert_eq!(ssd.errors(), 1);
    }

    #[test]
    fn malformed_sqe_completes_under_its_own_cid() {
        let (mut mem, mut ssd) = rig(DataMode::TimingOnly);
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(7),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        );
        let mut bytes = sqe.to_bytes();
        bytes[0] = 0x7F; // an opcode the model does not implement
        mem.write(PciAddr::new(bm_pcie::memory::PAGE_SIZE), &bytes);
        let done = ssd.ring_sq_doorbell(SimTime::ZERO, QueueId(1), 1, &mut mem);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].cid, Cid(7));
        assert_eq!(done[0].status, Status::InvalidOpcode);
        assert_eq!(ssd.errors(), 1);
    }

    #[test]
    fn wrong_namespace_fails() {
        let (mut mem, mut ssd) = rig(DataMode::TimingOnly);
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(4),
            Nsid::new(9).unwrap(),
            Lba(0),
            1,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        );
        let sq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE);
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 1024);
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, SimTime::ZERO, &sqe);
        assert_eq!(done[0].status, Status::InvalidNamespace);
    }

    #[test]
    fn identify_returns_model_and_firmware() {
        let (mut mem, mut ssd) = rig(DataMode::TimingOnly);
        let page_buf = mem.alloc(4096).unwrap();
        let sqe = Sqe::admin(AdminOpcode::Identify, Cid(1), 1, page_buf);
        let asq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE + 1024 * (SQE_SIZE + CQE_SIZE));
        let mut host_asq = SubmissionQueue::new(QueueId::ADMIN, asq_base, 16);
        host_asq.push(&mut mem, &sqe).unwrap();
        let done = ssd.ring_sq_doorbell(
            SimTime::ZERO,
            QueueId::ADMIN,
            host_asq.tail() as u32,
            &mut mem,
        );
        assert!(done[0].status.is_success());
        let page = mem.read_vec(page_buf, 4096);
        let idc = IdentifyController::from_page(&page).unwrap();
        assert_eq!(idc.model, "INTEL SSDPE2KX020T8");
        assert_eq!(idc.firmware, "VDV10131");
    }

    #[test]
    fn firmware_upgrade_freezes_io() {
        let (mut mem, mut ssd) = rig(DataMode::TimingOnly);
        // Download an image.
        let img_buf = mem.alloc(4096).unwrap();
        mem.write(img_buf, b"NEWFW002");
        let asq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE + 1024 * (SQE_SIZE + CQE_SIZE));
        let mut host_asq = SubmissionQueue::new(QueueId::ADMIN, asq_base, 16);

        let dl = Sqe {
            cdw11: 0,
            ..Sqe::admin(AdminOpcode::FirmwareDownload, Cid(1), 1, img_buf)
        };
        host_asq.push(&mut mem, &dl).unwrap();
        let done = ssd.ring_sq_doorbell(
            SimTime::ZERO,
            QueueId::ADMIN,
            host_asq.tail() as u32,
            &mut mem,
        );
        assert!(done[0].status.is_success(), "{}", done[0].status);

        // Commit with activate-now on slot 2.
        let commit = Sqe::admin(
            AdminOpcode::FirmwareCommit,
            Cid(2),
            2 | (CommitAction::ActivateNow.code() << 3),
            PciAddr::NULL,
        );
        host_asq.push(&mut mem, &commit).unwrap();
        let done = ssd.ring_sq_doorbell(
            SimTime::ZERO,
            QueueId::ADMIN,
            host_asq.tail() as u32,
            &mut mem,
        );
        assert!(done[0].status.is_success());
        let dur = done[0].fw_activation.expect("activation happened");
        assert!(dur >= SimDuration::from_secs_f64(5.5));
        assert_eq!(ssd.firmware().running().0, "NEWFW002");

        // I/O issued during the freeze completes only after it.
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(3),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        );
        let sq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE);
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 1024);
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, SimTime::ZERO, &sqe);
        assert!(done[0].at >= SimTime::ZERO + dur);
    }

    #[test]
    fn reset_detaches_queues() {
        let (_, mut ssd) = rig(DataMode::TimingOnly);
        assert_eq!(ssd.io_queue_count(), 1);
        ssd.reset();
        assert_eq!(ssd.io_queue_count(), 0);
    }

    /// Writes `fill` over `nblocks` blocks at `slba` and returns the
    /// device-internal completion time.
    fn do_write(
        mem: &mut HostMemory,
        ssd: &mut Ssd,
        host_sq: &mut SubmissionQueue,
        now: SimTime,
        slba: Lba,
        nblocks: u32,
        fill: u8,
    ) -> SimTime {
        let len = nblocks as u64 * 4096;
        let buf = mem.alloc(len).unwrap();
        mem.write(buf, &vec![fill; len as usize]);
        let prp = PrpPair::build(mem, buf, len);
        let sqe = Sqe::io(
            IoOpcode::Write,
            Cid(1),
            Nsid::new(1).unwrap(),
            slba,
            nblocks,
            prp.prp1,
            prp.prp2,
        );
        let done = submit_io(mem, ssd, host_sq, now, &sqe);
        assert!(done[0].status.is_success());
        done[0].at
    }

    #[test]
    fn power_loss_tears_only_unacked_writes() {
        let (mut mem, mut ssd) = rig(DataMode::Full);
        let sq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE);
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 1024);

        // First write completes (acked) before the second is issued.
        let acked_at = do_write(
            &mut mem,
            &mut ssd,
            &mut host_sq,
            SimTime::ZERO,
            Lba(0),
            4,
            0xAA,
        );
        let unacked_at = do_write(&mut mem, &mut ssd, &mut host_sq, acked_at, Lba(0), 4, 0xBB);
        assert!(unacked_at > acked_at);

        // Power fails mid-flight: the 0xBB write is still in the air.
        let torn = ssd.power_loss(acked_at, 4, SimRng::seed_from(7));
        assert_eq!(torn, 1, "only the un-acked write is a victim");

        // The tear is sector-aligned and suffix-shaped: the last 512
        // bytes of the last block always revert to the acked 0xAA data.
        let last = ssd.store().read_block(Lba(3));
        assert!(last[4096 - 512..].iter().all(|&b| b == 0xAA));
        // Everything before the cut keeps the new data; the very first
        // bytes of the write are either 0xBB (partial tear) or 0xAA
        // (cut at the start) — never anything else.
        let first = ssd.store().read_block(Lba(0));
        assert!(first[0] == 0xBB || first[0] == 0xAA);

        // A later power loss finds an empty log: nothing left to tear.
        assert_eq!(ssd.power_loss(acked_at, 4, SimRng::seed_from(8)), 0);
    }

    #[test]
    fn power_loss_leaves_acked_writes_durable() {
        let (mut mem, mut ssd) = rig(DataMode::Full);
        let sq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE);
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 1024);
        let at = do_write(
            &mut mem,
            &mut ssd,
            &mut host_sq,
            SimTime::ZERO,
            Lba(10),
            2,
            0xCC,
        );
        // Power fails after the completion fired: nothing tears.
        assert_eq!(ssd.power_loss(at, 8, SimRng::seed_from(9)), 0);
        assert!(ssd.store().read_block(Lba(10)).iter().all(|&b| b == 0xCC));
        assert!(ssd.store().read_block(Lba(11)).iter().all(|&b| b == 0xCC));
    }

    #[test]
    fn timing_only_mode_has_nothing_to_tear() {
        let (mut mem, mut ssd) = rig(DataMode::TimingOnly);
        let sq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE);
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 1024);
        let sqe = Sqe::io(
            IoOpcode::Write,
            Cid(1),
            Nsid::new(1).unwrap(),
            Lba(0),
            4,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        );
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, SimTime::ZERO, &sqe);
        assert!(done[0].status.is_success());
        assert_eq!(ssd.power_loss(SimTime::ZERO, 4, SimRng::seed_from(3)), 0);
    }

    #[test]
    fn revive_undoes_surprise_removal() {
        let (mut mem, mut ssd) = rig(DataMode::TimingOnly);
        ssd.inject_death();
        let sq_base = PciAddr::new(bm_pcie::memory::PAGE_SIZE);
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, 1024);
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(1),
            Nsid::new(1).unwrap(),
            Lba(0),
            1,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        );
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, SimTime::ZERO, &sqe);
        assert_eq!(done[0].status, Status::InternalError);
        ssd.revive();
        let done = submit_io(&mut mem, &mut ssd, &mut host_sq, SimTime::ZERO, &sqe);
        assert!(done[0].status.is_success());
    }
}
