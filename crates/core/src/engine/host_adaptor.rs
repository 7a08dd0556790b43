//! The host adaptor — the engine's back-end port to each SSD.
//!
//! For every attached SSD the adaptor owns an SQ/CQ pair in engine chip
//! memory (exposed to the SSD through the chip window), plus the
//! *outstanding-command table* that multiplexes many front-end functions
//! onto one back-end queue: each forwarded command gets a back-end CID
//! from a free list, and the completion path uses that CID to find the
//! originating function, host queue, and host CID again.

use crate::engine::dma_routing::ChipWindow;
use bm_nvme::command::{IoOpcode, CQE_SIZE, SQE_SIZE};
use bm_nvme::queue::{CompletionQueue, SubmissionQueue};
use bm_nvme::types::{Cid, QueueId};
use bm_nvme::{Cqe, Sqe};
use bm_pcie::{DmaContext, FunctionId, HostMemory, PciAddr};
use bm_sim::telemetry::CmdId;
use bm_sim::SimTime;
use bm_ssd::SsdId;
use std::fmt;

/// Chip memory each back-end command slot holds for a PRP list of more
/// than 32 entries: one page, the "global PRP stored into chip memory"
/// of §IV-C. Each slot also holds a [`SMALL_LIST_SLOT_BYTES`] block, in
/// a region of its own, for a list of up to 32 entries, so the lists of
/// 128 KiB commands in flight share pages instead of taking one each.
pub const PRP_LIST_SLOT_BYTES: u64 = 4096;

/// Chip memory each back-end command slot holds for a PRP list of up to
/// 32 entries (a 128 KiB transfer's 31): the block size the host carves
/// short lists from.
pub const SMALL_LIST_SLOT_BYTES: u64 = bm_pcie::memory::BLOCK_BYTES;

/// The most pages one forwarded command can address: PRP1 plus one
/// 8-byte entry per word of its page-sized PRP-list slot.
pub const MAX_FORWARD_PAGES: u32 = 1 + (PRP_LIST_SLOT_BYTES / 8) as u32;

/// What the adaptor remembers about one forwarded command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outstanding {
    /// Originating front-end function.
    pub func: FunctionId,
    /// Host-side queue the command came from.
    pub host_qid: QueueId,
    /// Host-side command id.
    pub host_cid: Cid,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// The command's opcode.
    pub op: IoOpcode,
    /// When the engine fetched the command from the host.
    pub fetched_at: SimTime,
    /// When this forwarding attempt was pushed into the back-end ring
    /// (span start of the DMA-routing stage).
    pub pushed_at: SimTime,
    /// Engine-wide monotonic sequence number of this forwarding
    /// attempt. A retry of the same host command gets a fresh number,
    /// so the timeout machinery can tell attempts apart.
    pub seq: u64,
    /// Telemetry correlation ID ([`CmdId::NONE`] when telemetry is off).
    pub cmd: CmdId,
}

impl Outstanding {
    /// The host command this attempt serves: every back-end attempt of
    /// one host command shares it.
    pub(super) fn host_key(&self) -> super::HostKey {
        (self.func.index(), self.host_qid.0, self.host_cid.0)
    }
}

/// One SSD's back-end port.
pub struct BackEndPort {
    ssd: SsdId,
    /// Engine-side ring descriptors (producer on SQ, consumer on CQ).
    sq: SubmissionQueue,
    cq: CompletionQueue,
    /// Chip-window bus addresses of the rings (for building the SSD-side
    /// descriptors).
    sq_bus: PciAddr,
    cq_bus: PciAddr,
    entries: u16,
    outstanding: Vec<Option<Outstanding>>,
    free_cids: Vec<u16>,
    /// Slots abandoned by the timeout machinery. A zombie CID is not
    /// reusable until its (possibly still in flight) stale completion
    /// arrives and is swallowed, or the device is physically replaced —
    /// otherwise a late completion could resolve to a different
    /// command's origin.
    zombies: Vec<bool>,
    /// Bus addresses of the per-command PRP-list slot regions: one
    /// [`SMALL_LIST_SLOT_BYTES`] block and one page per back-end CID.
    small_lists: PciAddr,
    page_lists: PciAddr,
    forwarded: u64,
    completed: u64,
    abandoned: u64,
    /// Running tallies mirroring the slot tables, so the metrics
    /// sampler reads occupancy in O(1) instead of scanning the ring.
    live_slots: usize,
    zombie_slots: usize,
    inflight_payload: u64,
}

impl fmt::Debug for BackEndPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BackEndPort")
            .field("ssd", &self.ssd)
            .field("inflight", &self.inflight())
            .field("forwarded", &self.forwarded)
            .finish()
    }
}

impl BackEndPort {
    /// Allocates the port's rings and both PRP-list slot regions in
    /// `chip`.
    ///
    /// # Panics
    ///
    /// Panics if chip memory is exhausted.
    pub fn new(ssd: SsdId, entries: u16, chip: &mut HostMemory) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the chip is sized for every back-end port; exhaustion is a configuration bug"
        )]
        let sq_local = chip
            .alloc(entries as u64 * SQE_SIZE)
            .expect("chip memory for back-end SQ");
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the chip is sized for every back-end port; exhaustion is a configuration bug"
        )]
        let cq_local = chip
            .alloc(entries as u64 * CQE_SIZE)
            .expect("chip memory for back-end CQ");
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the chip is sized for every back-end port; exhaustion is a configuration bug"
        )]
        let page_lists = chip
            .alloc(entries as u64 * (PRP_LIST_SLOT_BYTES + SMALL_LIST_SLOT_BYTES))
            .expect("chip memory for PRP-list slots");
        let small_lists = page_lists + entries as u64 * PRP_LIST_SLOT_BYTES;
        let sq_bus = ChipWindow::bus_addr(sq_local);
        let cq_bus = ChipWindow::bus_addr(cq_local);
        BackEndPort {
            ssd,
            sq: SubmissionQueue::new(QueueId(1), sq_bus, entries),
            cq: CompletionQueue::new(QueueId(1), cq_bus, entries),
            sq_bus,
            cq_bus,
            entries,
            outstanding: vec![None; entries as usize],
            free_cids: (0..entries).rev().collect(),
            zombies: vec![false; entries as usize],
            small_lists: ChipWindow::bus_addr(small_lists),
            page_lists: ChipWindow::bus_addr(page_lists),
            forwarded: 0,
            completed: 0,
            abandoned: 0,
            live_slots: 0,
            zombie_slots: 0,
            inflight_payload: 0,
        }
    }

    /// The SSD this port drives.
    pub fn ssd(&self) -> SsdId {
        self.ssd
    }

    /// Builds the SSD-side ring descriptors over the same chip memory.
    ///
    /// The returned views start at head/tail 0, matching a freshly
    /// initialised device. They are only consistent with the engine-side
    /// descriptors when those are also at their initial position — i.e.
    /// at first attach, or after [`BackEndPort::reset_rings`] during a
    /// hot-plug hardware replacement.
    pub fn ssd_side_rings(&self) -> (SubmissionQueue, CompletionQueue) {
        (
            SubmissionQueue::new(QueueId(1), self.sq_bus, self.entries),
            CompletionQueue::new(QueueId(1), self.cq_bus, self.entries),
        )
    }

    /// Reinitialises the engine-side ring descriptors to head/tail 0.
    ///
    /// A replacement device negotiates its I/O queues from scratch, so
    /// its ring views (see [`BackEndPort::ssd_side_rings`]) start at
    /// zero; the engine side must restart from the same position or
    /// every post-swap fetch and completion lands in the wrong slot.
    /// Only safe while the port is quiescent — the hot-plug prepare
    /// pause drains real in-flight commands and
    /// [`BackEndPort::reap_zombies`] reclaims abandoned ones first.
    ///
    /// The CQ ring bytes are scrubbed too: the consumer is phase-tag
    /// driven, so CQEs the departed device left behind would otherwise
    /// read as valid on the first post-reset lap. (SQ bytes need no
    /// scrub — the fetch side is purely index-driven.)
    pub fn reset_rings(&mut self, chip: &mut HostMemory) {
        debug_assert_eq!(
            self.inflight(),
            0,
            "ring reset with commands in flight on {:?}",
            self.ssd
        );
        self.sq = SubmissionQueue::new(QueueId(1), self.sq_bus, self.entries);
        self.cq = CompletionQueue::new(QueueId(1), self.cq_bus, self.entries);
        let mut win = ChipWindow(chip);
        let zeros = vec![0u8; self.entries as usize * CQE_SIZE as usize];
        win.dma_write(self.cq_bus, &zeros);
    }

    /// Commands currently in flight to the SSD.
    pub fn inflight(&self) -> usize {
        self.entries as usize - self.free_cids.len()
    }

    /// Whether a slot (back-end CID + ring space) is available.
    pub fn has_capacity(&self) -> bool {
        !self.free_cids.is_empty() && !self.sq.is_full()
    }

    /// Reserves a back-end CID for a command, recording its origin.
    ///
    /// # Panics
    ///
    /// Panics if no capacity remains (callers must gate on
    /// [`BackEndPort::has_capacity`]).
    pub fn reserve(&mut self, origin: Outstanding) -> Cid {
        #[expect(
            clippy::expect_used,
            reason = "documented contract — callers gate on has_capacity(), so an empty free list is a bookkeeping bug that must stop the sim"
        )]
        let cid = self.free_cids.pop().expect("back-end CID available");
        self.live_slots += 1;
        self.inflight_payload += origin.bytes;
        self.outstanding[cid as usize] = Some(origin);
        self.forwarded += 1;
        Cid(cid)
    }

    /// The chip slot (bus address) back-end CID `cid` holds for a PRP
    /// list of `entries` entries: its [`SMALL_LIST_SLOT_BYTES`] block
    /// when the list fits, its page otherwise. The list's own length
    /// picks the slot, so no list runs into a neighbouring CID's.
    pub(crate) fn list_slot(&self, cid: Cid, entries: u32) -> PciAddr {
        let cid = u64::from(cid.0);
        if u64::from(entries) * 8 <= SMALL_LIST_SLOT_BYTES {
            self.small_lists + cid * SMALL_LIST_SLOT_BYTES
        } else {
            self.page_lists + cid * PRP_LIST_SLOT_BYTES
        }
    }

    /// Pushes a rewritten SQE into the back-end ring; returns the new
    /// tail for the doorbell.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full.
    pub fn push_sqe(&mut self, chip: &mut HostMemory, sqe: &Sqe) -> u32 {
        let pushed = self.sq.push(&mut ChipWindow(chip), sqe);
        assert!(pushed.is_ok(), "back-end SQ overflow");
        self.sq.tail() as u32
    }

    /// Polls the back-end CQ for completions the SSD posted, resolving
    /// each back-end CID to its origin and appending the pair to `out`.
    /// Returns the CQ head for the SSD-side doorbell.
    pub fn drain_completions(
        &mut self,
        chip: &mut HostMemory,
        out: &mut Vec<(Outstanding, Cqe)>,
    ) -> u32 {
        let mut win = ChipWindow(chip);
        while let Some(cqe) = self.cq.poll(&mut win) {
            // The CQE reports how far the SSD consumed our SQ; adopt it
            // so the engine-side ring view frees those slots.
            self.sq.sync_head(cqe.sq_head);
            let cid = cqe.cid.0;
            if let Some(origin) = self.outstanding[cid as usize].take() {
                self.live_slots -= 1;
                self.inflight_payload -= origin.bytes;
                self.free_cids.push(cid);
                self.completed += 1;
                out.push((origin, cqe));
            } else if self.zombies[cid as usize] {
                // Stale completion for a command the timeout machinery
                // abandoned: swallow it and recycle the slot.
                self.zombies[cid as usize] = false;
                self.zombie_slots -= 1;
                self.free_cids.push(cid);
            }
        }
        self.cq.head() as u32
    }

    /// The origin of an in-flight back-end CID, if the slot is live
    /// (`None` for free or zombie slots).
    pub fn origin_of(&self, cid: Cid) -> Option<&Outstanding> {
        self.outstanding
            .get(cid.0 as usize)
            .and_then(|o| o.as_ref())
    }

    /// Abandons an in-flight command (timeout machinery): the origin is
    /// handed back to the caller for retry or abort, and the CID slot
    /// becomes a zombie — unusable until its stale completion arrives
    /// or [`BackEndPort::reap_zombies`] runs after a device swap.
    pub fn abandon(&mut self, cid: Cid) -> Option<Outstanding> {
        let origin = self.outstanding[cid.0 as usize].take()?;
        self.live_slots -= 1;
        self.inflight_payload -= origin.bytes;
        self.zombies[cid.0 as usize] = true;
        self.zombie_slots += 1;
        self.abandoned += 1;
        Some(origin)
    }

    /// Abandons every live slot at once (engine crash): the rings are
    /// about to be reset, so no in-flight command can ever complete
    /// through this port again. Returns the abandoned origins in CID
    /// order. The slots become zombies; callers follow up with
    /// [`BackEndPort::reap_zombies`] before [`BackEndPort::reset_rings`]
    /// (the departed firmware instance's completions can never arrive
    /// on the reset rings, so reaping immediately is safe).
    pub fn abandon_all_live(&mut self) -> Vec<Outstanding> {
        let mut origins = Vec::new();
        for cid in 0..self.entries {
            if self.outstanding[cid as usize].is_some() {
                if let Some(origin) = self.abandon(Cid(cid)) {
                    origins.push(origin);
                }
            }
        }
        origins
    }

    /// Frees every zombie slot. Only safe once the device behind this
    /// port can no longer complete the abandoned commands — i.e. right
    /// after a hot-plug hardware replacement. Returns how many slots
    /// were reclaimed.
    pub fn reap_zombies(&mut self) -> usize {
        let mut reaped = 0;
        for (cid, zombie) in self.zombies.iter_mut().enumerate() {
            if *zombie {
                *zombie = false;
                self.zombie_slots -= 1;
                self.free_cids.push(cid as u16);
                reaped += 1;
            }
        }
        reaped
    }

    /// Snapshot of all in-flight origins (hot-upgrade context save).
    pub fn inflight_origins(&self) -> Vec<Outstanding> {
        self.outstanding.iter().flatten().copied().collect()
    }

    /// Commands forwarded to this SSD so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Completions received from this SSD so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Forwarding attempts abandoned by the timeout machinery so far.
    pub fn abandoned(&self) -> u64 {
        self.abandoned
    }

    /// Slots currently held by live (non-zombie) commands. At every
    /// instant `live == forwarded - completed - abandoned` — the
    /// conservation identity the metrics sampler and its tests rely on.
    pub fn live(&self) -> usize {
        debug_assert_eq!(
            self.live_slots,
            self.outstanding.iter().flatten().count(),
            "live tally out of sync with the slot table"
        );
        self.live_slots
    }

    /// Slots currently held by zombies awaiting their stale completion.
    pub fn zombie_count(&self) -> usize {
        debug_assert_eq!(
            self.zombie_slots,
            self.zombies.iter().filter(|z| **z).count(),
            "zombie tally out of sync with the slot table"
        );
        self.zombie_slots
    }

    /// Payload bytes owned by live in-flight commands (the engine's
    /// share of the in-flight DMA byte gauge).
    pub fn inflight_bytes(&self) -> u64 {
        debug_assert_eq!(
            self.inflight_payload,
            self.outstanding
                .iter()
                .flatten()
                .map(|o| o.bytes)
                .sum::<u64>(),
            "payload tally out of sync with the slot table"
        );
        self.inflight_payload
    }
}

/// The adaptor: one [`BackEndPort`] per attached SSD.
#[derive(Debug)]
pub struct HostAdaptor {
    ports: Vec<BackEndPort>,
}

impl HostAdaptor {
    /// Creates ports for `ssds` devices with `entries`-deep rings.
    pub fn new(ssds: usize, entries: u16, chip: &mut HostMemory) -> Self {
        HostAdaptor {
            ports: (0..ssds)
                .map(|i| BackEndPort::new(SsdId(i as u8), entries, chip))
                .collect(),
        }
    }

    /// Number of ports.
    pub fn len(&self) -> usize {
        self.ports.len()
    }

    /// Whether the adaptor has no ports.
    pub fn is_empty(&self) -> bool {
        self.ports.is_empty()
    }

    /// The port for `ssd`.
    ///
    /// # Panics
    ///
    /// Panics if `ssd` has no port.
    pub fn port(&self, ssd: SsdId) -> &BackEndPort {
        &self.ports[ssd.0 as usize]
    }

    /// Mutable access to the port for `ssd`.
    ///
    /// # Panics
    ///
    /// Panics if `ssd` has no port.
    pub fn port_mut(&mut self, ssd: SsdId) -> &mut BackEndPort {
        &mut self.ports[ssd.0 as usize]
    }

    /// Iterates over all ports.
    pub fn ports(&self) -> impl Iterator<Item = &BackEndPort> {
        self.ports.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_nvme::types::{Lba, Nsid};

    fn origin(i: u8) -> Outstanding {
        Outstanding {
            func: FunctionId::new(i).unwrap(),
            host_qid: QueueId(1),
            host_cid: Cid(i as u16 * 10),
            bytes: 4096,
            op: IoOpcode::Read,
            fetched_at: SimTime::ZERO,
            pushed_at: SimTime::ZERO,
            seq: i as u64,
            cmd: CmdId::NONE,
        }
    }

    fn sample_sqe(cid: Cid) -> Sqe {
        Sqe::io(
            IoOpcode::Read,
            cid,
            Nsid::new(1).unwrap(),
            Lba(0),
            8,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        )
    }

    #[test]
    fn reserve_and_resolve_round_trip() {
        let mut chip = HostMemory::new(64 << 20);
        let mut port = BackEndPort::new(SsdId(0), 64, &mut chip);
        let cid1 = port.reserve(origin(1));
        let cid2 = port.reserve(origin(2));
        assert_ne!(cid1, cid2);
        assert_eq!(port.inflight(), 2);

        // SSD completes cid2 then cid1.
        let (ssd_sq, mut ssd_cq) = port.ssd_side_rings();
        let _ = ssd_sq;
        let mut win = ChipWindow(&mut chip);
        ssd_cq
            .post(&mut win, Cqe::success(cid2, QueueId(1), 0, false))
            .unwrap();
        ssd_cq
            .post(&mut win, Cqe::success(cid1, QueueId(1), 0, false))
            .unwrap();
        let mut done = Vec::new();
        let head = port.drain_completions(&mut chip, &mut done);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].0, origin(2));
        assert_eq!(done[1].0, origin(1));
        assert_eq!(head, 2);
        assert_eq!(port.inflight(), 0);
        assert_eq!(port.completed(), 2);
    }

    #[test]
    fn list_slots_follow_the_list_length() {
        let mut chip = HostMemory::new(64 << 20);
        let port = BackEndPort::new(SsdId(0), 64, &mut chip);
        let slot = |cid: u16, entries: u32| port.list_slot(Cid(cid), entries);
        // Up to 32 entries: one block per CID, packed.
        assert_eq!(slot(0, 2), slot(0, 32));
        assert_eq!(slot(1, 32), slot(0, 32) + SMALL_LIST_SLOT_BYTES);
        // From 33 entries: the CID's page.
        let page = slot(0, 33);
        assert_eq!(page, slot(0, 512));
        assert_eq!(page.page_offset(PRP_LIST_SLOT_BYTES), 0);
        assert_eq!(slot(1, 33), page + PRP_LIST_SLOT_BYTES);
        // The two regions do not overlap.
        let blocks = slot(0, 32).raw()..slot(63, 32).raw() + SMALL_LIST_SLOT_BYTES;
        let pages = page.raw()..slot(63, 33).raw() + PRP_LIST_SLOT_BYTES;
        assert!(blocks.end <= pages.start || pages.end <= blocks.start);
    }

    #[test]
    fn sqe_bytes_travel_through_chip_ring() {
        let mut chip = HostMemory::new(64 << 20);
        let mut port = BackEndPort::new(SsdId(0), 16, &mut chip);
        let sqe = sample_sqe(Cid(5));
        let tail = port.push_sqe(&mut chip, &sqe);
        assert_eq!(tail, 1);
        // The SSD-side ring fetches the same bytes.
        let (mut ssd_sq, _) = port.ssd_side_rings();
        ssd_sq.doorbell_tail(tail).unwrap();
        let mut win = ChipWindow(&mut chip);
        let got = ssd_sq.fetch(&mut win).unwrap().unwrap();
        assert_eq!(got.cid, Cid(5));
    }

    #[test]
    fn capacity_exhausts_at_ring_size() {
        let mut chip = HostMemory::new(64 << 20);
        let mut port = BackEndPort::new(SsdId(0), 4, &mut chip);
        // Ring holds entries-1 = 3 simultaneously.
        for i in 0..3 {
            assert!(port.has_capacity());
            port.reserve(origin(i));
            port.push_sqe(&mut chip, &sample_sqe(Cid(i as u16)));
        }
        assert!(!port.has_capacity());
    }

    #[test]
    fn inflight_snapshot_for_context_save() {
        let mut chip = HostMemory::new(64 << 20);
        let mut port = BackEndPort::new(SsdId(0), 16, &mut chip);
        port.reserve(origin(1));
        port.reserve(origin(2));
        let snap = port.inflight_origins();
        assert_eq!(snap.len(), 2);
    }

    #[test]
    fn abandoned_slot_swallows_stale_completion() {
        let mut chip = HostMemory::new(64 << 20);
        let mut port = BackEndPort::new(SsdId(0), 8, &mut chip);
        let cid = port.reserve(origin(1));
        let got = port.abandon(cid).expect("origin handed back");
        assert_eq!(got, origin(1));
        assert!(port.abandon(cid).is_none(), "already abandoned");
        // The slot is a zombie: no completion has arrived, so it must
        // not be reusable yet.
        assert_eq!(port.inflight(), 1);

        // The stale completion arrives late; it resolves to nothing
        // and recycles the slot.
        let (_, mut ssd_cq) = port.ssd_side_rings();
        let mut win = ChipWindow(&mut chip);
        ssd_cq
            .post(&mut win, Cqe::success(cid, QueueId(1), 0, false))
            .unwrap();
        let mut done = Vec::new();
        port.drain_completions(&mut chip, &mut done);
        assert!(done.is_empty(), "stale completion swallowed");
        assert_eq!(port.inflight(), 0);
    }

    #[test]
    fn reap_zombies_frees_slots_after_device_swap() {
        let mut chip = HostMemory::new(64 << 20);
        let mut port = BackEndPort::new(SsdId(0), 4, &mut chip);
        let c1 = port.reserve(origin(1));
        let c2 = port.reserve(origin(2));
        port.abandon(c1);
        port.abandon(c2);
        assert_eq!(port.inflight(), 2, "zombies still hold slots");
        assert_eq!(port.reap_zombies(), 2);
        assert_eq!(port.inflight(), 0);
        assert!(port.has_capacity());
    }

    #[test]
    fn adaptor_indexes_ports_by_ssd() {
        let mut chip = HostMemory::new(256 << 20);
        let adaptor = HostAdaptor::new(4, 64, &mut chip);
        assert_eq!(adaptor.len(), 4);
        assert_eq!(adaptor.port(SsdId(2)).ssd(), SsdId(2));
        assert_eq!(adaptor.ports().count(), 4);
    }
}
