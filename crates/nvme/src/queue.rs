//! Submission/completion rings living in simulated host memory.
//!
//! The rings hold real encoded entries in a [`HostMemory`](bm_pcie::HostMemory), and the
//! producer/consumer indices follow the NVMe model: the host bumps the
//! SQ tail doorbell, the device consumes and advances the head; the
//! device posts CQEs with a phase tag, the host consumes and bumps the
//! CQ head doorbell. The BMS-Engine sits in the middle and genuinely
//! *fetches bytes* — exactly what makes it transparent to the host.

use crate::command::{Cqe, Sqe, CQE_SIZE, SQE_SIZE};
use crate::status::Status;
use crate::types::{Cid, QueueId};
#[cfg(test)]
use bm_pcie::HostMemory;
use bm_pcie::{DmaContext, PciAddr};

/// Doorbell register layout within a controller's BAR0 (NVMe §3.1:
/// doorbells start at offset 0x1000, stride 4 bytes with DSTRD=0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DoorbellLayout;

impl DoorbellLayout {
    /// Base offset of the doorbell region in BAR0.
    pub const BASE: u64 = 0x1000;
    /// Stride between doorbell registers.
    pub const STRIDE: u64 = 4;

    /// BAR0 offset of the submission-queue tail doorbell for `qid`.
    pub fn sq_tail_offset(qid: QueueId) -> u64 {
        Self::BASE + (2 * qid.0 as u64) * Self::STRIDE
    }

    /// BAR0 offset of the completion-queue head doorbell for `qid`.
    pub fn cq_head_offset(qid: QueueId) -> u64 {
        Self::BASE + (2 * qid.0 as u64 + 1) * Self::STRIDE
    }

    /// Decodes a BAR0 offset back to `(qid, is_completion)`, or `None`
    /// if the offset is not a doorbell register.
    pub fn decode(offset: u64) -> Option<(QueueId, bool)> {
        if offset < Self::BASE || !offset.is_multiple_of(Self::STRIDE) {
            return None;
        }
        let idx = (offset - Self::BASE) / Self::STRIDE;
        let qid = QueueId((idx / 2) as u16);
        Some((qid, idx % 2 == 1))
    }
}

/// A submission-queue ring.
///
/// # Examples
///
/// ```
/// use bm_nvme::{SubmissionQueue, Sqe, Cid, Lba, Nsid, QueueId};
/// use bm_nvme::command::IoOpcode;
/// use bm_pcie::{DmaContext, HostMemory, PciAddr};
///
/// let mut mem = HostMemory::new(1 << 20);
/// let base = mem.alloc(64 * 16).unwrap();
/// let mut sq = SubmissionQueue::new(QueueId(1), base, 16);
///
/// let sqe = Sqe::io(IoOpcode::Read, Cid(0), Nsid::new(1).unwrap(),
///                   Lba(0), 8, PciAddr::new(0x8000), PciAddr::NULL);
/// sq.push(&mut mem, &sqe).unwrap();
/// // Device side: fetch the entry at the head.
/// let fetched = sq.fetch(&mut mem).unwrap().unwrap();
/// assert_eq!(fetched, sqe);
/// ```
#[derive(Debug, Clone)]
pub struct SubmissionQueue {
    id: QueueId,
    base: PciAddr,
    entries: u16,
    /// Producer index (host side).
    tail: u16,
    /// Consumer index (device side).
    head: u16,
}

impl SubmissionQueue {
    /// Creates a ring of `entries` SQEs at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2` (NVMe requires at least 2).
    pub fn new(id: QueueId, base: PciAddr, entries: u16) -> Self {
        assert!(entries >= 2, "queue needs at least 2 entries");
        SubmissionQueue {
            id,
            base,
            entries,
            tail: 0,
            head: 0,
        }
    }

    /// The queue id.
    pub fn id(&self) -> QueueId {
        self.id
    }

    /// Base address of the ring in its memory domain.
    pub fn base(&self) -> PciAddr {
        self.base
    }

    /// Total ring slots (capacity is one less).
    pub fn entries(&self) -> u16 {
        self.entries
    }

    /// Ring capacity in entries (one slot is kept free to distinguish
    /// full from empty).
    pub fn capacity(&self) -> u16 {
        self.entries - 1
    }

    /// Entries currently occupied.
    pub fn len(&self) -> u16 {
        (self.tail + self.entries - self.head) % self.entries
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Whether the ring is full.
    pub fn is_full(&self) -> bool {
        (self.tail + 1) % self.entries == self.head
    }

    /// Current tail (the value the host writes to the doorbell).
    pub fn tail(&self) -> u16 {
        self.tail
    }

    /// Current head (reported back in CQEs).
    pub fn head(&self) -> u16 {
        self.head
    }

    /// Host side: writes `sqe` at the tail and advances it.
    ///
    /// # Errors
    ///
    /// Returns `Err(QueueFull)` if no slot is free.
    pub fn push(&mut self, mem: &mut impl DmaContext, sqe: &Sqe) -> Result<(), QueueFull> {
        if self.is_full() {
            return Err(QueueFull);
        }
        let addr = self.base + self.tail as u64 * SQE_SIZE;
        mem.dma_write(addr, &sqe.to_bytes());
        self.tail = (self.tail + 1) % self.entries;
        Ok(())
    }

    /// Device side: fetches (and consumes) the entry at the head.
    ///
    /// Returns `Ok(None)` when the ring is empty.
    ///
    /// # Errors
    ///
    /// Returns [`BadSqe`] when the entry does not parse (an opcode the
    /// model does not implement). The slot is consumed either way, and
    /// the error carries the entry's CID so the device can complete the
    /// command it belongs to.
    pub fn fetch(&mut self, mem: &mut impl DmaContext) -> Result<Option<Sqe>, BadSqe> {
        if self.is_empty() {
            return Ok(None);
        }
        let bytes = self.fetch_raw(mem);
        let parse = if self.id.is_admin() {
            Sqe::from_bytes_admin(&bytes)
        } else {
            Sqe::from_bytes(&bytes)
        };
        parse.map(Some).map_err(|status| BadSqe {
            // CDW0 bits 31:16 hold the CID whatever the opcode.
            cid: Cid(u16::from_le_bytes([bytes[2], bytes[3]])),
            status,
        })
    }

    /// Device side: fetches the raw 64 bytes at the head and consumes the
    /// slot (the BMS-Engine forwards bytes without full decoding on some
    /// paths).
    ///
    /// # Panics
    ///
    /// Panics if the ring is empty.
    pub fn fetch_raw(&mut self, mem: &mut impl DmaContext) -> [u8; SQE_SIZE as usize] {
        assert!(!self.is_empty(), "fetch from empty queue");
        let addr = self.base + self.head as u64 * SQE_SIZE;
        let mut bytes = [0u8; SQE_SIZE as usize];
        mem.dma_read(addr, &mut bytes);
        self.head = (self.head + 1) % self.entries;
        bytes
    }

    /// Host side: retires one consumed slot (the driver learned from a
    /// CQE's `sq_head` — or simply per completion — that the device
    /// fetched an entry).
    pub fn retire(&mut self) {
        if self.head != self.tail {
            self.head = (self.head + 1) % self.entries;
        }
    }

    /// Producer side: adopts the consumer's head as reported in a CQE's
    /// `sq_head` field (frees ring slots for further pushes).
    pub fn sync_head(&mut self, head: u16) {
        if head < self.entries {
            self.head = head;
        }
    }

    /// Updates the device-visible tail from a doorbell write.
    ///
    /// # Errors
    ///
    /// Returns `Err(BadDoorbell)` if the value is out of range.
    pub fn doorbell_tail(&mut self, value: u32) -> Result<(), BadDoorbell> {
        if value >= self.entries as u32 {
            return Err(BadDoorbell { value });
        }
        self.tail = value as u16;
        Ok(())
    }
}

/// A completion-queue ring with phase-tag semantics.
#[derive(Debug, Clone)]
pub struct CompletionQueue {
    id: QueueId,
    base: PciAddr,
    entries: u16,
    /// Device-side producer index.
    tail: u16,
    /// Host-side consumer index.
    head: u16,
    /// Phase the device writes on the current lap.
    phase: bool,
    /// Phase the host expects on the current lap.
    host_phase: bool,
}

impl CompletionQueue {
    /// Creates a ring of `entries` CQEs at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `entries < 2`.
    pub fn new(id: QueueId, base: PciAddr, entries: u16) -> Self {
        assert!(entries >= 2, "queue needs at least 2 entries");
        CompletionQueue {
            id,
            base,
            entries,
            tail: 0,
            head: 0,
            phase: true,
            host_phase: true,
        }
    }

    /// The queue id.
    pub fn id(&self) -> QueueId {
        self.id
    }

    /// Base address of the ring in its memory domain.
    pub fn base(&self) -> PciAddr {
        self.base
    }

    /// Total ring slots (capacity is one less).
    pub fn entries(&self) -> u16 {
        self.entries
    }

    /// Ring capacity in entries.
    pub fn capacity(&self) -> u16 {
        self.entries - 1
    }

    /// Whether the device-side ring is full (completions would overrun).
    pub fn is_full(&self) -> bool {
        (self.tail + 1) % self.entries == self.head
    }

    /// Device side: posts `cqe` with the correct phase tag.
    ///
    /// # Errors
    ///
    /// Returns `Err(QueueFull)` if the host has not consumed enough
    /// entries.
    pub fn post(&mut self, mem: &mut impl DmaContext, mut cqe: Cqe) -> Result<(), QueueFull> {
        if self.is_full() {
            return Err(QueueFull);
        }
        cqe.phase = self.phase;
        let addr = self.base + self.tail as u64 * CQE_SIZE;
        mem.dma_write(addr, &cqe.to_bytes());
        self.tail = (self.tail + 1) % self.entries;
        if self.tail == 0 {
            self.phase = !self.phase;
        }
        Ok(())
    }

    /// Host side: polls for a new completion by checking the phase tag,
    /// consuming it if present.
    pub fn poll(&mut self, mem: &mut impl DmaContext) -> Option<Cqe> {
        let addr = self.base + self.head as u64 * CQE_SIZE;
        let mut bytes = [0u8; CQE_SIZE as usize];
        mem.dma_read(addr, &mut bytes);
        let cqe = Cqe::from_bytes(&bytes);
        if cqe.phase != self.host_phase {
            return None;
        }
        self.head = (self.head + 1) % self.entries;
        if self.head == 0 {
            self.host_phase = !self.host_phase;
        }
        Some(cqe)
    }

    /// Current host-side head (the value written to the CQ doorbell).
    pub fn head(&self) -> u16 {
        self.head
    }

    /// Acknowledges host consumption from a CQ-head doorbell write
    /// (frees device-side slots).
    ///
    /// # Errors
    ///
    /// Returns `Err(BadDoorbell)` if the value is out of range.
    pub fn doorbell_head(&mut self, value: u32) -> Result<(), BadDoorbell> {
        if value >= self.entries as u32 {
            return Err(BadDoorbell { value });
        }
        // The device-visible head only matters for is_full(); the host's
        // own `head` field tracks its polling position.
        self.head = value as u16;
        Ok(())
    }
}

/// Error: ring has no free slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

impl std::fmt::Display for QueueFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("queue is full")
    }
}

impl std::error::Error for QueueFull {}

/// Error: a fetched SQE did not parse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadSqe {
    /// The command id from the entry's CDW0, to complete it under.
    pub cid: Cid,
    /// The completion status the entry earns.
    pub status: Status,
}

impl std::fmt::Display for BadSqe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed SQE for CID {}: {:?}", self.cid.0, self.status)
    }
}

impl std::error::Error for BadSqe {}

/// Error: a doorbell write carried an out-of-range value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadDoorbell {
    /// The offending value.
    pub value: u32,
}

impl std::fmt::Display for BadDoorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doorbell value {} out of range", self.value)
    }
}

impl std::error::Error for BadDoorbell {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::IoOpcode;
    use crate::types::{Lba, Nsid};

    fn setup(entries: u16) -> (HostMemory, SubmissionQueue, CompletionQueue) {
        let mut mem = HostMemory::new(1 << 20);
        let sq_base = mem.alloc(entries as u64 * SQE_SIZE).unwrap();
        let cq_base = mem.alloc(entries as u64 * CQE_SIZE).unwrap();
        (
            mem,
            SubmissionQueue::new(QueueId(1), sq_base, entries),
            CompletionQueue::new(QueueId(1), cq_base, entries),
        )
    }

    fn sample_sqe(cid: u16) -> Sqe {
        Sqe::io(
            IoOpcode::Write,
            Cid(cid),
            Nsid::new(1).unwrap(),
            Lba(cid as u64 * 8),
            8,
            PciAddr::new(0x10_0000),
            PciAddr::NULL,
        )
    }

    #[test]
    fn sq_push_fetch_round_trip() {
        let (mut mem, mut sq, _) = setup(8);
        for i in 0..5 {
            sq.push(&mut mem, &sample_sqe(i)).unwrap();
        }
        assert_eq!(sq.len(), 5);
        for i in 0..5 {
            let got = sq.fetch(&mut mem).unwrap().unwrap();
            assert_eq!(got.cid, Cid(i));
        }
        assert!(sq.fetch(&mut mem).unwrap().is_none());
    }

    #[test]
    fn unparseable_sqe_error_carries_its_cid() {
        let (mut mem, mut sq, _) = setup(8);
        let mut bytes = sample_sqe(7).to_bytes();
        bytes[0] = 0x7F;
        mem.write(sq.base(), &bytes);
        sq.doorbell_tail(1).unwrap();
        let err = sq.fetch(&mut mem).unwrap_err();
        assert_eq!(
            err,
            BadSqe {
                cid: Cid(7),
                status: Status::InvalidOpcode
            }
        );
        assert!(sq.is_empty(), "the bad slot is consumed");
    }

    #[test]
    fn sq_full_detection() {
        let (mut mem, mut sq, _) = setup(4);
        assert_eq!(sq.capacity(), 3);
        for i in 0..3 {
            sq.push(&mut mem, &sample_sqe(i)).unwrap();
        }
        assert!(sq.is_full());
        assert_eq!(sq.push(&mut mem, &sample_sqe(9)), Err(QueueFull));
        sq.fetch(&mut mem).unwrap();
        sq.push(&mut mem, &sample_sqe(9)).unwrap();
    }

    #[test]
    fn sq_wraps_many_laps() {
        let (mut mem, mut sq, _) = setup(4);
        for lap in 0..20u16 {
            sq.push(&mut mem, &sample_sqe(lap)).unwrap();
            let got = sq.fetch(&mut mem).unwrap().unwrap();
            assert_eq!(got.cid, Cid(lap));
        }
    }

    #[test]
    fn cq_phase_tag_detects_new_entries() {
        let (mut mem, _, mut cq) = setup(4);
        // Nothing posted: poll sees stale phase.
        assert!(cq.poll(&mut mem).is_none());
        cq.post(&mut mem, Cqe::success(Cid(1), QueueId(1), 0, false))
            .unwrap();
        let got = cq.poll(&mut mem).unwrap();
        assert_eq!(got.cid, Cid(1));
        assert!(cq.poll(&mut mem).is_none());
    }

    #[test]
    fn cq_phase_flips_across_wrap() {
        let (mut mem, _, mut cq) = setup(4);
        // Two full laps: 8 entries through a 4-slot ring.
        for i in 0..8u16 {
            cq.post(&mut mem, Cqe::success(Cid(i), QueueId(1), 0, false))
                .unwrap();
            let got = cq.poll(&mut mem).unwrap();
            assert_eq!(got.cid, Cid(i));
            cq.doorbell_head(cq.head() as u32).unwrap();
        }
    }

    #[test]
    fn cq_backpressure_until_doorbell() {
        let (mut mem, _, mut cq) = setup(4);
        for i in 0..3u16 {
            cq.post(&mut mem, Cqe::success(Cid(i), QueueId(1), 0, false))
                .unwrap();
        }
        assert!(cq.is_full());
        let cqe = Cqe::success(Cid(9), QueueId(1), 0, false);
        assert_eq!(cq.post(&mut mem, cqe), Err(QueueFull));
        // Host consumes one and rings the doorbell.
        let _ = cq.poll(&mut mem).unwrap();
        cq.doorbell_head(1).unwrap();
        cq.post(&mut mem, cqe).unwrap();
    }

    #[test]
    fn doorbell_layout_round_trip() {
        for qid in [QueueId(0), QueueId(1), QueueId(31)] {
            let sq_off = DoorbellLayout::sq_tail_offset(qid);
            let cq_off = DoorbellLayout::cq_head_offset(qid);
            assert_eq!(DoorbellLayout::decode(sq_off), Some((qid, false)));
            assert_eq!(DoorbellLayout::decode(cq_off), Some((qid, true)));
        }
        assert_eq!(DoorbellLayout::decode(0x0ffc), None);
        assert_eq!(DoorbellLayout::decode(0x1002), None);
    }

    #[test]
    fn bad_doorbell_values_rejected() {
        let (_, mut sq, mut cq) = setup(4);
        assert!(sq.doorbell_tail(3).is_ok());
        assert_eq!(sq.doorbell_tail(4), Err(BadDoorbell { value: 4 }));
        assert_eq!(cq.doorbell_head(9), Err(BadDoorbell { value: 9 }));
    }

    #[test]
    fn admin_queue_parses_admin_opcodes() {
        let mut mem = HostMemory::new(1 << 20);
        let base = mem.alloc(8 * SQE_SIZE).unwrap();
        let mut adminq = SubmissionQueue::new(QueueId::ADMIN, base, 8);
        let sqe = Sqe::admin(
            crate::command::AdminOpcode::Identify,
            Cid(1),
            1,
            PciAddr::NULL,
        );
        adminq.push(&mut mem, &sqe).unwrap();
        let got = adminq.fetch(&mut mem).unwrap().unwrap();
        assert_eq!(got, sqe);
    }
}
