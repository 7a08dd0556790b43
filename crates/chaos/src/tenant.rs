//! The chaos tenant: a churning workload that tracks, per block, which
//! write version the host has been *acknowledged* for — the ground
//! truth the read-back oracle compares devices against.
//!
//! The version state machine per LBA:
//!
//! * issue write of version `v` → `pending = Some(v)` (at most one
//!   write outstanding per LBA, so torn/aborted writes never leave the
//!   expected content ambiguous between more than two versions);
//! * ack `Success` → `expect = Some(v)` (the device must now return
//!   exactly version `v` forever, crash or no crash);
//! * ack failure (abort, device error) → `expect = None` (contents
//!   legitimately unknown: old version, new version, or a torn mix —
//!   the oracle skips the byte compare but still demands the
//!   *completion* arrived exactly once).

use bm_nvme::types::Lba;
use bm_sim::{SimDuration, SimTime};
use bm_testbed::{BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, Testbed};
use std::collections::{BTreeMap, BTreeSet};

/// Distinct byte patterns per block; writes rotate through them.
pub(crate) const VERSIONS: usize = 4;
/// Churn cadence per tenant.
const CHURN_STEP_US: u64 = 200;
/// Block size the tenants use.
const BLOCK: usize = 4096;

/// The deterministic byte pattern for version `version` of block `lba`
/// of tenant `dev` — distinct per (tenant, block, version) so
/// misdirected or stale I/O cannot pass the compare.
pub(crate) fn pattern(dev: usize, lba: u64, version: usize) -> Vec<u8> {
    (0..BLOCK as u64)
        .map(|j| ((dev as u64 * 131 + lba * 7 + version as u64 * 17 + j) % 241) as u8)
        .collect()
}

/// Outcome of the drain-phase verify read for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VerifyOutcome {
    /// Not issued (a write was still pending at verify time).
    NotIssued,
    /// Issued but never completed (the stuck-command oracle fires).
    Pending,
    /// Completed successfully — contents are in the verify buffer.
    Ok,
    /// Completed with an error (e.g. the SSD died and never came
    /// back); the byte compare is skipped.
    Failed,
}

/// Per-block version bookkeeping.
#[derive(Debug)]
pub(crate) struct LbaState {
    /// Device-relative block address.
    pub lba: Lba,
    /// One pre-filled write buffer per version.
    pub wbufs: Vec<BufferId>,
    /// Drain-phase verify reads land here.
    pub vbuf: BufferId,
    /// Version the host was last *acked* for (`None` = unknown).
    pub expect: Option<usize>,
    /// Version of the one outstanding write, if any.
    pub pending: Option<usize>,
    /// Monotone issue counter; `seq % VERSIONS` picks the next version.
    pub seq: usize,
}

/// What the live client records for the post-run oracles.
#[derive(Debug, Default)]
pub(crate) struct TenantShared {
    /// I/Os issued.
    pub issued: u64,
    /// Tags seen exactly once so far.
    pub seen: BTreeSet<u64>,
    /// Tags delivered more than once (exactly-once oracle).
    pub duplicates: Vec<u64>,
    /// Non-success completions (informational, not a violation).
    pub failed_io: u64,
    /// Per-block version state.
    pub lbas: Vec<LbaState>,
    /// Per-block verify outcome.
    pub verify: Vec<VerifyOutcome>,
    /// Write tag → (lba index, version).
    pub write_tags: BTreeMap<u64, (usize, usize)>,
    /// Verify-read tag → lba index.
    pub verify_tags: BTreeMap<u64, usize>,
}

/// The workload half: issues churn and the final verify reads.
pub(crate) struct ChaosTenant {
    dev: DeviceId,
    scratch: BufferId,
    churn_end: SimTime,
    verify_at: SimTime,
    cursor: usize,
    next_tag: u64,
    /// Read back after the run through `World::client_as`.
    pub(crate) shared: TenantShared,
}

impl ChaosTenant {
    /// Registers buffers (write versions pre-filled with their
    /// patterns) and builds the client.
    pub(crate) fn new(
        tb: &mut Testbed,
        dev: DeviceId,
        n_lbas: usize,
        churn_end: SimTime,
        verify_at: SimTime,
    ) -> Self {
        let d = dev.0;
        let mut lbas = Vec::with_capacity(n_lbas);
        for i in 0..n_lbas {
            let lba = Lba(1_000 + i as u64 * 513);
            let mut wbufs = Vec::with_capacity(VERSIONS);
            for v in 0..VERSIONS {
                let b = tb.register_buffer(BLOCK as u64);
                tb.host_mem.write(tb.buffer_addr(b), &pattern(d, lba.0, v));
                wbufs.push(b);
            }
            let vbuf = tb.register_buffer(BLOCK as u64);
            lbas.push(LbaState {
                lba,
                wbufs,
                vbuf,
                expect: None,
                pending: None,
                seq: 0,
            });
        }
        let scratch = tb.register_buffer(BLOCK as u64);
        ChaosTenant {
            dev,
            scratch,
            churn_end,
            verify_at,
            cursor: 0,
            next_tag: 0,
            shared: TenantShared {
                verify: vec![VerifyOutcome::NotIssued; n_lbas],
                lbas,
                ..TenantShared::default()
            },
        }
    }

    /// Next write for block `i`, or `None` while one is outstanding
    /// (at most one in-flight write per block keeps the expected
    /// content unambiguous).
    fn write_req(&mut self, i: usize) -> Option<IoRequest> {
        let s = &mut self.shared;
        if s.lbas[i].pending.is_some() {
            return None;
        }
        let v = s.lbas[i].seq % VERSIONS;
        s.lbas[i].seq += 1;
        s.lbas[i].pending = Some(v);
        self.next_tag += 1;
        s.issued += 1;
        s.write_tags.insert(self.next_tag, (i, v));
        Some(IoRequest {
            dev: self.dev,
            op: IoOp::Write,
            lba: s.lbas[i].lba,
            blocks: 1,
            buf: s.lbas[i].wbufs[v],
            tag: self.next_tag,
        })
    }

    /// A read of block `i` into `buf`.
    fn read_req(&mut self, i: usize, buf: BufferId) -> IoRequest {
        self.next_tag += 1;
        self.shared.issued += 1;
        IoRequest {
            dev: self.dev,
            op: IoOp::Read,
            lba: self.shared.lbas[i].lba,
            blocks: 1,
            buf,
            tag: self.next_tag,
        }
    }
}

impl Client for ChaosTenant {
    fn start(&mut self, now: SimTime) -> ClientOutput {
        let n = self.shared.lbas.len();
        let requests = (0..n).filter_map(|i| self.write_req(i)).collect();
        ClientOutput {
            requests,
            next_timer: Some(now + SimDuration::from_us(CHURN_STEP_US)),
        }
    }

    fn on_completion(&mut self, _now: SimTime, c: Completion) -> ClientOutput {
        let s = &mut self.shared;
        if !s.seen.insert(c.tag) {
            s.duplicates.push(c.tag);
            return ClientOutput::idle();
        }
        if !c.status.is_success() {
            s.failed_io += 1;
        }
        if let Some((i, v)) = s.write_tags.get(&c.tag).copied() {
            s.lbas[i].pending = None;
            s.lbas[i].expect = c.status.is_success().then_some(v);
        } else if let Some(i) = s.verify_tags.get(&c.tag).copied() {
            s.verify[i] = if c.status.is_success() {
                VerifyOutcome::Ok
            } else {
                VerifyOutcome::Failed
            };
        }
        ClientOutput::idle()
    }

    fn on_timer(&mut self, now: SimTime) -> ClientOutput {
        let n = self.shared.lbas.len();
        if now >= self.verify_at {
            // Drain phase: read back every block whose writes have all
            // resolved. A block with a write still pending here is left
            // unverified — if that write is genuinely stuck, the
            // exactly-once oracle reports it.
            let mut requests = Vec::new();
            for i in 0..n {
                if self.shared.lbas[i].pending.is_none() {
                    let buf = self.shared.lbas[i].vbuf;
                    let req = self.read_req(i, buf);
                    self.shared.verify_tags.insert(req.tag, i);
                    self.shared.verify[i] = VerifyOutcome::Pending;
                    requests.push(req);
                }
            }
            return ClientOutput {
                requests,
                next_timer: None,
            };
        }
        if now < self.churn_end {
            self.cursor += 1;
            let i = self.cursor % n;
            let j = (self.cursor * 3 + 1) % n;
            let mut requests = Vec::new();
            if let Some(w) = self.write_req(i) {
                requests.push(w);
            }
            let scratch = self.scratch;
            requests.push(self.read_req(j, scratch));
            ClientOutput {
                requests,
                next_timer: Some(now + SimDuration::from_us(CHURN_STEP_US)),
            }
        } else {
            ClientOutput {
                requests: Vec::new(),
                next_timer: Some(self.verify_at),
            }
        }
    }
}
