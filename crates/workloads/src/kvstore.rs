//! A miniature LSM key-value store — the RocksDB stand-in.
//!
//! The paper drives RocksDB with YCSB (§V-E). As an I/O workload an LSM
//! tree is: *WAL appends* on every write (small sequential writes),
//! *point reads* that touch one or two SST blocks depending on bloom
//! filters and level depth, and background *flush/compaction* streams
//! (large sequential reads and writes) that kick in every time the
//! memtable fills. The client runs `threads` closed-loop workers for
//! the foreground ops plus one background worker that executes the
//! flush/compaction queue with large (1 MiB) I/Os.

use crate::ycsb::{YcsbOp, YcsbSpec};
use bm_nvme::types::Lba;
use bm_sim::stats::LatencyHistogram;
use bm_sim::{SimDuration, SimRng, SimTime};
use bm_testbed::{BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, Testbed};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// LSM engine tuning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LsmConfig {
    /// Value size in bytes (YCSB default: 1 KiB records).
    pub value_bytes: u64,
    /// Memtable size; a flush triggers when this many bytes of writes
    /// accumulate.
    pub memtable_bytes: u64,
    /// SST data-block size (one point-read I/O).
    pub block_bytes: u64,
    /// Probability a point read is served from one block (bloom filters
    /// short-circuit deeper levels).
    pub single_block_read_prob: f64,
    /// Write amplification of compaction: bytes rewritten per flushed
    /// byte (reads the same amount).
    pub compaction_write_amp: f64,
    /// I/O size of background flush/compaction requests.
    pub background_io_bytes: u64,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            value_bytes: 1024,
            memtable_bytes: 64 << 20,
            block_bytes: 4096,
            single_block_read_prob: 0.9,
            compaction_write_amp: 3.0,
            background_io_bytes: 1 << 20,
        }
    }
}

/// Results of a YCSB-over-LSM run.
#[derive(Debug, Default)]
pub struct KvStats {
    /// Foreground operations completed in the measured window: every
    /// I/O step completed without error.
    pub ops: u64,
    /// Reads among them.
    pub reads: u64,
    /// Writes among them.
    pub writes: u64,
    /// Latency histogram of the completed operations.
    pub latency: LatencyHistogram,
    /// Foreground operations in the measured window with a failed I/O
    /// step. They count here only, not in `ops`, `reads`, `writes` or
    /// the latency.
    pub failed: u64,
    /// Flushes triggered.
    pub flushes: u64,
    /// Background bytes moved (flush + compaction).
    pub background_bytes: u64,
}

impl KvStats {
    /// Operations per second over `window`.
    pub fn ops_per_sec(&self, window: SimDuration) -> f64 {
        self.ops as f64 / window.as_secs_f64()
    }
}

/// Shared handle to the stats sink.
pub type SharedKvStats = Rc<RefCell<KvStats>>;

#[derive(Debug, Clone, Copy)]
enum FgStep {
    WalAppend,
    BlockRead,
}

struct FgThread {
    steps: Vec<FgStep>,
    next_step: usize,
    started: SimTime,
    is_read: bool,
    /// Whether a step of the current operation failed. The remaining
    /// steps still run, so the I/O stream does not depend on failures.
    failed: bool,
}

#[derive(Debug, Clone, Copy)]
struct BgIo {
    op: IoOp,
    lba: u64,
    blocks: u32,
}

/// Tag space: background worker uses the top bit.
const BG_TAG: u64 = 1 << 63;

/// The YCSB-over-LSM client.
pub struct KvClient {
    dev: DeviceId,
    spec: YcsbSpec,
    lsm: LsmConfig,
    threads: Vec<FgThread>,
    read_bufs: Vec<BufferId>,
    wal_buf: BufferId,
    bg_buf: BufferId,
    rng: SimRng,
    stats: SharedKvStats,
    /// Bytes in the memtable since the last flush.
    memtable_fill: u64,
    /// Pending background I/Os (flush + compaction streams).
    bg_queue: VecDeque<BgIo>,
    bg_inflight: bool,
    wal_cursor: u64,
    sst_cursor: u64,
    wal_region: (u64, u64),
    sst_region: (u64, u64),
    measure_start: SimTime,
    measure_end: SimTime,
}

impl KvClient {
    /// Creates the client, registering buffers on `tb`.
    pub fn new(
        tb: &mut Testbed,
        dev: DeviceId,
        spec: YcsbSpec,
        lsm: LsmConfig,
        seed: u64,
        stats: SharedKvStats,
    ) -> KvClient {
        let read_bufs = (0..spec.threads)
            .map(|_| tb.register_buffer(lsm.block_bytes.max(4096)))
            .collect();
        let wal_buf = tb.register_buffer(4096);
        let bg_buf = tb.register_buffer(lsm.background_io_bytes);
        let blocks = tb.device_blocks(dev);
        let wal_blocks = ((1u64 << 30) / 4096).min(blocks / 4);
        let sst_blocks = blocks.saturating_sub(wal_blocks).max(1024);
        KvClient {
            dev,
            spec,
            lsm,
            threads: (0..spec.threads)
                .map(|_| FgThread {
                    steps: Vec::new(),
                    next_step: 0,
                    started: SimTime::ZERO,
                    is_read: false,
                    failed: false,
                })
                .collect(),
            read_bufs,
            wal_buf,
            bg_buf,
            rng: SimRng::seed_from(seed),
            stats,
            memtable_fill: 0,
            bg_queue: VecDeque::new(),
            bg_inflight: false,
            wal_cursor: 0,
            sst_cursor: 0,
            wal_region: (sst_blocks, wal_blocks),
            sst_region: (0, sst_blocks),
            measure_start: SimTime::ZERO + spec.ramp,
            measure_end: SimTime::ZERO + spec.ramp + spec.runtime,
        }
    }

    fn begin_op(&mut self, thread: usize, now: SimTime) -> IoRequest {
        let op = self.spec.next_op(&mut self.rng);
        let steps = match op {
            YcsbOp::Read => {
                let blocks = if self.rng.chance(self.lsm.single_block_read_prob) {
                    1
                } else {
                    2
                };
                vec![FgStep::BlockRead; blocks]
            }
            YcsbOp::Update | YcsbOp::Insert => {
                self.account_write();
                vec![FgStep::WalAppend]
            }
            YcsbOp::ReadModifyWrite => {
                self.account_write();
                vec![FgStep::BlockRead, FgStep::WalAppend]
            }
        };
        let t = &mut self.threads[thread];
        t.is_read = matches!(op, YcsbOp::Read);
        t.steps = steps;
        t.next_step = 0;
        t.started = now;
        t.failed = false;
        self.issue_fg(thread)
    }

    fn account_write(&mut self) {
        self.memtable_fill += self.lsm.value_bytes;
        if self.memtable_fill >= self.lsm.memtable_bytes {
            self.memtable_fill = 0;
            self.enqueue_flush();
        }
    }

    /// Queues the flush of one memtable plus its compaction echo.
    fn enqueue_flush(&mut self) {
        self.stats.borrow_mut().flushes += 1;
        let io_blocks = (self.lsm.background_io_bytes / 4096) as u32;
        let flush_ios = self.lsm.memtable_bytes / self.lsm.background_io_bytes;
        let compact_ios = (flush_ios as f64 * self.lsm.compaction_write_amp).round() as u64;
        let span = self.sst_region.1.saturating_sub(io_blocks as u64).max(1);
        for _ in 0..flush_ios {
            let lba = self.sst_region.0 + (self.sst_cursor % span);
            self.sst_cursor += io_blocks as u64;
            self.bg_queue.push_back(BgIo {
                op: IoOp::Write,
                lba,
                blocks: io_blocks,
            });
        }
        for i in 0..compact_ios {
            // Compaction reads existing SSTs and writes merged ones.
            let lba = self.sst_region.0 + (self.sst_cursor % span);
            self.sst_cursor += io_blocks as u64;
            self.bg_queue.push_back(BgIo {
                op: if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                lba,
                blocks: io_blocks,
            });
        }
    }

    fn issue_fg(&mut self, thread: usize) -> IoRequest {
        let step = self.threads[thread].steps[self.threads[thread].next_step];
        let (op, lba, blocks, buf) = match step {
            FgStep::BlockRead => {
                let span = self.sst_region.1.max(1);
                (
                    IoOp::Read,
                    self.sst_region.0 + self.rng.below(span),
                    1,
                    self.read_bufs[thread],
                )
            }
            FgStep::WalAppend => {
                let span = self.wal_region.1.saturating_sub(1).max(1);
                let lba = self.wal_region.0 + (self.wal_cursor % span);
                self.wal_cursor += 1;
                (IoOp::Write, lba, 1, self.wal_buf)
            }
        };
        IoRequest {
            dev: self.dev,
            op,
            lba: Lba(lba),
            blocks,
            buf,
            tag: thread as u64,
        }
    }

    fn pump_background(&mut self) -> Option<IoRequest> {
        if self.bg_inflight {
            return None;
        }
        let io = self.bg_queue.pop_front()?;
        self.bg_inflight = true;
        Some(IoRequest {
            dev: self.dev,
            op: io.op,
            lba: Lba(io.lba),
            blocks: io.blocks,
            buf: self.bg_buf,
            tag: BG_TAG,
        })
    }
}

impl Client for KvClient {
    fn start(&mut self, now: SimTime) -> ClientOutput {
        let reqs = (0..self.spec.threads as usize)
            .map(|t| self.begin_op(t, now))
            .collect();
        ClientOutput::submit(reqs)
    }

    fn on_completion(&mut self, now: SimTime, c: Completion) -> ClientOutput {
        let mut out = Vec::new();
        if c.tag & BG_TAG != 0 {
            self.bg_inflight = false;
            // Only background I/O that succeeded moved its bytes.
            if c.status.is_success() {
                self.stats.borrow_mut().background_bytes += c.bytes;
            }
            if now < self.measure_end {
                out.extend(self.pump_background());
            }
            return ClientOutput::submit(out);
        }
        let thread = c.tag as usize;
        let t = &mut self.threads[thread];
        t.failed |= !c.status.is_success();
        t.next_step += 1;
        if t.next_step < t.steps.len() {
            out.push(self.issue_fg(thread));
            return ClientOutput::submit(out);
        }
        // Operation complete, or failed.
        if now >= self.measure_start && now < self.measure_end {
            let mut stats = self.stats.borrow_mut();
            if t.failed {
                stats.failed += 1;
            } else {
                stats.ops += 1;
                if t.is_read {
                    stats.reads += 1;
                } else {
                    stats.writes += 1;
                }
                stats.latency.record(now.saturating_since(t.started));
            }
        }
        if now < self.measure_end {
            out.push(self.begin_op(thread, now));
            out.extend(self.pump_background());
        }
        ClientOutput::submit(out)
    }
}

/// Runs `spec` against device 0 of a testbed built from `cfg`.
pub fn run_ycsb(
    cfg: bm_testbed::TestbedConfig,
    spec: YcsbSpec,
    lsm: LsmConfig,
) -> (KvStats, bm_testbed::World) {
    let mut tb = Testbed::new(cfg);
    let stats: SharedKvStats = Rc::new(RefCell::new(KvStats::default()));
    let client = KvClient::new(&mut tb, DeviceId(0), spec, lsm, 0x4C5B, Rc::clone(&stats));
    let mut world = bm_testbed::World::new(tb);
    world.add_client(Box::new(client));
    let world = world.run(None);
    let stats = std::mem::take(&mut *stats.borrow_mut());
    (stats, world)
}
