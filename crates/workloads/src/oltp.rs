//! A miniature page-based OLTP engine — the MySQL stand-in.
//!
//! The paper drives MySQL with TPC-C and Sysbench (§V-E). As an I/O
//! workload, an InnoDB-style engine is: *buffer-pool misses* (random
//! 16 KiB page reads), *redo-log commits* (small sequential writes,
//! fsync'd), and *checkpoint page writebacks* (random 16 KiB writes).
//! Each transaction executes those steps in order on one of `threads`
//! closed-loop workers, with a think time for the CPU part.
//!
//! With the paper's 32 TPC-C threads the engine's offered IOPS exceeds
//! every scheme's completion ceiling, so normalized throughput degrades
//! exactly by the ceilings' ratio — which is how SPDK vhost ends up
//! 13.4 % behind (Fig. 13a) while BM-Store stays near VFIO.

use bm_nvme::types::Lba;
use bm_sim::stats::LatencyHistogram;
use bm_sim::{SimDuration, SimRng, SimTime};
use bm_testbed::{BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, Testbed};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

/// What one transaction does to storage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxnProfile {
    /// Blocks per database page (4 = InnoDB's 16 KiB default; 1 = a
    /// 4 KiB page size, used when the working set is index-heavy).
    pub page_blocks: u32,
    /// Buffer-pool misses per transaction (random page reads).
    pub page_reads: u32,
    /// Redo-log commits per transaction (sequential writes + fsync).
    pub log_writes: u32,
    /// Bytes per log write.
    pub log_bytes: u64,
    /// Checkpoint page writebacks per transaction (random 16 KiB
    /// writes, amortized).
    pub page_writes: u32,
    /// CPU think time per transaction.
    pub think: SimDuration,
}

/// A weighted mix of transaction types (TPC-C runs five).
#[derive(Debug, Clone, PartialEq)]
pub struct TxnMix {
    entries: Vec<(f64, TxnProfile)>,
}

impl TxnMix {
    /// A mix with a single transaction type.
    pub fn single(profile: TxnProfile) -> TxnMix {
        TxnMix {
            entries: vec![(1.0, profile)],
        }
    }

    /// A weighted mix (weights need not be normalized).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or all weights are zero.
    pub fn weighted(entries: Vec<(f64, TxnProfile)>) -> TxnMix {
        assert!(
            !entries.is_empty() && entries.iter().map(|e| e.0).sum::<f64>() > 0.0,
            "mix needs positive weights"
        );
        TxnMix { entries }
    }

    /// Samples one transaction type.
    pub fn sample(&self, rng: &mut SimRng) -> TxnProfile {
        let weights: Vec<f64> = self.entries.iter().map(|e| e.0).collect();
        self.entries[rng.weighted_index(&weights)].1
    }

    /// The weighted-average I/O count per transaction.
    pub fn mean_ios(&self) -> f64 {
        let total: f64 = self.entries.iter().map(|e| e.0).sum();
        self.entries
            .iter()
            .map(|(w, p)| w * (p.page_reads + p.log_writes + p.page_writes) as f64)
            .sum::<f64>()
            / total
    }
}

/// An OLTP benchmark specification.
#[derive(Debug, Clone, PartialEq)]
pub struct OltpSpec {
    /// Concurrent worker threads.
    pub threads: u32,
    /// The transaction mix.
    pub mix: TxnMix,
    /// Warm-up excluded from statistics.
    pub ramp: SimDuration,
    /// Measured window.
    pub runtime: SimDuration,
}

impl OltpSpec {
    /// The paper's TPC-C setup: 100 warehouses, 32 threads (§V-E),
    /// with the standard five-transaction mix (45 % NewOrder, 43 %
    /// Payment, 4 % each OrderStatus/Delivery/StockLevel). Profiles use
    /// a 4 KiB-page build: the miss stream is index-dominated, so pages
    /// are small and plentiful — deep enough to saturate each scheme's
    /// completion ceiling, which is what separates them (Fig. 13a).
    pub fn tpcc() -> OltpSpec {
        let t = |reads: u32, logs: u32, writes: u32, think_us: u64| TxnProfile {
            page_blocks: 1,
            page_reads: reads,
            log_writes: logs,
            log_bytes: 16 * 1024,
            page_writes: writes,
            think: SimDuration::from_us(think_us),
        };
        OltpSpec {
            threads: 32,
            mix: TxnMix::weighted(vec![
                (0.45, t(20, 2, 3, 35)), // NewOrder
                (0.43, t(6, 2, 2, 20)),  // Payment
                (0.04, t(12, 0, 0, 25)), // OrderStatus
                (0.04, t(40, 4, 6, 60)), // Delivery (batched)
                (0.04, t(60, 0, 0, 40)), // StockLevel
            ]),
            ramp: SimDuration::from_ms(100),
            runtime: SimDuration::from_ms(900),
        }
    }

    /// Sysbench `oltp_read_write`: read-heavy point/range selects with
    /// one commit — lighter I/O per transaction, moderate concurrency.
    pub fn sysbench() -> OltpSpec {
        OltpSpec {
            threads: 16,
            mix: TxnMix::single(TxnProfile {
                page_blocks: 4,
                page_reads: 5,
                log_writes: 1,
                log_bytes: 8 * 1024,
                page_writes: 1,
                think: SimDuration::from_us(90),
            }),
            ramp: SimDuration::from_ms(100),
            runtime: SimDuration::from_ms(900),
        }
    }

    /// Scales the measurement windows.
    pub fn scaled(mut self, factor: f64) -> OltpSpec {
        self.ramp = SimDuration::from_secs_f64(self.ramp.as_secs_f64() * factor);
        self.runtime = SimDuration::from_secs_f64(self.runtime.as_secs_f64() * factor);
        self
    }
}

/// Results of an OLTP run.
#[derive(Debug, Default)]
pub struct OltpStats {
    /// Transactions committed in the measured window: every I/O
    /// step completed without error.
    pub transactions: u64,
    /// Queries executed (transactions × mix factor, as Sysbench counts).
    pub queries: u64,
    /// Latency histogram of the committed transactions.
    pub latency: LatencyHistogram,
    /// Transactions in the measured window with a failed I/O step.
    /// They count here only, not as transactions, queries or latency.
    pub failed: u64,
}

impl OltpStats {
    /// Transactions per second over `window`.
    pub fn tps(&self, window: SimDuration) -> f64 {
        self.transactions as f64 / window.as_secs_f64()
    }
}

/// Shared handle to the stats sink.
pub type SharedOltpStats = Rc<RefCell<OltpStats>>;

/// Queries counted per transaction (the Sysbench read_write mix runs
/// 20 queries per transaction).
const QUERIES_PER_TXN: u64 = 20;

#[derive(Debug, Clone, Copy)]
enum Step {
    PageRead,
    LogWrite,
    PageWrite,
}

struct ThreadState {
    steps: Vec<Step>,
    next_step: usize,
    txn_started: SimTime,
    profile: TxnProfile,
    /// Whether a step of the current transaction failed. The remaining
    /// steps still run, so the I/O stream does not depend on failures.
    failed: bool,
}

/// The OLTP client: `threads` closed-loop workers on one device.
pub struct OltpClient {
    dev: DeviceId,
    spec: OltpSpec,
    threads: Vec<ThreadState>,
    read_bufs: Vec<BufferId>,
    write_bufs: Vec<BufferId>,
    log_buf: BufferId,
    log_cursor: u64,
    log_region: (u64, u64),
    data_region: (u64, u64),
    rng: SimRng,
    stats: SharedOltpStats,
    sleeping: BinaryHeap<Reverse<(u64, usize)>>,
    measure_start: SimTime,
    measure_end: SimTime,
}

impl OltpClient {
    /// Creates the client, registering its buffers on `tb`.
    pub fn new(
        tb: &mut Testbed,
        dev: DeviceId,
        spec: OltpSpec,
        seed: u64,
        stats: SharedOltpStats,
    ) -> OltpClient {
        let max_page_bytes = spec
            .mix
            .entries
            .iter()
            .map(|(_, p)| p.page_blocks as u64 * 4096)
            .fold(4096, u64::max);
        let max_log_bytes = spec
            .mix
            .entries
            .iter()
            .map(|(_, p)| p.log_bytes)
            .fold(4096, u64::max);
        let read_bufs = (0..spec.threads)
            .map(|_| tb.register_buffer(max_page_bytes))
            .collect();
        let write_bufs = (0..spec.threads)
            .map(|_| tb.register_buffer(max_page_bytes))
            .collect();
        let log_buf = tb.register_buffer(max_log_bytes);
        let blocks = tb.device_blocks(dev);
        // Layout: the last 2 GiB of the device is the redo log, the
        // rest is table space.
        let log_blocks = ((2u64 << 30) / 4096).min(blocks / 4);
        let data_blocks = blocks.saturating_sub(log_blocks).max(1024);
        let mut seed_rng = SimRng::seed_from(seed);
        let threads = (0..spec.threads)
            .map(|_| ThreadState {
                steps: Vec::new(),
                next_step: 0,
                txn_started: SimTime::ZERO,
                profile: spec.mix.sample(&mut seed_rng),
                failed: false,
            })
            .collect();
        let measure_start = SimTime::ZERO + spec.ramp;
        let measure_end = measure_start + spec.runtime;
        OltpClient {
            dev,
            spec,
            threads,
            read_bufs,
            write_bufs,
            log_buf,
            log_cursor: 0,
            log_region: (data_blocks, log_blocks),
            data_region: (0, data_blocks),
            rng: SimRng::seed_from(seed),
            stats,
            sleeping: BinaryHeap::new(),
            measure_start,
            measure_end,
        }
    }

    fn begin_txn(&mut self, thread: usize, now: SimTime) -> IoRequest {
        let p = self.spec.mix.sample(&mut self.rng);
        self.threads[thread].profile = p;
        let mut steps = Vec::with_capacity((p.page_reads + p.log_writes + p.page_writes) as usize);
        for _ in 0..p.page_reads {
            steps.push(Step::PageRead);
        }
        for _ in 0..p.log_writes {
            steps.push(Step::LogWrite);
        }
        for _ in 0..p.page_writes {
            steps.push(Step::PageWrite);
        }
        let t = &mut self.threads[thread];
        t.steps = steps;
        t.next_step = 0;
        t.txn_started = now;
        t.failed = false;
        self.issue_step(thread)
    }

    fn issue_step(&mut self, thread: usize) -> IoRequest {
        let step = self.threads[thread].steps[self.threads[thread].next_step];
        let profile = self.threads[thread].profile;
        let (op, lba, blocks, buf) = match step {
            Step::PageRead => {
                let pb = profile.page_blocks;
                let page = self.rng.below(self.data_region.1 / pb as u64);
                (
                    IoOp::Read,
                    self.data_region.0 + page * pb as u64,
                    pb,
                    self.read_bufs[thread],
                )
            }
            Step::PageWrite => {
                let pb = profile.page_blocks;
                let page = self.rng.below(self.data_region.1 / pb as u64);
                (
                    IoOp::Write,
                    self.data_region.0 + page * pb as u64,
                    pb,
                    self.write_bufs[thread],
                )
            }
            Step::LogWrite => {
                let blocks = (profile.log_bytes / 4096).max(1) as u32;
                let span = self.log_region.1.saturating_sub(blocks as u64).max(1);
                let lba = self.log_region.0 + (self.log_cursor % span);
                self.log_cursor += blocks as u64;
                (IoOp::Write, lba, blocks, self.log_buf)
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

    fn wake_due(&mut self, now: SimTime) -> ClientOutput {
        let mut out = ClientOutput::idle();
        while let Some(&Reverse((at, thread))) = self.sleeping.peek() {
            if at > now.as_nanos() {
                out.next_timer = Some(SimTime::from_nanos(at));
                break;
            }
            self.sleeping.pop();
            let req = self.begin_txn(thread, now);
            out.requests.push(req);
        }
        out
    }
}

impl Client for OltpClient {
    fn start(&mut self, now: SimTime) -> ClientOutput {
        let reqs = (0..self.spec.threads as usize)
            .map(|t| self.begin_txn(t, now))
            .collect();
        ClientOutput::submit(reqs)
    }

    fn on_completion(&mut self, now: SimTime, c: Completion) -> ClientOutput {
        let thread = c.tag as usize;
        let t = &mut self.threads[thread];
        t.failed |= !c.status.is_success();
        t.next_step += 1;
        if t.next_step < t.steps.len() {
            return ClientOutput::submit(vec![self.issue_step(thread)]);
        }
        // Commit, or count the failure.
        let (started, failed) = (t.txn_started, t.failed);
        if now >= self.measure_start && now < self.measure_end {
            let mut stats = self.stats.borrow_mut();
            if failed {
                stats.failed += 1;
            } else {
                stats.transactions += 1;
                stats.queries += QUERIES_PER_TXN;
                stats.latency.record(now.saturating_since(started));
            }
        }
        if now >= self.measure_end {
            return ClientOutput::idle();
        }
        // Think, then start the next transaction.
        let think = self.rng.jitter(self.threads[thread].profile.think, 0.3);
        self.sleeping
            .push(Reverse(((now + think).as_nanos(), thread)));
        self.wake_due(now)
    }

    fn on_timer(&mut self, now: SimTime) -> ClientOutput {
        self.wake_due(now)
    }
}

/// Runs `spec` against device 0 of a testbed built from `cfg`.
pub fn run_oltp(cfg: bm_testbed::TestbedConfig, spec: OltpSpec) -> (OltpStats, bm_testbed::World) {
    let mut tb = Testbed::new(cfg);
    let stats: SharedOltpStats = Rc::new(RefCell::new(OltpStats::default()));
    let client = OltpClient::new(&mut tb, DeviceId(0), spec, 0x0D7B, Rc::clone(&stats));
    let mut world = bm_testbed::World::new(tb);
    world.add_client(Box::new(client));
    let world = world.run(None);
    let stats = std::mem::take(&mut *stats.borrow_mut());
    (stats, world)
}
