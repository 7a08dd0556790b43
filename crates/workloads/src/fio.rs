//! The fio-like workload generator.
//!
//! Mirrors the paper's Table IV test cases: random/sequential read and
//! write at a block size, queue depth, and job count, driven closed-loop
//! (libaio-style: each completed I/O is immediately replaced). Each job
//! is one [`Client`]; statistics are shared out through an
//! `Rc<RefCell<…>>` so the harness can read them after the run.

use bm_nvme::types::Lba;
use bm_sim::stats::IoStats;
use bm_sim::{SimDuration, SimRng, SimTime};
use bm_testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, Testbed, World,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Access pattern of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RwMode {
    /// Uniformly random reads.
    RandRead,
    /// Uniformly random writes.
    RandWrite,
    /// Sequential reads (per-job region).
    SeqRead,
    /// Sequential writes (per-job region).
    SeqWrite,
    /// Mixed random: this fraction of reads, rest writes.
    RandRw {
        /// Fraction of reads in `[0, 1]`.
        read_frac: f64,
    },
}

impl RwMode {
    /// Whether the mode is sequential.
    pub fn is_sequential(self) -> bool {
        matches!(self, RwMode::SeqRead | RwMode::SeqWrite)
    }
}

/// One fio test-case specification (one line of Table IV).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FioSpec {
    /// Access pattern.
    pub mode: RwMode,
    /// Block size in bytes.
    pub block_bytes: u64,
    /// Outstanding I/Os per job.
    pub iodepth: u32,
    /// Parallel jobs per device.
    pub numjobs: u32,
    /// Warm-up period excluded from statistics.
    pub ramp: SimDuration,
    /// Measured period.
    pub runtime: SimDuration,
}

impl FioSpec {
    fn case(mode: RwMode, block_bytes: u64, iodepth: u32) -> FioSpec {
        // Large sequential cases have ~40–90 ms per-I/O latency at deep
        // queues; give them enough turnarounds to measure steady state.
        let deep_large = block_bytes >= 64 * 1024 && iodepth >= 64;
        FioSpec {
            mode,
            block_bytes,
            iodepth,
            numjobs: 4,
            ramp: if deep_large {
                SimDuration::from_ms(400)
            } else {
                SimDuration::from_ms(50)
            },
            runtime: if deep_large {
                SimDuration::from_ms(2_500)
            } else {
                SimDuration::from_ms(400)
            },
        }
    }

    /// Table IV `rand-r-1`: 4K random read, QD1, 4 jobs.
    pub fn rand_r_1() -> FioSpec {
        Self::case(RwMode::RandRead, 4096, 1)
    }

    /// Table IV `rand-r-128`.
    pub fn rand_r_128() -> FioSpec {
        Self::case(RwMode::RandRead, 4096, 128)
    }

    /// Table IV `rand-w-1`.
    pub fn rand_w_1() -> FioSpec {
        Self::case(RwMode::RandWrite, 4096, 1)
    }

    /// Table IV `rand-w-16`.
    pub fn rand_w_16() -> FioSpec {
        Self::case(RwMode::RandWrite, 4096, 16)
    }

    /// Table IV `seq-r-256`: 128K sequential read, QD256, 4 jobs.
    pub fn seq_r_256() -> FioSpec {
        Self::case(RwMode::SeqRead, 128 * 1024, 256)
    }

    /// Table IV `seq-w-256`.
    pub fn seq_w_256() -> FioSpec {
        Self::case(RwMode::SeqWrite, 128 * 1024, 256)
    }

    /// All six Table IV cases with their names, in table order.
    pub fn table_iv() -> Vec<(&'static str, FioSpec)> {
        vec![
            ("rand-r-1", Self::rand_r_1()),
            ("rand-r-128", Self::rand_r_128()),
            ("rand-w-1", Self::rand_w_1()),
            ("rand-w-16", Self::rand_w_16()),
            ("seq-r-256", Self::seq_r_256()),
            ("seq-w-256", Self::seq_w_256()),
        ]
    }

    /// Scales the measurement windows (e.g. `0.25` for quick runs).
    pub fn scaled(mut self, factor: f64) -> FioSpec {
        self.ramp = SimDuration::from_secs_f64(self.ramp.as_secs_f64() * factor);
        self.runtime = SimDuration::from_secs_f64(self.runtime.as_secs_f64() * factor);
        self
    }

    /// Blocks per I/O at 4 KiB logical blocks.
    pub fn blocks_per_io(&self) -> u32 {
        (self.block_bytes / 4096).max(1) as u32
    }
}

/// Per-second operation counts (the Fig. 15 IOPS trace).
#[derive(Debug, Default)]
pub struct IopsTrace {
    counts: Vec<u64>,
}

impl IopsTrace {
    /// Records a completion at `t`.
    pub fn record(&mut self, t: SimTime) {
        let sec = t.as_secs_f64() as usize;
        if self.counts.len() <= sec {
            self.counts.resize(sec + 1, 0);
        }
        self.counts[sec] += 1;
    }

    /// Per-second IOPS values.
    pub fn per_second(&self) -> &[u64] {
        &self.counts
    }
}

/// Shared measurement sink for one job.
pub type SharedStats = Rc<RefCell<IoStats>>;
/// Shared per-second trace (optional).
pub type SharedTrace = Rc<RefCell<IopsTrace>>;

/// One fio job (one `Client`).
pub struct FioJob {
    dev: DeviceId,
    spec: FioSpec,
    region_start: u64,
    region_blocks: u64,
    buffers: Vec<BufferId>,
    rng: SimRng,
    stats: SharedStats,
    trace: Option<SharedTrace>,
    seq_cursor: u64,
    next_tag: u64,
    measure_start: SimTime,
    measure_end: SimTime,
}

impl FioJob {
    /// Creates a job against `dev`, registering its buffers on the
    /// testbed. `job_index` picks the per-job sequential region and RNG
    /// stream.
    pub fn new(
        tb: &mut Testbed,
        dev: DeviceId,
        spec: FioSpec,
        job_index: u32,
        seed: u64,
        stats: SharedStats,
        trace: Option<SharedTrace>,
    ) -> FioJob {
        let buffers = (0..spec.iodepth)
            .map(|_| tb.register_buffer(spec.block_bytes))
            .collect();
        let total = tb.device_blocks(dev);
        let per_job = total / spec.numjobs as u64;
        let region_start = per_job * job_index as u64;
        FioJob {
            dev,
            spec,
            region_start,
            region_blocks: per_job.max(spec.blocks_per_io() as u64),
            buffers,
            rng: SimRng::seed_from(seed ^ (job_index as u64) << 32 ^ dev.0 as u64),
            stats,
            trace,
            seq_cursor: 0,
            next_tag: 0,
            measure_start: SimTime::ZERO + spec.ramp,
            measure_end: SimTime::ZERO + spec.ramp + spec.runtime,
        }
    }

    fn next_request(&mut self, slot: usize) -> IoRequest {
        let blocks = self.spec.blocks_per_io();
        let span = self.region_blocks.saturating_sub(blocks as u64).max(1);
        let (op, lba) = match self.spec.mode {
            RwMode::RandRead => (IoOp::Read, self.region_start + self.rng.below(span)),
            RwMode::RandWrite => (IoOp::Write, self.region_start + self.rng.below(span)),
            RwMode::SeqRead | RwMode::SeqWrite => {
                let lba = self.region_start + (self.seq_cursor % span);
                self.seq_cursor += blocks as u64;
                let op = if self.spec.mode == RwMode::SeqRead {
                    IoOp::Read
                } else {
                    IoOp::Write
                };
                (op, lba)
            }
            RwMode::RandRw { read_frac } => {
                let op = if self.rng.chance(read_frac) {
                    IoOp::Read
                } else {
                    IoOp::Write
                };
                (op, self.region_start + self.rng.below(span))
            }
        };
        // Random LBAs are block-size aligned, as fio does by default.
        let lba = if self.spec.mode.is_sequential() {
            lba
        } else {
            lba / blocks as u64 * blocks as u64
        };
        self.next_tag += 1;
        IoRequest {
            dev: self.dev,
            op,
            lba: Lba(lba),
            blocks,
            buf: self.buffers[slot],
            tag: ((slot as u64) << 48) | self.next_tag,
        }
    }
}

impl Client for FioJob {
    fn start(&mut self, _now: SimTime) -> ClientOutput {
        let reqs = (0..self.spec.iodepth as usize)
            .map(|slot| self.next_request(slot))
            .collect();
        ClientOutput::submit(reqs)
    }

    fn on_completion(&mut self, now: SimTime, c: Completion) -> ClientOutput {
        if now >= self.measure_start && now < self.measure_end {
            let mut stats = self.stats.borrow_mut();
            if c.status.is_success() {
                stats.record(c.bytes, c.latency());
                if let Some(trace) = &self.trace {
                    trace.borrow_mut().record(now);
                }
            } else {
                stats.record_failure();
            }
        }
        if now >= self.measure_end {
            return ClientOutput::idle(); // drain
        }
        let slot = (c.tag >> 48) as usize;
        ClientOutput::submit(vec![self.next_request(slot)])
    }
}

/// Aggregated result of one fio run.
#[derive(Debug, Clone)]
pub struct FioResult {
    /// Merged latency histogram (for further percentile queries).
    pub latency_hist: bm_sim::stats::LatencyHistogram,
    /// Operations per second over the measured window.
    pub iops: f64,
    /// Bandwidth in MB/s (decimal, as fio reports).
    pub bandwidth_mbps: f64,
    /// Mean completion latency.
    pub avg_latency: SimDuration,
    /// Median latency.
    pub p50: SimDuration,
    /// 99th percentile latency.
    pub p99: SimDuration,
    /// 99.9th percentile latency.
    pub p999: SimDuration,
    /// Operations measured that completed without error.
    pub ops: u64,
    /// Operations measured that completed with an error status. They
    /// count in none of the figures above.
    pub failed: u64,
}

impl FioResult {
    fn from_stats(stats: &IoStats, window: SimDuration) -> FioResult {
        FioResult {
            latency_hist: stats.latency().clone(),
            iops: stats.iops(window),
            bandwidth_mbps: stats.bandwidth_mbps(window),
            avg_latency: stats.latency().mean(),
            p50: stats.latency().percentile(0.50),
            p99: stats.latency().percentile(0.99),
            p999: stats.latency().percentile(0.999),
            ops: stats.ops(),
            failed: stats.failed(),
        }
    }
}

/// Runs `spec` on every device of a fresh testbed built from `cfg`;
/// returns per-device results and the finished world.
pub fn run_fio(cfg: bm_testbed::TestbedConfig, spec: FioSpec) -> (Vec<FioResult>, World) {
    let seed_base = cfg.seed;
    let mut tb = Testbed::new(cfg);
    let devices = tb.device_count();
    let mut per_device: Vec<Vec<SharedStats>> = Vec::new();
    let mut jobs = Vec::new();
    for d in 0..devices {
        let mut sinks = Vec::new();
        for j in 0..spec.numjobs {
            let stats: SharedStats = Rc::new(RefCell::new(IoStats::new()));
            sinks.push(Rc::clone(&stats));
            jobs.push(FioJob::new(
                &mut tb,
                DeviceId(d),
                spec,
                j,
                seed_base ^ (0x00F1_0000 + d as u64),
                stats,
                None,
            ));
        }
        per_device.push(sinks);
    }
    let mut world = World::new(tb);
    for job in jobs {
        world.add_client(Box::new(job));
    }
    let world = world.run(None);
    let results = per_device
        .into_iter()
        .map(|sinks| {
            let mut total = IoStats::new();
            for s in sinks {
                total.merge(&s.borrow());
            }
            FioResult::from_stats(&total, spec.runtime)
        })
        .collect();
    (results, world)
}

/// Sums per-device results into one (whole-host view).
pub fn aggregate(results: &[FioResult]) -> FioResult {
    let ops: u64 = results.iter().map(|r| r.ops).sum();
    let iops: f64 = results.iter().map(|r| r.iops).sum();
    let bw: f64 = results.iter().map(|r| r.bandwidth_mbps).sum();
    let weighted: u128 = results
        .iter()
        .map(|r| r.avg_latency.as_nanos() as u128 * r.ops as u128)
        .sum();
    let avg_ns = (weighted.checked_div(ops as u128)).unwrap_or(0) as u64;
    let mut hist = bm_sim::stats::LatencyHistogram::new();
    for r in results {
        hist.merge(&r.latency_hist);
    }
    FioResult {
        iops,
        bandwidth_mbps: bw,
        avg_latency: SimDuration::from_nanos(avg_ns),
        p50: hist.percentile(0.50),
        p99: hist.percentile(0.99),
        p999: hist.percentile(0.999),
        latency_hist: hist,
        ops,
        failed: results.iter().map(|r| r.failed).sum(),
    }
}
