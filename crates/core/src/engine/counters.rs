//! I/O counting registers.
//!
//! The BMS-Engine "sends the number of requests to the I/O Monitor to
//! supervise the performance and status of BM-Store" (§IV-E). Counters
//! are kept per front-end function — the unit tenants are billed and
//! monitored at — and are read out-of-band by the BMS-Controller over
//! the AXI bus.

use bm_pcie::FunctionId;
use bm_sim::SimDuration;

/// Number of latency bucket registers per function.
pub const LATENCY_BUCKETS: usize = 8;

/// Upper bounds (µs, inclusive) of the first seven latency bucket
/// registers; the eighth bucket is unbounded. Chosen to straddle the
/// paper's reported device latencies (~100µs) with headroom for
/// fault-induced tails.
pub const LATENCY_BUCKET_BOUNDS_US: [u64; LATENCY_BUCKETS - 1] =
    [10, 50, 100, 200, 500, 1_000, 5_000];

/// One function's monitoring registers beyond the basic counters:
/// outstanding-command gauge and a coarse latency bucket array, latched
/// by the engine at command completion (fetch → CQE posted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorRegs {
    /// Commands currently inside the engine pipeline.
    pub outstanding: u32,
    /// High-water mark of `outstanding`.
    pub peak_outstanding: u32,
    /// Completion counts by engine-observed latency; see
    /// [`LATENCY_BUCKET_BOUNDS_US`].
    pub latency_buckets: [u64; LATENCY_BUCKETS],
    /// Sum of engine-observed latencies.
    pub total_latency: SimDuration,
}

impl MonitorRegs {
    /// The bucket index a latency of `nanos` lands in.
    pub fn bucket_for(nanos: u64) -> usize {
        let us = nanos / 1_000;
        LATENCY_BUCKET_BOUNDS_US
            .iter()
            .position(|&b| us <= b)
            .unwrap_or(LATENCY_BUCKETS - 1)
    }

    /// Completions latched into the buckets.
    pub fn completions(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// Mean engine-observed latency (zero if idle).
    pub fn mean_latency(&self) -> SimDuration {
        match self.completions() {
            0 => SimDuration::ZERO,
            n => self.total_latency / n,
        }
    }
}

/// One function's counters (one "register file" in the RTL).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionCounters {
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Commands completed with error status.
    pub errors: u64,
    /// Commands deferred by QoS.
    pub qos_deferred: u64,
}

impl FunctionCounters {
    /// Total bytes.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// The engine's counter bank, indexed by function.
#[derive(Debug, Clone)]
pub struct IoCounters {
    per_function: Vec<FunctionCounters>,
    regs: Vec<MonitorRegs>,
}

impl IoCounters {
    /// Creates a bank for `functions` front-end functions.
    pub fn new(functions: usize) -> Self {
        IoCounters {
            per_function: vec![FunctionCounters::default(); functions],
            regs: vec![MonitorRegs::default(); functions],
        }
    }

    /// A command entered the engine pipeline: bump the outstanding gauge.
    ///
    /// # Panics
    ///
    /// Panics if `func` is outside the bank.
    pub fn command_started(&mut self, func: FunctionId) {
        let r = &mut self.regs[func.index() as usize];
        r.outstanding += 1;
        r.peak_outstanding = r.peak_outstanding.max(r.outstanding);
    }

    /// A command left the pipeline: drop the gauge and latch its
    /// engine-observed latency into the bucket registers.
    ///
    /// # Panics
    ///
    /// Panics if `func` is outside the bank or the gauge underflows.
    #[expect(
        clippy::expect_used,
        reason = "a gauge underflow means a completion was double-counted; continuing would corrupt every downstream stat"
    )]
    pub fn command_finished(&mut self, func: FunctionId, latency: SimDuration) {
        let r = &mut self.regs[func.index() as usize];
        r.outstanding = r
            .outstanding
            .checked_sub(1)
            .expect("outstanding gauge underflow");
        r.latency_buckets[MonitorRegs::bucket_for(latency.as_nanos())] += 1;
        r.total_latency += latency;
    }

    /// Reads one function's monitoring registers.
    pub fn regs(&self, func: FunctionId) -> MonitorRegs {
        self.regs
            .get(func.index() as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Records a completed command.
    ///
    /// # Panics
    ///
    /// Panics if `func` is outside the bank.
    pub fn record(&mut self, func: FunctionId, is_write: bool, bytes: u64, error: bool) {
        let c = &mut self.per_function[func.index() as usize];
        if error {
            c.errors += 1;
        } else if is_write {
            c.writes += 1;
            c.write_bytes += bytes;
        } else {
            c.reads += 1;
            c.read_bytes += bytes;
        }
    }

    /// Records a QoS deferral.
    ///
    /// # Panics
    ///
    /// Panics if `func` is outside the bank.
    pub fn record_deferred(&mut self, func: FunctionId) {
        self.per_function[func.index() as usize].qos_deferred += 1;
    }

    /// Reads one function's registers (the AXI read the controller does).
    pub fn function(&self, func: FunctionId) -> FunctionCounters {
        self.per_function
            .get(func.index() as usize)
            .copied()
            .unwrap_or_default()
    }

    /// Aggregate across all functions.
    pub fn total(&self) -> FunctionCounters {
        let mut t = FunctionCounters::default();
        for c in &self.per_function {
            t.reads += c.reads;
            t.writes += c.writes;
            t.read_bytes += c.read_bytes;
            t.write_bytes += c.write_bytes;
            t.errors += c.errors;
            t.qos_deferred += c.qos_deferred;
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(i: u8) -> FunctionId {
        FunctionId::new(i).unwrap()
    }

    #[test]
    fn records_split_by_direction() {
        let mut c = IoCounters::new(4);
        c.record(f(1), false, 4096, false);
        c.record(f(1), true, 8192, false);
        c.record(f(1), false, 0, true);
        let r = c.function(f(1));
        assert_eq!(r.reads, 1);
        assert_eq!(r.writes, 1);
        assert_eq!(r.read_bytes, 4096);
        assert_eq!(r.write_bytes, 8192);
        assert_eq!(r.errors, 1);
        assert_eq!(r.total_bytes(), 12_288);
    }

    #[test]
    fn totals_aggregate_functions() {
        let mut c = IoCounters::new(8);
        for i in 0..8 {
            c.record(f(i), false, 1000, false);
            c.record_deferred(f(i));
        }
        let t = c.total();
        assert_eq!(t.reads, 8);
        assert_eq!(t.read_bytes, 8000);
        assert_eq!(t.qos_deferred, 8);
    }

    #[test]
    fn out_of_bank_reads_are_zero() {
        let c = IoCounters::new(2);
        assert_eq!(c.function(f(100)), FunctionCounters::default());
        assert_eq!(c.regs(f(100)), MonitorRegs::default());
    }

    #[test]
    fn monitor_regs_track_outstanding_and_buckets() {
        let mut c = IoCounters::new(2);
        c.command_started(f(0));
        c.command_started(f(0));
        assert_eq!(c.regs(f(0)).outstanding, 2);
        assert_eq!(c.regs(f(0)).peak_outstanding, 2);
        c.command_finished(f(0), SimDuration::from_us(90));
        c.command_finished(f(0), SimDuration::from_us(700));
        let r = c.regs(f(0));
        assert_eq!(r.outstanding, 0);
        assert_eq!(r.peak_outstanding, 2);
        assert_eq!(r.completions(), 2);
        assert_eq!(r.latency_buckets[2], 1, "90µs lands in the ≤100µs bucket");
        assert_eq!(r.latency_buckets[5], 1, "700µs lands in the ≤1000µs bucket");
        assert_eq!(r.mean_latency(), SimDuration::from_us((90 + 700) / 2));
        // The other function's registers are untouched.
        assert_eq!(c.regs(f(1)), MonitorRegs::default());
    }

    #[test]
    fn bucket_bounds_cover_extremes() {
        assert_eq!(MonitorRegs::bucket_for(0), 0);
        // Sub-microsecond remainders truncate: 10.9µs still counts ≤10µs.
        assert_eq!(MonitorRegs::bucket_for(10_999), 0);
        assert_eq!(MonitorRegs::bucket_for(11_000), 1);
        assert_eq!(MonitorRegs::bucket_for(u64::MAX), LATENCY_BUCKETS - 1);
    }
}
