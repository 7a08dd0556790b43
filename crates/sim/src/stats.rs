//! Measurement primitives: latency histograms, throughput accounting and
//! time-series recorders.
//!
//! The benchmark harness reports the same metrics fio does — IOPS,
//! bandwidth, average latency, and tail percentiles — so this module is
//! shaped around those.

use crate::time::{SimDuration, SimTime};

/// Number of sub-buckets per power of two; 32 gives ~3% relative error,
/// plenty for percentile reporting.
const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = 5; // log2(SUB_BUCKETS)
/// Buckets cover values up to 2^40 ns (~18 minutes), far beyond any I/O.
const MAX_EXP: u32 = 40;

/// A log-bucketed latency histogram (HdrHistogram-style, fixed memory).
///
/// Values are recorded in nanoseconds; percentile queries return the
/// upper bound of the containing bucket, so reported percentiles are
/// within ~3% of the true value.
///
/// # Examples
///
/// ```
/// use bm_sim::stats::LatencyHistogram;
/// use bm_sim::SimDuration;
///
/// let mut h = LatencyHistogram::new();
/// for us in [10u64, 20, 30, 40, 1000] {
///     h.record(SimDuration::from_us(us));
/// }
/// assert_eq!(h.count(), 5);
/// assert!(h.percentile(0.50) <= SimDuration::from_us(31));
/// assert!(h.percentile(0.99) >= SimDuration::from_us(900));
/// ```
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    total_nanos: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: vec![0; ((MAX_EXP as usize) + 1) * SUB_BUCKETS],
            count: 0,
            total_nanos: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index_for(nanos: u64) -> usize {
        if nanos < SUB_BUCKETS as u64 {
            return nanos as usize;
        }
        let exp = 63 - nanos.leading_zeros(); // floor(log2)
        let exp = exp.min(MAX_EXP);
        let shift = exp.saturating_sub(SUB_BITS);
        let sub = ((nanos >> shift) as usize) & (SUB_BUCKETS - 1);
        // Rows below 2^SUB_BITS collapse into the linear region above.
        ((exp - SUB_BITS) as usize + 1) * SUB_BUCKETS + sub
    }

    fn upper_bound_for(index: usize) -> u64 {
        if index < SUB_BUCKETS {
            return index as u64;
        }
        let row = index / SUB_BUCKETS - 1;
        let sub = (index % SUB_BUCKETS) as u64;
        let exp = row as u32 + SUB_BITS;
        let base = 1u64 << exp;
        let width = base >> SUB_BITS;
        base + (sub + 1) * width - 1
    }

    /// Records one sample.
    pub fn record(&mut self, d: SimDuration) {
        let ns = d.as_nanos();
        self.buckets[Self::index_for(ns)] += 1;
        self.count += 1;
        self.total_nanos += ns as u128;
        self.min = self.min.min(ns);
        self.max = self.max.max(ns);
    }

    /// Merges another histogram into this one. Merging is how
    /// per-tenant histograms roll up into fleet totals: counts, sums
    /// and extremes all combine exactly, so percentiles of the merged
    /// histogram carry the same ~3% bucket error as direct recording.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean of all samples (zero if empty).
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos((self.total_nanos / self.count as u128) as u64)
    }

    /// Smallest recorded sample (zero if empty).
    pub fn min(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.min)
        }
    }

    /// Largest recorded sample (zero if empty).
    pub fn max(&self) -> SimDuration {
        SimDuration::from_nanos(self.max)
    }

    /// The value at quantile `q` in `[0, 1]` (zero if empty).
    ///
    /// Edge quantiles are exact, not bucket-rounded: `percentile(0.0)`
    /// returns [`min`](Self::min) and `percentile(1.0)` returns
    /// [`max`](Self::max), since both extremes are tracked precisely.
    /// Interior quantiles return the upper bound of the containing
    /// bucket (within ~3% of the true value), clamped to `max`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]` (including NaN).
    pub fn percentile(&self, q: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of [0, 1]");
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        if q == 0.0 {
            return self.min();
        }
        if q == 1.0 {
            return self.max();
        }
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return SimDuration::from_nanos(Self::upper_bound_for(i).min(self.max));
            }
        }
        SimDuration::from_nanos(self.max)
    }
}

/// Accumulates completed-I/O accounting for one workload: operation count,
/// bytes moved, and a latency histogram.
///
/// # Examples
///
/// ```
/// use bm_sim::stats::IoStats;
/// use bm_sim::{SimDuration, SimTime};
///
/// let mut s = IoStats::new();
/// s.record(4096, SimDuration::from_us(80));
/// s.record(4096, SimDuration::from_us(90));
/// let iops = s.iops(SimDuration::from_secs(1));
/// assert_eq!(iops, 2.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IoStats {
    ops: u64,
    bytes: u64,
    failed: u64,
    latency: LatencyHistogram,
}

impl IoStats {
    /// Creates empty accounting.
    pub fn new() -> Self {
        IoStats {
            ops: 0,
            bytes: 0,
            failed: 0,
            latency: LatencyHistogram::new(),
        }
    }

    /// Records one completed operation of `bytes` with end-to-end `latency`.
    pub fn record(&mut self, bytes: u64, latency: SimDuration) {
        self.ops += 1;
        self.bytes += bytes;
        self.latency.record(latency);
    }

    /// Counts one operation that completed with an error status. It
    /// counts only here, not in the ops, bytes or latencies: a failed
    /// command moved no data.
    pub fn record_failure(&mut self) {
        self.failed += 1;
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &IoStats) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.failed += other.failed;
        self.latency.merge(&other.latency);
    }

    /// Operations that completed without error.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Operations that completed with an error status.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// The latency histogram.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Operations per second over `elapsed` (zero if `elapsed` is zero).
    pub fn iops(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.ops as f64 / secs
        }
    }

    /// Bandwidth in MB/s (decimal megabytes, as fio reports) over `elapsed`.
    pub fn bandwidth_mbps(&self, elapsed: SimDuration) -> f64 {
        let secs = elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.bytes as f64 / 1e6 / secs
        }
    }
}

/// A `(time, value)` series sampled during a run — e.g. the per-second
/// IOPS trace plotted in the paper's Fig. 15.
///
/// # Examples
///
/// ```
/// use bm_sim::stats::TimeSeries;
/// use bm_sim::SimTime;
///
/// let mut ts = TimeSeries::new("iops");
/// ts.push(SimTime::from_nanos(0), 100.0);
/// ts.push(SimTime::from_nanos(1_000_000_000), 110.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.points()[1].1, 110.0);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    name: String,
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, at: SimTime, value: f64) {
        self.points.push((at, value));
    }

    /// All samples in insertion order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The mean value (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        // bm-lint: allow(float-determinism): points is an insertion-ordered Vec, so the summation order is pinned by construction
        self.points.iter().map(|p| p.1).sum::<f64>() / self.points.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_close() {
        let mut h = LatencyHistogram::new();
        for i in 1..=10_000u64 {
            h.record(SimDuration::from_nanos(i * 100)); // 100ns..1ms uniform
        }
        let p50 = h.percentile(0.5).as_nanos() as f64;
        let p99 = h.percentile(0.99).as_nanos() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.05, "p50 {p50}");
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.05, "p99 {p99}");
        assert_eq!(h.percentile(1.0), h.max());
        assert_eq!(h.min(), SimDuration::from_nanos(100));
    }

    #[test]
    fn histogram_relative_error_bounded() {
        // Every recorded value must land in a bucket whose upper bound is
        // within ~2/SUB_BUCKETS of the value.
        for v in [1u64, 31, 32, 33, 100, 1_000, 77_200, 1_000_000, 40_579_300] {
            let idx = LatencyHistogram::index_for(v);
            let ub = LatencyHistogram::upper_bound_for(idx);
            assert!(ub >= v, "upper bound {ub} < value {v}");
            assert!(
                (ub - v) as f64 <= (v as f64 / SUB_BUCKETS as f64) + 1.0,
                "bucket too wide for {v}: ub {ub}"
            );
        }
    }

    #[test]
    fn histogram_mean_and_merge() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(SimDuration::from_us(10));
        b.record(SimDuration::from_us(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), SimDuration::from_us(20));
        assert_eq!(a.max(), SimDuration::from_us(30));
    }

    #[test]
    fn percentile_edges_are_exact() {
        let mut h = LatencyHistogram::new();
        // Values chosen so bucket upper bounds differ from the samples.
        h.record(SimDuration::from_nanos(77_201));
        h.record(SimDuration::from_nanos(1_000_003));
        h.record(SimDuration::from_nanos(40_579_301));
        assert_eq!(h.percentile(0.0), SimDuration::from_nanos(77_201));
        assert_eq!(h.percentile(1.0), SimDuration::from_nanos(40_579_301));
        assert_eq!(h.percentile(0.0), h.min());
        assert_eq!(h.percentile(1.0), h.max());
    }

    #[test]
    #[should_panic(expected = "out of [0, 1]")]
    fn percentile_rejects_out_of_range() {
        LatencyHistogram::new().percentile(1.5);
    }

    #[test]
    fn merged_rollup_preserves_edges_and_counts() {
        // Per-tenant histograms roll up into a fleet view; the merged
        // extremes and counts must be exact.
        let mut fleet = LatencyHistogram::new();
        let mut tenants = Vec::new();
        for t in 1..=4u64 {
            let mut h = LatencyHistogram::new();
            for i in 0..10 {
                h.record(SimDuration::from_us(t * 100 + i));
            }
            tenants.push(h);
        }
        for h in &tenants {
            fleet.merge(h);
        }
        assert_eq!(fleet.count(), 40);
        assert_eq!(fleet.percentile(0.0), SimDuration::from_us(100));
        assert_eq!(fleet.percentile(1.0), SimDuration::from_us(409));
        // Interior percentile stays within bucket error of the truth
        // (the 20th of 40 samples is 209µs).
        let p50 = fleet.percentile(0.5).as_nanos() as f64;
        assert!((p50 - 209_000.0).abs() / 209_000.0 < 0.05, "p50 {p50}");
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(0.99), SimDuration::ZERO);
        assert_eq!(h.min(), SimDuration::ZERO);
    }

    #[test]
    fn io_stats_rates() {
        let mut s = IoStats::new();
        for _ in 0..1000 {
            s.record(4096, SimDuration::from_us(100));
        }
        let window = SimDuration::from_ms(100);
        assert_eq!(s.iops(window), 10_000.0);
        let bw = s.bandwidth_mbps(window);
        assert!((bw - 40.96).abs() < 1e-9, "bw {bw}");
        assert_eq!(s.iops(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn io_stats_merge() {
        let mut a = IoStats::new();
        let mut b = IoStats::new();
        a.record(512, SimDuration::from_us(5));
        b.record(1024, SimDuration::from_us(15));
        a.merge(&b);
        assert_eq!(a.ops(), 2);
        assert_eq!(a.bytes(), 1536);
        assert_eq!(a.latency().mean(), SimDuration::from_us(10));
    }

    #[test]
    fn time_series_aggregates() {
        let mut ts = TimeSeries::new("bw");
        assert!(ts.is_empty());
        ts.push(SimTime::from_nanos(0), 2.0);
        ts.push(SimTime::from_nanos(1), 4.0);
        ts.push(SimTime::from_nanos(2), 6.0);
        assert_eq!(ts.mean(), 4.0);
        assert_eq!(ts.name(), "bw");
    }
}
