//! Queueing-theory building blocks.
//!
//! Device performance models are composed from three primitives:
//!
//! * [`FifoServer`] — a single serially-reused resource (a CPU core, a
//!   flash die, a DMA engine): requests are served in arrival order, each
//!   occupying the server for its service time.
//! * [`MultiServer`] — `m` identical servers fed from one queue (the
//!   die-level parallelism inside an SSD).
//! * [`BandwidthLink`] — a shared pipe with a byte rate (a PCIe link or a
//!   flash channel): a transfer occupies the pipe for `bytes / rate`.
//! * [`TokenBucket`] — a rate limiter with burst capacity (the QoS module
//!   and the SSD write cache are both token buckets).
//!
//! All primitives are *time-function* style: callers pass `now` and get
//! back the completion time; no events are scheduled internally. This
//! keeps them trivially unit-testable and lets the caller decide how to
//! turn completion times into events.

use crate::time::{SimDuration, SimTime};

/// A single FIFO resource with a busy-until horizon.
///
/// # Examples
///
/// ```
/// use bm_sim::resource::FifoServer;
/// use bm_sim::{SimDuration, SimTime};
///
/// let mut core = FifoServer::new();
/// let t0 = SimTime::ZERO;
/// let done1 = core.occupy(t0, SimDuration::from_us(2));
/// let done2 = core.occupy(t0, SimDuration::from_us(2));
/// assert_eq!(done1.as_nanos(), 2_000);
/// assert_eq!(done2.as_nanos(), 4_000); // queued behind the first
/// ```
#[derive(Debug, Clone, Default)]
pub struct FifoServer {
    free_at: SimTime,
    busy_total: SimDuration,
}

impl FifoServer {
    /// Creates an idle server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the server for `service` starting no earlier than `now`,
    /// returning the completion time.
    pub fn occupy(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        let start = self.free_at.max(now);
        self.free_at = start + service;
        self.busy_total += service;
        self.free_at
    }

    /// When the server next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Utilization in `[0, 1]` over a window of length `elapsed`.
    pub fn utilization(&self, elapsed: SimDuration) -> f64 {
        if elapsed == SimDuration::ZERO {
            return 0.0;
        }
        (self.busy_total.as_secs_f64() / elapsed.as_secs_f64()).min(1.0)
    }
}

/// `m` identical FIFO servers fed from a single queue; work goes to the
/// earliest-free server.
///
/// Models the internal parallelism of an SSD: many flash dies service
/// commands concurrently, so throughput scales with outstanding depth
/// until all dies are busy.
///
/// # Examples
///
/// ```
/// use bm_sim::resource::MultiServer;
/// use bm_sim::{SimDuration, SimTime};
///
/// let mut dies = MultiServer::new(2);
/// let t0 = SimTime::ZERO;
/// let s = SimDuration::from_us(10);
/// assert_eq!(dies.occupy(t0, s).as_nanos(), 10_000);
/// assert_eq!(dies.occupy(t0, s).as_nanos(), 10_000); // second unit
/// assert_eq!(dies.occupy(t0, s).as_nanos(), 20_000); // queues
/// ```
#[derive(Debug, Clone)]
pub struct MultiServer {
    units: Vec<SimTime>,
    busy_total: SimDuration,
}

impl MultiServer {
    /// Creates `m` idle units.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn new(m: usize) -> Self {
        assert!(m > 0, "need at least one server");
        MultiServer {
            units: vec![SimTime::ZERO; m],
            busy_total: SimDuration::ZERO,
        }
    }

    /// Number of parallel units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Always false: a `MultiServer` has at least one unit.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Serves a request of `service` on the earliest-free unit, returning
    /// completion time.
    pub fn occupy(&mut self, now: SimTime, service: SimDuration) -> SimTime {
        #[expect(
            clippy::expect_used,
            reason = "`MultiServer::new` asserts m > 0, so `units` is never empty"
        )]
        let (idx, _) = self
            .units
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .expect("at least one unit");
        let start = self.units[idx].max(now);
        self.units[idx] = start + service;
        self.busy_total += service;
        self.units[idx]
    }

    /// Total busy time across all units.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }
}

/// A shared pipe with a fixed byte rate; transfers serialize.
///
/// # Examples
///
/// ```
/// use bm_sim::resource::BandwidthLink;
/// use bm_sim::SimTime;
///
/// // 1 GB/s link: a 1 MB transfer takes 1 ms.
/// let mut link = BandwidthLink::new(1_000_000_000.0);
/// let done = link.transfer(SimTime::ZERO, 1_000_000);
/// assert_eq!(done.as_nanos(), 1_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    bytes_per_sec: f64,
    free_at: SimTime,
    bytes_total: u64,
}

impl BandwidthLink {
    /// Creates a link with the given rate in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if the rate is not positive and finite.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(
            bytes_per_sec.is_finite() && bytes_per_sec > 0.0,
            "rate must be positive"
        );
        BandwidthLink {
            bytes_per_sec,
            free_at: SimTime::ZERO,
            bytes_total: 0,
        }
    }

    /// The configured rate in bytes per second.
    pub fn rate(&self) -> f64 {
        self.bytes_per_sec
    }

    /// Schedules a transfer of `bytes` starting no earlier than `now`,
    /// returning its completion time.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = self.free_at.max(now);
        let dur = SimDuration::from_secs_f64(bytes as f64 / self.bytes_per_sec);
        self.free_at = start + dur;
        self.bytes_total += bytes;
        self.free_at
    }

    /// When the link next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes ever transferred.
    pub fn bytes_total(&self) -> u64 {
        self.bytes_total
    }
}

/// A token bucket: sustained rate plus burst capacity.
///
/// Used for the QoS per-namespace throughput limits (tokens = bytes or
/// IOs) and the SSD write cache (tokens = free cache bytes, refilled at
/// the flash drain rate).
///
/// # Examples
///
/// ```
/// use bm_sim::resource::TokenBucket;
/// use bm_sim::{SimDuration, SimTime};
///
/// // 100 tokens/sec, burst of 10.
/// let mut tb = TokenBucket::new(100.0, 10.0);
/// let t0 = SimTime::ZERO;
/// assert_eq!(tb.earliest_available(t0, 10.0), t0); // burst is free
/// tb.consume(t0, 10.0);
/// // Next 5 tokens need 50 ms of refill.
/// let t = tb.earliest_available(t0, 5.0);
/// assert_eq!(t.as_nanos(), 50_000_000);
/// ```
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    capacity: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that refills at `rate_per_sec` with burst
    /// `capacity`, starting full.
    ///
    /// # Panics
    ///
    /// Panics if rate or capacity is not positive and finite.
    pub fn new(rate_per_sec: f64, capacity: f64) -> Self {
        assert!(
            rate_per_sec.is_finite() && rate_per_sec > 0.0,
            "rate must be positive"
        );
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "capacity must be positive"
        );
        TokenBucket {
            rate_per_sec,
            capacity,
            tokens: capacity,
            last_refill: SimTime::ZERO,
        }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last_refill {
            let dt = (now - self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.capacity);
            self.last_refill = now;
        }
    }

    /// Tokens available at `now`.
    pub fn available(&mut self, now: SimTime) -> f64 {
        self.refill(now);
        self.tokens
    }

    /// The earliest time at which `amount` tokens will be available.
    pub fn earliest_available(&mut self, now: SimTime, amount: f64) -> SimTime {
        self.refill(now);
        if self.tokens >= amount {
            now
        } else {
            let deficit = amount - self.tokens;
            now + SimDuration::from_secs_f64(deficit / self.rate_per_sec)
        }
    }

    /// Consumes `amount` tokens at `now`; the balance may go negative,
    /// which models queueing behind the limiter (callers should gate on
    /// [`TokenBucket::earliest_available`] first if they want strict
    /// admission).
    pub fn consume(&mut self, now: SimTime, amount: f64) {
        self.refill(now);
        self.tokens -= amount;
    }

    /// Whether `amount` tokens can be consumed immediately at `now`.
    pub fn try_consume(&mut self, now: SimTime, amount: f64) -> bool {
        self.refill(now);
        if self.tokens >= amount {
            self.tokens -= amount;
            true
        } else {
            false
        }
    }

    /// The sustained refill rate.
    pub fn rate(&self) -> f64 {
        self.rate_per_sec
    }

    /// The burst capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: fn(u64) -> SimDuration = SimDuration::from_us;

    #[test]
    fn fifo_server_serializes() {
        let mut s = FifoServer::new();
        let t0 = SimTime::ZERO;
        let d1 = s.occupy(t0, US(5));
        let d2 = s.occupy(t0, US(5));
        assert_eq!(d1, SimTime::from_nanos(5_000));
        assert_eq!(d2, SimTime::from_nanos(10_000));
        // Arriving after the server drained starts immediately.
        let late = SimTime::from_nanos(20_000);
        let d3 = s.occupy(late, US(5));
        assert_eq!(d3, SimTime::from_nanos(25_000));
        assert_eq!(s.busy_total(), US(15));
    }

    #[test]
    fn fifo_utilization() {
        let mut s = FifoServer::new();
        s.occupy(SimTime::ZERO, US(30));
        assert!((s.utilization(US(60)) - 0.5).abs() < 1e-12);
        assert_eq!(s.utilization(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn multi_server_parallelism() {
        let mut m = MultiServer::new(4);
        let t0 = SimTime::ZERO;
        for _ in 0..4 {
            assert_eq!(m.occupy(t0, US(10)), SimTime::from_nanos(10_000));
        }
        // Fifth request queues behind the earliest-free unit.
        assert_eq!(m.occupy(t0, US(10)), SimTime::from_nanos(20_000));
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn bandwidth_link_throughput() {
        // 3.2 GB/s, the paper's P4510 sequential-read ceiling.
        let mut link = BandwidthLink::new(3.2e9);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            t = link.transfer(SimTime::ZERO, 128 * 1024);
        }
        let total_bytes = 100u64 * 128 * 1024;
        let rate = total_bytes as f64 / (t - SimTime::ZERO).as_secs_f64();
        assert!((rate - 3.2e9).abs() / 3.2e9 < 0.01, "rate {rate}");
        assert_eq!(link.bytes_total(), total_bytes);
    }

    #[test]
    fn token_bucket_caps_burst_and_refills() {
        let mut tb = TokenBucket::new(1_000.0, 100.0);
        let t0 = SimTime::ZERO;
        assert!(tb.try_consume(t0, 100.0));
        assert!(!tb.try_consume(t0, 1.0));
        // After 10 ms, 10 tokens have refilled.
        let t1 = t0 + SimDuration::from_ms(10);
        assert!((tb.available(t1) - 10.0).abs() < 1e-9);
        assert!(tb.try_consume(t1, 10.0));
        // Tokens never exceed capacity.
        let t2 = t1 + SimDuration::from_secs(10);
        assert!((tb.available(t2) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn token_bucket_earliest_available() {
        let mut tb = TokenBucket::new(100.0, 10.0);
        let t0 = SimTime::ZERO;
        tb.consume(t0, 10.0);
        let t = tb.earliest_available(t0, 1.0);
        assert_eq!(t, t0 + SimDuration::from_ms(10));
        // Already-available amounts return `now`.
        let t3 = t0 + SimDuration::from_secs(1);
        assert_eq!(tb.earliest_available(t3, 5.0), t3);
    }

    #[test]
    fn token_bucket_negative_balance_models_queueing() {
        let mut tb = TokenBucket::new(100.0, 10.0);
        let t0 = SimTime::ZERO;
        tb.consume(t0, 30.0); // 20 tokens in debt
        let t = tb.earliest_available(t0, 0.0);
        assert_eq!(t, t0 + SimDuration::from_ms(200));
    }
}
