//! The SPDK vhost model.
//!
//! SPDK vhost dedicates host cores that busy-poll virtio rings and the
//! NVMe completion queues. The guest's kick is cheap (the poller sees
//! the ring without an exit); every I/O costs the polling core a fixed
//! CPU time on submission and again on completion, so one core's
//! throughput is `1 / (submit + complete)` — about 270 K 4-KiB IOPS,
//! which is exactly the rand-r-128 number Table VII reports for SPDK.
//!
//! Two further effects the paper measures:
//!
//! * **Large-block degradation on the 3.10 host kernel** (seq-r-256 is
//!   62.9 % worse than BM-Store): the vhost data path for ≥ 64 KiB
//!   requests costs tens of µs per I/O on that kernel. Encoded as
//!   per-direction large-I/O costs.
//! * **Multi-core scaling loss** (Fig. 1): with several polling cores
//!   feeding 4 SSDs, shared submission/completion structures serialize
//!   ~12 µs per large I/O, capping whole-host bandwidth near 80 % of
//!   native regardless of core count.

use bm_sim::resource::FifoServer;
use bm_sim::{SimDuration, SimTime};

/// Block size at which the vhost large-I/O path kicks in.
pub const LARGE_IO_BYTES: u64 = 64 * 1024;

/// Tuning for one vhost target.
#[derive(Debug, Clone, PartialEq)]
pub struct SpdkVhostConfig {
    /// CPU time per small-I/O submission on the polling core.
    pub submit_small: SimDuration,
    /// CPU time per small-I/O completion on the polling core.
    pub complete_small: SimDuration,
    /// Additional submission + completion cost for writes (virtio
    /// descriptor writeback).
    pub write_extra: SimDuration,
    /// Per-I/O polling-core cost for large reads (3.10-kernel path).
    pub large_read: SimDuration,
    /// Per-I/O polling-core cost for large writes.
    pub large_write: SimDuration,
    /// Shared-structure serialization per large I/O across all cores
    /// (only bites with multiple cores/SSDs — Fig. 1).
    pub shared_per_large_io: SimDuration,
    /// Poll loop granularity: mean delay until a poller notices new
    /// work.
    pub poll_latency: SimDuration,
}

impl SpdkVhostConfig {
    /// Calibrated to §V-C on the CentOS 3.10 host:
    /// * 1.6 + 2.1 µs per small read ⇒ 270 K IOPS/core (rand-r-128),
    /// * +1.0 µs for writes ⇒ ~212 K IOPS/core (rand-w-16),
    /// * 62 µs per large read ⇒ 2.06 GB/s/core (seq-r-256 = 61 % of
    ///   BM-Store's 3.23 GB/s),
    /// * 108 µs per large write ⇒ 1.19 GB/s/core (seq-w-256),
    /// * 12.4 µs shared ⇒ ~10.3 GB/s whole-host cap (Fig. 1's 80 %).
    pub fn centos310() -> Self {
        SpdkVhostConfig {
            submit_small: SimDuration::from_nanos(1_600),
            complete_small: SimDuration::from_nanos(2_100),
            write_extra: SimDuration::from_nanos(1_000),
            large_read: SimDuration::from_us(62),
            large_write: SimDuration::from_us(108),
            shared_per_large_io: SimDuration::from_nanos(12_400),
            poll_latency: SimDuration::from_nanos(300),
        }
    }

    /// The whole-host Fig. 1 configuration: each polling core services
    /// queues of several SSDs, which inflates the per-I/O large-block
    /// cost (~13 % per extra SSD polled: more rings, colder caches).
    pub fn centos310_multi_ssd(ssds: usize) -> Self {
        let base = Self::centos310();
        let factor = 1.0 + 0.13 * (ssds.saturating_sub(1) as f64);
        SpdkVhostConfig {
            large_read: SimDuration::from_secs_f64(base.large_read.as_secs_f64() * factor),
            large_write: SimDuration::from_secs_f64(base.large_write.as_secs_f64() * factor),
            ..base
        }
    }

    /// A modern-kernel host where the large-I/O anomaly is absent
    /// (per Table VI's observation that SPDK behaviour varies by
    /// kernel).
    pub fn modern_kernel() -> Self {
        SpdkVhostConfig {
            large_read: SimDuration::from_us(8),
            large_write: SimDuration::from_us(10),
            ..Self::centos310()
        }
    }
}

impl Default for SpdkVhostConfig {
    fn default() -> Self {
        Self::centos310()
    }
}

/// Runtime state of a vhost target: its polling cores and the shared
/// serialization point.
#[derive(Debug, Clone)]
pub struct SpdkVhost {
    cfg: SpdkVhostConfig,
    cores: Vec<FifoServer>,
    shared: FifoServer,
    next_core: usize,
    ios: u64,
}

impl SpdkVhost {
    /// Creates a target with `cores` dedicated polling cores (at most
    /// `bm_host::HOST_CORES` on the paper's host).
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn new(cfg: SpdkVhostConfig, cores: usize) -> Self {
        assert!(cores > 0, "vhost needs at least one polling core");
        SpdkVhost {
            cfg,
            cores: vec![FifoServer::new(); cores],
            shared: FifoServer::new(),
            next_core: 0,
            ios: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SpdkVhostConfig {
        &self.cfg
    }

    /// I/Os processed.
    pub fn ios(&self) -> u64 {
        self.ios
    }

    fn io_cost(&self, bytes: u64, is_write: bool) -> SimDuration {
        if bytes >= LARGE_IO_BYTES {
            if is_write {
                self.cfg.large_write
            } else {
                self.cfg.large_read
            }
        } else {
            let base = self.cfg.submit_small + self.cfg.complete_small;
            if is_write {
                base + self.cfg.write_extra
            } else {
                base
            }
        }
    }

    /// Processes one guest I/O through the vhost data path starting at
    /// `kicked_at` (guest rang the virtio kick): returns when the
    /// command reaches the SSD's submission queue.
    ///
    /// The full per-I/O CPU cost (submission and completion halves) is
    /// charged to the chosen polling core here; the completion half's
    /// effect on latency is approximated by charging it up front, which
    /// keeps each core's throughput ceiling exact.
    pub fn process_submission(
        &mut self,
        kicked_at: SimTime,
        bytes: u64,
        is_write: bool,
    ) -> SimTime {
        self.ios += 1;
        let seen = kicked_at + self.cfg.poll_latency;
        let cost = self.io_cost(bytes, is_write);
        let idx = self.next_core % self.cores.len();
        self.next_core += 1;
        let core_done = self.cores[idx].occupy(seen, cost);
        if bytes >= LARGE_IO_BYTES {
            self.shared
                .occupy(seen, self.cfg.shared_per_large_io)
                .max(core_done)
        } else {
            core_done
        }
    }

    /// Delay from the SSD posting a completion to the guest seeing the
    /// virtio interrupt (poll detection; CPU already charged).
    pub fn completion_delay(&self) -> SimDuration {
        self.cfg.poll_latency
    }

    /// Total polling-core busy time (CPU the host cannot sell).
    pub fn cpu_busy(&self) -> SimDuration {
        self.cores.iter().map(FifoServer::busy_total).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(vhost: &mut SpdkVhost, n: usize, bytes: u64, write: bool) -> f64 {
        // Open-loop: offer work as fast as the cores absorb it.
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = vhost.process_submission(SimTime::ZERO, bytes, write);
        }
        n as f64 / last.as_secs_f64()
    }

    #[test]
    fn one_core_small_read_ceiling() {
        let mut v = SpdkVhost::new(SpdkVhostConfig::centos310(), 1);
        let iops = drive(&mut v, 50_000, 4096, false);
        assert!((250e3..290e3).contains(&iops), "iops {iops}");
    }

    #[test]
    fn one_core_small_write_ceiling() {
        let mut v = SpdkVhost::new(SpdkVhostConfig::centos310(), 1);
        let iops = drive(&mut v, 50_000, 4096, true);
        assert!((195e3..225e3).contains(&iops), "iops {iops}");
    }

    #[test]
    fn one_core_large_read_bandwidth() {
        let mut v = SpdkVhost::new(SpdkVhostConfig::centos310(), 1);
        let iops = drive(&mut v, 20_000, 128 * 1024, false);
        let bw = iops * 128.0 * 1024.0;
        assert!((1.9e9..2.2e9).contains(&bw), "bw {bw}");
    }

    #[test]
    fn multi_core_large_reads_hit_shared_cap() {
        let mut v = SpdkVhost::new(SpdkVhostConfig::centos310(), 8);
        let iops = drive(&mut v, 80_000, 128 * 1024, false);
        let bw = iops * 128.0 * 1024.0;
        // The 12.4 µs shared cost caps at ~10.4 GB/s even with 8 cores.
        assert!((9.8e9..11.0e9).contains(&bw), "bw {bw}");
    }

    #[test]
    fn cores_scale_until_the_cap() {
        let per_core: Vec<f64> = [1usize, 2, 4]
            .iter()
            .map(|&n| {
                let mut v = SpdkVhost::new(SpdkVhostConfig::centos310(), n);
                drive(&mut v, 40_000, 128 * 1024, false) * 128.0 * 1024.0
            })
            .collect();
        assert!(per_core[1] / per_core[0] > 1.8, "2-core scaling");
        assert!(per_core[2] / per_core[0] > 3.3, "4-core scaling");
    }

    #[test]
    fn modern_kernel_removes_the_anomaly() {
        let mut v = SpdkVhost::new(SpdkVhostConfig::modern_kernel(), 1);
        let iops = drive(&mut v, 20_000, 128 * 1024, false);
        let bw = iops * 128.0 * 1024.0;
        assert!(bw > 10e9, "bw {bw}");
    }

    #[test]
    fn cpu_accounting() {
        let mut v = SpdkVhost::new(SpdkVhostConfig::centos310(), 1);
        drive(&mut v, 1000, 4096, false);
        let busy = v.cpu_busy().as_secs_f64();
        assert!((busy - 1000.0 * 3.7e-6).abs() < 1e-4, "busy {busy}");
        assert_eq!(v.ios(), 1000);
    }
}
