//! Kernel I/O-stack profiles.
//!
//! BM-Store is transparent to the host, so the *device-side* behaviour is
//! identical under every OS — what differs (Table VI) is the host stack:
//! how much CPU each submission and completion costs, how much latency
//! the driver adds, and how aggressively the block layer plugs/batches
//! requests. The older CentOS 3.10 kernel batches heavily: it sustains
//! slightly more IOPS but reports much higher per-I/O latency because
//! requests wait in software queues; Fedora's newer kernels dispatch
//! eagerly — lower latency, a few percent fewer IOPS.
//!
//! Calibration targets (Table VI, 4K randread, QD16 × 8 jobs):
//!
//! | OS / kernel            | IOPS  | BW MB/s | avg lat µs |
//! |------------------------|-------|---------|------------|
//! | CentOS 7.4 3.10.0      | 642 K | 2629    | 394.4      |
//! | CentOS 7.4 4.19.127    | 642 K | 2629    | 395.9      |
//! | CentOS 7.4 5.4.3       | 642 K | 2630    | 396.1      |
//! | Fedora 33 4.9.296      | 603 K | 2468    | 207.0      |
//! | Fedora 33 5.8.15       | 607 K | 2487    | 206.4      |

use bm_sim::SimDuration;

/// One OS/kernel I/O-stack profile.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Display name, e.g. `"CentOS 7.4.1708 / 3.10.0"`.
    pub name: &'static str,
    /// CPU time per submission (syscall + block layer + driver).
    pub submit_cost: SimDuration,
    /// CPU time per completion (hard IRQ + softirq + wakeup).
    pub complete_cost: SimDuration,
    /// Latency the stack adds to every I/O beyond the CPU costs
    /// (context switch back to the waiting thread, IRQ delivery).
    pub extra_latency: SimDuration,
    /// Block-layer plugging: the factor by which *measured* completion
    /// latency exceeds device latency because requests sit in software
    /// queues before dispatch. 1.0 = eager dispatch.
    pub plug_factor: f64,
    /// Per-completion serialization in the softirq path (one ksoftirqd
    /// context per device): caps sustainable IOPS at `1/softirq_per_io`.
    pub softirq_per_io: SimDuration,
}

impl KernelProfile {
    /// The paper's main testbed: CentOS 7.9.2009, kernel 3.10.0
    /// (Table III).
    pub fn centos79_310() -> Self {
        KernelProfile {
            name: "CentOS 7.9.2009 / 3.10.0",
            submit_cost: SimDuration::from_nanos(2_000),
            complete_cost: SimDuration::from_nanos(2_500),
            extra_latency: SimDuration::from_nanos(2_750),
            plug_factor: 1.99,
            softirq_per_io: SimDuration::from_nanos(1_550),
        }
    }

    /// CentOS 7.4.1708, kernel 3.10.0 (Table VI row 1).
    pub fn centos74_310() -> Self {
        KernelProfile {
            name: "CentOS 7.4.1708 / 3.10.0",
            ..Self::centos79_310()
        }
    }

    /// CentOS 7.4.1708, kernel 4.19.127 (Table VI row 2).
    pub fn centos74_419() -> Self {
        KernelProfile {
            name: "CentOS 7.4.1708 / 4.19.127",
            plug_factor: 1.997,
            ..Self::centos79_310()
        }
    }

    /// CentOS 7.4.1708, kernel 5.4.3 (Table VI row 3).
    pub fn centos74_54() -> Self {
        KernelProfile {
            name: "CentOS 7.4.1708 / 5.4.3",
            plug_factor: 1.998,
            ..Self::centos79_310()
        }
    }

    /// Fedora 33, kernel 4.9.296 (Table VI row 4).
    pub fn fedora33_49() -> Self {
        KernelProfile {
            name: "Fedora 33 / 4.9.296",
            submit_cost: SimDuration::from_nanos(1_800),
            complete_cost: SimDuration::from_nanos(2_200),
            extra_latency: SimDuration::from_nanos(2_500),
            plug_factor: 1.0,
            softirq_per_io: SimDuration::from_nanos(1_660),
        }
    }

    /// Fedora 33, kernel 5.8.15 (Table VI row 5).
    pub fn fedora33_58() -> Self {
        KernelProfile {
            name: "Fedora 33 / 5.8.15",
            softirq_per_io: SimDuration::from_nanos(1_648),
            ..Self::fedora33_49()
        }
    }

    /// All five Table VI profiles, in table order.
    pub fn table_vi() -> Vec<KernelProfile> {
        vec![
            Self::centos74_310(),
            Self::centos74_419(),
            Self::centos74_54(),
            Self::fedora33_49(),
            Self::fedora33_58(),
        ]
    }

    /// Per-I/O added latency due to the stack (both directions).
    pub fn round_trip_latency(&self) -> SimDuration {
        self.submit_cost + self.complete_cost + self.extra_latency
    }
}

impl Default for KernelProfile {
    fn default() -> Self {
        Self::centos79_310()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn main_testbed_stack_is_about_9us() {
        // Native rand-r-1 is 77.2 µs with ~68 µs media ⇒ ~9 µs of stack.
        let k = KernelProfile::centos79_310();
        let rt = k.round_trip_latency().as_micros_f64();
        assert!((7.0..11.0).contains(&rt), "round trip {rt}");
    }

    #[test]
    fn centos_batches_fedora_does_not() {
        assert!(KernelProfile::centos74_310().plug_factor > 1.5);
        assert_eq!(KernelProfile::fedora33_49().plug_factor, 1.0);
    }

    #[test]
    fn fedora_trades_iops_for_latency() {
        let c = KernelProfile::centos74_310();
        let f = KernelProfile::fedora33_49();
        // Higher softirq cost = lower IOPS ceiling; less plugging =
        // lower reported latency.
        assert!(f.softirq_per_io > c.softirq_per_io);
        assert!(f.plug_factor < c.plug_factor);
    }

    #[test]
    fn table_vi_has_five_distinct_profiles() {
        let profiles = KernelProfile::table_vi();
        assert_eq!(profiles.len(), 5);
        let names: std::collections::BTreeSet<_> = profiles.iter().map(|p| p.name).collect();
        assert_eq!(names.len(), 5);
    }
}
