//! Cross-baseline properties the paper's comparison rests on.

use bm_baselines::arm_offload::{ArmOffload, ArmOffloadConfig};
use bm_baselines::spdk::{SpdkVhost, SpdkVhostConfig};
use bm_baselines::vfio::VfioCosts;
use bm_sim::SimTime;
use proptest::prelude::*;

proptest! {
    /// The vhost per-core ceiling is monotone in core count until the
    /// shared serialization binds; adding cores never reduces it.
    #[test]
    fn vhost_throughput_monotone_in_cores(
        cores_a in 1usize..6,
        extra in 1usize..6,
        large in any::<bool>(),
    ) {
        let bytes = if large { 128 * 1024 } else { 4_096 };
        let rate = |n: usize| {
            let mut v = SpdkVhost::new(SpdkVhostConfig::centos310(), n);
            let mut last = SimTime::ZERO;
            for _ in 0..5_000 {
                last = v.process_submission(SimTime::ZERO, bytes, false);
            }
            5_000.0 / last.as_secs_f64()
        };
        let a = rate(cores_a);
        let b = rate(cores_a + extra);
        prop_assert!(b >= a * 0.999, "throughput dropped with more cores: {a} -> {b}");
    }

    /// ARM-offload latency is FIFO-monotone: a later submission never
    /// finishes before an earlier one on the same core count.
    #[test]
    fn arm_offload_is_fifo(loads in proptest::collection::vec(1u64..(1 << 18), 2..50)) {
        let mut arm = ArmOffload::new(ArmOffloadConfig {
            cores: 1,
            ..ArmOffloadConfig::leapio_like()
        });
        let mut prev = SimTime::ZERO;
        for bytes in loads {
            let done = arm.process(SimTime::ZERO, bytes);
            prop_assert!(done >= prev);
            prev = done;
        }
    }
}

#[test]
fn vfio_write_ceiling_below_read_ceiling() {
    let c = VfioCosts::paper_default();
    assert!(c.write_completion_ceiling() < c.read_completion_ceiling());
}

#[test]
fn vhost_cpu_accounting_matches_io_costs() {
    let cfg = SpdkVhostConfig::centos310();
    let per_io = (cfg.submit_small + cfg.complete_small).as_secs_f64();
    let mut v = SpdkVhost::new(cfg, 1);
    for _ in 0..10_000 {
        v.process_submission(SimTime::ZERO, 4096, false);
    }
    let busy = v.cpu_busy().as_secs_f64();
    assert!((busy - 10_000.0 * per_io).abs() < 1e-6);
}
