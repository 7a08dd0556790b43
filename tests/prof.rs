//! The profiler's two contract properties, end to end:
//!
//! 1. **Read-only**: enabling `bm-prof` must not perturb the
//!    simulation. The figure-relevant outputs of a BM-Store fio run are
//!    byte-identical (exact f64 bit patterns) with the profiler on.
//! 2. **Cheap**: a profiled run stays within 10% wall-clock of an
//!    unprofiled one (stride-sampled timing, guard-free scope
//!    boundaries). Measured min-of-3 with runs interleaved so machine
//!    noise hits both sides.
//!
//! Wall time is read through `bmstore::prof::monotonic_ns`, the
//! sanctioned audit point for harness timing (`clippy.toml` disallows
//! `Instant::now` everywhere else).

use bmstore::prof::monotonic_ns;
use bmstore::testbed::TestbedConfig;
use bmstore::workloads::fio::{run_fio, FioSpec};
use std::fmt::Write as _;

/// Runs the fig. 8 bare-metal rand-r-128 case (scaled down) and
/// renders every figure-relevant number exactly. Returns the rendering
/// and the run's wall-clock nanoseconds.
fn profiled_case(profiler: bool) -> (String, u64) {
    let mut cfg = TestbedConfig::bm_store_bare_metal(1);
    if profiler {
        cfg = cfg.with_profiler();
    }
    let spec = FioSpec::rand_r_128().scaled(0.2);
    let begin = monotonic_ns();
    let (results, world) = run_fio(cfg, spec);
    let wall = monotonic_ns() - begin;
    let mut s = String::new();
    let _ = writeln!(s, "events {}", world.events_fired);
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "dev{i} ops {} iops {:016x} bw {:016x} p50 {} p99 {} p999 {} avg {}",
            r.ops,
            r.iops.to_bits(),
            r.bandwidth_mbps.to_bits(),
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            r.avg_latency.as_nanos(),
        );
    }
    (s, wall)
}

#[test]
fn profiler_is_read_only_and_cheap() {
    // Property 1: byte-identical figures. The first pair also warms
    // caches so the timing loop below starts from a steady state.
    let (fig_off, mut wall_off) = profiled_case(false);
    let (fig_on, mut wall_on) = profiled_case(true);
    assert_eq!(
        fig_on, fig_off,
        "profiler-on figures must be byte-identical to profiler-off"
    );

    // Property 2: overhead bound. Min-of-3, interleaved. The absolute
    // slack absorbs timer granularity and CI neighbours on what is a
    // sub-second debug-profile run.
    for _ in 0..2 {
        wall_off = wall_off.min(profiled_case(false).1);
        wall_on = wall_on.min(profiled_case(true).1);
    }
    let budget = wall_off + wall_off / 10 + 150_000_000;
    assert!(
        wall_on <= budget,
        "profiled run took {wall_on} ns, over the 10% overhead budget \
         ({budget} ns against baseline {wall_off} ns)"
    );
}
