//! The observers' own cost, bounded: a short window of the
//! bm-4k-randread layout (Fig. 12: BM-Store, 4 VMs, 4K random reads,
//! 4 jobs × QD128 per VM) with telemetry, the 20 µs metrics sampler and
//! a latency SLO on must not take more than [`BOUND`] times as long as
//! the same window with every observer off.
//!
//! The runs are [`PAIRS`] interleaved on/off pairs, and the statistic is
//! the median of the per-pair on/off ratios, as bmbench computes
//! `observe.overhead_ratio`. A pair's two runs are adjacent in time, so
//! host drift cancels within it. A ratio of minimums does not: on a
//! shared 2-vCPU VM single runs come out up to 25% fast, and ratios of
//! min-of-5 or min-of-9 runs of one tree ranged from 0.93 to 1.64.
//! Release only: the bound describes the optimised build the
//! experiments and the benchmark use. Wall time is read through
//! `bmstore::prof::monotonic_ns`, the sanctioned audit point for
//! harness timing.

use bmstore::prof::monotonic_ns;
use bmstore::sim::slo::{SloConfig, SloSpec};
use bmstore::sim::SimDuration;
use bmstore::testbed::TestbedConfig;
use bmstore::workloads::fio::{run_fio, FioSpec, RwMode};

/// Interleaved on/off pairs per measurement.
const PAIRS: usize = 9;

/// Largest admitted median on/off wall-time ratio. Twenty runs of this
/// test on a 2-vCPU Xeon VM, over two sessions, measured medians of
/// 1.31–1.53 (mean 1.388, standard deviation 0.051); the bound is that
/// mean plus five standard deviations. The tree before the observers'
/// dense slots measured 2.38–2.43 on the same VM.
const BOUND: f64 = 1.64;

/// Runs the window and returns its wall-clock nanoseconds and a
/// rendering of the simulated results.
fn window(observed: bool) -> (u64, String) {
    let mut cfg = TestbedConfig::multi_vm_bm_store(4);
    if observed {
        let slo = SloSpec::latency(0, SimDuration::from_us(2_500));
        cfg = cfg
            .with_telemetry()
            .with_metrics_interval(SimDuration::from_us(20))
            .with_slo(SloConfig::new().with_spec(slo));
    }
    let spec = FioSpec {
        mode: RwMode::RandRead,
        block_bytes: 4096,
        iodepth: 128,
        numjobs: 4,
        ramp: SimDuration::from_ms(10),
        runtime: SimDuration::from_ms(40),
    };
    let begin = monotonic_ns();
    let (results, _) = run_fio(cfg, spec);
    let wall = monotonic_ns() - begin;
    (wall, format!("{results:?}"))
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: scripts/check.sh runs it with --release"
)]
fn observers_cost_at_most_bound_times_the_unobserved_run() {
    // A discarded first pair warms the allocator and the caches.
    let _ = (window(false), window(true));
    let mut ratios: Vec<f64> = (0..PAIRS)
        .map(|_| {
            let (off, results_off) = window(false);
            let (on, results_on) = window(true);
            assert_eq!(
                results_on, results_off,
                "observers must not change the simulated run"
            );
            on as f64 / off as f64
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[PAIRS / 2];
    println!("observe overhead ratio {median:.3} (pairs {ratios:.3?})");
    assert!(
        median <= BOUND,
        "observers cost {median:.3}x the unobserved run (bound {BOUND}); \
         sorted on/off ratios of {PAIRS} pairs: {ratios:.3?}"
    );
}
