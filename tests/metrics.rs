//! Metrics-subsystem contract: the sampled time series obey the flow
//! conservation identities at every tick (with and without injected
//! faults), the utilization data satisfies Little's law, and the
//! bottleneck profiler names the right saturated stage for SSD-bound
//! vs DMA-bound workloads.

use bmstore::sim::faults::{FaultKind, FaultPlan};
use bmstore::sim::metrics::{names, stages, MetricKey, MetricsRegistry};
use bmstore::sim::{SimDuration, SimTime};
use bmstore::testbed::TestbedConfig;
use bmstore::workloads::fio::{run_fio, FioSpec, RwMode};
use bmstore_core::FailPolicy;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_ms(n)
}

fn spec(mode: RwMode, block_bytes: u64, iodepth: u32) -> FioSpec {
    FioSpec {
        mode,
        block_bytes,
        iodepth,
        numjobs: 2,
        ramp: SimDuration::from_ms(2),
        runtime: SimDuration::from_ms(20),
    }
}

fn ssd_series<'a>(
    reg: &'a MetricsRegistry,
    name: &'static str,
    ssd: usize,
) -> &'a [(SimTime, f64)] {
    reg.series(&MetricKey::labeled(name, "ssd", ssd))
        .map(|s| s.points())
        .unwrap_or(&[])
}

/// `live == forwarded − completed − abandoned` and
/// `inflight == live + zombies`, per SSD, at every sample tick: no
/// command is ever double-counted or lost by the port accounting.
fn assert_conservation(reg: &MetricsRegistry, ssds: usize) {
    for ssd in 0..ssds {
        let live = ssd_series(reg, names::BACKEND_LIVE, ssd);
        let fwd = ssd_series(reg, names::BACKEND_FORWARDED, ssd);
        let comp = ssd_series(reg, names::BACKEND_COMPLETED, ssd);
        let aband = ssd_series(reg, names::BACKEND_ABANDONED, ssd);
        let infl = ssd_series(reg, names::BACKEND_INFLIGHT, ssd);
        let zomb = ssd_series(reg, names::BACKEND_ZOMBIES, ssd);
        assert!(!live.is_empty(), "ssd {ssd}: no samples recorded");
        let ticks = live
            .len()
            .min(fwd.len())
            .min(comp.len())
            .min(aband.len())
            .min(infl.len())
            .min(zomb.len());
        assert!(ticks > 10, "ssd {ssd}: too few aligned ticks ({ticks})");
        for t in 0..ticks {
            let at = fwd[t].0;
            assert_eq!(
                live[t].1,
                fwd[t].1 - comp[t].1 - aband[t].1,
                "ssd {ssd} at {at:?}: live != forwarded - completed - abandoned"
            );
            assert_eq!(
                infl[t].1,
                live[t].1 + zomb[t].1,
                "ssd {ssd} at {at:?}: inflight != live + zombies"
            );
        }
    }
}

#[test]
fn conservation_holds_at_every_sample_tick() {
    let cfg = TestbedConfig::bm_store_bare_metal(2).with_metrics();
    let (_, world) = run_fio(cfg, spec(RwMode::RandRead, 4096, 64));
    world
        .tb
        .observer()
        .metrics()
        .map(|reg| {
            assert_conservation(reg, 2);
            // Engine flow totals close out at drain: every started
            // command finished, and the outstanding gauge read zero.
            let started = reg.counter(&MetricKey::labeled(names::ENGINE_STARTED, "function", "f0"));
            let finished = reg.counter(&MetricKey::labeled(
                names::ENGINE_FINISHED,
                "function",
                "f0",
            ));
            assert!(started > 0);
            assert_eq!(started, finished);
            let outstanding = reg
                .gauge(&MetricKey::labeled(
                    names::ENGINE_OUTSTANDING,
                    "function",
                    "f0",
                ))
                .expect("outstanding gauge exists");
            assert_eq!(outstanding.value(), 0.0);
        })
        .expect("metrics enabled");
}

#[test]
fn conservation_holds_under_fault_plan() {
    // Faults that exercise the lossy paths: dropped commands become
    // zombies/abandoned entries, the spike and stall stretch residency.
    let plan = FaultPlan::new(0xFEED_FACE)
        .with(ms(3), FaultKind::SsdDropCommands { ssd: 1, count: 3 })
        .with(
            ms(5),
            FaultKind::SsdLatencySpike {
                ssd: 0,
                extra: SimDuration::from_us(150),
                until: ms(12),
            },
        )
        .with(
            ms(8),
            FaultKind::SsdStall {
                ssd: 1,
                until: ms(8) + SimDuration::from_us(400),
            },
        );
    let cfg = TestbedConfig::bm_store_bare_metal(2)
        .with_metrics()
        .with_fault_plan(plan)
        .with_command_timeout(SimDuration::from_ms(5), FailPolicy::AbortToHost);
    let (_, world) = run_fio(cfg, spec(RwMode::RandRead, 4096, 32));
    world
        .tb
        .observer()
        .metrics()
        .map(|reg| {
            assert_conservation(reg, 2);
            // The fault plan must leave annotations on the run so the
            // excursions in the series can be matched to their cause.
            assert!(
                reg.annotations()
                    .iter()
                    .any(|a| a.label == "fault:ssd-latency-spike"),
                "spike fault was not annotated"
            );
            assert!(
                reg.annotations()
                    .iter()
                    .any(|a| a.label == "fault:ssd-drop-commands"),
                "drop fault was not annotated"
            );
        })
        .expect("metrics enabled");
}

#[test]
fn littles_law_relates_backend_occupancy_to_ssd_busy() {
    // L = λ·W. The time integral of the backend live gauge must equal
    // the summed SSD span durations: mean(live) ≈ busy_ns / window_ns.
    let cfg = TestbedConfig::bm_store_bare_metal(1).with_metrics();
    let (_, world) = run_fio(cfg, spec(RwMode::RandRead, 4096, 64));
    world
        .tb
        .observer()
        .metrics()
        .map(|reg| {
            let end = reg.last_sample().expect("sampler ran");
            let window_ns = end.saturating_since(SimTime::ZERO).as_nanos() as f64;
            let busy_ns = reg.counter(&MetricKey::labeled(
                names::STAGE_BUSY_NS,
                "stage",
                stages::SSD,
            )) as f64;
            let expected_l = busy_ns / window_ns;
            let measured_l = reg
                .gauge(&MetricKey::labeled(names::BACKEND_LIVE, "ssd", 0))
                .expect("live gauge exists")
                .mean_over(SimTime::ZERO, end);
            assert!(expected_l > 1.0, "workload too light: L = {expected_l}");
            let rel = (measured_l - expected_l).abs() / expected_l;
            assert!(
                rel < 0.15,
                "Little's law violated: mean live {measured_l:.2} vs busy/window {expected_l:.2} \
                 ({:.1}% apart)",
                rel * 100.0
            );
        })
        .expect("metrics enabled");
}

#[test]
fn bottleneck_report_names_ssd_for_ssd_bound_load() {
    // Deep random reads on one SSD, bare metal and from the Fig. 12
    // four-VM layout: device service time dominates.
    for cfg in [
        TestbedConfig::bm_store_bare_metal(1),
        TestbedConfig::multi_vm_bm_store(4),
    ] {
        let (_, world) = run_fio(cfg.with_metrics(), spec(RwMode::RandRead, 4096, 128));
        world
            .tb
            .observer()
            .metrics()
            .map(|reg| {
                let end = reg.last_sample().expect("sampler ran");
                let report = reg.bottleneck_report(end, 3);
                assert_eq!(
                    report.saturated.as_deref(),
                    Some(stages::SSD),
                    "stages: {:?}",
                    report
                        .stages
                        .iter()
                        .map(|s| (s.stage.clone(), s.occupancy))
                        .collect::<Vec<_>>()
                );
            })
            .expect("metrics enabled");
    }
}

#[test]
fn bottleneck_report_names_dma_routing_for_dma_bound_load() {
    // Store-and-forward ablation with a starved card-DRAM link: large
    // sequential reads queue on the copy link, so the forward window
    // (charged to dma_routing) dwarfs the device service time.
    let mut cfg = TestbedConfig::bm_store_bare_metal(1).with_metrics();
    cfg.store_and_forward_bw = Some(50e6);
    let (_, world) = run_fio(cfg, spec(RwMode::SeqRead, 128 * 1024, 8));
    world
        .tb
        .observer()
        .metrics()
        .map(|reg| {
            let end = reg.last_sample().expect("sampler ran");
            let report = reg.bottleneck_report(end, 3);
            assert_eq!(
                report.saturated.as_deref(),
                Some(stages::DMA_ROUTING),
                "stages: {:?}",
                report
                    .stages
                    .iter()
                    .map(|s| (s.stage.clone(), s.occupancy))
                    .collect::<Vec<_>>()
            );
        })
        .expect("metrics enabled");
}
