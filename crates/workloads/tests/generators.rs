//! Workload-generator tests: the fio patterns, OLTP step machines, and
//! the LSM's flush/compaction accounting behave as specified.

use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::{SimDuration, SimTime};
use bm_testbed::{SchemeKind, TestbedConfig};
use bm_workloads::fio::{aggregate, run_fio, FioSpec, RwMode};
use bm_workloads::kvstore::{run_ycsb, LsmConfig};
use bm_workloads::oltp::{run_oltp, OltpSpec};
use bm_workloads::ycsb::{YcsbSpec, YcsbWorkload};

#[test]
fn fio_table_iv_has_six_cases_with_paper_parameters() {
    let cases = FioSpec::table_iv();
    assert_eq!(cases.len(), 6);
    let by_name: std::collections::BTreeMap<_, _> = cases.into_iter().collect();
    assert_eq!(by_name["rand-r-1"].iodepth, 1);
    assert_eq!(by_name["rand-r-128"].iodepth, 128);
    assert_eq!(by_name["rand-w-16"].iodepth, 16);
    assert_eq!(by_name["seq-r-256"].iodepth, 256);
    assert_eq!(by_name["seq-r-256"].block_bytes, 128 * 1024);
    assert!(by_name.values().all(|s| s.numjobs == 4));
}

#[test]
fn fio_read_write_mix_holds() {
    let spec = FioSpec {
        mode: RwMode::RandRw { read_frac: 0.7 },
        block_bytes: 4096,
        iodepth: 16,
        numjobs: 2,
        ramp: SimDuration::from_ms(10),
        runtime: SimDuration::from_ms(100),
    };
    let (results, world) = run_fio(TestbedConfig::native(1), spec);
    let agg = aggregate(&results);
    assert!(agg.ops > 1_000);
    // The SSD saw roughly the 70/30 split.
    let reads = world.tb.ssd(0).perf().reads() as f64;
    let writes = world.tb.ssd(0).perf().writes() as f64;
    let frac = reads / (reads + writes);
    assert!((0.65..0.75).contains(&frac), "read fraction {frac}");
}

#[test]
fn fio_sequential_jobs_use_disjoint_regions() {
    // Sequential jobs stride their own quarters; the throughput is the
    // usual sequential ceiling (would collapse if they collided with
    // random service behaviour this model doesn't have — this checks
    // the generator produces monotone per-job LBAs via determinism).
    let spec = FioSpec::seq_r_256().scaled(0.2);
    let (results, _) = run_fio(TestbedConfig::native(1), spec);
    let bw = aggregate(&results).bandwidth_mbps;
    assert!((3_000.0..3_400.0).contains(&bw), "bw {bw}");
}

#[test]
fn oltp_specs_match_paper_setups() {
    let tpcc = OltpSpec::tpcc();
    assert_eq!(tpcc.threads, 32, "paper: 32 concurrent TPC-C threads");
    // The five-type mix averages out I/O-rich (NewOrder/Payment heavy).
    let mean = tpcc.mix.mean_ios();
    assert!((10.0..30.0).contains(&mean), "mean IOs per txn {mean}");
    let sysbench = OltpSpec::sysbench();
    assert!(sysbench.mix.mean_ios() >= 5.0);
}

#[test]
fn oltp_transactions_account_all_steps() {
    let spec = OltpSpec::sysbench().scaled(0.2);
    let per_txn = spec.mix.mean_ios() as u64;
    let (stats, world) = run_oltp(TestbedConfig::single_vm(SchemeKind::Vfio), spec);
    assert!(stats.transactions > 100);
    assert_eq!(stats.queries, stats.transactions * 20);
    // Total device I/O ≈ txns × (reads + log + page writes), plus ramp
    // and drain traffic.
    let device_ops = world.tb.ssd(0).fetched();
    assert!(device_ops >= stats.transactions * per_txn);
    // Latency histogram is populated and plausible.
    assert!(stats.latency.mean() > SimDuration::from_us(100));
}

#[test]
fn ycsb_mixes_sum_to_one_per_op() {
    // Spot check via the generator: C is all reads.
    let spec = YcsbSpec {
        workload: YcsbWorkload::C,
        threads: 4,
        ramp: SimDuration::from_ms(10),
        runtime: SimDuration::from_ms(50),
    };
    let (stats, _) = run_ycsb(
        TestbedConfig::single_vm(SchemeKind::Vfio),
        spec,
        LsmConfig::default(),
    );
    assert!(stats.ops > 100);
    assert_eq!(stats.writes, 0, "workload C never writes");
    assert_eq!(stats.flushes, 0, "no writes, no flushes");
}

#[test]
fn lsm_flushes_track_write_volume() {
    // Update-heavy A with a small memtable: flush count ≈ write bytes /
    // memtable size; background bytes = flush + compaction echo.
    let lsm = LsmConfig {
        memtable_bytes: 4 << 20,
        ..LsmConfig::default()
    };
    let spec = YcsbSpec {
        workload: YcsbWorkload::A,
        threads: 8,
        ramp: SimDuration::from_ms(10),
        runtime: SimDuration::from_ms(300),
    };
    let (stats, _) = run_ycsb(TestbedConfig::single_vm(SchemeKind::Vfio), spec, lsm);
    assert!(stats.flushes >= 2, "only {} flushes", stats.flushes);
    let expected_min = stats.flushes * (lsm.memtable_bytes as f64 * 0.8) as u64;
    assert!(
        stats.background_bytes >= expected_min,
        "background {} < {}",
        stats.background_bytes,
        expected_min
    );
}

#[test]
fn failed_ios_count_as_failed_work_not_committed() {
    // Every I/O on the one SSD fails for the whole run, so no
    // transaction or operation completes without error.
    let cfg = || {
        let plan = FaultPlan::new(7).with(
            SimTime::ZERO,
            FaultKind::SsdErrorBurst {
                ssd: 0,
                probability: 1.0,
                until: SimTime::ZERO + SimDuration::from_secs(10),
            },
        );
        TestbedConfig::single_vm(SchemeKind::Vfio).with_fault_plan(plan)
    };
    let (oltp, _) = run_oltp(cfg(), OltpSpec::sysbench().scaled(0.05));
    assert!(oltp.failed > 0, "no failed transaction counted");
    assert_eq!(
        (oltp.transactions, oltp.queries, oltp.latency.count()),
        (0, 0, 0),
        "failed transactions counted as committed"
    );
    let spec = YcsbSpec {
        workload: YcsbWorkload::A,
        threads: 4,
        ramp: SimDuration::from_ms(5),
        runtime: SimDuration::from_ms(20),
    };
    let (kv, _) = run_ycsb(cfg(), spec, LsmConfig::default());
    assert!(kv.failed > 0, "no failed operation counted");
    assert_eq!(
        (kv.ops, kv.reads, kv.writes, kv.latency.count()),
        (0, 0, 0, 0),
        "failed operations counted as completed"
    );
    // Enough writes to fill small memtables: the flushes and their
    // compactions run, but their failed I/O moved no bytes.
    let spec = YcsbSpec {
        workload: YcsbWorkload::A,
        threads: 8,
        ramp: SimDuration::from_ms(10),
        runtime: SimDuration::from_ms(300),
    };
    let lsm = LsmConfig {
        memtable_bytes: 4 << 20,
        ..LsmConfig::default()
    };
    let (kv, _) = run_ycsb(cfg(), spec, lsm);
    assert!(kv.flushes > 0, "no memtable flushed");
    assert_eq!(kv.background_bytes, 0, "failed background I/O counted");
}
