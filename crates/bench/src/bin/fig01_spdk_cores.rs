//! Fig. 1 — SPDK vhost bandwidth vs number of polling cores on 4 SSDs.
//!
//! The paper's motivation figure: "SPDK vhost needs to bind at least
//! eight CPU cores for four SSDs to get only 80% of native performance."
//! Workload: 128K sequential read, QD256, 4 jobs (per device).

use bm_baselines::spdk::SpdkVhostConfig;
use bm_bench::{fmt_bw, fmt_pct, header, row, scaled};
use bm_testbed::{DeviceSpec, SchemeKind, TestbedConfig};
use bm_workloads::fio::{aggregate, run_fio, FioSpec};

fn four_ssd_devices() -> Vec<DeviceSpec> {
    (0..4).map(DeviceSpec::whole_disk).collect()
}

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    let spec = scaled(FioSpec::seq_r_256());

    // Native baseline: 4 SSDs driven directly.
    let native_cfg = TestbedConfig {
        devices: four_ssd_devices(),
        ..TestbedConfig::native(4)
    };
    let (results, _) = run_fio(native_cfg, spec);
    let native_bw = aggregate(&results).bandwidth_mbps;

    header(
        "Fig. 1: SPDK vhost vs polling cores (4 SSDs, seq read 128K)",
        &["bandwidth", "of native"],
    );
    row("native", &[fmt_bw(native_bw), fmt_pct(1.0)]);
    for cores in [1usize, 2, 4, 6, 8, 10] {
        let cfg = TestbedConfig {
            scheme: SchemeKind::SpdkVhost { cores },
            devices: four_ssd_devices(),
            spdk_config: Some(SpdkVhostConfig::centos310_multi_ssd(4)),
            ..TestbedConfig::native(4)
        };
        let (results, world) = run_fio(cfg, spec);
        let bw = aggregate(&results).bandwidth_mbps;
        let _ = world.tb.polling_cpu_busy();
        row(
            &format!("{cores} cores"),
            &[fmt_bw(bw), fmt_pct(bw / native_bw)],
        );
    }
    println!("\npaper: >=8 cores reach only ~80% of native; BM-Store needs 0 polling cores");
}
