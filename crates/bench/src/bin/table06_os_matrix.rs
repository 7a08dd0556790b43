//! Table VI — BM-Store across OS/kernel versions.
//!
//! 4K random read, QD16 × 8 jobs, BM-Store bare metal. BM-Store itself
//! is host-independent; the differences come from the host stack.

use bm_bench::{fmt_bw, fmt_count, fmt_lat, header, paper, row, scale};
use bm_host::KernelProfile;
use bm_sim::SimDuration;
use bm_testbed::TestbedConfig;
use bm_workloads::fio::{aggregate, run_fio, FioSpec, RwMode};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    header(
        "Table VI: BM-Store on different OS/kernels (4K randread qd16 x8)",
        &["IOPS", "BW", "avg lat", "paper IOPS", "paper lat"],
    );
    let spec = FioSpec {
        mode: RwMode::RandRead,
        block_bytes: 4096,
        iodepth: 16,
        numjobs: 8,
        ramp: SimDuration::from_ms(50),
        runtime: SimDuration::from_ms(400),
    }
    .scaled(scale());
    for (i, kernel) in KernelProfile::table_vi().into_iter().enumerate() {
        let name = kernel.name;
        let mut cfg = TestbedConfig::bm_store_bare_metal(1).with_kernel(kernel);
        cfg.apply_plug_factor = true;
        let (results, _) = run_fio(cfg, spec);
        let agg = aggregate(&results);
        let (_, p_iops, _p_bw, p_lat) = paper::TABLE_VI[i];
        row(
            name,
            &[
                fmt_count(agg.iops),
                fmt_bw(agg.bandwidth_mbps),
                fmt_lat(agg.avg_latency),
                fmt_count(p_iops),
                format!("{p_lat:.1}us"),
            ],
        );
    }
    println!("\npaper: BM-Store runs unmodified on every OS/kernel with stable performance");
}
