//! Ablation — FPGA I/O path vs LeapIO-style ARM full offload.
//!
//! §III-B: "LeapIO … only achieves 68% throughput of the single native
//! disk due to the limited computing capabilities of ARM CPU. Hence,
//! BM-Store offloads the I/O path to the FPGA for high performance."

use bm_bench::{fmt_count, fmt_pct, header, row, scaled};
use bm_testbed::{SchemeKind, TestbedConfig};
use bm_workloads::fio::{aggregate, run_fio, FioSpec};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    let spec = scaled(FioSpec::rand_r_128());
    let (native, _) = run_fio(TestbedConfig::native(1), spec);
    let (bm, _) = run_fio(TestbedConfig::bm_store_bare_metal(1), spec);
    let arm_cfg = TestbedConfig {
        scheme: SchemeKind::ArmOffload,
        ..TestbedConfig::native(1)
    };
    let (arm, _) = run_fio(arm_cfg, spec);
    let (native, bm, arm) = (aggregate(&native), aggregate(&bm), aggregate(&arm));
    header(
        "Ablation: I/O path placement (4K randread qd128 x4, 1 disk)",
        &["IOPS", "of native"],
    );
    row("native", &[fmt_count(native.iops), fmt_pct(1.0)]);
    row(
        "bm-store (FPGA)",
        &[fmt_count(bm.iops), fmt_pct(bm.iops / native.iops)],
    );
    row(
        "arm offload",
        &[fmt_count(arm.iops), fmt_pct(arm.iops / native.iops)],
    );
    println!("\npaper: the ARM-offloaded stack reaches only ~68% of native; the");
    println!("FPGA-accelerated path stays within a few percent");
}
