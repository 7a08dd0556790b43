//! Fig. 11 — total bandwidth of BM-Store with 1–26 VMs on 4 SSDs.
//!
//! Each VM gets a 256 GB namespace striped round-robin over the four
//! SSDs and runs a moderate sequential-read stream; total throughput
//! scales linearly until the four drives saturate (paper: 12.40 GB/s
//! at 16 VMs), and stays fairly divided.

use bm_bench::{fmt_bw, header, paper, row, scale};
use bm_sim::SimDuration;
use bm_testbed::TestbedConfig;
use bm_workloads::fio::{aggregate, run_fio, FioSpec, RwMode};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    header(
        "Fig. 11: BM-Store multi-VM total bandwidth (4 SSDs)",
        &["total BW", "per VM", "min/max VM"],
    );
    let spec = FioSpec {
        mode: RwMode::SeqRead,
        block_bytes: 128 * 1024,
        iodepth: 1,
        numjobs: 1,
        ramp: SimDuration::from_ms(100),
        runtime: SimDuration::from_ms(800),
    }
    .scaled(scale());
    for vms in [1usize, 2, 4, 8, 16, 26] {
        let (results, _) = run_fio(TestbedConfig::multi_vm_bm_store(vms), spec);
        let agg = aggregate(&results);
        let min = results
            .iter()
            .map(|r| r.bandwidth_mbps)
            .fold(f64::INFINITY, f64::min);
        let max = results.iter().map(|r| r.bandwidth_mbps).fold(0.0, f64::max);
        row(
            &format!("{vms} VMs"),
            &[
                fmt_bw(agg.bandwidth_mbps),
                fmt_bw(agg.bandwidth_mbps / vms as f64),
                format!("{min:.0}/{max:.0}"),
            ],
        );
    }
    println!(
        "\npaper: linear scaling, {} GB/s at 16 VMs (the four P4510s' ceiling),",
        paper::FIG11_PEAK_GBPS
    );
    println!("with balanced allocation across VMs");
}
