//! Fig. 10 — total bandwidth of BM-Store vs number of SSDs (bare
//! metal, seq-r-256 per device).

use bm_bench::{fmt_bw, header, row, scaled};
use bm_testbed::TestbedConfig;
use bm_workloads::fio::{aggregate, run_fio, FioSpec};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    header(
        "Fig. 10: BM-Store total bandwidth vs #SSDs (seq-r-256)",
        &["total BW", "per SSD"],
    );
    let spec = scaled(FioSpec::seq_r_256());
    for ssds in 1..=4usize {
        let (results, _) = run_fio(TestbedConfig::bm_store_bare_metal(ssds), spec);
        let agg = aggregate(&results);
        row(
            &format!("{ssds} SSDs"),
            &[
                fmt_bw(agg.bandwidth_mbps),
                fmt_bw(agg.bandwidth_mbps / ssds as f64),
            ],
        );
    }
    println!("\npaper: bandwidth scales linearly with SSD count while using about");
    println!("half the FPGA (Table II) — promising scalability");
}
