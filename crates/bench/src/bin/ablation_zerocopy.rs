//! Ablation — zero-copy DMA routing vs store-and-forward.
//!
//! The paper's §IV-C motivation: without the global-PRP mechanism,
//! "the data must be transferred to the FPGA memory and then copied to
//! the host memory. These duplicate data copies will seriously affect
//! I/O performance." This bench swaps in a store-and-forward engine
//! whose card DRAM sustains ~9.6 GB/s of copy traffic.

use bm_bench::{fmt_bw, fmt_count, fmt_lat, header, row, scaled};
use bm_testbed::TestbedConfig;
use bm_workloads::fio::{aggregate, run_fio, FioSpec};

/// Effective copy bandwidth of the card's DDR4 (each byte written and
/// read once: ~19.2 GB/s raw halves to ~9.6 GB/s usable).
const CARD_DRAM_BW: f64 = 9.6e9;

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    header(
        "Ablation: zero-copy vs store-and-forward (4 SSDs, bare metal)",
        &["IOPS", "BW", "avg lat"],
    );
    for (case, spec) in [
        ("seq-r-256", FioSpec::seq_r_256()),
        ("rand-r-128", FioSpec::rand_r_128()),
    ] {
        let spec = scaled(spec);
        let (zc, _) = run_fio(TestbedConfig::bm_store_bare_metal(4), spec);
        let mut cfg = TestbedConfig::bm_store_bare_metal(4);
        cfg.store_and_forward_bw = Some(CARD_DRAM_BW);
        let (sf, _) = run_fio(cfg, spec);
        let (zc, sf) = (aggregate(&zc), aggregate(&sf));
        row(
            &format!("{case} zero-copy"),
            &[
                fmt_count(zc.iops),
                fmt_bw(zc.bandwidth_mbps),
                fmt_lat(zc.avg_latency),
            ],
        );
        row(
            &format!("{case} copy"),
            &[
                fmt_count(sf.iops),
                fmt_bw(sf.bandwidth_mbps),
                fmt_lat(sf.avg_latency),
            ],
        );
    }
    println!("\npaper: zero-copy DMA routing eliminates the duplicate copies that");
    println!("would otherwise cap multi-SSD bandwidth at the card DRAM's rate");
}
