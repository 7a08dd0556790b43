//! Fig. 8 + Table V — bare-metal single-disk: native vs BM-Store.
//!
//! IOPS, bandwidth and average latency for the six Table IV cases, with
//! the paper's latency reference columns.

use bm_bench::{fmt_bw, fmt_count, fmt_lat, header, paper, row, scaled};
use bm_testbed::TestbedConfig;
use bm_workloads::fio::{aggregate, run_fio, FioSpec};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    header(
        "Fig. 8 / Table V: bare-metal, 1 disk",
        &[
            "native IOPS",
            "bm IOPS",
            "native BW",
            "bm BW",
            "native lat",
            "bm lat",
            "paper nat",
            "paper bm",
        ],
    );
    for (i, (name, spec)) in FioSpec::table_iv().into_iter().enumerate() {
        let spec = scaled(spec);
        let (n, _) = run_fio(TestbedConfig::native(1), spec);
        let (b, _) = run_fio(TestbedConfig::bm_store_bare_metal(1), spec);
        let (n, b) = (aggregate(&n), aggregate(&b));
        let (_, p_nat, p_bm) = {
            let (c, x, y) = paper::TABLE_V_LATENCY_US[i];
            (c, x, y)
        };
        row(
            name,
            &[
                fmt_count(n.iops),
                fmt_count(b.iops),
                fmt_bw(n.bandwidth_mbps),
                fmt_bw(b.bandwidth_mbps),
                fmt_lat(n.avg_latency),
                fmt_lat(b.avg_latency),
                format!("{p_nat:.1}us"),
                format!("{p_bm:.1}us"),
            ],
        );
    }
    println!("\npaper: BM-Store reaches 96.2%–101.4% of native (82.5% on rand-w-1),");
    println!("adding ~3us of constant latency from the longer command path");
}
