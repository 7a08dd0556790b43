//! §VI-C — total-cost-of-ownership comparison.

use bm_bench::{fmt_pct, header, row};
use bmstore_core::tco::{compare, InstanceShape, ServerConfig};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    let server = ServerConfig::paper_typical();
    let shape = InstanceShape::paper_default();
    let c = compare(&server, &shape);
    header(
        "TCO: 128HT/1024GB/16SSD server, 8HT/64GB/1SSD instances",
        &["instances", "stranded", "server cost", "cost/inst"],
    );
    row(
        "spdk-vhost",
        &[
            c.spdk.sellable_instances.to_string(),
            format!(
                "{}GB+{}SSD",
                c.spdk.stranded_memory_gb, c.spdk.stranded_ssds
            ),
            format!("{:.1}", c.spdk.server_cost),
            format!("{:.3}", c.spdk.cost_per_instance),
        ],
    );
    row(
        "bm-store",
        &[
            c.bm_store.sellable_instances.to_string(),
            format!(
                "{}GB+{}SSD",
                c.bm_store.stranded_memory_gb, c.bm_store.stranded_ssds
            ),
            format!("{:.1}", c.bm_store.server_cost),
            format!("{:.3}", c.bm_store.cost_per_instance),
        ],
    );
    println!(
        "\nextra instances: {}   TCO reduction per instance: {}",
        fmt_pct(c.extra_instances_frac),
        fmt_pct(c.tco_reduction_frac)
    );
    println!("paper: +14.3% instances, >=11.3% TCO reduction, +3% hardware cost");
}
