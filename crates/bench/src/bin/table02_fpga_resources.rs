//! Table II — FPGA resource utilization per attached-SSD count.

use bm_bench::{header, row};
use bmstore_core::engine::resources::{FpgaDevice, ResourceUsage};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    let dev = FpgaDevice::zu19eg();
    header(
        "Table II: FPGA resources (model vs paper)",
        &["LUTs", "Registers", "BRAMs", "URAMs", "Clock"],
    );
    for ssds in [1u32, 2, 4, 6] {
        let u = ResourceUsage::for_ssds(ssds);
        let pct = u.utilization(&dev);
        row(
            &format!("{ssds} SSDs"),
            &[
                format!("{} ({:.0}%)", u.luts, pct[0] * 100.0),
                format!("{} ({:.0}%)", u.registers, pct[1] * 100.0),
                format!("{:.0} ({:.0}%)", u.brams, pct[2] * 100.0),
                format!("{:.1} ({:.0}%)", u.urams, pct[3] * 100.0),
                format!("{}MHz", u.clock_mhz),
            ],
        );
    }
    let max = ResourceUsage::max_ssds_within(&dev, 1.0);
    println!("\nheadroom: up to {max} SSDs fit the ZU19EG (paper: \"can support more SSDs\")");
}
