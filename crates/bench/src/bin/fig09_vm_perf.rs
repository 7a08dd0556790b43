//! Fig. 9 + Table VII — single-VM performance: VFIO vs BM-Store vs
//! SPDK vhost (1 disk; SPDK burns one extra host core for polling).

use bm_bench::{fmt_bw, fmt_count, fmt_lat, header, paper, row, scaled};
use bm_testbed::{SchemeKind, TestbedConfig};
use bm_workloads::fio::{aggregate, run_fio, FioSpec};

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    header(
        "Fig. 9 / Table VII: single VM, 1 disk",
        &[
            "vfio IOPS",
            "bm IOPS",
            "spdk IOPS",
            "vfio lat",
            "bm lat",
            "spdk lat",
            "paper v/b/s",
        ],
    );
    for (i, (name, spec)) in FioSpec::table_iv().into_iter().enumerate() {
        let spec = scaled(spec);
        let (v, _) = run_fio(TestbedConfig::single_vm(SchemeKind::Vfio), spec);
        let (b, _) = run_fio(
            TestbedConfig::single_vm(SchemeKind::BmStore { in_vm: true }),
            spec,
        );
        let (s, _) = run_fio(
            TestbedConfig::single_vm(SchemeKind::SpdkVhost { cores: 1 }),
            spec,
        );
        let (v, b, s) = (aggregate(&v), aggregate(&b), aggregate(&s));
        let (_, pv, pb, ps) = paper::TABLE_VII_LATENCY_US[i];
        row(
            name,
            &[
                fmt_count(v.iops),
                fmt_count(b.iops),
                fmt_count(s.iops),
                fmt_lat(v.avg_latency),
                fmt_lat(b.avg_latency),
                fmt_lat(s.avg_latency),
                format!("{pv:.0}/{pb:.0}/{ps:.0}"),
            ],
        );
        let _ = (v.bandwidth_mbps, fmt_bw(0.0));
    }
    println!("\npaper: BM-Store reaches 95.6%-102.7% of VFIO (81.2% on rand-w-1);");
    println!("SPDK only 63.0%-96.0% and consumes 25% more CPU (1 polling core)");
}
