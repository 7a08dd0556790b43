//! Fig. 13 + Table VIII — MySQL under TPC-C and Sysbench across
//! schemes, reported normalized to VFIO (the paper's baseline).

use bm_bench::{fmt_pct, header, paper, row, scale};
use bm_sim::SimDuration;
use bm_testbed::{SchemeKind, TestbedConfig};
use bm_workloads::oltp::{run_oltp, OltpSpec, OltpStats};

fn run(scheme: SchemeKind, spec: OltpSpec) -> OltpStats {
    let (stats, _) = run_oltp(TestbedConfig::single_vm(scheme), spec);
    stats
}

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    let s = scale();
    // --- TPC-C (Fig. 13a) ---
    let spec = OltpSpec::tpcc().scaled(s);
    let window = spec.runtime;
    let v = run(SchemeKind::Vfio, spec.clone());
    let b = run(SchemeKind::BmStore { in_vm: true }, spec.clone());
    let p = run(SchemeKind::SpdkVhost { cores: 1 }, spec);
    header(
        "Fig. 13(a): TPC-C normalized transactions",
        &["tps", "normalized"],
    );
    for (name, st) in [("vfio", &v), ("bm-store", &b), ("spdk-vhost", &p)] {
        row(
            name,
            &[
                format!("{:.0}", st.tps(window)),
                fmt_pct(st.transactions as f64 / v.transactions as f64),
            ],
        );
    }
    println!(
        "paper: BM-Store near native; up to {} more transactions than SPDK",
        bm_bench::fmt_pct(paper::TPCC_SPDK_DEFICIT)
    );

    // --- Sysbench (Fig. 13b + Table VIII) ---
    let spec = OltpSpec::sysbench().scaled(s);
    let window = spec.runtime;
    let v = run(SchemeKind::Vfio, spec.clone());
    let b = run(SchemeKind::BmStore { in_vm: true }, spec.clone());
    let p = run(SchemeKind::SpdkVhost { cores: 1 }, spec);
    header(
        "Fig. 13(b) / Table VIII: Sysbench",
        &["tps", "qps", "norm txns", "avg lat", "norm lat"],
    );
    for (name, st) in [("vfio", &v), ("bm-store", &b), ("spdk-vhost", &p)] {
        row(
            name,
            &[
                format!("{:.0}", st.tps(window)),
                format!("{:.0}", st.queries as f64 / window.as_secs_f64()),
                fmt_pct(st.transactions as f64 / v.transactions as f64),
                format!("{:.0}us", st.latency.mean().as_micros_f64()),
                fmt_pct(st.latency.mean().as_micros_f64() / v.latency.mean().as_micros_f64()),
            ],
        );
    }
    println!(
        "paper: BM-Store {:.1}% below native, {:.1}% above SPDK; latency +2.6% (BM) vs +11.2% (SPDK)",
        paper::SYSBENCH_BM_BELOW_NATIVE * 100.0,
        paper::SYSBENCH_BM_OVER_SPDK * 100.0
    );
    let _ = SimDuration::ZERO;
    let _ = paper::TABLE_VIII_LATENCY;
}
