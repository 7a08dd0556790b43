//! Fig. 14 — mixed Sysbench + YCSB workloads in multiple VMs:
//! (a) RocksDB transaction throughput, (b) MySQL average latency.

use bm_bench::{header, row, scale};
use bm_testbed::{DeviceSpec, SchemeKind, TestbedConfig};
use bm_workloads::mixed::run_mixed;
use bm_workloads::oltp::OltpSpec;
use bm_workloads::ycsb::YcsbSpec;

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    let s = scale();
    let oltp_spec = OltpSpec::sysbench().scaled(s);
    let ycsb_spec = YcsbSpec::paper_mixed().scaled(s);
    let window = ycsb_spec.runtime;
    header(
        "Fig. 14: mixed workloads, 2 MySQL VMs + 2 RocksDB VMs",
        &["kv ops/s (x2)", "mysql lat (x2)"],
    );
    for (name, scheme) in [
        ("vfio", SchemeKind::Vfio),
        ("bm-store", SchemeKind::BmStore { in_vm: true }),
        ("spdk-vhost", SchemeKind::SpdkVhost { cores: 1 }),
    ] {
        let cfg = TestbedConfig {
            scheme,
            ssds: 4,
            devices: (0..4).map(DeviceSpec::vm_namespace_on).collect(),
            ..TestbedConfig::native(4)
        };
        let (result, _) = run_mixed(cfg, 2, 2, oltp_spec.clone(), ycsb_spec);
        let kv: Vec<String> = result
            .kv
            .iter()
            .map(|k| format!("{:.0}", k.ops_per_sec(window)))
            .collect();
        let lat: Vec<String> = result
            .oltp
            .iter()
            .map(|o| format!("{:.0}us", o.latency.mean().as_micros_f64()))
            .collect();
        row(name, &[kv.join("/"), lat.join("/")]);
    }
    println!("\npaper: BM-Store keeps near-native throughput and isolation even under");
    println!("complex mixed workloads across VMs");
}
