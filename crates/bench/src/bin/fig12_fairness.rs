//! Fig. 12 — tail-latency fairness across 4 VMs sharing BM-Store.
//!
//! Four VMs run the same case concurrently; the per-VM p50/p90/p99/
//! p99.9 should sit close together (the QoS module prevents any VM
//! from tilting the host's resources).

use bm_bench::{header, row, scaled};
use bm_sim::stats::IoStats;
use bm_testbed::{DeviceId, Testbed, TestbedConfig, World};
use bm_workloads::fio::{FioJob, FioSpec, SharedStats};
use std::cell::RefCell;
use std::rc::Rc;

fn run_case(name: &str, spec: FioSpec) {
    let cfg = TestbedConfig::multi_vm_bm_store(4);
    let mut tb = Testbed::new(cfg);
    let mut sinks: Vec<SharedStats> = Vec::new();
    let mut jobs = Vec::new();
    for vm in 0..4usize {
        let stats: SharedStats = Rc::new(RefCell::new(IoStats::new()));
        sinks.push(Rc::clone(&stats));
        for j in 0..spec.numjobs {
            jobs.push(FioJob::new(
                &mut tb,
                DeviceId(vm),
                spec,
                j,
                0xFA1 + vm as u64,
                Rc::clone(&stats),
                None,
            ));
        }
    }
    let mut world = World::new(tb);
    for job in jobs {
        world.add_client(Box::new(job));
    }
    let _ = world.run(None);
    header(
        &format!("Fig. 12 ({name}): per-VM tail latency"),
        &["p50", "p90", "p99", "p99.9"],
    );
    for (vm, stats) in sinks.iter().enumerate() {
        let s = stats.borrow();
        let h = s.latency();
        row(
            &format!("VM{vm}"),
            &[
                format!("{:.0}us", h.percentile(0.50).as_micros_f64()),
                format!("{:.0}us", h.percentile(0.90).as_micros_f64()),
                format!("{:.0}us", h.percentile(0.99).as_micros_f64()),
                format!("{:.0}us", h.percentile(0.999).as_micros_f64()),
            ],
        );
    }
}

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    run_case("rand-r-128", scaled(FioSpec::rand_r_128()));
    run_case("rand-w-16", scaled(FioSpec::rand_w_16()));
    println!("\npaper: tail-latency distributions of the four VMs are close to each");
    println!("other in every test case — fairness is maintained");
}
