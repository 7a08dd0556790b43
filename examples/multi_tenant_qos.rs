//! Multi-tenant isolation: four VMs share the four back-end SSDs; one
//! tenant is capped by the QoS module, the others run free. Shows the
//! §V-D fairness behaviour plus a live QoS change over MCTP.
//!
//! ```bash
//! cargo run --release --example multi_tenant_qos
//! ```

use bmstore::core::controller::commands::BmsCommand;
use bmstore::core::engine::qos::QosLimit;
use bmstore::pcie::FunctionId;
use bmstore::sim::stats::IoStats;
use bmstore::sim::{SimDuration, SimTime};
use bmstore::testbed::{DeviceId, Testbed, TestbedConfig, World};
use bmstore::workloads::fio::{FioJob, FioSpec, SharedStats};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let mut cfg = TestbedConfig::multi_vm_bm_store(4);
    // Tenant 0 signed up for a budget tier: 20K IOPS.
    cfg.devices[0].qos = QosLimit::iops(20_000.0);
    let mut tb = Testbed::new(cfg);

    let spec = FioSpec::rand_r_128().scaled(0.75);
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
                0x70 + vm as u64,
                Rc::clone(&stats),
                None,
            ));
        }
    }
    let mut world = World::new(tb);
    for j in jobs {
        world.add_client(Box::new(j));
    }
    // Mid-run the operator bumps tenant 1 down to 50K IOPS over MCTP.
    world.schedule_command(
        SimTime::ZERO + SimDuration::from_ms(150),
        BmsCommand::SetQos {
            func: FunctionId::new(1).unwrap(),
            iops: 50_000,
            mbps: 0,
        },
    );
    let world = world.run(None);

    println!("per-tenant results (4K randread, QD128 x4 jobs each):");
    let window = spec.runtime;
    for (vm, stats) in sinks.iter().enumerate() {
        let s = stats.borrow();
        let note = match vm {
            0 => " <- capped at 20K from the start",
            1 => " <- capped at 50K mid-run via MCTP",
            _ => "",
        };
        println!(
            "  VM{vm}: {:>8.0} IOPS, p99 {:>7.0} us{note}",
            s.iops(window),
            s.latency().percentile(0.99).as_micros_f64(),
        );
    }
    let resp = world.mgmt_responses();
    println!(
        "management responses delivered: {} (all success: {})",
        resp.len(),
        resp.iter().all(|(_, r)| r.status.is_success())
    );
}
