//! Out-of-band management, end to end: MCTP console → BMS-Controller →
//! engine/SSDs, exercised while tenant I/O is running.

use bmstore::core::controller::commands::BmsCommand;
use bmstore::core::engine::qos::QosLimit;
use bmstore::sim::stats::IoStats;
use bmstore::sim::{SimDuration, SimTime};
use bmstore::ssd::SsdId;
use bmstore::testbed::{DeviceId, SchemeKind, Testbed, TestbedConfig, World};
use bmstore::workloads::fio::{FioJob, FioSpec, RwMode, SharedStats};
use std::cell::RefCell;
use std::rc::Rc;

fn fio_world(cfg: TestbedConfig, spec: FioSpec, devices: usize) -> (World, Vec<SharedStats>) {
    let mut tb = Testbed::new(cfg);
    let mut sinks = Vec::new();
    let mut jobs = Vec::new();
    for d in 0..devices {
        let stats: SharedStats = Rc::new(RefCell::new(IoStats::new()));
        sinks.push(Rc::clone(&stats));
        for j in 0..spec.numjobs {
            jobs.push(FioJob::new(
                &mut tb,
                DeviceId(d),
                spec,
                j,
                0xE0 + d as u64,
                Rc::clone(&stats),
                None,
            ));
        }
    }
    let mut world = World::new(tb);
    for j in jobs {
        world.add_client(Box::new(j));
    }
    (world, sinks)
}

fn spec(runtime_ms: u64, iodepth: u32) -> FioSpec {
    FioSpec {
        mode: RwMode::RandRead,
        block_bytes: 4096,
        iodepth,
        numjobs: 2,
        ramp: SimDuration::from_ms(20),
        runtime: SimDuration::from_ms(runtime_ms),
    }
}

#[test]
fn qos_limit_throttles_one_tenant_only() {
    let mut cfg = TestbedConfig::multi_vm_bm_store(2);
    cfg.devices[0].qos = QosLimit::iops(10_000.0);
    let (world, sinks) = fio_world(cfg, spec(400, 32), 2);
    let _ = world.run(None);
    let limited = sinks[0].borrow().iops(SimDuration::from_ms(400));
    let free = sinks[1].borrow().iops(SimDuration::from_ms(400));
    // One second of burst tokens smears across the short window, so
    // allow generous headroom above the sustained 10 K.
    assert!(
        limited < 60_000.0,
        "limited tenant at {limited:.0} IOPS (cap 10K sustained)"
    );
    assert!(
        free > 150_000.0,
        "unlimited tenant throttled to {free:.0} IOPS"
    );
}

#[test]
fn set_qos_over_mctp_takes_effect_mid_run() {
    let cfg = TestbedConfig::multi_vm_bm_store(1);
    let (mut world, sinks) = fio_world(cfg, spec(600, 32), 1);
    world.schedule_command(
        SimTime::ZERO + SimDuration::from_ms(300),
        BmsCommand::SetQos {
            func: bmstore::pcie::FunctionId::new(0).unwrap(),
            iops: 5_000,
            mbps: 0,
        },
    );
    let world = world.run(None);
    let responses = world.mgmt_responses();
    assert_eq!(responses.len(), 1);
    assert!(responses[0].1.status.is_success());
    // Unthrottled first half, ~5K afterwards: well below the free rate.
    let total = sinks[0].borrow().iops(SimDuration::from_ms(600));
    assert!(
        total < 200_000.0,
        "QoS change had no visible effect ({total:.0} IOPS)"
    );
}

#[test]
fn query_stats_over_mctp_reflects_traffic() {
    let cfg = TestbedConfig::multi_vm_bm_store(1);
    let (mut world, sinks) = fio_world(cfg, spec(200, 8), 1);
    world.schedule_command(
        SimTime::ZERO + SimDuration::from_ms(500),
        BmsCommand::QueryStats {
            func: bmstore::pcie::FunctionId::new(0).unwrap(),
        },
    );
    let world = world.run(None);
    let responses = world.mgmt_responses();
    assert_eq!(responses.len(), 1);
    let counters =
        bmstore::core::controller::io_monitor::IoMonitor::decode_counters(&responses[0].1.payload)
            .expect("48-byte counter payload");
    // The engine counted at least as many reads as the client measured
    // (the client's window excludes the ramp).
    assert!(counters.reads >= sinks[0].borrow().ops());
    assert_eq!(counters.errors, 0);
}

#[test]
fn hot_plug_preserves_tenant_identity_and_data_path() {
    // Prepare → physical swap → complete, while I/O runs. The tenant's
    // device never disappears; buffered I/O completes after resume.
    let cfg = TestbedConfig::multi_vm_bm_store(1);
    let (mut world, sinks) = fio_world(cfg, spec(2_000, 4), 1);
    world.schedule_command(
        SimTime::ZERO + SimDuration::from_ms(500),
        BmsCommand::HotPlugPrepare { ssd: SsdId(0) },
    );
    world.schedule_action(SimTime::ZERO + SimDuration::from_ms(800), |w, _s| {
        w.swap_ssd_hardware(0);
    });
    world.schedule_command(
        SimTime::ZERO + SimDuration::from_ms(1_000),
        BmsCommand::HotPlugComplete {
            old: SsdId(0),
            new: SsdId(0),
        },
    );
    let world = world.run(None);
    let responses = world.mgmt_responses();
    assert!(responses.iter().all(|(_, r)| r.status.is_success()));
    let ctl = world.tb.controller().expect("BM-Store");
    assert_eq!(ctl.hotplug_reports().len(), 1);
    let report = ctl.hotplug_reports()[0];
    assert!(report.io_pause >= SimDuration::from_ms(400));
    // I/O kept flowing before and after (ops span the pause).
    assert!(sinks[0].borrow().ops() > 10_000);
}

#[test]
fn firmware_version_query_after_upgrade() {
    let cfg = TestbedConfig::single_vm(SchemeKind::BmStore { in_vm: true });
    let mut tb = Testbed::new(cfg);
    let _buf = tb.register_buffer(4096);
    let mut world = World::new(tb);
    world.schedule_command(
        SimTime::ZERO + SimDuration::from_ms(1),
        BmsCommand::FirmwareUpgrade {
            ssd: SsdId(0),
            slot: 2,
            image: b"FWv2.0-image-bytes".to_vec(),
        },
    );
    world.schedule_command(
        SimTime::ZERO + SimDuration::from_secs(15),
        BmsCommand::QueryVersion { ssd: SsdId(0) },
    );
    let world = world.run(None);
    let responses = world.mgmt_responses();
    assert_eq!(responses.len(), 2);
    let version = String::from_utf8_lossy(&responses[1].1.payload).to_string();
    assert!(version.starts_with("FWv2.0"), "running version {version}");
    let ctl = world.tb.controller().expect("BM-Store");
    let report = ctl.upgrade_reports()[0];
    let total = report.total().as_secs_f64();
    assert!((5.5..9.0).contains(&total), "upgrade total {total}s");
}
