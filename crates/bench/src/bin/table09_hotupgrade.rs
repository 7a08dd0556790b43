//! Table IX + Fig. 15 — firmware hot-upgrade during tenant I/O.
//!
//! fio runs 4K random read (then random write) in a VM on BM-Store
//! while the management console hot-upgrades the backing SSD's firmware
//! twice. The per-second IOPS trace shows the pause windows; the
//! controller's reports give the Table IX times. Tenant I/O sees no
//! errors — commands buffer in the engine and complete after resume.

use bm_bench::{header, quick, row};
use bm_sim::stats::IoStats;
use bm_sim::{SimDuration, SimTime};
use bm_ssd::SsdId;
use bm_testbed::{DeviceId, SchemeKind, Testbed, TestbedConfig, World};
use bm_workloads::fio::{FioJob, FioSpec, IopsTrace, RwMode, SharedStats, SharedTrace};
use bmstore_core::controller::commands::BmsCommand;
use std::cell::RefCell;
use std::rc::Rc;

struct Run {
    trace: Vec<u64>,
    /// `(total seconds, controller-processing seconds)` per upgrade.
    reports: Vec<(f64, f64)>,
    ops: u64,
}

fn run_case(mode: RwMode, upgrades: &[u64], horizon: u64) -> Run {
    let spec = FioSpec {
        mode,
        block_bytes: 4096,
        iodepth: 1,
        numjobs: 4,
        ramp: SimDuration::from_ms(0),
        runtime: SimDuration::from_secs(horizon),
    };
    let cfg = TestbedConfig::single_vm(SchemeKind::BmStore { in_vm: true });
    let mut tb = Testbed::new(cfg);
    let stats: SharedStats = Rc::new(RefCell::new(IoStats::new()));
    let trace: SharedTrace = Rc::new(RefCell::new(IopsTrace::default()));
    let jobs: Vec<FioJob> = (0..spec.numjobs)
        .map(|j| {
            FioJob::new(
                &mut tb,
                DeviceId(0),
                spec,
                j,
                0x09F + j as u64,
                Rc::clone(&stats),
                Some(Rc::clone(&trace)),
            )
        })
        .collect();
    let mut world = World::new(tb);
    for j in jobs {
        world.add_client(Box::new(j));
    }
    for at in upgrades {
        world.schedule_command(
            SimTime::ZERO + SimDuration::from_secs(*at),
            BmsCommand::FirmwareUpgrade {
                ssd: SsdId(0),
                slot: 2,
                image: vec![0xF3; 8192],
            },
        );
    }
    let world = world.run(None);
    let mut reports = Vec::new();
    if let Some(ctl) = world.tb.controller() {
        for r in ctl.upgrade_reports() {
            reports.push((
                r.total().as_secs_f64(),
                r.controller_processing.as_secs_f64(),
            ));
        }
    }
    let result = Run {
        trace: trace.borrow().per_second().to_vec(),
        reports,
        ops: stats.borrow().ops(),
    };
    result
}

fn main() {
    bm_bench::check_args(env!("CARGO_BIN_NAME"));
    let (upgrades, horizon): (Vec<u64>, u64) = if quick() {
        (vec![2], 10)
    } else {
        (vec![3, 13], 24)
    };
    for (name, mode) in [
        ("rand read", RwMode::RandRead),
        ("rand write", RwMode::RandWrite),
    ] {
        let run = run_case(mode, &upgrades, horizon);
        header(
            &format!("Fig. 15 ({name}): per-second IOPS during hot-upgrade"),
            &["IOPS"],
        );
        for (sec, iops) in run.trace.iter().enumerate() {
            let marker = if *iops == 0 { "  <- paused" } else { "" };
            println!("t={sec:>3}s {iops:>10}{marker}");
        }
        header(
            "Table IX: hot-upgrade times",
            &["total", "BM-Store processing"],
        );
        for (i, (total, proc)) in run.reports.iter().enumerate() {
            row(
                &format!("upgrade {}", i + 1),
                &[format!("{total:.2}s"), format!("{:.0}ms", proc * 1000.0)],
            );
        }
        println!("tenant ops completed without error: {}", run.ops);
    }
    println!("\npaper: total 6-9s per upgrade, ~100ms of BM-Store processing,");
    println!("tenants need not stop I/O and receive no I/O errors");
}
