//! Fault-injection smoke — exercises the `bm-sim::faults` subsystem
//! end to end in a few simulated milliseconds.
//!
//! A closed-loop tenant runs against BM-Store bare-metal while a
//! [`FaultPlan`] injects a latency spike, a stall, swallowed commands,
//! an error burst, a PCIe link-retrain window, and MCTP packet loss
//! during a firmware hot-upgrade. Prints the injected/recovered event
//! tally and checks the conservation identity: every submitted I/O
//! completes exactly once (success + device error + explicit abort).
//!
//! Run via `./run_all_experiments.sh --faults` or directly:
//! `cargo run --release -p bm-bench --bin faults_smoke`.
//!
//! `--fault-plan FILE` replaces the built-in schedule with a plan
//! parsed from FILE (the `bmstore-fault-plan v1` text format that
//! `FaultPlan::to_text` and chaos repro artifacts emit). Plan-specific
//! assertions are skipped for external plans; the exactly-once
//! conservation identity is always enforced.

use bm_bench::{header, row};
use bm_nvme::types::Lba;
use bm_nvme::Status;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::{SimDuration, SimTime};
use bm_ssd::SsdId;
use bm_testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, FaultTraceEvent, IoOp, IoRequest,
    Testbed, TestbedConfig, World,
};
use bmstore_core::controller::commands::BmsCommand;
use bmstore_core::{FailPolicy, RecoveryEvent};
use std::cell::RefCell;
use std::rc::Rc;

#[derive(Default)]
struct Tally {
    success: u64,
    error: u64,
    aborted: u64,
}

struct Loader {
    total: u64,
    issued: u64,
    depth: u32,
    buf: BufferId,
    tally: Rc<RefCell<Tally>>,
}

impl Loader {
    fn next(&mut self) -> IoRequest {
        self.issued += 1;
        IoRequest {
            dev: DeviceId(0),
            op: if self.issued.is_multiple_of(3) {
                IoOp::Write
            } else {
                IoOp::Read
            },
            lba: Lba((self.issued * 7919) % 1_000_000),
            blocks: 1,
            buf: self.buf,
            tag: self.issued,
        }
    }
}

impl Client for Loader {
    fn start(&mut self, _now: SimTime) -> ClientOutput {
        let n = self.depth.min(self.total as u32);
        ClientOutput::submit((0..n).map(|_| self.next()).collect())
    }

    fn on_completion(&mut self, _now: SimTime, c: Completion) -> ClientOutput {
        let mut tally = self.tally.borrow_mut();
        if c.status.is_success() {
            tally.success += 1;
        } else if c.status == Status::Aborted {
            tally.aborted += 1;
        } else {
            tally.error += 1;
        }
        drop(tally);
        if self.issued < self.total {
            ClientOutput::submit(vec![self.next()])
        } else {
            ClientOutput::idle()
        }
    }
}

fn us(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_us(n)
}

/// Parses `--fault-plan FILE`, if present.
fn external_plan() -> Option<FaultPlan> {
    let mut it = std::env::args().skip(1);
    if let Some(flag) = it.next() {
        match flag.as_str() {
            "--fault-plan" => {
                let path = it.next().unwrap_or_else(|| {
                    eprintln!("--fault-plan needs a file path");
                    std::process::exit(2);
                });
                let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(2);
                });
                let plan = FaultPlan::from_text(&text).unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    std::process::exit(2);
                });
                return Some(plan);
            }
            "--help" | "-h" => {
                eprintln!("usage: faults_smoke [--fault-plan FILE]");
                std::process::exit(2);
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    None
}

fn main() {
    let total = 4_000u64;
    let external = external_plan();
    let builtin = external.is_none();
    let builtin_plan = || {
        FaultPlan::new(0xFA17)
            .with(us(100), FaultKind::SsdDropCommands { ssd: 0, count: 2 })
            .with(
                us(200),
                FaultKind::SsdLatencySpike {
                    ssd: 0,
                    extra: SimDuration::from_us(40),
                    until: us(900),
                },
            )
            .with(
                us(400),
                FaultKind::SsdErrorBurst {
                    ssd: 0,
                    probability: 0.05,
                    until: us(800),
                },
            )
            .with(
                us(500),
                FaultKind::SsdStall {
                    ssd: 0,
                    until: us(750),
                },
            )
            .with(us(600), FaultKind::LinkRetrain { until: us(650) })
            .with(us(950), FaultKind::MctpDrop { count: 1 })
    };
    let plan = external.unwrap_or_else(builtin_plan);
    let plan_len = plan.events().len() as u64;
    let cfg = TestbedConfig::bm_store_bare_metal(1)
        .with_fault_plan(plan)
        .with_command_timeout(SimDuration::from_us(500), FailPolicy::AbortToHost);
    let mut tb = Testbed::new(cfg);
    let buf = tb.register_buffer(4096);
    let tally = Rc::new(RefCell::new(Tally::default()));
    let client = Loader {
        total,
        issued: 0,
        depth: 16,
        buf,
        tally: Rc::clone(&tally),
    };
    let mut world = World::new(tb);
    world.add_client(Box::new(client));
    if builtin {
        // The MCTP drop at 950µs tears this request's first
        // transmission; the console retransmits under the same tag.
        world.schedule_command(
            us(960),
            BmsCommand::FirmwareUpgrade {
                ssd: SsdId(0),
                slot: 2,
                image: vec![0xF5; 4096],
            },
        );
    }
    let world = world.run(None);

    let stats = world
        .tb
        .engine()
        .expect("BM-Store scheme")
        .resilience_stats();
    let count = |f: &dyn Fn(&FaultTraceEvent) -> bool| {
        world.fault_events().iter().filter(|(_, e)| f(e)).count() as u64
    };
    let injected = count(&|e| matches!(e, FaultTraceEvent::Injected(_)));
    let mctp_dropped = count(&|e| matches!(e, FaultTraceEvent::MctpPacketDropped));
    let retransmits = count(&|e| matches!(e, FaultTraceEvent::MctpRetransmit { .. }));
    let deferred = count(&|e| matches!(e, FaultTraceEvent::LinkDeferred { .. }));
    let retries = count(&|e| {
        matches!(
            e,
            FaultTraceEvent::EngineRecovery(RecoveryEvent::TimeoutRetry { .. })
        )
    });

    header("fault-injection smoke", &["count"]);
    row("plan events", &[format!("{plan_len}")]);
    row("injected", &[format!("{injected}")]);
    row("timeouts", &[format!("{}", stats.timeouts)]);
    row("retries seen", &[format!("{retries}")]);
    row("mctp dropped", &[format!("{mctp_dropped}")]);
    row("mctp resends", &[format!("{retransmits}")]);
    row("link deferrals", &[format!("{deferred}")]);

    let tally = tally.borrow();
    header(
        "conservation under faults",
        &["success", "error", "aborted", "total"],
    );
    row(
        "completions",
        &[
            format!("{}", tally.success),
            format!("{}", tally.error),
            format!("{}", tally.aborted),
            format!("{}", tally.success + tally.error + tally.aborted),
        ],
    );

    let responses = world.mgmt_responses();
    let upgrade_ok = responses.iter().all(|(_, r)| r.status.is_success());
    assert_eq!(
        tally.success + tally.error + tally.aborted,
        total,
        "conservation identity violated"
    );
    assert_eq!(injected, plan_len, "a plan event was not surfaced");
    if builtin {
        assert!(mctp_dropped > 0 && retransmits > 0, "MCTP loss path idle");
        assert!(deferred > 0, "link-retrain deferral path idle");
        assert!(stats.timeouts >= 2, "swallowed commands never timed out");
        assert!(upgrade_ok, "hot-upgrade failed under MCTP loss");
        println!("\nall fault paths exercised; every submitted I/O completed exactly once");
    } else {
        println!("\nexternal plan injected; every submitted I/O completed exactly once");
    }
}
