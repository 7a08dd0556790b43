//! Conservation property: whatever the scheme, queue depth, block size,
//! and mix, every submitted I/O completes exactly once, successfully,
//! and in bounded simulated time.
//!
//! The fault-aware variant relaxes "successfully" to the accounting
//! identity: under a nonempty [`FaultPlan`] every submitted I/O still
//! completes exactly once, and `submitted == success + error +
//! explicitly-aborted` — faults may fail commands but may never lose or
//! duplicate them.

use bm_nvme::types::Lba;
use bm_nvme::Status;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::{SimDuration, SimTime};
use bm_ssd::SsdId;
use bm_testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, SchemeKind, Testbed,
    TestbedConfig, World,
};
use bmstore_core::FailPolicy;
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

struct Tracker {
    total: u64,
    issued: u64,
    depth: u32,
    blocks: u32,
    buf: BufferId,
    write_frac: f64,
    seen_tags: Rc<RefCell<BTreeSet<u64>>>,
    failures: Rc<RefCell<u64>>,
}

impl Tracker {
    fn next(&mut self) -> IoRequest {
        self.issued += 1;
        let write = (self.issued as f64 / self.total as f64) < self.write_frac;
        IoRequest {
            dev: DeviceId(0),
            op: if write { IoOp::Write } else { IoOp::Read },
            lba: Lba((self.issued * 7919) % 1_000_000),
            blocks: self.blocks,
            buf: self.buf,
            tag: self.issued,
        }
    }
}

impl Client for Tracker {
    fn start(&mut self, _now: SimTime) -> ClientOutput {
        let n = self.depth.min(self.total as u32);
        ClientOutput::submit((0..n).map(|_| self.next()).collect())
    }

    fn on_completion(&mut self, _now: SimTime, c: Completion) -> ClientOutput {
        if !c.status.is_success() {
            *self.failures.borrow_mut() += 1;
        }
        assert!(
            self.seen_tags.borrow_mut().insert(c.tag),
            "tag {} completed twice",
            c.tag
        );
        if self.issued < self.total {
            ClientOutput::submit(vec![self.next()])
        } else {
            ClientOutput::idle()
        }
    }
}

fn scheme_from_index(i: usize) -> SchemeKind {
    match i % 5 {
        0 => SchemeKind::Native,
        1 => SchemeKind::Vfio,
        2 => SchemeKind::BmStore { in_vm: false },
        3 => SchemeKind::BmStore { in_vm: true },
        _ => SchemeKind::SpdkVhost { cores: 1 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn every_io_completes_exactly_once(
        scheme_idx in 0usize..5,
        depth in 1u32..256,
        block_exp in 0u32..6, // 4K..128K
        write_frac in 0.0f64..1.0,
        total in 50u64..400,
        seed in any::<u64>(),
    ) {
        let blocks = 1 << block_exp;
        let scheme = scheme_from_index(scheme_idx);
        let cfg = match &scheme {
            SchemeKind::Native => TestbedConfig::native(1),
            SchemeKind::BmStore { in_vm: false } => TestbedConfig::bm_store_bare_metal(1),
            other => TestbedConfig::single_vm(other.clone()),
        }
        .with_seed(seed);
        let mut tb = Testbed::new(cfg);
        let buf = tb.register_buffer(blocks as u64 * 4096);
        let seen_tags = Rc::new(RefCell::new(BTreeSet::new()));
        let failures = Rc::new(RefCell::new(0u64));
        let client = Tracker {
            total,
            issued: 0,
            depth,
            blocks,
            buf,
            write_frac,
            seen_tags: Rc::clone(&seen_tags),
            failures: Rc::clone(&failures),
        };
        let mut world = World::new(tb);
        world.add_client(Box::new(client));
        let world = world.run(None);
        prop_assert_eq!(
            seen_tags.borrow().len() as u64,
            total,
            "lost completions under {:?}",
            scheme
        );
        prop_assert_eq!(*failures.borrow(), 0);
        // Bounded time: nothing leaked into the far future.
        let _ = world;
    }
}

/// Per-status completion tally shared with the harness.
#[derive(Default)]
struct StatusCounts {
    success: u64,
    error: u64,
    aborted: u64,
}

/// A fixed-depth closed-loop client that tallies completions by status
/// instead of asserting success.
struct FaultTracker {
    total: u64,
    issued: u64,
    depth: u32,
    buf: BufferId,
    counts: Rc<RefCell<StatusCounts>>,
    seen_tags: Rc<RefCell<BTreeSet<u64>>>,
}

impl FaultTracker {
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

impl Client for FaultTracker {
    fn start(&mut self, _now: SimTime) -> ClientOutput {
        let n = self.depth.min(self.total as u32);
        ClientOutput::submit((0..n).map(|_| self.next()).collect())
    }

    fn on_completion(&mut self, _now: SimTime, c: Completion) -> ClientOutput {
        assert!(
            self.seen_tags.borrow_mut().insert(c.tag),
            "tag {} completed twice",
            c.tag
        );
        let mut counts = self.counts.borrow_mut();
        if c.status.is_success() {
            counts.success += 1;
        } else if c.status == Status::Aborted {
            counts.aborted += 1;
        } else {
            counts.error += 1;
        }
        drop(counts);
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

fn run_under_faults(plan: FaultPlan, depth: u32, total: u64, seed: u64) -> StatusCounts {
    let cfg = TestbedConfig::bm_store_bare_metal(1)
        .with_seed(seed)
        .with_fault_plan(plan)
        .with_command_timeout(SimDuration::from_us(500), FailPolicy::AbortToHost);
    run_tracked(cfg, depth, total).0
}

/// Runs a [`FaultTracker`] of `depth` and `total` commands on `cfg`,
/// checking that each completes once.
fn run_tracked(cfg: TestbedConfig, depth: u32, total: u64) -> (StatusCounts, World) {
    let mut tb = Testbed::new(cfg);
    let buf = tb.register_buffer(4096);
    let counts = Rc::new(RefCell::new(StatusCounts::default()));
    let seen_tags = Rc::new(RefCell::new(BTreeSet::new()));
    let client = FaultTracker {
        total,
        issued: 0,
        depth,
        buf,
        counts: Rc::clone(&counts),
        seen_tags: Rc::clone(&seen_tags),
    };
    let mut world = World::new(tb);
    world.add_client(Box::new(client));
    let world = world.run(None);
    assert_eq!(
        seen_tags.borrow().len() as u64,
        total,
        "lost or stuck completions under faults"
    );
    let counts = counts.take();
    (counts, world)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn faults_never_lose_or_duplicate_completions(
        depth in 1u32..64,
        total in 40u64..200,
        seed in any::<u64>(),
        spike in any::<bool>(),
        stall in any::<bool>(),
        burst_prob in 0.0f64..0.5,
        drops in 0u32..8,
        retrain in any::<bool>(),
    ) {
        let mut plan = FaultPlan::new(seed ^ 0xF417);
        // Always nonempty: the ISSUE's law is about fault-laden runs.
        plan.push(
            us(5),
            FaultKind::SsdErrorBurst { ssd: 0, probability: burst_prob, until: us(700) },
        );
        if spike {
            plan.push(
                us(10),
                FaultKind::SsdLatencySpike {
                    ssd: 0,
                    extra: SimDuration::from_us(50),
                    until: us(400),
                },
            );
        }
        if stall {
            plan.push(us(20), FaultKind::SsdStall { ssd: 0, until: us(350) });
        }
        if drops > 0 {
            plan.push(us(1), FaultKind::SsdDropCommands { ssd: 0, count: drops });
        }
        if retrain {
            plan.push(us(30), FaultKind::LinkRetrain { until: us(120) });
        }
        let counts = run_under_faults(plan, depth, total, seed);
        // The conservation identity: nothing vanished, nothing doubled.
        prop_assert_eq!(counts.success + counts.error + counts.aborted, total);
    }
}

#[test]
fn exhausted_retries_surface_as_explicit_aborts() {
    // Depth 1 makes the drop accounting exact: the first command's
    // initial attempt and both retries are all swallowed (3 drops),
    // after which the engine aborts it to the host. Everything else
    // completes normally.
    let plan = FaultPlan::new(7).with(
        SimTime::ZERO,
        FaultKind::SsdDropCommands { ssd: 0, count: 3 },
    );
    let counts = run_under_faults(plan, 1, 20, 42);
    assert_eq!(counts.aborted, 1, "exactly the dropped command aborts");
    assert_eq!(counts.error, 0);
    assert_eq!(counts.success, 19);
}

#[test]
fn dead_ssd_fails_everything_but_conserves_completions() {
    let plan = FaultPlan::new(9).with(us(40), FaultKind::SsdDeath { ssd: 0 });
    let counts = run_under_faults(plan, 8, 100, 1);
    assert_eq!(counts.success + counts.error + counts.aborted, 100);
    assert!(counts.error > 0, "a dead SSD must fail I/O loudly");
}

#[test]
fn a_command_timeout_arms_one_timer_not_an_event_per_command() {
    // A fault-free run with and without a 5 ms timeout. The timeout
    // machinery keeps one engine timer, re-armed about once per
    // timeout, so it adds far less than one event per forwarded
    // command, the cost of a deadline event per command.
    let run = |cfg: TestbedConfig| {
        let (counts, world) = run_tracked(cfg.with_seed(3), 32, 4_000);
        assert_eq!(counts.success, 4_000);
        let engine = world.tb.engine().expect("BM-Store has an engine");
        let forwarded = engine.adaptor().port(SsdId(0)).forwarded();
        (world.events_fired, forwarded)
    };
    let plain = TestbedConfig::bm_store_bare_metal(1);
    let timed = plain
        .clone()
        .with_command_timeout(SimDuration::from_ms(5), FailPolicy::AbortToHost);
    let (base, forwarded) = run(plain);
    let (events, _) = run(timed);
    assert!(forwarded >= 4_000);
    assert!(
        events < base + base / 100,
        "{events} events with a timeout against {base} without, \
         for {forwarded} forwarded commands"
    );
}
