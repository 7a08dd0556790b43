//! The robustness scenario (§IV-D end to end, under fire): hot-plug and
//! hot-upgrade driven through [`World`] while four tenant workloads run
//! against a fault-laden backend — an SSD latency spike, a stall,
//! swallowed commands (exercising the engine's timeout + retry), a PCIe
//! link-retrain window, and MCTP packet loss on the management link.
//!
//! Asserts the paper's transparency claims hold under faults:
//! * bounded tenant-visible I/O pause for both management operations,
//! * preserved namespace identity (same device, same LBAs, same bytes),
//! * exactly-once completion for every submitted I/O (none lost, none
//!   duplicated, even across timeout retries and buffered replay),
//! * byte-identical checksummed read-back after the hardware swap.

use bmstore::core::controller::commands::BmsCommand;
use bmstore::core::{FailPolicy, RecoveryEvent};
use bmstore::nvme::types::Lba;
use bmstore::sim::faults::{FaultKind, FaultPlan};
use bmstore::sim::{SimDuration, SimTime};
use bmstore::ssd::{DataMode, SsdId};
use bmstore::testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, FaultTraceEvent, IoOp, IoRequest,
    Testbed, TestbedConfig, World,
};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

const N_LBAS: usize = 6;
const CHURN_STEP_US: u64 = 200;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_ms(n)
}

/// The deterministic byte pattern for block `lba` of tenant `dev` —
/// distinct per (tenant, block) so misdirected I/O cannot pass.
fn pattern(dev: usize, lba: u64) -> Vec<u8> {
    (0..4096u64)
        .map(|j| ((dev as u64 * 31 + lba * 7 + j) % 251) as u8)
        .collect()
}

#[derive(Default)]
struct TenantStats {
    issued: u64,
    seen_tags: HashSet<u64>,
    failures: u64,
}

/// Seeds a checksummed working set, churns it with idempotent rewrites
/// and reads, optionally re-seeds after a hardware swap, and finally
/// reads every block back into dedicated verify buffers.
struct Tenant {
    dev: DeviceId,
    lbas: Vec<Lba>,
    wbufs: Vec<BufferId>,
    vbufs: Vec<BufferId>,
    scratch: BufferId,
    churn_end: SimTime,
    reseed_at: Option<SimTime>,
    verify_at: SimTime,
    cursor: usize,
    next_tag: u64,
    stats: Rc<RefCell<TenantStats>>,
}

impl Tenant {
    fn write(&mut self, i: usize) -> IoRequest {
        self.next_tag += 1;
        self.stats.borrow_mut().issued += 1;
        IoRequest {
            dev: self.dev,
            op: IoOp::Write,
            lba: self.lbas[i],
            blocks: 1,
            buf: self.wbufs[i],
            tag: self.next_tag,
        }
    }

    fn read(&mut self, i: usize, buf: BufferId) -> IoRequest {
        self.next_tag += 1;
        self.stats.borrow_mut().issued += 1;
        IoRequest {
            dev: self.dev,
            op: IoOp::Read,
            lba: self.lbas[i],
            blocks: 1,
            buf,
            tag: self.next_tag,
        }
    }

    fn seed_all(&mut self) -> Vec<IoRequest> {
        (0..self.lbas.len()).map(|i| self.write(i)).collect()
    }
}

impl Client for Tenant {
    fn start(&mut self, now: SimTime) -> ClientOutput {
        ClientOutput {
            requests: self.seed_all(),
            next_timer: Some(now + SimDuration::from_us(CHURN_STEP_US)),
        }
    }

    fn on_completion(&mut self, _now: SimTime, c: Completion) -> ClientOutput {
        let mut stats = self.stats.borrow_mut();
        assert!(
            stats.seen_tags.insert(c.tag),
            "tenant {:?}: tag {} completed twice",
            self.dev,
            c.tag
        );
        if !c.status.is_success() {
            stats.failures += 1;
        }
        ClientOutput::idle()
    }

    fn on_timer(&mut self, now: SimTime) -> ClientOutput {
        if now >= self.verify_at {
            let reqs = (0..self.lbas.len())
                .map(|i| {
                    let buf = self.vbufs[i];
                    self.read(i, buf)
                })
                .collect();
            return ClientOutput {
                requests: reqs,
                next_timer: None,
            };
        }
        if let Some(t) = self.reseed_at {
            if now >= t {
                self.reseed_at = None;
                return ClientOutput {
                    requests: self.seed_all(),
                    next_timer: Some(now + SimDuration::from_us(CHURN_STEP_US)),
                };
            }
        }
        if now < self.churn_end {
            self.cursor += 1;
            let i = self.cursor % self.lbas.len();
            let j = (self.cursor * 3 + 1) % self.lbas.len();
            let scratch = self.scratch;
            let reqs = vec![self.write(i), self.read(j, scratch)];
            ClientOutput {
                requests: reqs,
                next_timer: Some(now + SimDuration::from_us(CHURN_STEP_US)),
            }
        } else {
            ClientOutput {
                requests: Vec::new(),
                next_timer: Some(self.verify_at),
            }
        }
    }
}

#[test]
fn hot_plug_and_hot_upgrade_under_faults_preserve_tenants() {
    // One whole-disk tenant per SSD: tenant 0's bay is hot-plugged,
    // tenant 1's SSD is hot-upgraded, tenants 2 and 3 absorb the
    // injected SSD faults. MCTP loss and the link retrain hit shared
    // infrastructure.
    let plan = FaultPlan::new(0x0D15_EA5E)
        .with(ms(200), FaultKind::SsdDropCommands { ssd: 3, count: 2 })
        .with(
            ms(300),
            FaultKind::SsdLatencySpike {
                ssd: 2,
                extra: SimDuration::from_us(100),
                until: ms(600),
            },
        )
        .with(
            ms(350),
            FaultKind::LinkRetrain {
                until: ms(350) + SimDuration::from_us(50),
            },
        )
        .with(
            ms(400),
            FaultKind::SsdStall {
                ssd: 3,
                until: ms(400) + SimDuration::from_us(450),
            },
        )
        .with(ms(990), FaultKind::MctpDrop { count: 2 });
    let plan_len = plan.events().len();
    let cfg = TestbedConfig::bm_store_bare_metal(4)
        .with_data_mode(DataMode::Full)
        .with_seed(7)
        .with_fault_plan(plan)
        .with_command_timeout(SimDuration::from_ms(20), FailPolicy::AbortToHost);
    let mut tb = Testbed::new(cfg);

    let mut all_vbufs: Vec<Vec<BufferId>> = Vec::new();
    let mut all_stats: Vec<Rc<RefCell<TenantStats>>> = Vec::new();
    let mut tenants = Vec::new();
    for d in 0..4usize {
        let lbas: Vec<Lba> = (0..N_LBAS as u64).map(|i| Lba(1_000 + i * 513)).collect();
        let mut wbufs = Vec::new();
        let mut vbufs = Vec::new();
        for lba in &lbas {
            let wbuf = tb.register_buffer(4096);
            tb.host_mem.write(tb.buffer_addr(wbuf), &pattern(d, lba.0));
            wbufs.push(wbuf);
            vbufs.push(tb.register_buffer(4096));
        }
        let scratch = tb.register_buffer(4096);
        let stats = Rc::new(RefCell::new(TenantStats::default()));
        all_vbufs.push(vbufs.clone());
        all_stats.push(Rc::clone(&stats));
        tenants.push(Tenant {
            dev: DeviceId(d),
            lbas,
            wbufs,
            vbufs,
            scratch,
            churn_end: ms(1_700),
            // The swapped bay comes back factory-fresh; the tenant
            // rewrites its working set after the hot-plug completes
            // (identity is preserved by BM-Store, contents by the
            // tenant — exactly the paper's contract).
            reseed_at: (d == 0).then(|| ms(1_200)),
            verify_at: ms(1_800),
            cursor: 0,
            next_tag: 0,
            stats,
        });
    }

    let mut world = World::new(tb);
    for t in tenants {
        world.add_client(Box::new(t));
    }

    // Hot-upgrade SSD 1 while I/O runs.
    world.schedule_command(
        ms(100),
        BmsCommand::FirmwareUpgrade {
            ssd: SsdId(1),
            slot: 2,
            image: b"FWv9.9-resilience-image".to_vec(),
        },
    );
    // Hot-plug SSD 0: prepare → physical swap → complete. The complete
    // command must get through despite the MCTP drops injected at 990ms.
    world.schedule_command(ms(500), BmsCommand::HotPlugPrepare { ssd: SsdId(0) });
    world.schedule_action(ms(800), |w, _s| w.swap_ssd_hardware(0));
    world.schedule_command(
        ms(1_000),
        BmsCommand::HotPlugComplete {
            old: SsdId(0),
            new: SsdId(0),
        },
    );

    let mut world = world.run(None);

    // Management plane: every command succeeded (the torn MCTP request
    // was retransmitted, not lost).
    let responses = world.mgmt_responses();
    assert_eq!(responses.len(), 3, "upgrade + prepare + complete");
    assert!(responses.iter().all(|(_, r)| r.status.is_success()));

    // Bounded pause windows.
    let ctl = world.tb.controller().expect("BM-Store scheme");
    let hp = ctl.hotplug_reports();
    assert_eq!(hp.len(), 1);
    assert!(
        hp[0].io_pause >= SimDuration::from_ms(400) && hp[0].io_pause <= SimDuration::from_ms(700),
        "hot-plug pause {:?} outside the commanded ~500ms window",
        hp[0].io_pause
    );
    let up = ctl.upgrade_reports();
    assert_eq!(up.len(), 1);
    assert!(
        up[0].io_pause > SimDuration::ZERO && up[0].io_pause <= SimDuration::from_secs(10),
        "upgrade pause {:?} outside the seconds-scale activation window",
        up[0].io_pause
    );

    // Exactly-once completion per tenant, and no fault leaked an error
    // to any tenant (timeouts were retried, never surfaced).
    for (d, stats) in all_stats.iter().enumerate() {
        let stats = stats.borrow();
        assert_eq!(
            stats.seen_tags.len() as u64,
            stats.issued,
            "tenant {d}: lost completions ({} of {})",
            stats.seen_tags.len(),
            stats.issued
        );
        assert_eq!(stats.failures, 0, "tenant {d} saw failed I/O");
        assert!(stats.issued > 1_000, "tenant {d} barely ran");
    }

    // Checksummed read-back: every tenant's namespace identity AND
    // contents survived (tenant 0 via its post-swap rewrite).
    for (d, vbufs) in all_vbufs.iter().enumerate() {
        for (i, vbuf) in vbufs.iter().enumerate() {
            let lba = 1_000 + i as u64 * 513;
            let got = world
                .tb
                .host_mem
                .read_vec(world.tb.buffer_addr(*vbuf), 4096);
            assert_eq!(
                got,
                pattern(d, lba),
                "tenant {d} lba {lba}: read-back mismatch after management ops"
            );
        }
    }

    // Every fault was surfaced in the world's fault log, and the
    // recovery machinery demonstrably ran.
    let events = world.fault_events();
    let injected = events
        .iter()
        .filter(|(_, e)| matches!(e, FaultTraceEvent::Injected(_)))
        .count();
    assert_eq!(injected, plan_len, "every plan event surfaced");
    let retries = events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                FaultTraceEvent::EngineRecovery(RecoveryEvent::TimeoutRetry { .. })
            )
        })
        .count();
    assert_eq!(retries, 2, "both swallowed commands were retried");
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, FaultTraceEvent::MctpPacketDropped)));
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, FaultTraceEvent::MctpRetransmit { .. })));
    assert!(events
        .iter()
        .any(|(_, e)| matches!(e, FaultTraceEvent::LinkDeferred { .. })));
}
