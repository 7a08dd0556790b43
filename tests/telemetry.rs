//! End-to-end observability contract: per-stage spans correlated by
//! `CmdId`, the engine's per-function monitoring registers served as
//! NVMe-MI vendor log pages over MCTP, and the trace exporters.
//!
//! Three claims, each paper-relevant:
//! * an out-of-band scrape taken **while tenant I/O runs** (and a fault
//!   plan fires) agrees with the in-band accounting — same registers
//!   the BMS-Controller reads over AXI, same totals the clients saw;
//! * a single injected device slowdown is attributable from the
//!   exported Chrome trace alone: the slowest command belongs to the
//!   afflicted tenant and its DMA stage absorbed the spike, and the
//!   same tenant's scraped latency histogram shows the tail while the
//!   clean tenant's shows none;
//! * telemetry is free when off: a disabled recorder changes nothing
//!   about the simulation — completion-for-completion identical
//!   timelines against the telemetry-enabled run of the same seed.

use bmstore::core::controller::commands::BmsCommand;
use bmstore::nvme::log_page::TelemetryLogPage;
use bmstore::nvme::types::Lba;
use bmstore::pcie::FunctionId;
use bmstore::sim::faults::{FaultKind, FaultPlan};
use bmstore::sim::telemetry::{chrome_trace, parse_chrome_trace, ParsedSpan};
use bmstore::sim::{SimDuration, SimTime};
use bmstore::testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, Testbed, TestbedConfig,
    World,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

const SPIKE_US: u64 = 300;

fn us(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_us(n)
}

/// Per-completion record kept by the clients: enough to compare two
/// runs event-for-event and to check scraped totals.
type CompletionLog = Rc<RefCell<Vec<(usize, u64, SimTime, bool, bool)>>>;

/// Closed-loop tenant that logs every completion it observes.
struct Loader {
    dev: DeviceId,
    total: u64,
    issued: u64,
    buf: BufferId,
    log: CompletionLog,
}

impl Loader {
    fn next(&mut self) -> IoRequest {
        self.issued += 1;
        IoRequest {
            dev: self.dev,
            op: if self.issued.is_multiple_of(4) {
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
        ClientOutput::submit((0..8).map(|_| self.next()).collect())
    }

    fn on_completion(&mut self, now: SimTime, c: Completion) -> ClientOutput {
        self.log
            .borrow_mut()
            .push((c.dev.0, c.tag, now, c.status.is_success(), c.is_write));
        if self.issued < self.total {
            ClientOutput::submit(vec![self.next()])
        } else {
            ClientOutput::idle()
        }
    }
}

/// Two tenants (one per SSD), a latency spike on SSD 0, out-of-band
/// telemetry scrapes scheduled mid-spike and after the drain.
fn spiked_world(telemetry: bool, per_tenant: u64, log: &CompletionLog) -> World {
    let mut cfg = TestbedConfig::bm_store_bare_metal(2);
    if telemetry {
        cfg = cfg.with_telemetry();
    }
    cfg.fault_plan = FaultPlan::new(0x7E1E).with(
        us(200),
        FaultKind::SsdLatencySpike {
            ssd: 0,
            extra: SimDuration::from_us(SPIKE_US),
            until: us(600),
        },
    );
    let mut tb = Testbed::new(cfg);
    let bufs = [tb.register_buffer(4096), tb.register_buffer(4096)];
    let mut world = World::new(tb);
    for (i, buf) in bufs.into_iter().enumerate() {
        world.add_client(Box::new(Loader {
            dev: DeviceId(i),
            total: per_tenant,
            issued: 0,
            buf,
            log: Rc::clone(log),
        }));
    }
    for at in [us(450), us(1_000_000)] {
        for f in 0..2u8 {
            world.schedule_command(
                at,
                BmsCommand::QueryTelemetry {
                    func: FunctionId::new(f).expect("valid function"),
                },
            );
        }
    }
    world.run(None)
}

/// Decodes the four scheduled scrapes in arrival order:
/// (mid f0, mid f1, final f0, final f1).
fn scraped_pages(world: &World) -> [TelemetryLogPage; 4] {
    let responses = world.mgmt_responses();
    let pages: Vec<TelemetryLogPage> = responses
        .iter()
        .map(|(_, r)| TelemetryLogPage::from_bytes(&r.payload).expect("log page decodes"))
        .collect();
    pages.try_into().expect("four scrapes scheduled")
}

/// Satellite: the NVMe-MI path is a faithful, monotonic window onto
/// the engine's registers — scraped mid-run under an active fault plan
/// and again after the drain, then reconciled against both the in-band
/// AXI read and the clients' own completion tallies.
#[test]
fn out_of_band_scrape_matches_in_band_accounting() {
    let log: CompletionLog = Rc::new(RefCell::new(Vec::new()));
    let world = spiked_world(true, 500, &log);
    let pages = scraped_pages(&world);

    // Mid-run scrape is a consistent prefix: taken while I/O was in
    // flight, so commands were outstanding and totals were partial.
    for (mid, fin) in [(&pages[0], &pages[2]), (&pages[1], &pages[3])] {
        assert!(mid.outstanding > 0, "scraped while the tenant was live");
        assert!(mid.reads + mid.writes < fin.reads + fin.writes);
        assert!(mid.reads <= fin.reads && mid.writes <= fin.writes);
        assert!(mid.peak_outstanding <= fin.peak_outstanding);
        assert!(mid.completions() <= fin.completions());
    }

    // Final scrape reconciles with what the clients actually observed.
    let log = log.borrow();
    for f in 0..2usize {
        let fin = &pages[2 + f];
        assert_eq!(fin.function, f as u8);
        let done = log.iter().filter(|e| e.0 == f).count() as u64;
        let writes = log.iter().filter(|e| e.0 == f && e.4).count() as u64;
        assert!(log.iter().filter(|e| e.0 == f).all(|e| e.3), "no errors");
        assert_eq!(fin.reads + fin.writes, done);
        assert_eq!(fin.writes, writes);
        assert_eq!(fin.errors, 0);
        assert_eq!(fin.outstanding, 0, "drained");
        assert!(fin.peak_outstanding > 0);
        assert_eq!(
            fin.latency_buckets.iter().sum::<u64>(),
            fin.completions(),
            "every completion lands in exactly one latency bucket"
        );

        // Same numbers the controller would read over AXI in-band.
        let engine = world.tb.engine().expect("bm-store exposes its engine");
        let func = FunctionId::new(f as u8).expect("valid function");
        let regs = engine.monitor_regs(func);
        let counters = engine.counters().function(func);
        assert_eq!(fin.reads, counters.reads);
        assert_eq!(fin.writes, counters.writes);
        assert_eq!(fin.read_bytes, counters.read_bytes);
        assert_eq!(fin.write_bytes, counters.write_bytes);
        assert_eq!(fin.latency_buckets, regs.latency_buckets);
        assert_eq!(fin.total_latency_ns, regs.total_latency.as_nanos());
        assert_eq!(fin.peak_outstanding, regs.peak_outstanding);
    }
}

/// Acceptance: one slow command injected via the fault plan is fully
/// attributable from the exported artifacts alone — the trace parses,
/// every stage span nests inside its command's root span, the trace
/// names the tenant and the stage that absorbed the latency, and the
/// same tenant's scraped histogram carries the tail.
#[test]
fn injected_slowdown_is_attributable_from_the_trace() {
    let log: CompletionLog = Rc::new(RefCell::new(Vec::new()));
    let world = spiked_world(true, 500, &log);

    let trace = world
        .tb
        .observer()
        .telemetry()
        .map(chrome_trace)
        .expect("telemetry enabled");
    let spans = parse_chrome_trace(&trace).expect("exported trace parses");
    let mut by_cmd: BTreeMap<u64, Vec<&ParsedSpan>> = BTreeMap::new();
    for s in &spans {
        by_cmd.entry(s.tid).or_default().push(s);
    }

    // Every command has one root span, and every stage span of the
    // command lies inside it.
    const EPS: f64 = 1e-6;
    for (tid, group) in &by_cmd {
        let roots: Vec<_> = group.iter().filter(|s| s.name == "cmd").collect();
        assert_eq!(roots.len(), 1, "command {tid} has one root span");
        let root = roots[0];
        for s in group {
            assert!(
                s.ts_us >= root.ts_us - EPS && s.ts_us + s.dur_us <= root.ts_us + root.dur_us + EPS,
                "span {} of command {tid} escapes its root window",
                s.name
            );
        }
    }

    // The slowest root span points at the afflicted tenant, and its
    // longest child is the DMA stage (the device round trip where the
    // injected service-time spike lives).
    let slowest = by_cmd
        .values()
        .filter_map(|g| g.iter().find(|s| s.name == "cmd"))
        .max_by(|a, b| a.dur_us.total_cmp(&b.dur_us))
        .expect("commands recorded");
    assert_eq!(slowest.pid, 0, "the spike hit tenant 0's SSD");
    assert!(slowest.dur_us >= SPIKE_US as f64);
    let dominant = by_cmd[&slowest.tid]
        .iter()
        .filter(|s| s.name != "cmd")
        .max_by(|a, b| a.dur_us.total_cmp(&b.dur_us))
        .expect("stage spans recorded");
    assert_eq!(dominant.name, "dma");
    assert!(dominant.dur_us >= SPIKE_US as f64);

    // Corroborated out-of-band: tenant 0's scraped histogram has a
    // >200µs tail, tenant 1's does not.
    let pages = scraped_pages(&world);
    assert!(pages[2].latency_buckets[4..].iter().sum::<u64>() > 0);
    assert_eq!(pages[3].latency_buckets[4..].iter().sum::<u64>(), 0);
}

/// Satellite: a disabled recorder is inert. The telemetry-on and
/// telemetry-off runs of the same seed produce the same completion
/// stream — same order, same tags, same simulated timestamps, same
/// statuses — so shipping with telemetry compiled in costs nothing
/// when it is off.
#[test]
fn disabled_telemetry_leaves_the_run_bit_identical() {
    let with: CompletionLog = Rc::new(RefCell::new(Vec::new()));
    let without: CompletionLog = Rc::new(RefCell::new(Vec::new()));
    let world_on = spiked_world(true, 400, &with);
    let world_off = spiked_world(false, 400, &without);

    assert!(world_on.tb.observer().telemetry().is_some());
    assert!(world_off.tb.observer().telemetry().is_none());
    assert!(world_off
        .tb
        .observer()
        .telemetry()
        .map(|r| r.spans().len())
        .is_none());

    let with = with.borrow();
    let without = without.borrow();
    assert_eq!(with.len(), 800);
    assert_eq!(*with, *without, "telemetry must not perturb the run");
}
