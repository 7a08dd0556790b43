//! Telemetry smoke — CI gate for the span/trace pipeline.
//!
//! Runs a short two-tenant BM-Store workload with telemetry on and a
//! latency spike on tenant 0's SSD, exports the Chrome trace, and
//! checks the pipeline end to end: the JSON parses, every stage span
//! nests inside its command's root span, and the slowest command's
//! latency is attributed to the DMA stage (where the injected device
//! spike is absorbed). Run by `scripts/check.sh`.

use bm_nvme::types::Lba;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::telemetry::{chrome_trace, parse_chrome_trace, ParsedSpan};
use bm_sim::{SimDuration, SimTime};
use bm_testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, Testbed, TestbedConfig,
    World,
};
use std::collections::BTreeMap;

struct Loader {
    dev: DeviceId,
    total: u64,
    issued: u64,
    buf: BufferId,
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

    fn on_completion(&mut self, _now: SimTime, _c: Completion) -> ClientOutput {
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

fn main() {
    const SPIKE_US: u64 = 300;
    let mut cfg = TestbedConfig::bm_store_bare_metal(2).with_telemetry();
    cfg.fault_plan = FaultPlan::new(0x51_0E).with(
        us(150),
        FaultKind::SsdLatencySpike {
            ssd: 0,
            extra: SimDuration::from_us(SPIKE_US),
            until: us(400),
        },
    );
    let mut tb = Testbed::new(cfg);
    let buf0 = tb.register_buffer(4096);
    let buf1 = tb.register_buffer(4096);
    let mut world = World::new(tb);
    for (i, buf) in [buf0, buf1].into_iter().enumerate() {
        world.add_client(Box::new(Loader {
            dev: DeviceId(i),
            total: 400,
            issued: 0,
            buf,
        }));
    }
    let world = world.run(None);

    let trace = world
        .tb
        .observer()
        .telemetry()
        .map(chrome_trace)
        .expect("telemetry enabled");
    let spans = parse_chrome_trace(&trace).expect("exported trace must parse");
    assert!(spans.len() > 1_000, "trace suspiciously small");

    // Group spans by command (Chrome tid); every command must have one
    // root "cmd" span with every stage span nested inside it.
    let mut by_cmd: BTreeMap<u64, Vec<&ParsedSpan>> = BTreeMap::new();
    for s in &spans {
        by_cmd.entry(s.tid).or_default().push(s);
    }
    const EPS: f64 = 1e-6;
    let mut roots = 0u64;
    for (tid, group) in &by_cmd {
        let root = group
            .iter()
            .find(|s| s.name == "cmd")
            .unwrap_or_else(|| panic!("command {tid} has no root span"));
        roots += 1;
        for s in group {
            assert!(
                s.ts_us >= root.ts_us - EPS && s.ts_us + s.dur_us <= root.ts_us + root.dur_us + EPS,
                "span {} of command {tid} escapes its root window",
                s.name
            );
        }
    }
    assert_eq!(roots as usize, by_cmd.len());

    // The slowest command must blame the DMA stage (device round trip),
    // belong to tenant 0 (pid), and have absorbed the injected spike.
    let slowest = by_cmd
        .values()
        .filter_map(|g| g.iter().find(|s| s.name == "cmd"))
        .max_by(|a, b| a.dur_us.total_cmp(&b.dur_us))
        .expect("commands recorded");
    assert_eq!(slowest.pid, 0, "the spike hit tenant 0's SSD");
    let dominant = by_cmd[&slowest.tid]
        .iter()
        .filter(|s| s.name != "cmd")
        .max_by(|a, b| a.dur_us.total_cmp(&b.dur_us))
        .expect("stage spans recorded");
    assert_eq!(
        dominant.name, "dma",
        "the slow command's latency must land in the DMA stage"
    );
    assert!(
        dominant.dur_us >= SPIKE_US as f64,
        "DMA span ({:.1}µs) must absorb the {SPIKE_US}µs spike",
        dominant.dur_us
    );

    println!(
        "telemetry smoke ok: {} spans, {} commands, slowest {:.1}µs (tenant {}, dma {:.1}µs)",
        spans.len(),
        by_cmd.len(),
        slowest.dur_us,
        slowest.pid,
        dominant.dur_us
    );
}
