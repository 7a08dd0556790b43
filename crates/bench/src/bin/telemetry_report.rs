//! End-to-end telemetry report — per-tenant, per-stage latency
//! breakdown of a BM-Store run, with an out-of-band NVMe-MI scrape.
//!
//! Two closed-loop tenants (one namespace per SSD) run against
//! BM-Store bare-metal with the telemetry recorder enabled while a
//! `FaultPlan` injects a latency spike into tenant 0's SSD. The report
//! prints the per-stage latency table aggregated by the recorder, the
//! per-tenant roll-ups, and the vendor telemetry log pages scraped over
//! MCTP mid-run — the spike is visible in tenant 0's stage table and in
//! its scraped latency buckets while tenant 1 stays clean.
//!
//! Usage: `cargo run --release -p bm-bench --bin telemetry_report --
//! [--quick] [--trace FILE] [--jsonl FILE]`
//!
//! `--trace` writes a Chrome `chrome://tracing` / Perfetto JSON file;
//! `--jsonl` dumps the raw event stream one JSON object per line.
//! Dropped telemetry events, crash-recovery noise and past-due
//! clamping each print a WARNING line to stdout, so
//! the committed `--quick` golden (`crates/bench/tests/goldens.rs`)
//! fails on any of them.

use bm_bench::{header, row};
use bm_nvme::log_page::TelemetryLogPage;
use bm_nvme::types::Lba;
use bm_pcie::FunctionId;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::stats::LatencyHistogram;
use bm_sim::telemetry::{chrome_trace, jsonl, TelemetryStage};
use bm_sim::{SimDuration, SimTime};
use bm_testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, Testbed, TestbedConfig,
    World,
};
use bmstore_core::controller::commands::BmsCommand;
use std::fs::File;
use std::io::Write;

struct Loader {
    dev: DeviceId,
    total: u64,
    issued: u64,
    depth: u32,
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
        let n = self.depth.min(self.total as u32);
        ClientOutput::submit((0..n).map(|_| self.next()).collect())
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

fn fmt_us(d: SimDuration) -> String {
    format!("{:.1}", d.as_nanos() as f64 / 1_000.0)
}

fn stat_row(label: &str, h: &LatencyHistogram) {
    row(
        label,
        &[
            format!("{}", h.count()),
            fmt_us(h.mean()),
            fmt_us(h.percentile(0.5)),
            fmt_us(h.percentile(0.99)),
            fmt_us(h.max()),
        ],
    );
}

fn usage() -> ! {
    eprintln!("usage: telemetry_report [--quick] [--trace FILE] [--jsonl FILE]");
    std::process::exit(2)
}

fn main() {
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut jsonl_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--trace" => trace_path = Some(args.next().unwrap_or_else(|| usage())),
            "--jsonl" => jsonl_path = Some(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    // Create both output files before the run, so an unwritable path
    // fails in a moment instead of after it.
    let create = |path: Option<String>| {
        path.map(|path| match File::create(&path) {
            Ok(file) => (path, file),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(2)
            }
        })
    };
    let trace_out = create(trace_path);
    let jsonl_out = create(jsonl_path);
    let per_tenant: u64 = if quick { 600 } else { 3_000 };

    // Tenant i on SSD i; the spike hits SSD 0 only.
    let mut cfg = TestbedConfig::bm_store_bare_metal(2).with_telemetry();
    cfg.fault_plan = FaultPlan::new(0x7E1E).with(
        us(200),
        FaultKind::SsdLatencySpike {
            ssd: 0,
            extra: SimDuration::from_us(300),
            until: us(600),
        },
    );
    let mut tb = Testbed::new(cfg);
    let buf0 = tb.register_buffer(4096);
    let buf1 = tb.register_buffer(4096);
    let mut world = World::new(tb);
    for (i, buf) in [buf0, buf1].into_iter().enumerate() {
        world.add_client(Box::new(Loader {
            dev: DeviceId(i),
            total: per_tenant,
            issued: 0,
            depth: 8,
            buf,
        }));
    }
    // Out-of-band scrapes: one inside the spike window, one after the
    // run drains (both functions each time).
    for at in [us(450), us(1_000_000)] {
        for f in 0..2 {
            world.schedule_command(
                at,
                BmsCommand::QueryTelemetry {
                    func: FunctionId::new(f).expect("valid function"),
                },
            );
        }
    }
    let world = world.run(None);

    let telemetry = world.tb.observer().telemetry();
    telemetry
        .map(|rec| {
            header(
                "per-stage latency (all tenants, µs)",
                &["count", "mean", "p50", "p99", "max"],
            );
            for stage in TelemetryStage::ALL {
                let h = rec.fleet_rollup(stage);
                if !h.is_empty() {
                    stat_row(stage.name(), &h);
                }
            }
            for stage in [TelemetryStage::Command, TelemetryStage::Dma] {
                header(
                    &format!("per-tenant {} latency (µs)", stage.name()),
                    &["count", "mean", "p50", "p99", "max"],
                );
                for (tenant, h) in rec.tenant_rollup(stage) {
                    stat_row(&format!("tenant {tenant}"), &h);
                }
            }
            row(
                "events",
                &[format!(
                    "{} recorded, {} dropped",
                    rec.events().count(),
                    rec.dropped()
                )],
            );
            if rec.dropped() > 0 {
                println!(
                    "WARNING: telemetry recorder dropped {} events — \
                     stage rollups above under-count; raise the recorder \
                     capacity or shorten the window",
                    rec.dropped()
                );
            }
        })
        .expect("telemetry enabled");

    // Engine resilience and scheduler-health counters. All zero on this
    // fault plan (a latency spike neither times out nor crashes); any
    // non-zero recovery activity or past-due clamping is surfaced
    // loudly because it means the run's timings carry recovery noise.
    if let Some(engine) = world.tb.engine() {
        let stats = engine.resilience_stats();
        header(
            "engine resilience",
            &["recoveries", "replayed", "aborted", "crashed µs"],
        );
        row(
            "crash recovery",
            &[
                format!("{}", stats.recoveries),
                format!("{}", stats.replayed),
                format!("{}", stats.aborted_on_recovery),
                fmt_us(stats.recovery_time),
            ],
        );
        if stats.recoveries > 0 {
            println!(
                "WARNING: {} crash-recovery cycle(s) ran ({} commands replayed, \
                 {} aborted to the host) — latency tables above include \
                 recovery noise",
                stats.recoveries, stats.replayed, stats.aborted_on_recovery
            );
        }
    }
    row("clamped past", &[format!("{}", world.clamped_past)]);
    if world.clamped_past > 0 {
        println!(
            "WARNING: the scheduler clamped {} past-due event(s) to 'now' — \
             an interpreter scheduled work behind the clock; timing fidelity \
             is degraded for those events",
            world.clamped_past
        );
    }

    // Decode the NVMe-MI scrapes (arrival order: mid f0, mid f1,
    // final f0, final f1).
    let responses = world.mgmt_responses();
    let pages: Vec<TelemetryLogPage> = responses
        .iter()
        .map(|(_, r)| TelemetryLogPage::from_bytes(&r.payload).expect("log page decodes"))
        .collect();
    assert_eq!(pages.len(), 4, "four scrapes scheduled");
    header(
        "NVMe-MI telemetry scrape",
        &["reads", "writes", "outst", "peak", "mean µs", ">200µs"],
    );
    for (label, page) in ["mid f0", "mid f1", "final f0", "final f1"]
        .iter()
        .zip(&pages)
    {
        let slow: u64 = page.latency_buckets[4..].iter().sum();
        row(
            label,
            &[
                format!("{}", page.reads),
                format!("{}", page.writes),
                format!("{}", page.outstanding),
                format!("{}", page.peak_outstanding),
                format!("{:.1}", page.mean_latency_ns() as f64 / 1_000.0),
                format!("{slow}"),
            ],
        );
    }
    assert!(
        pages[2].latency_buckets[4..].iter().sum::<u64>() > 0,
        "tenant 0's spike must show in its high-latency buckets"
    );
    assert_eq!(
        pages[3].latency_buckets[4..].iter().sum::<u64>(),
        0,
        "tenant 1 was not hit by the spike"
    );

    if let Some((path, file)) = trace_out {
        let trace = telemetry.map(chrome_trace).expect("telemetry enabled");
        write_out(&path, file, &trace);
        println!("\nChrome trace written to {path}");
    }
    if let Some((path, file)) = jsonl_out {
        let dump = telemetry.map(jsonl).expect("telemetry enabled");
        write_out(&path, file, &dump);
        println!("event dump written to {path}");
    }
}

/// Writes `text` to the already created `file`; a failure (a full disk)
/// exits 2 like a path that cannot be created.
fn write_out(path: &str, mut file: File, text: &str) {
    if let Err(e) = file.write_all(text.as_bytes()) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2)
    }
}
