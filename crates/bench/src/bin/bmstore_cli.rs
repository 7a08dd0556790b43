//! `bmstore-cli` — run ad-hoc fio-style scenarios against any scheme.
//!
//! ```text
//! bmstore-cli [metrics] [--scheme native|vfio|bm-store|bm-store-vm|spdk[:CORES]|arm]
//!             [--rw randread|randwrite|seqread|seqwrite|rw:READFRAC]
//!             [--bs BYTES] [--iodepth N] [--numjobs N] [--ssds N]
//!             [--runtime-ms N] [--seed N] [--qos-iops N] [--out FILE]
//! ```
//!
//! The `metrics` subcommand runs the same scenario with the time-series
//! registry enabled (the metrics twin of `--telemetry` plumbing) and
//! dumps the Prometheus exposition plus the bottleneck table after the
//! fio summary; `--out FILE` writes the exposition to FILE instead of
//! stdout.
//!
//! A run whose measured I/Os include any that completed with an error
//! status (say, a `--bs` longer than BM-Store forwards in one command)
//! prints their count after the totals and exits 1.
//!
//! The `chaos` subcommand drives the seeded chaos harness:
//!
//! ```text
//! bmstore-cli chaos run [--seeds N] [--base-seed N]
//!                       [--policy abort-to-host|quiesce-replay]
//!                       [--sabotage] [--out FILE]
//! bmstore-cli chaos replay FILE
//! ```
//!
//! `chaos run` sweeps N seeds of generated fault plans through the
//! invariant oracles; on failure it delta-debugs the first failing plan
//! to a minimal repro and writes/prints the repro artifact (with the
//! observed replay's incident report attached). `chaos replay`
//! re-executes a saved artifact bit-identically and reports the
//! violations it (still) trips. Exit status is non-zero when any oracle
//! fired.
//!
//! The `slo` subcommand runs a canned two-tenant SSD-stall scenario
//! with the per-tenant SLO engine armed and prints the alert log plus
//! the deterministic incident report:
//!
//! ```text
//! bmstore-cli slo [--seed N] [--ios N] [--top K] [--out FILE]
//! ```
//!
//! The `prof` subcommand runs the fig. 8 bare-metal BM-Store case with
//! the `bm-prof` wall-clock self-profiler and the counting allocator
//! armed, printing the top-k self-time table:
//!
//! ```text
//! bmstore-cli prof [--quick] [--seed N] [--top K]
//!                  [--folded FILE] [--json FILE]
//! ```
//!
//! `--folded` writes flamegraph.pl-compatible folded stacks; `--json`
//! writes the stable-schema report.
//!
//! Example: the paper's rand-r-128 on BM-Store with a 50 K IOPS cap:
//!
//! ```bash
//! cargo run --release -p bm-bench --bin bmstore_cli -- \
//!     --scheme bm-store --rw randread --iodepth 128 --qos-iops 50000
//! ```

use bm_host::HOST_CORES;
use bm_pcie::memory::PAGE_SIZE;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::metrics::{prometheus, render_bottleneck};
use bm_sim::slo::{SloConfig, SloSpec};
use bm_sim::{SimDuration, SimTime};
use bm_testbed::{SchemeKind, TestbedConfig};
use bm_workloads::fio::{aggregate, run_fio, FioSpec, RwMode};
use bmstore_core::engine::mapping::MAX_SSD_ID;
use bmstore_core::engine::qos::QosLimit;
use std::process::exit;

struct Args {
    metrics: bool,
    scheme: String,
    rw: String,
    bs: u64,
    iodepth: u32,
    numjobs: u32,
    ssds: usize,
    runtime_ms: u64,
    seed: u64,
    qos_iops: u32,
    out: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: bmstore-cli [metrics] [--scheme native|vfio|bm-store|bm-store-vm|spdk[:CORES]|arm]\n\
         \x20                  [--rw randread|randwrite|seqread|seqwrite|rw:READFRAC]\n\
         \x20                  [--bs BYTES] [--iodepth N] [--numjobs N] [--ssds N]\n\
         \x20                  [--runtime-ms N] [--seed N] [--qos-iops N] [--out FILE]"
    );
    exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        metrics: false,
        scheme: "bm-store".into(),
        rw: "randread".into(),
        bs: 4096,
        iodepth: 128,
        numjobs: 4,
        ssds: 1,
        runtime_ms: 500,
        seed: 42,
        qos_iops: 0,
        out: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    if it.peek().map(String::as_str) == Some("metrics") {
        args.metrics = true;
        it.next();
    }
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scheme" => args.scheme = value(),
            "--rw" => args.rw = value(),
            "--bs" => args.bs = value().parse().unwrap_or_else(|_| usage()),
            "--iodepth" => args.iodepth = value().parse().unwrap_or_else(|_| usage()),
            "--numjobs" => args.numjobs = value().parse().unwrap_or_else(|_| usage()),
            "--ssds" => args.ssds = value().parse().unwrap_or_else(|_| usage()),
            "--runtime-ms" => args.runtime_ms = value().parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--qos-iops" => args.qos_iops = value().parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    // fio moves whole 4 KiB blocks, and the BM-Store engine's mapping
    // entries address at most `MAX_SSD_ID + 1` back-end SSDs.
    if args.bs == 0 || !args.bs.is_multiple_of(PAGE_SIZE) {
        eprintln!("--bs must be a positive multiple of {PAGE_SIZE}");
        usage()
    }
    let bm_store_ssds = usize::from(MAX_SSD_ID) + 1;
    let bm_store = matches!(args.scheme.as_str(), "bm-store" | "bm-store-vm");
    if args.ssds == 0 || (bm_store && args.ssds > bm_store_ssds) {
        eprintln!("--ssds must be at least 1, and at most {bm_store_ssds} for BM-Store");
        usage()
    }
    // Any of these at 0 runs nothing and reports 0 IOPS.
    if args.iodepth == 0 || args.numjobs == 0 || args.runtime_ms == 0 {
        eprintln!("--iodepth, --numjobs and --runtime-ms must be at least 1");
        usage()
    }
    // Only `metrics` writes a file; a plain fio run would drop it.
    if args.out.is_some() && !args.metrics {
        eprintln!("--out needs the metrics subcommand");
        usage()
    }
    args
}

fn scheme_kind(s: &str) -> SchemeKind {
    match s {
        "native" => SchemeKind::Native,
        "vfio" => SchemeKind::Vfio,
        "bm-store" => SchemeKind::BmStore { in_vm: false },
        "bm-store-vm" => SchemeKind::BmStore { in_vm: true },
        "arm" => SchemeKind::ArmOffload,
        other => match other.strip_prefix("spdk") {
            Some(rest) => {
                // vhost needs at least one polling core, and the host
                // has no more than HOST_CORES to dedicate.
                let cores = rest
                    .strip_prefix(':')
                    .map(|c| match c.parse() {
                        Ok(n) if (1..=HOST_CORES).contains(&n) => n,
                        _ => usage(),
                    })
                    .unwrap_or(1);
                SchemeKind::SpdkVhost { cores }
            }
            None => {
                eprintln!("unknown scheme {other}");
                usage()
            }
        },
    }
}

fn rw_mode(s: &str) -> RwMode {
    match s {
        "randread" => RwMode::RandRead,
        "randwrite" => RwMode::RandWrite,
        "seqread" => RwMode::SeqRead,
        "seqwrite" => RwMode::SeqWrite,
        other => match other.strip_prefix("rw:") {
            Some(frac) => RwMode::RandRw {
                read_frac: match frac.parse() {
                    Ok(f) if (0.0..=1.0).contains(&f) => f,
                    _ => usage(),
                },
            },
            None => {
                eprintln!("unknown rw mode {other}");
                usage()
            }
        },
    }
}

fn chaos_usage() -> ! {
    eprintln!(
        "usage: bmstore-cli chaos run [--seeds N] [--base-seed N]\n\
         \x20                            [--policy abort-to-host|quiesce-replay]\n\
         \x20                            [--sabotage] [--out FILE]\n\
         \x20      bmstore-cli chaos replay FILE"
    );
    exit(2)
}

/// `chaos run`: N-seed campaign, shrink + artifact on failure.
fn chaos_run(mut it: std::env::Args) -> ! {
    let mut seeds = 25usize;
    let mut base_seed = 0xC4A05u64;
    let mut cfg = bm_chaos::ChaosConfig::abort_to_host();
    let mut out: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| chaos_usage());
        match flag.as_str() {
            "--seeds" => seeds = value().parse().unwrap_or_else(|_| chaos_usage()),
            "--base-seed" => base_seed = value().parse().unwrap_or_else(|_| chaos_usage()),
            "--policy" => {
                cfg = match value().as_str() {
                    "abort-to-host" => bm_chaos::ChaosConfig::abort_to_host(),
                    "quiesce-replay" => bm_chaos::ChaosConfig::quiesce_replay(),
                    _ => chaos_usage(),
                }
            }
            "--sabotage" => cfg.sabotage_drop_journal_tail = true,
            "--out" => out = Some(value()),
            _ => chaos_usage(),
        }
    }
    println!(
        "chaos campaign: {seeds} seeds from {base_seed}, policy {:?}, sabotage {}",
        cfg.fail_policy, cfg.sabotage_drop_journal_tail
    );
    let report = bm_chaos::run_campaign(&cfg, base_seed, seeds);
    println!(
        "{} cases: {} passed, {} failed; {} I/Os, {} faults, {} recoveries",
        report.cases,
        report.passed,
        report.failures.len(),
        report.total_issued,
        report.total_faults,
        report.total_recoveries
    );
    let Some(first) = report.failures.first() else {
        println!("all oracles held on every seed");
        exit(0)
    };
    for f in &report.failures {
        println!("seed {} FAILED:", f.seed);
        for v in &f.report.violations {
            println!("  {v}");
        }
    }
    println!(
        "shrinking seed {} ({} events) ...",
        first.seed,
        first.plan.events().len()
    );
    let shrunk = bm_chaos::shrink_failing_case(&cfg, &first.plan);
    let artifact = bm_chaos::ReproArtifact::new(&cfg, shrunk);
    println!("minimal repro: {} events", artifact.plan.events().len());
    // Replay the minimal plan once more with observability on and bake
    // the incident report (alerts + fault windows + blame + tripped
    // oracles) into the artifact.
    let (_, incident) = bm_chaos::run_case_observed(&cfg, &artifact.plan);
    let artifact = artifact.with_incident(&incident);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, artifact.to_text()) {
                eprintln!("cannot write {path}: {e}");
            } else {
                println!("repro artifact written to {path}");
            }
        }
        None => print!("{}", artifact.to_text()),
    }
    exit(1)
}

/// `chaos replay FILE`: re-execute a saved repro artifact.
fn chaos_replay(path: &str) -> ! {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(2)
    });
    let artifact = bm_chaos::ReproArtifact::from_text(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(2)
    });
    println!(
        "replaying seed {} ({} events, policy {:?}, sabotage {})",
        artifact.plan.seed(),
        artifact.plan.events().len(),
        artifact.fail_policy,
        artifact.sabotage
    );
    let report = artifact.replay();
    println!("{}", report.summary());
    for v in &report.violations {
        println!("  {v}");
    }
    exit(i32::from(!report.passed()))
}

fn chaos_main(mut it: std::env::Args) -> ! {
    match it.next().as_deref() {
        Some("run") => chaos_run(it),
        Some("replay") => match it.next() {
            Some(path) => chaos_replay(&path),
            None => chaos_usage(),
        },
        _ => chaos_usage(),
    }
}

/// Closed-loop tenant for the `slo` scenario: keeps `depth` reads in
/// flight until `total` have completed.
struct SloLoader {
    dev: bm_testbed::DeviceId,
    total: u64,
    issued: u64,
    buf: bm_testbed::BufferId,
}

impl SloLoader {
    fn next(&mut self) -> bm_testbed::IoRequest {
        self.issued += 1;
        bm_testbed::IoRequest {
            dev: self.dev,
            op: bm_testbed::IoOp::Read,
            lba: bm_nvme::types::Lba((self.issued * 7919) % 1_000_000),
            blocks: 1,
            buf: self.buf,
            tag: self.issued,
        }
    }
}

impl bm_testbed::Client for SloLoader {
    fn start(&mut self, _now: SimTime) -> bm_testbed::ClientOutput {
        let n = 8u64.min(self.total) as usize;
        bm_testbed::ClientOutput::submit((0..n).map(|_| self.next()).collect())
    }

    fn on_completion(
        &mut self,
        _now: SimTime,
        _c: bm_testbed::Completion,
    ) -> bm_testbed::ClientOutput {
        if self.issued < self.total {
            bm_testbed::ClientOutput::submit(vec![self.next()])
        } else {
            bm_testbed::ClientOutput::idle()
        }
    }
}

/// Where the canned `slo` scenario stalls SSD 0 (tenant 0's back-end).
const SLO_STALL_FROM: SimDuration = SimDuration::from_us(200);
const SLO_STALL_UNTIL: SimDuration = SimDuration::from_us(800);

/// Runs the canned SSD-stall scenario: two closed-loop tenants, one
/// latency SLO on tenant 0, a 600 µs stall on tenant 0's SSD. Returns
/// the drained world with telemetry, metrics, and alert log populated.
fn slo_scenario(seed: u64, per_tenant: u64) -> bm_testbed::World {
    let mut cfg = TestbedConfig::bm_store_bare_metal(2)
        .with_seed(seed)
        .with_telemetry()
        .with_slo(
            SloConfig::new().with_spec(
                SloSpec::latency(0, SimDuration::from_us(200))
                    .with_windows(SimDuration::from_us(100), SimDuration::from_us(400)),
            ),
        );
    cfg.fault_plan = FaultPlan::new(seed ^ 0x510).with(
        SimTime::ZERO + SLO_STALL_FROM,
        FaultKind::SsdStall {
            ssd: 0,
            until: SimTime::ZERO + SLO_STALL_UNTIL,
        },
    );
    let mut tb = bm_testbed::Testbed::new(cfg);
    let buf0 = tb.register_buffer(4096);
    let buf1 = tb.register_buffer(4096);
    let mut world = bm_testbed::World::new(tb);
    for (i, buf) in [buf0, buf1].into_iter().enumerate() {
        world.add_client(Box::new(SloLoader {
            dev: bm_testbed::DeviceId(i),
            total: per_tenant,
            issued: 0,
            buf,
        }));
    }
    world.run(None)
}

fn slo_usage() -> ! {
    eprintln!("usage: bmstore-cli slo [--seed N] [--ios N] [--top K] [--out FILE]");
    exit(2)
}

fn slo_main(mut it: std::env::Args) -> ! {
    let mut seed = 0x510Eu64;
    let mut per_tenant = 600u64;
    let mut top = 5usize;
    let mut out: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| slo_usage());
        match flag.as_str() {
            "--seed" => seed = value().parse().unwrap_or_else(|_| slo_usage()),
            "--ios" => per_tenant = value().parse().unwrap_or_else(|_| slo_usage()),
            "--top" => top = value().parse().unwrap_or_else(|_| slo_usage()),
            "--out" => out = Some(value()),
            _ => slo_usage(),
        }
    }
    println!(
        "slo scenario: seed {seed}, {per_tenant} I/Os per tenant, \
         SSD 0 stalled {}..{} ns",
        SLO_STALL_FROM.as_nanos(),
        SLO_STALL_UNTIL.as_nanos()
    );
    let world = slo_scenario(seed, per_tenant);
    println!("alerts ({}):", world.slo_alerts().len());
    for a in world.slo_alerts() {
        println!("  {}", a.render());
    }
    let incident = world.incident_report(&[], top);
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &incident) {
                eprintln!("cannot write {path}: {e}");
                exit(2);
            }
            println!("incident report written to {path}");
        }
        None => print!("{incident}"),
    }
    exit(0)
}

// ---------------------------------------------------------------------
// prof: the bm-prof self-profiler over the fig. 8 BM-Store case
// ---------------------------------------------------------------------

/// Counting allocator so `prof` runs attribute allocations to profile
/// scopes. Disarmed (the default) it is a thread-local bool check per
/// allocation; the other subcommands never arm it.
#[global_allocator]
static ALLOCATOR: bm_prof::alloc::CountingAlloc = bm_prof::alloc::CountingAlloc;

fn prof_usage() -> ! {
    eprintln!(
        "usage: bmstore-cli prof [--quick] [--seed N] [--top K]\n\
         \x20                       [--folded FILE] [--json FILE]"
    );
    exit(2)
}

/// Renders every figure-relevant number of the fig. 8 case to a
/// canonical string (exact f64 bit patterns) so profiler-on and
/// profiler-off runs can be byte-compared.
fn prof_figures(results: &[bm_workloads::fio::FioResult], events_fired: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "events {events_fired}");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            s,
            "dev{i} ops {} iops {:016x} bw {:016x} p50 {} p99 {} p999 {} avg {}",
            r.ops,
            r.iops.to_bits(),
            r.bandwidth_mbps.to_bits(),
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            r.avg_latency.as_nanos(),
        );
    }
    s
}

/// Runs the fig. 8 bare-metal rand-r-128 case with the profiler on.
/// Returns the canonical figure rendering and the profile snapshot.
fn prof_case(seed: u64) -> (String, Option<bm_prof::Snapshot>) {
    let cfg = TestbedConfig::bm_store_bare_metal(1)
        .with_seed(seed)
        .with_profiler();
    let spec = bm_bench::scaled(FioSpec::rand_r_128());
    let (results, world) = run_fio(cfg, spec);
    let figures = prof_figures(&results, world.events_fired);
    let snap = world.tb.profiler().snapshot();
    (figures, snap)
}

fn prof_main(mut it: std::env::Args) -> ! {
    let mut seed = 42u64;
    let mut top = 12usize;
    let mut folded_out: Option<String> = None;
    let mut json_out: Option<String> = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| prof_usage());
        match flag.as_str() {
            "--quick" => {} // observed by bm_bench::quick() via env::args
            "--seed" => seed = value().parse().unwrap_or_else(|_| prof_usage()),
            "--top" => top = value().parse().unwrap_or_else(|_| prof_usage()),
            "--folded" => folded_out = Some(value()),
            "--json" => json_out = Some(value()),
            _ => prof_usage(),
        }
    }
    bm_prof::alloc::arm();
    let (figures, snap) = prof_case(seed);
    bm_prof::alloc::disarm();
    let Some(snap) = snap else {
        eprintln!("prof: profiled run produced no snapshot");
        exit(2)
    };

    println!("fig. 8 bare-metal rand-r-128, profiled (seed {seed}):");
    print!("{figures}");
    print!("{}", bm_prof::report::top_table(&snap, top));
    if let Some(path) = folded_out {
        if let Err(e) = std::fs::write(&path, bm_prof::report::folded(&snap)) {
            eprintln!("cannot write {path}: {e}");
            exit(2);
        }
        println!("folded stacks written to {path} (flamegraph.pl-compatible)");
    }
    if let Some(path) = json_out {
        if let Err(e) = std::fs::write(&path, bm_prof::report::render_json(&snap)) {
            eprintln!("cannot write {path}: {e}");
            exit(2);
        }
        println!("JSON report written to {path}");
    }
    exit(0)
}

fn main() {
    {
        let mut it = std::env::args();
        it.next();
        match it.next().as_deref() {
            Some("chaos") => chaos_main(it),
            Some("slo") => slo_main(it),
            Some("prof") => prof_main(it),
            _ => {}
        }
    }
    let args = parse_args();
    let kind = scheme_kind(&args.scheme);
    let mut cfg = match &kind {
        SchemeKind::Native => TestbedConfig::native(args.ssds),
        SchemeKind::BmStore { in_vm: false } => TestbedConfig::bm_store_bare_metal(args.ssds),
        other => {
            let mut c = TestbedConfig::single_vm(other.clone());
            c.ssds = args.ssds;
            c.devices = (0..args.ssds)
                .map(|i| bm_testbed::DeviceSpec::whole_disk(i as u8))
                .collect();
            c
        }
    }
    .with_seed(args.seed);
    if args.metrics {
        cfg = cfg.with_metrics();
    }
    if args.qos_iops > 0 {
        for d in &mut cfg.devices {
            d.qos = QosLimit::iops(args.qos_iops as f64);
        }
    }
    let spec = FioSpec {
        mode: rw_mode(&args.rw),
        block_bytes: args.bs,
        iodepth: args.iodepth,
        numjobs: args.numjobs,
        ramp: SimDuration::from_ms(args.runtime_ms / 10),
        runtime: SimDuration::from_ms(args.runtime_ms),
    };
    println!(
        "scheme={} rw={} bs={} iodepth={} numjobs={} ssds={} runtime={}ms qos_iops={}",
        args.scheme,
        args.rw,
        args.bs,
        args.iodepth,
        args.numjobs,
        args.ssds,
        args.runtime_ms,
        args.qos_iops
    );
    let (results, world) = run_fio(cfg, spec);
    for (i, r) in results.iter().enumerate() {
        println!(
            "dev{i}: {:>9.0} IOPS  {:>8.1} MB/s  avg {:>9.1} us  p50 {:>9.1}  p99 {:>9.1}  p99.9 {:>9.1}",
            r.iops,
            r.bandwidth_mbps,
            r.avg_latency.as_micros_f64(),
            r.p50.as_micros_f64(),
            r.p99.as_micros_f64(),
            r.p999.as_micros_f64(),
        );
    }
    let agg = aggregate(&results);
    println!(
        "total: {:>9.0} IOPS  {:>8.1} MB/s  avg {:>9.1} us",
        agg.iops,
        agg.bandwidth_mbps,
        agg.avg_latency.as_micros_f64()
    );
    if agg.failed > 0 {
        println!(
            "failed: {} of {} measured I/Os completed with an error status",
            agg.failed,
            agg.ops + agg.failed
        );
    }
    let polling = world.tb.polling_cpu_busy();
    if polling > SimDuration::ZERO {
        println!(
            "host polling CPU burnt: {:.3} core-seconds",
            polling.as_secs_f64()
        );
    }
    if args.metrics {
        let dumped = world.tb.observer().metrics().map(|m| {
            let exposition = prometheus(m);
            let end = m.last_sample().unwrap_or(SimTime::ZERO);
            let table = render_bottleneck(&m.bottleneck_report(end, 5));
            (exposition, table)
        });
        match dumped {
            Some((exposition, table)) => {
                match &args.out {
                    Some(path) => {
                        if let Err(e) = std::fs::write(path, &exposition) {
                            eprintln!("cannot write {path}: {e}");
                            exit(2);
                        }
                        println!("\nprometheus exposition written to {path}");
                    }
                    None => println!("\n{exposition}"),
                }
                println!("{table}");
            }
            None => eprintln!("metrics registry unavailable"),
        }
    }
    if agg.failed > 0 {
        exit(1);
    }
}
