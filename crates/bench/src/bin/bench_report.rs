//! `bench_report` — the regression-gated benchmark envelope.
//!
//! Runs the BM-Store workloads behind Fig. 8/9/10/12 with the metrics
//! registry enabled, and writes `BENCH_BMSTORE.json`: throughput,
//! p50/p99 latency, per-stage utilization from the bottleneck profiler,
//! and peak queue depths. With `--baseline FILE` the fresh report is
//! checked against the committed baseline (see `bm_bench::report`) and
//! the process exits non-zero on any violation — this is the gate
//! `scripts/check.sh` runs.
//!
//! Flags:
//!   --quick                 scaled-down windows (the committed baseline
//!                           is a quick run; compare like with like)
//!   --out FILE              where to write the report
//!                           (default BENCH_BMSTORE.json)
//!   --baseline FILE         compare against FILE, exit 1 on violations
//!   --write-baseline FILE   write the fresh report to FILE too
//!                           (regenerating the committed baseline)
//!   --profile               run each case with the bm-prof profiler on
//!                           and attach its top event kinds (hot_kinds);
//!                           informational, never gated

use bm_bench::report::{compare, BenchCase, BenchReport, Tolerances};
use bm_bench::{fmt_count, fmt_lat, header, quick, row, scaled};
use bm_sim::metrics::names;
use bm_sim::SimTime;
use bm_testbed::{SchemeKind, TestbedConfig};
use bm_workloads::fio::{aggregate, prepare_fio, FioSpec};

fn run_case(name: &str, cfg: TestbedConfig, spec: FioSpec, profile: bool) -> BenchCase {
    let mut cfg = cfg.with_metrics();
    if profile {
        cfg = cfg.with_profiler();
    }
    let started = std::time::Instant::now();
    let rig = prepare_fio(cfg, spec);
    let setup_s = started.elapsed().as_secs_f64();
    let run_started = std::time::Instant::now();
    let (results, world) = rig.run();
    let run_s = run_started.elapsed().as_secs_f64();
    let events_per_sec = if run_s > 0.0 {
        world.events_fired as f64 / run_s
    } else {
        0.0
    };
    let hot_kinds = if profile {
        let snap = world.tb.profiler().snapshot().unwrap_or_default();
        let total = snap.total_run_ns.max(1) as f64;
        let mut ranked: Vec<(String, f64)> = snap
            .scopes
            .iter()
            .map(|s| (s.key(), s.self_ns as f64 / total))
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranked.truncate(5);
        ranked
    } else {
        Vec::new()
    };
    let agg = aggregate(&results);
    let (stages, saturated, peak_qd) = world
        .tb
        .observer()
        .metrics()
        .map(|m| {
            let end = m.last_sample().unwrap_or(SimTime::ZERO);
            let report = m.bottleneck_report(end, 3);
            let stages: Vec<(String, f64)> = report
                .stages
                .iter()
                .map(|s| (s.stage.clone(), s.occupancy))
                .collect();
            let peak = m
                .gauges()
                .filter(|(k, _)| {
                    k.name == names::BACKEND_INFLIGHT || k.name == names::HOST_SQ_INFLIGHT
                })
                .map(|(_, g)| g.peak())
                .fold(0.0, f64::max);
            (stages, report.saturated.unwrap_or_default(), peak)
        })
        .expect("metrics enabled via with_metrics");
    BenchCase {
        name: name.to_string(),
        iops: agg.iops,
        bandwidth_mbps: agg.bandwidth_mbps,
        p50_us: agg.p50.as_micros_f64(),
        p99_us: agg.p99.as_micros_f64(),
        peak_queue_depth: peak_qd,
        events_per_sec,
        peak_event_queue: world.peak_event_queue as f64,
        saturated_stage: saturated,
        stages,
        setup_s,
        run_s,
        hot_kinds,
    }
}

fn build_report(profile: bool) -> BenchReport {
    let cases = vec![
        run_case(
            "fig08-bare-metal-rand-r-128",
            TestbedConfig::bm_store_bare_metal(1),
            scaled(FioSpec::rand_r_128()),
            profile,
        ),
        run_case(
            "fig08-bare-metal-rand-w-16",
            TestbedConfig::bm_store_bare_metal(1),
            scaled(FioSpec::rand_w_16()),
            profile,
        ),
        run_case(
            "fig09-single-vm-rand-r-128",
            TestbedConfig::single_vm(SchemeKind::BmStore { in_vm: true }),
            scaled(FioSpec::rand_r_128()),
            profile,
        ),
        run_case(
            "fig10-4ssd-seq-r-256",
            TestbedConfig::bm_store_bare_metal(4),
            scaled(FioSpec::seq_r_256()),
            profile,
        ),
        run_case(
            "fig12-multi-vm-rand-r-128",
            TestbedConfig::multi_vm_bm_store(4),
            scaled(FioSpec::rand_r_128()),
            profile,
        ),
    ];
    BenchReport {
        schema: 3,
        quick: quick(),
        cases,
    }
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_BMSTORE.json".to_string());
    let baseline_path = arg_value(&args, "--baseline");
    let write_baseline = arg_value(&args, "--write-baseline");
    let profile = args.iter().any(|a| a == "--profile");

    let report = build_report(profile);

    header(
        "bench_report: BM-Store envelope",
        &["IOPS", "p50", "p99", "peak QD", "Mev/s", "bottleneck"],
    );
    for c in &report.cases {
        row(
            &c.name,
            &[
                fmt_count(c.iops),
                fmt_lat(bm_sim::SimDuration::from_nanos((c.p50_us * 1e3) as u64)),
                fmt_lat(bm_sim::SimDuration::from_nanos((c.p99_us * 1e3) as u64)),
                format!("{:.0}", c.peak_queue_depth),
                format!("{:.2}", c.events_per_sec / 1e6),
                c.saturated_stage.clone(),
            ],
        );
    }
    if profile {
        println!("\nhot kinds (bm-prof self-time fraction of dispatch total):");
        for c in &report.cases {
            let line = c
                .hot_kinds
                .iter()
                .map(|(k, f)| format!("{k} {:.1}%", f * 100.0))
                .collect::<Vec<_>>()
                .join(", ");
            println!("  {:<28} {line}", c.name);
        }
    }

    let json = report.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("bench_report: cannot write {out_path}: {e}");
        std::process::exit(2);
    }
    println!("\nreport written to {out_path}");

    if let Some(path) = write_baseline {
        if let Err(e) = std::fs::write(&path, &json) {
            eprintln!("bench_report: cannot write baseline {path}: {e}");
            std::process::exit(2);
        }
        println!("baseline regenerated at {path}");
    }

    if let Some(path) = baseline_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench_report: cannot read baseline {path}: {e}");
                std::process::exit(2);
            }
        };
        let baseline = match BenchReport::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench_report: baseline {path} does not parse: {e}");
                std::process::exit(2);
            }
        };
        let violations = compare(&report, &baseline, Tolerances::default());
        if violations.is_empty() {
            println!("baseline check passed ({path})");
        } else {
            eprintln!("\nbench_report: REGRESSION against {path}:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}
