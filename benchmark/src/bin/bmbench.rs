//! `bmbench`: the benchmark's entry point.
//!
//! ```text
//! bmbench run   [--seed N]      7 interleaved rounds over every workload
//! bmbench trace [--seed N] [--workload W]   per-layer metrics (runs bmtrace)
//! bmbench list                  workloads and metrics, one per line
//! bmbench --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! Every repetition runs in a fresh child process (`bmbench rep …`),
//! one at a time, so each simulation has a core to itself.

use bmbench::rig::{Workload, WORKLOADS};
use bmbench::{
    lines, rep_main, result_line, results_json, spawn_rep, summarize, write_file, Args, Record,
    END_TO_END, HOST_RAW, MIN_REPS, OUTPUTS, PER_LAYER, ROUNDS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: bmbench run [--seed N] | trace [--seed N] [--workload W] | list \
                     | --workload W --seed N --seconds S --trace 0|1";

/// Where `run` leaves its results, relative to the repository root.
const RESULTS: &str = "target/benchmark/results.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.command.as_deref(), args.trace) {
        (Some("rep"), _) => rep_main(&args).map(|()| true),
        (Some("list"), _) => {
            list();
            Ok(true)
        }
        (Some("trace"), _) | (None, true) => return run_bmtrace(&argv),
        (Some("run"), _) => run(&args),
        _ => single_workload(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bmbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn list() {
    for w in &WORKLOADS {
        println!("workload {} {}", w.name, w.why);
    }
    for m in &END_TO_END {
        let bound = m.bound.unwrap_or(0.0);
        println!(
            "end_to_end {} {} {} {bound}",
            m.name,
            m.unit,
            m.better.name()
        );
    }
    for (kind, list) in [("output", &OUTPUTS[..]), ("raw", &HOST_RAW[..])] {
        for m in list {
            println!("{kind} {} {} {}", m.name, m.unit, m.better.name());
        }
    }
    for m in &PER_LAYER {
        println!("per_layer {} {} {}", m.name, m.unit, m.better.name());
    }
}

fn exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("locating bmbench: {e}"))
}

fn rep_args(w: &Workload, seed: u64) -> Vec<String> {
    let seed = seed.to_string();
    ["--workload", w.name, "--seed", &seed]
        .map(String::from)
        .to_vec()
}

/// `run`: `ROUNDS` rounds over every workload, the order rotated each
/// round so no workload always runs first or last.
fn run(args: &Args) -> Result<bool, String> {
    let exe = exe()?;
    let mut reps: Vec<Vec<Record>> = vec![Vec::new(); WORKLOADS.len()];
    let mut errors: Vec<Vec<String>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 0..ROUNDS {
        for i in 0..WORKLOADS.len() {
            let k = (round + i) % WORKLOADS.len();
            match spawn_rep(&exe, &rep_args(&WORKLOADS[k], args.seed)) {
                Ok(r) => reps[k].push(r),
                Err(e) => errors[k].push(e),
            }
        }
        eprintln!("bmbench: round {}/{ROUNDS} done", round + 1);
    }
    let mut summaries = Vec::new();
    for (k, w) in WORKLOADS.iter().enumerate() {
        let mut s = summarize(w, &reps[k]);
        s.problems.append(&mut errors[k]);
        for line in lines(&s) {
            println!("{line}");
        }
        summaries.push(s);
    }
    let doc = results_json("run", args.seed, &summaries).render();
    write_file(Path::new(RESULTS), &doc)?;
    eprintln!("bmbench: wrote {RESULTS}");
    Ok(summaries.iter().all(|s| s.correct()))
}

/// The single-workload form: repetitions of one workload for `--seconds`, then
/// one JSON line of end-to-end metrics.
fn single_workload(args: &Args) -> Result<bool, String> {
    let exe = exe()?;
    let w = args.workloads()[0];
    let start = Instant::now();
    let mut reps = Vec::new();
    let mut errors = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        match spawn_rep(&exe, &rep_args(w, args.seed)) {
            Ok(r) => reps.push(r),
            Err(e) => {
                errors.push(e);
                break;
            }
        }
    }
    let mut s = summarize(w, &reps);
    s.problems.append(&mut errors);
    for line in lines(&s) {
        println!("{line}");
    }
    println!("{}", result_line(&s, &END_TO_END));
    Ok(true)
}

/// Per-layer tracing runs in `bmtrace`, the binary that installs the
/// counting allocator, so untraced repetitions never pay for it. Cargo
/// builds it on first use.
fn run_bmtrace(argv: &[String]) -> ExitCode {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
    let status = Command::new(cargo)
        .args([
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
        ])
        .args([manifest, "--bin", "bmtrace", "--"])
        .args(argv)
        .status();
    match status {
        Ok(s) if s.success() => ExitCode::SUCCESS,
        Ok(s) => {
            eprintln!("bmbench: bmtrace exited with {s}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bmbench: running bmtrace: {e}");
            ExitCode::FAILURE
        }
    }
}
