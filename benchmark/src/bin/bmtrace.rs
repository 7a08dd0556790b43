//! `bmtrace`: per-layer metrics. Normally started by `bmbench trace`
//! or `bmbench --trace 1`, which forward their arguments.
//!
//! For each workload it runs rounds of three child repetitions
//! (untraced, traced with the profiler and the counting allocator, and
//! with the workload's observers flipped), then times each layer's
//! public API in standalone replays of the recorded request mix.

use bm_prof::alloc::CountingAlloc;
use bmbench::rig::Workload;
use bmbench::{
    fastest, lines, rep_main, result_line, results_json, spawn_rep, trace_summary, write_file,
    Args, PER_LAYER,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Where the per-workload folded stacks and `trace.json` go, relative
/// to the repository root.
const TRACE_DIR: &str = "target/benchmark/trace";

/// Fewest rounds per workload; each round runs one repetition of each
/// kind, and rounds go on until `--seconds` have passed.
const MIN_ROUNDS: usize = 3;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&argv).and_then(|args| match args.command.as_deref() {
        Some("rep") => rep_main(&args).map(|()| true),
        Some("trace") => trace(&args, false),
        None if args.trace => trace(&args, true),
        _ => Err("bmtrace takes trace, rep, or the single-workload form with --trace 1".into()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bmtrace: {e}");
            ExitCode::FAILURE
        }
    }
}

fn trace(args: &Args, single: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating bmtrace: {e}"))?;
    let mut summaries = Vec::new();
    for w in args.workloads() {
        let s = trace_workload(&exe, w, args.seed, args.seconds)?;
        for line in lines(&s) {
            println!("{line}");
        }
        summaries.push(s);
    }
    let doc = results_json("trace", args.seed, &summaries).render();
    write_file(&Path::new(TRACE_DIR).join("trace.json"), &doc)?;
    if single {
        println!("{}", result_line(&summaries[0], &PER_LAYER));
        return Ok(true);
    }
    Ok(summaries.iter().all(|s| s.correct()))
}

fn trace_workload(
    exe: &Path,
    w: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<bmbench::Summary, String> {
    let dir = PathBuf::from(TRACE_DIR);
    let base_args: Vec<String> = ["--workload", w.name, "--seed", &seed.to_string()]
        .map(String::from)
        .to_vec();
    let (mut base, mut traced, mut toggled, mut folded) = (vec![], vec![], vec![], vec![]);
    let start = Instant::now();
    while base.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let i = base.len();
        base.push(spawn_rep(exe, &base_args)?);
        let path = dir.join(format!("{}.{i}.folded", w.name));
        let mut a = base_args.clone();
        a.extend([
            "--traced".into(),
            "--folded".into(),
            path.display().to_string(),
        ]);
        traced.push(spawn_rep(exe, &a)?);
        folded.push(path);
        let mut a = base_args.clone();
        a.push("--toggle-observers".into());
        toggled.push(spawn_rep(exe, &a)?);
    }
    // Keep the folded stacks of the traced repetition the metrics use.
    let keep = fastest(&traced);
    for (i, path) in folded.iter().enumerate() {
        let moved = if Some(i) == keep {
            std::fs::rename(path, dir.join(format!("{}.folded", w.name)))
        } else {
            std::fs::remove_file(path)
        };
        moved.map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(trace_summary(w, seed, &base, &traced, &toggled))
}
