//! `bmbench`: end-to-end and per-layer performance benchmark of the
//! BM-Store simulator. See `README.md` for the commands, the workloads
//! and the metrics.
//!
//! Every repetition of a workload runs in a fresh child process and
//! reports a [`Record`]. Host metrics (how fast the simulator runs) are
//! calibrated order statistics over repetitions; simulated results are
//! deterministic for a seed, so the repetitions must agree on them
//! exactly, and any disagreement fails the output checks.

mod calib;
pub mod json;
mod layers;
pub mod rig;
pub mod stats;

use json::Json;
use rig::Workload;
use stats::{best_of, better_quartile, median, quartiles, Better};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One repetition's named numbers, as a child process reports them.
pub type Record = BTreeMap<String, f64>;

/// A metric's name, unit and direction; `bound` is the share of the
/// parent commit's median by which an end-to-end metric may worsen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn metric(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

use Better::{Higher, Lower};

/// Host-side metrics of the untraced repetitions: what a user of the
/// simulator waits for and pays.
pub const END_TO_END: [MetricSpec; 3] = [
    gated("sim_ios_per_s", "1/s", Higher, 0.20),
    gated("setup_s", "s", Lower, 0.25),
    gated("peak_rss_mb", "MB", Lower, 0.05),
];

/// Simulated results over each workload's measured window. They are
/// deterministic for a seed, so they are checked and printed, not
/// gated: a different seed gives different (equally valid) values.
pub const OUTPUTS: [MetricSpec; 4] = [
    metric("sim_iops", "1/s", Higher),
    metric("sim_p50_us", "us", Lower),
    metric("sim_p99_us", "us", Lower),
    metric("error_rate", "ratio", Lower),
];

/// The unscaled host numbers behind the end-to-end metrics, printed
/// and kept in `results.json` so the calibration can be checked.
pub const HOST_RAW: [MetricSpec; 2] = [
    metric("raw_sim_ios_per_s", "1/s", Higher),
    metric("calib_s", "s", Lower),
];

/// Per-layer metrics, named `<module>.<what>`; produced by `trace`.
pub const PER_LAYER: [MetricSpec; 24] = [
    metric("sim.events_per_io", "count/io", Lower),
    metric("sim.peak_event_queue", "count", Lower),
    metric("sim.sched_ns_per_event", "ns/event", Lower),
    metric("core.backend_cmds_per_io", "count/io", Lower),
    metric("core.timeouts", "count", Lower),
    metric("core.retries", "count", Lower),
    metric("core.recoveries", "count", Lower),
    metric("core.doorbell_ns_per_cmd", "ns/cmd", Lower),
    metric("core.backend_completion_ns_per_cmd", "ns/cmd", Lower),
    metric("core.host_completion_ns_per_cmd", "ns/cmd", Lower),
    metric("ssd.ns_per_io", "ns/io", Lower),
    metric("nvme.ns_per_sqe", "ns/sqe", Lower),
    metric("testbed.engine_stage_ns_per_io", "ns/io", Lower),
    metric("testbed.scheme_stage_ns_per_io", "ns/io", Lower),
    metric("testbed.effects_ns_per_io", "ns/io", Lower),
    metric("testbed.submit_ns_per_io", "ns/io", Lower),
    metric("testbed.deliver_ns_per_io", "ns/io", Lower),
    metric("testbed.sampler_ns_per_io", "ns/io", Lower),
    metric("testbed.run_ns_per_io", "ns/io", Lower),
    metric("testbed.allocs_per_io", "count/io", Lower),
    metric("workloads.callbacks_per_io", "count/io", Lower),
    metric("workloads.ns_per_io", "ns/io", Lower),
    metric("observe.overhead_ratio", "ratio", Lower),
    metric("trace.overhead_ratio", "ratio", Lower),
];

/// Rounds of `run`: every workload once per round.
pub const ROUNDS: usize = 7;

/// Fewest repetitions a single-workload run makes, however short `--seconds`.
pub const MIN_REPS: usize = 3;

/// One metric of one workload, with the spread behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: String,
    /// First quartile, median and third quartile of the repetitions.
    pub quartiles: [f64; 3],
    /// Repetitions for host metrics; simulated completions (or commands,
    /// for `error_rate`) for simulated ones.
    pub samples: u64,
}

impl Value {
    fn of(spec: &MetricSpec, value: f64, per_rep: &[f64], samples: u64) -> Value {
        Value {
            value,
            unit: spec.unit.to_string(),
            quartiles: quartiles(per_rep),
            samples,
        }
    }

    fn exact(spec: &MetricSpec, value: f64, samples: u64) -> Value {
        Value::of(spec, value, &[value], samples)
    }
}

/// Everything measured and checked for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub workload: String,
    pub reps: usize,
    /// Simulated commands submitted, summed over repetitions.
    pub attempted: u64,
    /// Commands whose outcome failed an output check.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub problems: Vec<String>,
    pub metrics: BTreeMap<String, Value>,
}

fn get(r: &Record, key: &str) -> f64 {
    r.get(key).copied().unwrap_or(f64::NAN)
}

/// Simulated I/O completions delivered to clients.
fn ios(r: &Record) -> f64 {
    get(r, "ok") + get(r, "failed")
}

/// How much slower than the reference host the machine ran around a
/// repetition (see [`calib`]).
fn slowdown(r: &Record) -> f64 {
    get(r, "calib_s") / calib::REFERENCE_S
}

/// A repetition's event-loop time scaled to the reference host.
fn scaled_run_s(r: &Record) -> f64 {
    get(r, "run_s") / slowdown(r)
}

/// The simulated outcome of a repetition: equal for every repetition of
/// one workload and seed, observed or not, traced or not.
const OUTCOME: [&str; 4] = ["submitted", "ok", "failed", "digest"];

impl Summary {
    fn new(w: &Workload) -> Summary {
        Summary {
            workload: w.name.to_string(),
            reps: 0,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            metrics: BTreeMap::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// Applies the output checks to `reps`, all of one workload and
    /// seed; `reference` is the repetition they must agree with. Events
    /// are compared only when both ran the same observers: the metrics
    /// sampler fires events of its own.
    pub fn check(
        &mut self,
        w: &Workload,
        reference: &Record,
        kind: &str,
        reps: &[Record],
        same_observers: bool,
    ) {
        let events = same_observers.then_some("events");
        for (i, r) in reps.iter().enumerate() {
            let label = format!("{kind} rep {i}");
            let submitted = get(r, "submitted");
            self.reps += 1;
            self.attempted += submitted as u64;
            let lost = submitted - ios(r);
            if lost != 0.0 {
                self.problems.push(format!(
                    "{label}: {lost} of {submitted} commands never completed"
                ));
                self.failed += lost.abs() as u64;
            }
            if w.fault_free() && get(r, "failed") != 0.0 {
                self.problems.push(format!(
                    "{label}: {} commands failed without a fault",
                    get(r, "failed")
                ));
                self.failed += get(r, "failed") as u64;
            }
            let mut keys = events.iter().chain(&OUTCOME);
            if let Some(k) = keys.find(|k| get(r, k) != get(reference, k)) {
                self.problems.push(format!(
                    "{label}: simulated {k} {} differs from {}",
                    get(r, k),
                    get(reference, k)
                ));
                self.failed += submitted as u64;
            }
        }
    }

    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| {
                let [q1, q2, q3] = v.quartiles;
                let obj = [
                    ("value", Json::Num(v.value)),
                    ("unit", Json::Str(v.unit.clone())),
                    ("q1", Json::Num(q1)),
                    ("median", Json::Num(q2)),
                    ("q3", Json::Num(q3)),
                    ("samples", Json::Num(v.samples as f64)),
                ];
                (k.clone(), object(obj))
            })
            .collect();
        object([
            ("workload", Json::Str(self.workload.clone())),
            ("reps", Json::Num(self.reps as f64)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "problems",
                Json::Array(self.problems.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", Json::Object(metrics)),
        ])
    }

    pub fn from_json(v: &Json) -> Result<Summary, String> {
        let num = |v: &Json, k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("missing {k}"))
        };
        let metrics = v
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or("missing metrics")?
            .iter()
            .map(|(k, m)| {
                Ok((
                    k.clone(),
                    Value {
                        value: num(m, "value")?,
                        unit: m
                            .get("unit")
                            .and_then(Json::as_str)
                            .ok_or("missing unit")?
                            .into(),
                        quartiles: [num(m, "q1")?, num(m, "median")?, num(m, "q3")?],
                        samples: num(m, "samples")? as u64,
                    },
                ))
            })
            .collect::<Result<_, String>>()?;
        Ok(Summary {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("missing workload")?
                .into(),
            reps: num(v, "reps")? as usize,
            attempted: num(v, "attempted")? as u64,
            failed: num(v, "failed")? as u64,
            problems: v
                .get("problems")
                .and_then(Json::as_array)
                .ok_or("missing problems")?
                .iter()
                .map(|p| {
                    p.as_str()
                        .map(String::from)
                        .ok_or("bad problem".to_string())
                })
                .collect::<Result<_, _>>()?,
            metrics,
        })
    }
}

/// End-to-end metrics and simulated outputs of a workload's untraced
/// repetitions, with the output checks applied.
pub fn summarize(w: &Workload, reps: &[Record]) -> Summary {
    let mut s = Summary::new(w);
    let Some(first) = reps.first() else {
        s.problems.push("no repetition finished".to_string());
        return s;
    };
    s.check(w, first, "untraced", reps, true);

    // Host times are scaled by the calibration kernel timed right after
    // each repetition, then summarised by the quartile on the better
    // side: interference only ever slows a repetition down. Memory and
    // the kernel's own time are summarised by their median.
    type PerRep = fn(&Record) -> f64;
    let host: [(&MetricSpec, PerRep, bool); 5] = [
        (&END_TO_END[0], |r| ios(r) / scaled_run_s(r), true),
        (&END_TO_END[1], |r| get(r, "setup_s") / slowdown(r), true),
        (&END_TO_END[2], |r| get(r, "peak_rss_mb"), false),
        (&HOST_RAW[0], |r| ios(r) / get(r, "run_s"), true),
        (&HOST_RAW[1], |r| get(r, "calib_s"), false),
    ];
    for (spec, f, timed) in host {
        let v: Vec<f64> = reps.iter().map(f).collect();
        let value = if timed {
            better_quartile(&v, spec.better)
        } else {
            median(&v)
        };
        let value = Value::of(spec, value, &v, reps.len() as u64);
        s.metrics.insert(spec.name.into(), value);
    }

    let window_ios = get(first, "window_ios");
    let outputs = [
        (window_ios / get(first, "window_s"), window_ios),
        (get(first, "p50_us"), window_ios),
        (get(first, "p99_us"), window_ios),
        (
            get(first, "failed") / get(first, "submitted"),
            get(first, "submitted"),
        ),
    ];
    for (spec, (value, samples)) in OUTPUTS.iter().zip(outputs) {
        s.metrics
            .insert(spec.name.into(), Value::exact(spec, value, samples as u64));
    }
    s
}

/// Index of the fastest repetition after scaling: the least disturbed.
pub fn fastest(reps: &[Record]) -> Option<usize> {
    let times: Vec<f64> = reps.iter().map(scaled_run_s).collect();
    let best = best_of(&times, Lower);
    times.iter().position(|&t| t == best)
}

/// Per-layer metrics of one workload from rounds of three repetitions:
/// `base[i]` untraced, `traced[i]` profiled (profiler, client timing,
/// counting allocator) and `toggled[i]` with the workload's observers
/// flipped. Overhead ratios are medians over rounds of ratios within a
/// round; counts and profiles come from the fastest repetition of their
/// kind, and the replays use its recorded request mix.
pub fn trace_summary(
    w: &Workload,
    seed: u64,
    base: &[Record],
    traced: &[Record],
    toggled: &[Record],
) -> Summary {
    let mut s = Summary::new(w);
    let pick = |reps: &[Record]| fastest(reps).map(|i| reps[i].clone());
    let (Some(b), Some(t)) = (pick(base), pick(traced)) else {
        s.problems.push("a repetition did not finish".to_string());
        return s;
    };
    s.check(w, &b, "untraced", base, true);
    s.check(w, &b, "traced", traced, true);
    s.check(w, &b, "observers-toggled", toggled, false);

    let n = ios(&b);
    // Ratios within each round, so host drift between rounds cancels.
    let ratios = |num: &[Record], den: &[Record]| -> Vec<f64> {
        num.iter()
            .zip(den)
            .map(|(a, b)| scaled_run_s(a) / scaled_run_s(b))
            .collect()
    };
    let (on, off) = if get(&b, "observed") == 1.0 {
        (base, toggled)
    } else {
        (toggled, base)
    };
    // Every metric's samples: one per round for the ratios, one value
    // for the rest.
    let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::from([
        ("sim.events_per_io", vec![get(&b, "events") / n]),
        ("sim.peak_event_queue", vec![get(&b, "peak_event_queue")]),
        (
            "core.backend_cmds_per_io",
            vec![get(&b, "backend_cmds") / n],
        ),
        ("core.timeouts", vec![get(&b, "timeouts")]),
        ("core.retries", vec![get(&b, "retries")]),
        ("core.recoveries", vec![get(&b, "recoveries")]),
        ("testbed.allocs_per_io", vec![get(&t, "allocs") / n]),
        ("workloads.callbacks_per_io", vec![get(&b, "callbacks") / n]),
        ("workloads.ns_per_io", vec![get(&t, "client_ns") / n]),
        ("testbed.run_ns_per_io", vec![get(&t, "prof.run_ns") / n]),
        ("observe.overhead_ratio", ratios(on, off)),
        ("trace.overhead_ratio", ratios(traced, base)),
    ]);
    for (metric, _) in rig::PROF_GROUPS {
        values.insert(metric, vec![get(&t, &format!("prof.{metric}")) / n]);
    }
    match layers::Mix::from_record(&b) {
        Some(mix) => {
            let queue = get(&b, "peak_event_queue") as usize;
            let sched = layers::sched_ns_per_event(queue, seed, REPLAY_EVENTS);
            let [doorbell, backend, host] = layers::engine_ns_per_cmd(&mix, seed, REPLAY_CMDS);
            let ssd = layers::ssd_ns_per_io(&mix, seed, REPLAY_CMDS);
            let nvme = layers::nvme_ns_per_sqe(&mix, seed, 4 * REPLAY_CMDS);
            values.extend([
                ("sim.sched_ns_per_event", vec![sched]),
                ("core.doorbell_ns_per_cmd", vec![doorbell]),
                ("core.backend_completion_ns_per_cmd", vec![backend]),
                ("core.host_completion_ns_per_cmd", vec![host]),
                ("ssd.ns_per_io", vec![ssd]),
                ("nvme.ns_per_sqe", vec![nvme]),
            ]);
        }
        None => s.problems.push("no request mix recorded".to_string()),
    }
    for spec in &PER_LAYER {
        let samples = values.remove(spec.name).unwrap_or_default();
        let value = median(&samples);
        if !value.is_finite() {
            s.problems.push(format!("{} was not measured", spec.name));
        }
        let n = samples.len() as u64;
        s.metrics
            .insert(spec.name.into(), Value::of(spec, value, &samples, n));
    }
    s
}

/// Scheduler events per replay round.
const REPLAY_EVENTS: u64 = 2_000_000;
/// Commands per engine and SSD replay round.
const REPLAY_CMDS: usize = 100_000;

/// The human-readable lines of a summary: `name workload value unit`,
/// then the quartiles and the sample count.
pub fn lines(s: &Summary) -> Vec<String> {
    let mut out: Vec<String> = s
        .metrics
        .iter()
        .map(|(name, v)| {
            let [q1, q2, q3] = v.quartiles;
            format!(
                "{name} {} {} {} q1={q1} median={q2} q3={q3} n={}",
                s.workload, v.value, v.unit, v.samples
            )
        })
        .collect();
    let verdict = if s.correct() { "ok" } else { "FAILED" };
    out.push(format!(
        "check {} {verdict} reps={} attempted={} failed={}",
        s.workload, s.reps, s.attempted, s.failed
    ));
    out.extend(s.problems.iter().map(|p| format!("  {}: {p}", s.workload)));
    out
}

fn object<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `results.json` document: one summary per workload.
pub fn results_json(command: &str, seed: u64, summaries: &[Summary]) -> Json {
    object([
        ("schema", Json::Str("bmbench-results-1".into())),
        ("command", Json::Str(command.into())),
        ("seed", Json::Num(seed as f64)),
        (
            "workloads",
            Json::Array(summaries.iter().map(Summary::to_json).collect()),
        ),
    ])
}

/// Parses a `results.json` document back into its summaries.
pub fn parse_results(text: &str) -> Result<Vec<Summary>, String> {
    let v = json::parse(text)?;
    if v.get("schema").and_then(Json::as_str) != Some("bmbench-results-1") {
        return Err("not a bmbench-results-1 document".into());
    }
    v.get("workloads")
        .and_then(Json::as_array)
        .ok_or("missing workloads")?
        .iter()
        .map(Summary::from_json)
        .collect()
}

/// Writes `doc` to `path`, creating its directory.
pub fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The single JSON line a single-workload run ends with: the listed
/// metrics of one workload's summary.
pub fn result_line(s: &Summary, specs: &[MetricSpec]) -> String {
    let metrics = specs
        .iter()
        .map(|m| {
            let v = s.metrics.get(m.name);
            let value = v.map_or(f64::NAN, |v| v.value);
            let unit = Json::Str(m.unit.to_string());
            (
                m.name.to_string(),
                object([("value", Json::Num(value)), ("unit", unit)]),
            )
        })
        .collect();
    object([
        ("correct", Json::Bool(s.correct())),
        ("attempted", Json::Num(s.attempted as f64)),
        ("failed", Json::Num(s.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ])
    .render()
}

/// Runs one repetition in a fresh child process (`exe rep …`), parses
/// the record it prints as its last line, then times the calibration
/// kernel and adds that as `calib_s`.
pub fn spawn_rep(exe: &Path, args: &[String]) -> Result<Record, String> {
    let mut r = spawn_child(exe, args)?;
    r.insert("calib_s".into(), calib::calibrate());
    Ok(r)
}

fn spawn_child(exe: &Path, args: &[String]) -> Result<Record, String> {
    let out = Command::new(exe)
        .arg("rep")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("repetition {args:?} exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("repetition printed nothing")?;
    json::parse(line)?
        .as_object()
        .ok_or("repetition record is not an object")?
        .iter()
        .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or(format!("{k} is not a number"))?)))
        .collect()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Command-line arguments shared by both binaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// `run`, `trace`, `list` or `rep`; `None` for the single-workload form
    /// (`--workload W --seed N --seconds S --trace 0|1`).
    pub command: Option<String>,
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub traced: bool,
    pub toggle_observers: bool,
    pub folded: Option<String>,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut a = Args {
            seed: 42,
            seconds: 10.0,
            ..Args::default()
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let mut value = || it.next().ok_or(format!("{arg} needs a value"));
            match arg.as_str() {
                "run" | "trace" | "list" | "rep" if a.command.is_none() => {
                    a.command = Some(arg.clone())
                }
                "--workload" => {
                    let w = value()?;
                    rig::workload(w).ok_or(format!("unknown workload {w:?}"))?;
                    a.workload = Some(w.clone());
                }
                "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    }
                }
                "--traced" => a.traced = true,
                "--toggle-observers" => a.toggle_observers = true,
                "--folded" => a.folded = Some(value()?.clone()),
                other => return Err(format!("unexpected argument {other:?}")),
            }
        }
        if a.command.is_none() && a.workload.is_none() {
            return Err("name a command (run, trace, list) or --workload".into());
        }
        if a.command.as_deref() == Some("rep") && a.workload.is_none() {
            return Err("rep needs --workload".into());
        }
        Ok(a)
    }

    /// The workloads this invocation covers: the named one, or all.
    pub fn workloads(&self) -> Vec<&'static Workload> {
        match &self.workload {
            Some(name) => rig::workload(name).into_iter().collect(),
            None => rig::WORKLOADS.iter().collect(),
        }
    }
}

/// Child-process entry point shared by both binaries: runs one
/// repetition and prints its record as one JSON line.
pub fn rep_main(args: &Args) -> Result<(), String> {
    let w = args.workloads()[0];
    let opts = rig::RigOptions {
        traced: args.traced,
        toggle_observers: args.toggle_observers,
    };
    if args.traced {
        bm_prof::alloc::arm();
    }
    let (mut record, folded) = rig::run_rep(w, args.seed, &opts);
    bm_prof::alloc::disarm();
    record.insert(
        "peak_rss_mb".into(),
        peak_rss_mb().ok_or("VmHWM unavailable")?,
    );
    if let (Some(path), Some(folded)) = (&args.folded, folded) {
        write_file(Path::new(path), &folded)?;
    }
    let obj = Json::Object(record.into_iter().map(|(k, v)| (k, Json::Num(v))).collect());
    println!("{}", obj.render());
    Ok(())
}
