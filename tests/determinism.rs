//! Reproducibility: identical seeds give bit-identical runs; different
//! seeds differ. Every experiment in EXPERIMENTS.md relies on this.

use bmstore::testbed::{SchemeKind, TestbedConfig};
use bmstore::workloads::fio::{aggregate, run_fio, FioSpec};
use std::path::{Path, PathBuf};

fn fingerprint(seed: u64, scheme: SchemeKind) -> (u64, u64) {
    let cfg = match scheme {
        SchemeKind::Native => TestbedConfig::native(1),
        SchemeKind::BmStore { in_vm: false } => TestbedConfig::bm_store_bare_metal(1),
        other => TestbedConfig::single_vm(other),
    }
    .with_seed(seed);
    let (r, _) = run_fio(cfg, FioSpec::rand_r_128().scaled(0.25));
    let agg = aggregate(&r);
    (agg.ops, agg.avg_latency.as_nanos())
}

#[test]
fn same_seed_same_result_native() {
    assert_eq!(
        fingerprint(7, SchemeKind::Native),
        fingerprint(7, SchemeKind::Native)
    );
}

#[test]
fn same_seed_same_result_bm_store() {
    assert_eq!(
        fingerprint(7, SchemeKind::BmStore { in_vm: false }),
        fingerprint(7, SchemeKind::BmStore { in_vm: false })
    );
}

#[test]
fn same_seed_same_result_spdk() {
    assert_eq!(
        fingerprint(7, SchemeKind::SpdkVhost { cores: 1 }),
        fingerprint(7, SchemeKind::SpdkVhost { cores: 1 })
    );
}

#[test]
fn different_seed_different_latency_profile() {
    // Use a queue-depth-1 workload: each I/O's latency is dominated by
    // the seeded log-normal media time, so different seeds must give
    // different nanosecond-exact latency means. (A saturated deep-queue
    // workload would NOT work here: rand-r-128 is clocked by the
    // deterministic 1550 ns softirq stage, which sits just below the
    // die-pool ceiling, so ops *and* latency coincide across seeds.)
    let fingerprint_qd1 = |seed: u64| {
        let cfg = TestbedConfig::native(1).with_seed(seed);
        let (r, _) = run_fio(cfg, FioSpec::rand_r_1().scaled(0.25));
        let agg = aggregate(&r);
        (agg.ops, agg.avg_latency.as_nanos())
    };
    let a = fingerprint_qd1(7);
    let b = fingerprint_qd1(8);
    assert_ne!(a.1, b.1, "seeds 7/8 produced identical latency sums");
}

// What neither the types nor clippy reject, found by a plain text scan
// of the simulator's sources. `SimTime` and `SimDuration` keep time
// arithmetic typed, and clippy.toml denies hash-ordered collections,
// per-process seeds and wall-clock reads. What is left: a raw `_ns`
// integer beside a unit-less literal or cast to a float, float
// orderings, sums and thresholds, and `from_nanos` literals whose
// magnitude hides their unit. The scan reads rustfmt's output, so it
// looks for binary operators with a space on each side.

/// The crates on the simulated data and control path. Their `src`
/// trees are scanned, up to each file's `#[cfg(test)] mod tests`.
const SIM_CRITICAL: [&str; 7] = ["sim", "core", "ssd", "pcie", "nvme", "testbed", "chaos"];

/// `src` up to its test module, without `//` comments, with each
/// whitespace run one space, so an expression rustfmt splits across
/// lines reads as one.
fn flatten(src: &str) -> String {
    let model = src.split("\n#[cfg(test)]\nmod tests").next().unwrap_or(src);
    let code = model.lines().map(|l| l.split("//").next().unwrap_or(l));
    code.flat_map(str::split_whitespace)
        .collect::<Vec<_>>()
        .join(" ")
}

fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '.'
}

/// The path or literal `s` starts with (`self.t_ns`, `0.95`, `2u64`).
fn first_word(s: &str) -> &str {
    &s[..s.find(|c| !is_word(c)).unwrap_or(s.len())]
}

/// The path or literal `s` ends with.
fn last_word(s: &str) -> &str {
    &s[s.rfind(|c| !is_word(c)).map_or(0, |i| i + 1)..]
}

/// A numeric literal's value and whether it is a float, or `None` if
/// `word` is not a literal.
fn literal(word: &str) -> Option<(f64, bool)> {
    if !word.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    let digits = word.replace('_', "");
    let number = digits.split(['u', 'i', 'f']).next().unwrap_or("");
    let float = number.contains(['.', 'e']) || digits.contains('f');
    number.parse().ok().map(|v| (v, float))
}

/// A nonzero integer literal: a raw count whose unit the reader guesses.
fn unit_less(word: &str) -> bool {
    literal(word).is_some_and(|(v, float)| !float && v != 0.0)
}

const COMPARISONS: [&str; 6] = ["<", ">", "<=", ">=", "==", "!="];

/// Every hazard in flattened code, as `needle: excerpt`.
fn hazards(code: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut hit = |needle: &str, at: usize| {
        let from = code[..at].char_indices().rev().nth(30);
        let excerpt: String = code[from.map_or(0, |(i, _)| i)..]
            .chars()
            .take(70)
            .collect();
        found.push(format!("{needle}: …{excerpt}…"));
    };
    let scaled = |s: &str| s.starts_with(['*', '/', '%']) || s.ends_with(['*', '/', '%']);
    let threshold = |w: &str| literal(w).is_some_and(|(v, f)| f && v != 0.0 && v != 1.0);
    for op in ["+", "-", "+=", "-="].into_iter().chain(COMPARISONS) {
        for (at, spaced) in code.match_indices(&format!(" {op} ")) {
            let (left, right) = (&code[..at], &code[at + spaced.len()..]);
            let (l, r) = (last_word(left), first_word(right));
            let l_lit = unit_less(l) && !scaled(left[..left.len() - l.len()].trim_end());
            let r_lit = unit_less(r) && !scaled(right[r.len()..].trim_start());
            if (l.ends_with("_ns") && r_lit) || (l_lit && r.ends_with("_ns")) {
                hit("ns beside literal", at);
            }
            if COMPARISONS.contains(&op) && (threshold(l) || threshold(r)) {
                hit("float threshold", at);
            }
        }
    }
    for (at, dot) in code.match_indices("_ns.") {
        let call = &code[at + dot.len()..];
        let arg = call[first_word(call).len()..].strip_prefix('(');
        if arg.is_some_and(|a| unit_less(first_word(a.trim_start()))) {
            hit("ns beside literal", at);
        }
    }
    for cast in ["_ns as f", "as_nanos() as f"] {
        for (at, _) in code.match_indices(cast) {
            hit("ns as float", at);
        }
    }
    for (at, _) in code.match_indices("partial_cmp") {
        if !code[..at].ends_with("fn ") {
            hit("partial_cmp", at);
        }
    }
    for (at, _) in code.match_indices("sum::<f") {
        hit("float sum", at);
    }
    for (at, call) in code.match_indices(".fold(") {
        if literal(first_word(code[at + call.len()..].trim_start())).is_some_and(|(_, f)| f) {
            hit("float fold", at);
        }
    }
    for (at, call) in code.match_indices("from_nanos(") {
        let arg = code[at + call.len()..].trim_start();
        let lit = first_word(arg);
        let closed = arg[lit.len()..]
            .trim_start_matches([',', ' '])
            .starts_with(')');
        if closed && literal(lit).is_some_and(|(v, _)| v >= 1000.0) {
            hit("from_nanos literal", at);
        }
    }
    found
}

/// Every `.rs` file under `dir`.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            files.push(path);
        }
    }
    files
}

#[test]
fn sim_critical_sources_have_no_float_or_time_unit_hazard() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for krate in SIM_CRITICAL {
        let files = rust_files(&root.join("crates").join(krate).join("src"));
        assert!(!files.is_empty(), "crates/{krate}/src holds no Rust file");
        for path in files {
            let src = std::fs::read_to_string(&path).expect("source is UTF-8");
            let at = |h| format!("{}: {h}", path.display());
            found.extend(hazards(&flatten(&src)).into_iter().map(at));
        }
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}

/// Each hazard, on one line and split the way rustfmt splits it, trips
/// exactly its needle; the safe form beside it trips none.
#[test]
fn the_scan_catches_each_hazard_and_passes_its_safe_form() {
    let cases = [
        ("xs.iter().sum::<f64>()", "float sum"),
        ("xs.iter()\n        .sum::<f64>()", "float sum"),
        ("xs.iter().fold(0.0, |a, b| a + b)", "float fold"),
        ("a.partial_cmp(&b).unwrap_or(Equal)", "partial_cmp"),
        (
            "a\n    .partial_cmp(&b)\n    .unwrap_or(Equal)",
            "partial_cmp",
        ),
        ("x > 0.95", "float threshold"),
        (
            "busy_fraction_of_the_window\n        > 0.95",
            "float threshold",
        ),
        ("lat_ns as f64", "ns as float"),
        ("lat_ns\n        as f64", "ns as float"),
        ("latency.as_nanos() as f64", "ns as float"),
        ("deadline_ns + 500", "ns beside literal"),
        ("deadline_ns\n        + 500", "ns beside literal"),
        ("churn_ns.saturating_sub(2_000_000)", "ns beside literal"),
        ("SimDuration::from_nanos(250_000)", "from_nanos literal"),
        (
            "SimDuration::from_nanos(\n    250_000,\n)",
            "from_nanos literal",
        ),
    ];
    for (snippet, needle) in cases {
        let found = hazards(&flatten(snippet));
        assert_eq!(found.len(), 1, "{snippet:?}: {found:?}");
        assert!(found[0].starts_with(needle), "{snippet:?}: {found:?}");
    }
    for safe in [
        "xs.iter().sum::<u64>()",
        "a.total_cmp(&b)",
        "fn partial_cmp(&self, other: &Self) -> Option<Ordering> {",
        "x > 0.0 && x != 1.0",
        "Kind::Slow => 0.95,",
        "format!(\"{:>12.1}\", v)",
        "latency.as_nanos_f64()",
        "t_ns * 2 > other_ns && t_ns != 0",
        "SimDuration::from_us(250)",
        "SimDuration::from_nanos(750)",
        "SimDuration::from_nanos(1_000 * n)",
        "2usize > n",
        "// deadline_ns + 500",
    ] {
        assert_eq!(hazards(&flatten(safe)), Vec::<String>::new(), "{safe:?}");
    }
}
