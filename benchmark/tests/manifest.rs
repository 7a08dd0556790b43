//! `BENCHMARK.json` against the benchmark itself, and the statistics
//! and result formats the benchmark reports with.

use bmbench::json::{self, Json};
use bmbench::stats::{best_of, better_quartile, median, quartiles, Better};
use bmbench::{parse_results, results_json, Summary, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {v:?}"))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string"))
}

fn keys(v: &Json) -> BTreeSet<&str> {
    v.as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect()
}

#[test]
fn manifest_is_well_formed() {
    let m = manifest();
    let top = [
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    ];
    assert_eq!(keys(&m), top.into_iter().collect());
    let run_seconds = field(&m, "run_seconds").as_f64().unwrap();
    assert!(run_seconds.fract() == 0.0 && (1.0..=60.0).contains(&run_seconds));
    for p in field(&m, "paths").as_array().unwrap() {
        let p = p.as_str().unwrap();
        assert!(!p.starts_with('/') && !p.contains(".."), "{p}");
    }
    let mut names = BTreeSet::new();
    let workloads = field(&m, "workloads").as_array().unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"].into_iter().collect());
        assert!(is_name(text(w, "name")), "{w:?}");
        let why = text(w, "why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
        assert!(names.insert(text(w, "name").to_string()), "duplicate name");
    }
    let mut names = BTreeSet::new();
    for (list, with_bound) in [("end_to_end", true), ("per_layer", false)] {
        for metric in field(&m, list).as_array().unwrap() {
            let mut expected: BTreeSet<&str> = ["name", "unit", "better"].into();
            if with_bound {
                expected.insert("bound");
                let bound = field(metric, "bound").as_f64().unwrap();
                assert!((0.0..=0.25).contains(&bound), "{metric:?}");
            }
            assert_eq!(keys(metric), expected);
            assert!(is_name(text(metric, "name")), "{metric:?}");
            assert!(is_unit(text(metric, "unit")), "{metric:?}");
            assert!(matches!(text(metric, "better"), "higher" | "lower"));
            assert!(
                names.insert(text(metric, "name").to_string()),
                "duplicate name"
            );
        }
    }
    let setup = field(&m, "end_to_end")
        .as_array()
        .unwrap()
        .iter()
        .find(|e| text(e, "name") == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
}

/// What `bmbench list` prints, grouped by kind: name → rest of line.
fn listed() -> BTreeMap<String, BTreeMap<String, String>> {
    let out = Command::new(env!("CARGO_BIN_EXE_bmbench"))
        .arg("list")
        .output()
        .expect("bmbench runs");
    assert!(out.status.success());
    let mut by_kind: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for line in String::from_utf8(out.stdout).unwrap().lines() {
        let mut parts = line.splitn(3, ' ');
        let (kind, name, rest) = (parts.next().unwrap(), parts.next().unwrap(), parts.next());
        let previous = by_kind
            .entry(kind.to_string())
            .or_default()
            .insert(name.to_string(), rest.unwrap_or("").to_string());
        assert!(previous.is_none(), "{name} listed twice");
    }
    by_kind
}

/// The same view built from `BENCHMARK.json`.
fn declared() -> BTreeMap<String, BTreeMap<String, String>> {
    let m = manifest();
    let mut by_kind: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    for w in field(&m, "workloads").as_array().unwrap() {
        by_kind
            .entry("workload".into())
            .or_default()
            .insert(text(w, "name").into(), text(w, "why").into());
    }
    for list in ["end_to_end", "per_layer"] {
        for e in field(&m, list).as_array().unwrap() {
            let mut rest = format!("{} {}", text(e, "unit"), text(e, "better"));
            if let Some(bound) = e.get("bound") {
                rest += &format!(" {}", bound.as_f64().unwrap());
            }
            by_kind
                .entry(list.into())
                .or_default()
                .insert(text(e, "name").into(), rest);
        }
    }
    by_kind
}

#[test]
fn list_matches_manifest_both_ways() {
    let mut listed = listed();
    // Simulated outputs are printed and checked but not declared: they
    // are deterministic for a seed, so there is nothing to bound. Raw
    // host numbers are printed beside the calibrated ones they explain.
    assert!(listed.remove("output").is_some_and(|o| o.len() == 4));
    assert!(listed.remove("raw").is_some_and(|o| o.len() == 2));
    let declared = declared();
    for (kind, entries) in &declared {
        for (name, rest) in entries {
            assert_eq!(
                listed.get(kind).and_then(|l| l.get(name)),
                Some(rest),
                "{kind} {name} is declared in BENCHMARK.json but bmbench lists it differently"
            );
        }
    }
    for (kind, entries) in &listed {
        for name in entries.keys() {
            assert!(
                declared.get(kind).is_some_and(|d| d.contains_key(name)),
                "bmbench lists {kind} {name}, which BENCHMARK.json does not declare"
            );
        }
    }
}

#[test]
fn best_of_picks_by_direction() {
    let v = [3.0, 1.0, 2.0];
    assert_eq!(best_of(&v, Better::Higher), 3.0);
    assert_eq!(best_of(&v, Better::Lower), 1.0);
    assert!(best_of(&[], Better::Higher).is_nan());
    let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
    assert_eq!(better_quartile(&v, Better::Higher), 6.0);
    assert_eq!(better_quartile(&v, Better::Lower), 2.0);
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(v, n=4) for each input, exclusive method.
    let cases: [(&[f64], [f64; 3]); 4] = [
        (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], [2.0, 4.0, 6.0]),
        (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
        (&[10.0, 1.0, 4.0, 7.0, 2.0], [1.5, 4.0, 8.5]),
        (&[1.0, 2.0], [0.75, 1.5, 2.25]),
    ];
    for (values, expected) in cases {
        assert_eq!(quartiles(values), expected, "{values:?}");
    }
    assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
}

#[test]
fn results_json_round_trips() {
    let value = Value {
        value: 1234567.891011,
        unit: "1/s".into(),
        quartiles: [1.0e6, 1.1e6, 0.1 + 0.2],
        samples: 7,
    };
    let summary = Summary {
        workload: "bm-4k-randread".into(),
        reps: 7,
        attempted: 3_073_917,
        failed: 2,
        problems: vec!["rep 3: simulated digest \"x\" differs".into()],
        metrics: BTreeMap::from([("sim_ios_per_s".to_string(), value)]),
    };
    let doc = results_json("run", 42, std::slice::from_ref(&summary)).render();
    assert_eq!(parse_results(&doc).unwrap(), vec![summary]);
    assert!(parse_results("{\"schema\": \"other\"}").is_err());
}
