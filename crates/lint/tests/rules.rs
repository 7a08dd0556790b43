//! Fixture cases with their exact `(rule, line, suppressed)` findings,
//! and the scan of the real workspace that gates the tree.

use bm_lint::{scan_source, scan_workspace, Rule};
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

/// `(rule id, line, suppressed)`.
type Triple = (&'static str, u32, bool);

fn triples(name: &str, model_code: bool) -> Vec<Triple> {
    scan_source(&fixture(name), model_code)
        .into_iter()
        .map(|f| (f.rule.id(), f.line, f.suppressed))
        .collect()
}

#[test]
fn fixtures_produce_their_expected_findings() {
    let cases: &[(&str, &[Triple])] = &[
        (
            "float_det_bad.rs",
            &[
                ("float-determinism", 3, false),
                ("float-determinism", 6, false),
                ("float-determinism", 9, false),
                ("float-determinism", 12, false),
            ],
        ),
        ("float_det_allowed.rs", &[("float-determinism", 4, true)]),
        (
            "time_unit_bad.rs",
            &[("time-unit", 3, false), ("time-unit", 6, false)],
        ),
        ("time_unit_allowed.rs", &[("time-unit", 4, true)]),
        (
            "pragma_bad.rs",
            &[
                ("bad-pragma", 3, false),
                ("float-determinism", 4, false),
                ("bad-pragma", 5, false),
                ("time-unit", 6, false),
                ("bad-pragma", 7, false),
            ],
        ),
        ("masked_needles.rs", &[]),
        ("lexer_edge.rs", &[]),
    ];
    for (name, want) in cases {
        assert_eq!(triples(name, true), *want, "{name}");
    }
}

#[test]
fn rules_are_scoped_to_model_code_and_pragmas_are_not() {
    assert!(triples("float_det_bad.rs", false).is_empty());
    assert!(triples("time_unit_bad.rs", false).is_empty());
    assert_eq!(
        triples("pragma_bad.rs", false),
        vec![
            ("bad-pragma", 3, false),
            ("bad-pragma", 5, false),
            ("bad-pragma", 7, false)
        ]
    );
}

/// The gate: the real tree has no unsuppressed finding, and the
/// float-determinism pragmas still each suppress one.
#[test]
fn workspace_has_no_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = scan_workspace(&root).expect("workspace sources are readable");
    let active: Vec<String> = findings
        .iter()
        .filter(|(_, f)| !f.suppressed)
        .map(|(path, f)| format!("{path}:{}: [{}] {}", f.line, f.rule.id(), f.detail))
        .collect();
    assert!(
        active.is_empty(),
        "unsuppressed bm-lint findings (fix them, or justify with \
         `// bm-lint: allow(<rule>): <why>`):\n{}",
        active.join("\n")
    );
    assert!(
        findings.iter().any(|(_, f)| f.rule == Rule::FloatDet),
        "scan saw no float-determinism site; is the root path right?"
    );
}
