//! Fixture-driven rule tests.
//!
//! The exact `(rule, line, suppressed)` expectations live in
//! `bm_lint::selftest::CASES` — the same table the installed binary
//! replays under `bm-lint self-test` — so this file drives that suite
//! and then adds what the embedded table cannot express: scoping checks
//! (same source, different crate/target), message-detail assertions
//! (the wildcard finding must *name* the hidden variants), and a
//! cross-crate exhaustiveness demonstration against the real tree.

use bm_lint::lexer::lex;
use bm_lint::selftest;
use bm_lint::{scan_source, FileCtx, FileKind, Rule, SymbolTable, Violation};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing fixture {path}: {e}"))
}

fn scan_fixture(name: &str, ctx: &FileCtx) -> Vec<Violation> {
    let src = fixture(name);
    let mut table = SymbolTable::default();
    table.harvest(name, &ctx.crate_id, &lex(&src));
    scan_source(name, &src, ctx, &table)
        .into_iter()
        .filter(|v| !v.suppressed)
        .collect()
}

fn lib(crate_id: &str) -> FileCtx {
    FileCtx::new(crate_id, FileKind::Lib)
}

/// The embedded expectation table passes, and every on-disk fixture
/// matches its embedded copy (so `self-test` really tests what is
/// committed).
#[test]
fn fixture_suite_matches_expectation_table() {
    if let Err(report) = selftest::run() {
        panic!("{report}");
    }
    for case in selftest::CASES {
        let embedded = selftest::source(case.file).unwrap();
        assert_eq!(
            fixture(case.file),
            embedded,
            "{} drifted from its include_str! copy — rebuild bm-lint",
            case.file
        );
    }
}

#[test]
fn every_rule_has_a_fixture_case_and_an_explain_text() {
    for rule in Rule::ALL {
        assert!(!rule.explain().is_empty(), "{} has no explain", rule.id());
        assert_eq!(Rule::from_id(rule.id()), Some(rule));
        // bad-pragma is covered by pragma_bad.rs; every other rule must
        // appear in at least one expectation row.
        let covered = selftest::CASES
            .iter()
            .any(|c| c.expected.iter().any(|(id, _, _)| *id == rule.id()));
        assert!(covered, "{} has no fixture expectation", rule.id());
    }
}

#[test]
fn sim_critical_scoping_is_enforced_per_rule() {
    // iter-order: silent outside sim-critical crates and in test targets.
    assert!(scan_fixture("iter_order_bad.rs", &lib("workloads")).is_empty());
    assert!(scan_fixture("iter_order_bad.rs", &FileCtx::new("ssd", FileKind::Test)).is_empty());
    // panic-path: silent in bench crates and test targets.
    assert!(scan_fixture("panic_path_bad.rs", &lib("bench")).is_empty());
    assert!(scan_fixture("panic_path_bad.rs", &FileCtx::new("nvme", FileKind::Test)).is_empty());
    // println: binaries may print.
    assert!(scan_fixture("println_bad.rs", &FileCtx::new("host", FileKind::Bin)).is_empty());
    // unseeded-rng applies even in tests.
    let vs = scan_fixture("unseeded_rng_bad.rs", &FileCtx::new("sim", FileKind::Test));
    assert_eq!(vs.len(), 2, "{vs:#?}");
    assert!(vs.iter().all(|v| v.rule == Rule::UnseededRng));
    // The float-determinism and time-unit rules are scoped to sim-critical code.
    assert!(scan_fixture("float_det_bad.rs", &lib("bench")).is_empty());
    assert!(scan_fixture("time_unit_bad.rs", &lib("workloads")).is_empty());
    assert!(scan_fixture("float_det_bad.rs", &FileCtx::new("sim", FileKind::Test)).is_empty());
}

/// The wildcard finding must name the concrete variants the `_` arm
/// hides, resolved from the enum definition in a *different* fixture
/// crate.
#[test]
fn cross_crate_wildcard_detail_names_hidden_variants() {
    let def = selftest::source("xws/effects_def.rs").unwrap();
    let src = selftest::source("xws/match_effects_wildcard.rs").unwrap();
    let mut table = SymbolTable::default();
    table.harvest("xws/effects_def.rs", "sim", &lex(def));
    table.harvest("xws/match_effects_wildcard.rs", "testbed", &lex(src));
    let vs = scan_source(
        "xws/match_effects_wildcard.rs",
        src,
        &lib("testbed"),
        &table,
    );
    assert_eq!(vs.len(), 1, "{vs:#?}");
    let detail = &vs[0].detail;
    for variant in ["ForwardToSsd", "RaiseInterrupt", "ChargeCpu", "Trace"] {
        assert!(detail.contains(variant), "{detail}");
    }
    assert!(detail.contains("effects_def.rs"), "{detail}");
}

/// A match with no wildcard that predates a newly added variant is
/// reported as missing exactly that variant.
#[test]
fn cross_crate_missing_arm_names_the_new_variant() {
    let def = selftest::source("xws/effects_def.rs").unwrap();
    let src = selftest::source("xws/match_effects.rs").unwrap();
    let mut table = SymbolTable::default();
    table.harvest("xws/effects_def.rs", "sim", &lex(def));
    table.harvest("xws/match_effects.rs", "testbed", &lex(src));
    let vs = scan_source("xws/match_effects.rs", src, &lib("testbed"), &table);
    assert_eq!(vs.len(), 1, "{vs:#?}");
    assert_eq!(vs[0].rule, Rule::WildcardArm);
    assert_eq!(vs[0].line, 5);
    assert!(
        vs[0].detail.contains("missing variants"),
        "{}",
        vs[0].detail
    );
    assert!(vs[0].detail.contains("Trace"), "{}", vs[0].detail);
    assert!(
        !vs[0].detail.contains("ScheduleAt"),
        "handled variant leaked into the missing list: {}",
        vs[0].detail
    );
}

/// The acceptance demo against the *real* tree: harvest the real
/// `Effect` definition from `crates/testbed`, synthesize a consumer in
/// `crates/chaos` territory with one arm deleted, and the analyzer must
/// name the deleted variant — across the crate boundary.
#[test]
fn real_tree_effect_match_with_deleted_arm_names_missing_variant() {
    let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = manifest.parent().unwrap().parent().unwrap();
    let def_path = root.join("crates/testbed/src/schemes/mod.rs");
    let def_src = std::fs::read_to_string(&def_path).unwrap();
    let mut table = SymbolTable::default();
    table.harvest(
        "crates/testbed/src/schemes/mod.rs",
        "testbed",
        &lex(&def_src),
    );
    let variants = table
        .enums
        .get("Effect")
        .and_then(|defs| defs.first())
        .expect("real Effect enum harvested from crates/testbed")
        .variants
        .clone();
    assert!(
        variants.len() >= 2,
        "Effect should have several variants: {variants:?}"
    );

    // Build a match that handles every variant but the last.
    let (last, rest) = variants.split_last().unwrap();
    let mut src = String::from("pub fn consume(e: Effect) -> u32 {\n    match e {\n");
    for (i, v) in rest.iter().enumerate() {
        src.push_str(&format!("        Effect::{v} {{ .. }} => {i},\n"));
    }
    src.push_str("    }\n}\n");
    let probe = "crates/chaos/src/probe.rs";
    table.harvest(probe, "chaos", &lex(&src));
    let vs = scan_source(probe, &src, &lib("chaos"), &table);
    let missing: Vec<_> = vs.iter().filter(|v| v.rule == Rule::WildcardArm).collect();
    assert_eq!(missing.len(), 1, "{vs:#?}");
    assert!(
        missing[0].detail.contains(last.as_str()),
        "deleted arm `{last}` not named in: {}",
        missing[0].detail
    );

    // Restore the arm (as a wildcard) and the finding flips to naming
    // what the wildcard hides.
    let wild = src.replace("    }\n}\n", "        _ => 99,\n    }\n}\n");
    let vs = scan_source(probe, &wild, &lib("chaos"), &table);
    let hidden: Vec<_> = vs.iter().filter(|v| v.rule == Rule::WildcardArm).collect();
    assert_eq!(hidden.len(), 1, "{vs:#?}");
    assert!(
        hidden[0].detail.contains(last.as_str()),
        "{}",
        hidden[0].detail
    );
}

/// Suppressed findings keep their pragma status (for `--format json`)
/// instead of disappearing.
#[test]
fn suppressed_findings_are_kept_with_status() {
    let src = fixture("float_det_allowed.rs");
    let mut table = SymbolTable::default();
    table.harvest("float_det_allowed.rs", "sim", &lex(&src));
    let vs = scan_source("float_det_allowed.rs", &src, &lib("sim"), &table);
    assert_eq!(vs.len(), 1, "{vs:#?}");
    assert!(vs[0].suppressed);
    assert_eq!(vs[0].rule, Rule::FloatDet);
}
