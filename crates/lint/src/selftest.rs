//! The embedded fixture suite behind `bm-lint self-test`.
//!
//! Every rule fixture under `tests/fixtures/` is compiled into the
//! binary with `include_str!`, together with the exact
//! `(rule, line, suppressed)` triples it must produce. The integration
//! tests run the same table (so the expectations live in one place),
//! and the installed binary can re-verify its own engine on any machine
//! — a deployed lint whose tokenizer regressed fails loudly instead of
//! silently passing a broken tree.

use crate::lexer::lex;
use crate::rules::{scan_source, FileCtx, FileKind};
use crate::symbols::SymbolTable;

/// One fixture case: scan `file` as a `Lib` file of `crate_id`, with
/// `companions` (other fixture files, with their own crate ids)
/// harvested into the symbol table first — that is how the cross-crate
/// `xws/` workspace resolves enums across a crate boundary.
pub struct Case {
    /// Fixture file name (path under `tests/fixtures/`).
    pub file: &'static str,
    /// Crate the fixture pretends to live in.
    pub crate_id: &'static str,
    /// Companion fixtures harvested into the symbol table: `(file,
    /// crate_id)`.
    pub companions: &'static [(&'static str, &'static str)],
    /// Expected findings: `(rule id, line, suppressed)`.
    pub expected: &'static [(&'static str, usize, bool)],
}

/// Embedded fixture sources, by file name.
const SOURCES: &[(&str, &str)] = &[
    (
        "wall_clock_bad.rs",
        include_str!("../tests/fixtures/wall_clock_bad.rs"),
    ),
    (
        "wall_clock_allowed.rs",
        include_str!("../tests/fixtures/wall_clock_allowed.rs"),
    ),
    (
        "iter_order_bad.rs",
        include_str!("../tests/fixtures/iter_order_bad.rs"),
    ),
    (
        "iter_order_allowed.rs",
        include_str!("../tests/fixtures/iter_order_allowed.rs"),
    ),
    (
        "unseeded_rng_bad.rs",
        include_str!("../tests/fixtures/unseeded_rng_bad.rs"),
    ),
    (
        "unseeded_rng_allowed.rs",
        include_str!("../tests/fixtures/unseeded_rng_allowed.rs"),
    ),
    (
        "panic_path_bad.rs",
        include_str!("../tests/fixtures/panic_path_bad.rs"),
    ),
    (
        "panic_path_allowed.rs",
        include_str!("../tests/fixtures/panic_path_allowed.rs"),
    ),
    (
        "println_bad.rs",
        include_str!("../tests/fixtures/println_bad.rs"),
    ),
    (
        "println_allowed.rs",
        include_str!("../tests/fixtures/println_allowed.rs"),
    ),
    (
        "wildcard_arm_bad.rs",
        include_str!("../tests/fixtures/wildcard_arm_bad.rs"),
    ),
    (
        "wildcard_arm_allowed.rs",
        include_str!("../tests/fixtures/wildcard_arm_allowed.rs"),
    ),
    (
        "float_det_bad.rs",
        include_str!("../tests/fixtures/float_det_bad.rs"),
    ),
    (
        "float_det_allowed.rs",
        include_str!("../tests/fixtures/float_det_allowed.rs"),
    ),
    (
        "time_unit_bad.rs",
        include_str!("../tests/fixtures/time_unit_bad.rs"),
    ),
    (
        "time_unit_allowed.rs",
        include_str!("../tests/fixtures/time_unit_allowed.rs"),
    ),
    (
        "pragma_bad.rs",
        include_str!("../tests/fixtures/pragma_bad.rs"),
    ),
    (
        "masked_needles.rs",
        include_str!("../tests/fixtures/masked_needles.rs"),
    ),
    (
        "lexer_edge.rs",
        include_str!("../tests/fixtures/lexer_edge.rs"),
    ),
    (
        "xws/effects_def.rs",
        include_str!("../tests/fixtures/xws/effects_def.rs"),
    ),
    (
        "xws/match_effects.rs",
        include_str!("../tests/fixtures/xws/match_effects.rs"),
    ),
    (
        "xws/match_effects_wildcard.rs",
        include_str!("../tests/fixtures/xws/match_effects_wildcard.rs"),
    ),
];

/// The fixture expectation table — the single source of truth shared by
/// `bm-lint self-test` and `tests/rules.rs`.
pub const CASES: &[Case] = &[
    Case {
        file: "wall_clock_bad.rs",
        crate_id: "core",
        companions: &[],
        expected: &[("wall-clock", 5, false), ("wall-clock", 6, false)],
    },
    Case {
        file: "wall_clock_allowed.rs",
        crate_id: "core",
        companions: &[],
        expected: &[("wall-clock", 4, true)],
    },
    // The same clock-reading source is clean inside the sanctioned
    // wall-clock profiler crate (bm-prof exemption, like compat/bench).
    Case {
        file: "wall_clock_bad.rs",
        crate_id: "prof",
        companions: &[],
        expected: &[],
    },
    Case {
        file: "iter_order_bad.rs",
        crate_id: "ssd",
        companions: &[],
        expected: &[
            ("iter-order", 2, false),
            ("iter-order", 5, false),
            ("iter-order", 6, false),
        ],
    },
    Case {
        file: "iter_order_allowed.rs",
        crate_id: "ssd",
        companions: &[],
        expected: &[("iter-order", 4, true)],
    },
    Case {
        file: "unseeded_rng_bad.rs",
        crate_id: "workloads",
        companions: &[],
        expected: &[("unseeded-rng", 3, false), ("unseeded-rng", 4, false)],
    },
    Case {
        file: "unseeded_rng_allowed.rs",
        crate_id: "workloads",
        companions: &[],
        expected: &[("unseeded-rng", 4, true)],
    },
    Case {
        file: "panic_path_bad.rs",
        crate_id: "nvme",
        companions: &[],
        expected: &[
            ("panic-path", 3, false),
            ("panic-path", 4, false),
            ("panic-path", 6, false),
        ],
    },
    Case {
        file: "panic_path_allowed.rs",
        crate_id: "nvme",
        companions: &[],
        expected: &[("panic-path", 4, true)],
    },
    Case {
        file: "println_bad.rs",
        crate_id: "host",
        companions: &[],
        expected: &[("println", 3, false), ("println", 4, false)],
    },
    Case {
        file: "println_allowed.rs",
        crate_id: "host",
        companions: &[],
        expected: &[("println", 4, true)],
    },
    Case {
        file: "wildcard_arm_bad.rs",
        crate_id: "testbed",
        companions: &[],
        expected: &[("wildcard-arm", 5, false)],
    },
    Case {
        file: "wildcard_arm_allowed.rs",
        crate_id: "testbed",
        companions: &[],
        expected: &[("wildcard-arm", 6, true)],
    },
    Case {
        file: "float_det_bad.rs",
        crate_id: "sim",
        companions: &[],
        expected: &[
            ("float-determinism", 3, false),
            ("float-determinism", 6, false),
            ("float-determinism", 9, false),
            ("float-determinism", 12, false),
        ],
    },
    Case {
        file: "float_det_allowed.rs",
        crate_id: "sim",
        companions: &[],
        expected: &[("float-determinism", 4, true)],
    },
    Case {
        file: "time_unit_bad.rs",
        crate_id: "sim",
        companions: &[],
        expected: &[("time-unit", 3, false), ("time-unit", 6, false)],
    },
    Case {
        file: "time_unit_allowed.rs",
        crate_id: "sim",
        companions: &[],
        expected: &[("time-unit", 4, true)],
    },
    Case {
        file: "pragma_bad.rs",
        crate_id: "core",
        companions: &[],
        expected: &[
            ("bad-pragma", 3, false),
            ("panic-path", 4, false),
            ("bad-pragma", 5, false),
            ("panic-path", 6, false),
        ],
    },
    Case {
        file: "masked_needles.rs",
        crate_id: "core",
        companions: &[],
        expected: &[],
    },
    Case {
        file: "lexer_edge.rs",
        crate_id: "core",
        companions: &[],
        expected: &[],
    },
    Case {
        file: "xws/effects_def.rs",
        crate_id: "sim",
        companions: &[],
        expected: &[],
    },
    Case {
        file: "xws/match_effects.rs",
        crate_id: "testbed",
        companions: &[("xws/effects_def.rs", "sim")],
        expected: &[("wildcard-arm", 5, false)],
    },
    Case {
        file: "xws/match_effects_wildcard.rs",
        crate_id: "testbed",
        companions: &[("xws/effects_def.rs", "sim")],
        expected: &[("wildcard-arm", 6, false)],
    },
];

/// Looks up an embedded fixture source.
pub fn source(file: &str) -> Option<&'static str> {
    SOURCES
        .iter()
        .find(|(name, _)| *name == file)
        .map(|(_, src)| *src)
}

/// Runs one case, returning the mismatches (empty = pass).
pub fn run_case(case: &Case) -> Vec<String> {
    let Some(src) = source(case.file) else {
        return vec![format!("{}: fixture source not embedded", case.file)];
    };
    let mut table = SymbolTable::default();
    for (file, crate_id) in case.companions {
        match source(file) {
            Some(companion) => table.harvest(file, crate_id, &lex(companion)),
            None => return vec![format!("{}: companion {} not embedded", case.file, file)],
        }
    }
    let ctx = FileCtx::new(case.crate_id, FileKind::Lib);
    table.harvest(case.file, case.crate_id, &lex(src));
    let got: Vec<(String, usize, bool)> = scan_source(case.file, src, &ctx, &table)
        .into_iter()
        .map(|v| (v.rule.id().to_string(), v.line, v.suppressed))
        .collect();
    let want: Vec<(String, usize, bool)> = case
        .expected
        .iter()
        .map(|(r, l, s)| (r.to_string(), *l, *s))
        .collect();
    if got == want {
        return Vec::new();
    }
    vec![format!(
        "{} (as crate `{}`):\n  expected {:?}\n  got      {:?}",
        case.file, case.crate_id, want, got
    )]
}

/// Runs the whole suite. `Ok` carries a summary line; `Err` carries the
/// mismatch report.
pub fn run() -> Result<String, String> {
    let mut failures = Vec::new();
    for case in CASES {
        failures.extend(run_case(case));
    }
    if failures.is_empty() {
        Ok(format!(
            "self-test OK: {} fixtures, {} expectations",
            CASES.len(),
            CASES.iter().map(|c| c.expected.len()).sum::<usize>()
        ))
    } else {
        Err(format!(
            "self-test FAILED ({}/{} fixtures):\n{}",
            failures.len(),
            CASES.len(),
            failures.join("\n")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_file_is_embedded_and_every_case_has_a_source() {
        for case in CASES {
            assert!(source(case.file).is_some(), "{} missing", case.file);
        }
    }

    #[test]
    fn suite_passes() {
        if let Err(report) = run() {
            panic!("{report}");
        }
    }
}
