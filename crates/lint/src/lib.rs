//! `bm-lint`: the two determinism rules clippy cannot express.
//!
//! The whole card — BMS-Engine pipeline, BMS-Controller, fault plans,
//! telemetry — is a *deterministic* discrete-event simulation: same
//! seed, same bytes (the property the figure pipeline byte-compares).
//! Clippy enforces most of that (see `clippy.toml`, the workspace lints
//! table and each crate root); this crate keeps the two rules it cannot
//! express, as a token scan over the `src` trees of the sim-critical
//! crates:
//!
//! | id | rule |
//! |----|------|
//! | `float-determinism` | no `partial_cmp`, order-sensitive float accumulation, float thresholds, or ns→float casts |
//! | `time-unit`         | no raw integer literals mixed with `_ns` values without a named unit constructor |
//!
//! A finding is suppressed per site with
//! `// bm-lint: allow(<rule>): <justification>` on its line or the line
//! above. A pragma without a justification, or naming any other rule,
//! is itself a `bad-pragma` finding in every workspace file. The
//! crate's tests scan the real tree and fail on any unsuppressed
//! finding; see [`rules::Rule`] for the failure mode each rule guards
//! against.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod lexer;
pub mod rules;

pub use rules::{scan_source, Finding, Rule};

use std::path::Path;

/// Crates whose code is on the simulated data/control path.
const SIM_CRITICAL: &[&str] = &["sim", "core", "ssd", "pcie", "nvme", "testbed", "chaos"];

/// Whether the rules apply to a workspace-relative `.rs` path: the
/// `src` tree of a sim-critical crate. Tests, benches and examples are
/// only checked for bad pragmas.
fn is_model_code(rel: &str) -> bool {
    match rel.split('/').collect::<Vec<_>>().as_slice() {
        ["crates", name, "src", ..] => SIM_CRITICAL.contains(name),
        _ => false,
    }
}

/// Scans every `.rs` file under `root`'s `src`, `tests`, `examples` and
/// `crates` directories (skipping `target`, hidden directories and this
/// crate's fixtures), returning every finding with its
/// workspace-relative path, in path/line order.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<(String, Finding)>> {
    let mut out = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, Finding)>) -> std::io::Result<()> {
    let mut entries = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<std::io::Result<Vec<_>>>()?;
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            // The fixtures are deliberate violations.
            let skip = name == "target"
                || name.starts_with('.')
                || path.ends_with("crates/lint/tests/fixtures");
            if !skip {
                walk(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let src = std::fs::read_to_string(&path)?;
            let model_code = is_model_code(&rel);
            // Outside model code only pragmas can be findings.
            if !model_code && !src.contains("bm-lint:") {
                continue;
            }
            for finding in scan_source(&src, model_code) {
                out.push((rel.clone(), finding));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_code_is_sim_critical_library_code() {
        assert!(is_model_code("crates/sim/src/engine.rs"));
        assert!(is_model_code("crates/testbed/src/schemes/bm_store.rs"));
        assert!(!is_model_code("crates/testbed/tests/conservation.rs"));
        assert!(!is_model_code("crates/workloads/src/fio.rs"));
        assert!(!is_model_code("crates/bench/src/bin/fig08_baremetal.rs"));
        assert!(!is_model_code("crates/core/benches/x.rs"));
        assert!(!is_model_code("crates/compat/rand/src/lib.rs"));
        assert!(!is_model_code("src/lib.rs"));
        assert!(!is_model_code("tests/resilience.rs"));
    }
}
