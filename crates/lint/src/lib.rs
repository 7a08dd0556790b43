//! `bm-lint`: determinism & simulation-safety static analysis for the
//! BM-Store workspace.
//!
//! The whole card — BMS-Engine pipeline, BMS-Controller, fault plans,
//! telemetry — is a *deterministic* discrete-event simulation: same
//! seed, same bytes (the property the figure pipeline byte-compares).
//! Nothing in the compiler enforces that, so this crate does. It is a
//! hand-rolled two-pass token-stream analyzer in the spirit of the
//! vendored `crates/compat` subsets: no dependencies, no proc macros,
//! no network. Pass 1 lexes every workspace file ([`lexer`]) and
//! builds a cross-crate symbol table ([`symbols`]: enum variants);
//! pass 2 runs the rules over each file's
//! token stream with that table in scope:
//!
//! | id | rule |
//! |----|------|
//! | `wall-clock`         | no `Instant::now`/`SystemTime` outside `compat`/`bench`/`prof` |
//! | `iter-order`         | no `HashMap`/`HashSet` in sim-critical crates |
//! | `unseeded-rng`       | no `thread_rng`/`rand::random`/`OsRng` outside `compat` |
//! | `panic-path`         | no `unwrap`/`expect`/`panic!` in sim-critical library code |
//! | `println`            | no `println!`-family output from library crates |
//! | `wildcard-arm`       | matches over `Effect`/`FaultKind`/`BmsCommand`/`Stage` handle every variant (resolved cross-crate) |
//! | `float-determinism`  | no `partial_cmp`, order-sensitive float accumulation, or ns→float casts in sim-critical code |
//! | `time-unit`          | no raw integer literals mixed with `_ns` values without a named unit constructor |
//!
//! Violations are suppressed per-site with
//! `// bm-lint: allow(<rule>): <justification>` (the justification is
//! mandatory; a bare pragma is itself a `bad-pragma` finding) and
//! budgeted per `(rule, crate)` by the committed `lint-baseline.toml`
//! ratchet: counts may shrink, never grow. Run
//! `cargo run -p bm-lint -- explain <rule>` for the failure mode each
//! rule guards against.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lexer;
pub mod rules;
pub mod selftest;
pub mod symbols;

pub use baseline::{count_violations, ratchet, Baseline, Counts, RatchetReport};
pub use rules::{scan_source, FileCtx, FileKind, Rule, Violation, SIM_CRITICAL};
pub use symbols::SymbolTable;

use std::path::{Path, PathBuf};

/// A workspace source file selected for scanning.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Absolute path.
    pub abs: PathBuf,
    /// Workspace-relative path (what reports print).
    pub rel: String,
    /// Crate + target-kind classification.
    pub ctx: FileCtx,
}

/// Finds the workspace root by walking up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Enumerates the `.rs` files to scan, classified by crate and target
/// kind. Deterministic order (sorted directory walks). Skips `target/`,
/// hidden directories, and this crate's own rule fixtures.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for top in ["src", "tests", "examples", "crates"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut out)?;
        }
    }
    Ok(out)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<SourceFile>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<std::io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            // The lint crate's fixtures are deliberate violations.
            if name == "fixtures" && path.ends_with("crates/lint/tests/fixtures") {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let Some(ctx) = classify(&rel) else {
                continue;
            };
            out.push(SourceFile {
                abs: path,
                rel,
                ctx,
            });
        }
    }
    Ok(())
}

/// Classifies a workspace-relative path into `(crate, kind)`.
fn classify(rel: &str) -> Option<FileCtx> {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_id, rest): (&str, &[&str]) = match parts.as_slice() {
        ["crates", "compat", _name, rest @ ..] => ("compat", rest),
        ["crates", name, rest @ ..] => (name, rest),
        ["src" | "tests" | "examples", ..] => ("bmstore", &parts[..]),
        _ => return None,
    };
    let kind = match rest {
        ["tests", ..] => FileKind::Test,
        ["benches", ..] => FileKind::Bench,
        ["examples", ..] => FileKind::Example,
        ["src", "bin", ..] => FileKind::Bin,
        ["src", "main.rs"] => FileKind::Bin,
        ["src", ..] => FileKind::Lib,
        _ => return None,
    };
    Some(FileCtx::new(crate_id, kind))
}

/// The result of scanning a workspace tree.
#[derive(Debug, Default)]
pub struct ScanResult {
    /// All unsuppressed findings, in path/line order. These count
    /// against the baseline ratchet.
    pub violations: Vec<Violation>,
    /// Findings silenced by a justified pragma, in path/line order.
    /// Excluded from the ratchet; surfaced by `--format json`.
    pub suppressed: Vec<Violation>,
    /// Files scanned.
    pub files: usize,
}

/// Scans every workspace source file under `root`: pass 1 lexes all
/// files and builds the cross-crate [`SymbolTable`]; pass 2 runs the
/// rules per file with the table in scope.
///
/// # Errors
///
/// Propagates I/O errors from the directory walk or file reads.
pub fn scan_workspace(root: &Path) -> std::io::Result<ScanResult> {
    let files = workspace_files(root)?;
    let sources: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(&f.abs))
        .collect::<std::io::Result<_>>()?;
    let mut table = SymbolTable::default();
    for (f, src) in files.iter().zip(&sources) {
        table.harvest(&f.rel, &f.ctx.crate_id, &lexer::lex(src));
    }
    let mut violations = Vec::new();
    let mut suppressed = Vec::new();
    for (f, src) in files.iter().zip(&sources) {
        for v in scan_source(&f.rel, src, &f.ctx, &table) {
            if v.suppressed {
                suppressed.push(v);
            } else {
                violations.push(v);
            }
        }
    }
    let order =
        |a: &Violation, b: &Violation| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule));
    violations.sort_by(order);
    suppressed.sort_by(order);
    Ok(ScanResult {
        violations,
        suppressed,
        files: files.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_maps_paths_to_crates_and_kinds() {
        let c = classify("crates/sim/src/engine.rs").unwrap();
        assert_eq!((c.crate_id.as_str(), c.kind), ("sim", FileKind::Lib));
        let c = classify("crates/bench/src/bin/fig08_baremetal.rs").unwrap();
        assert_eq!((c.crate_id.as_str(), c.kind), ("bench", FileKind::Bin));
        let c = classify("crates/testbed/tests/resilience.rs").unwrap();
        assert_eq!((c.crate_id.as_str(), c.kind), ("testbed", FileKind::Test));
        let c = classify("crates/compat/rand/src/lib.rs").unwrap();
        assert_eq!((c.crate_id.as_str(), c.kind), ("compat", FileKind::Lib));
        let c = classify("src/lib.rs").unwrap();
        assert_eq!((c.crate_id.as_str(), c.kind), ("bmstore", FileKind::Lib));
        let c = classify("tests/resilience.rs").unwrap();
        assert_eq!((c.crate_id.as_str(), c.kind), ("bmstore", FileKind::Test));
        let c = classify("crates/workloads/examples/apps.rs").unwrap();
        assert_eq!(
            (c.crate_id.as_str(), c.kind),
            ("workloads", FileKind::Example)
        );
    }
}
