//! The rule set: what `bm-lint` enforces and where.
//!
//! Every rule exists to protect one property of the discrete-event
//! simulation: **same seed, same bytes**. See [`Rule::explain`] for the
//! failure mode each rule guards against, in DES terms.
//!
//! Rules run over the token stream produced by [`crate::lexer`] (pass
//! 2), with the workspace-wide [`SymbolTable`] from pass 1 in scope so
//! the exhaustiveness rule can resolve a `match` in one crate against
//! an enum defined in another.

use crate::lexer::{lex, Tok, TokKind};
use crate::symbols::SymbolTable;
use std::collections::{BTreeMap, BTreeSet};

/// Crates whose code is on the simulated data/control path. Iteration
/// order, panics, and hidden nondeterminism in these crates change
/// simulated *behaviour*, not just logging.
pub const SIM_CRITICAL: &[&str] = &["sim", "core", "ssd", "pcie", "nvme", "testbed", "chaos"];

/// The rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// R1: no wall-clock reads outside `compat`/`bench`.
    WallClock,
    /// R2: no `HashMap`/`HashSet` in sim-critical crates.
    IterOrder,
    /// R3: no unseeded randomness anywhere outside `compat`.
    UnseededRng,
    /// R4: no `unwrap`/`expect`/`panic!` in sim-critical library code.
    PanicPath,
    /// R5: no `println!`-family output from library crates.
    Println,
    /// R6: matches over load-bearing enums must handle every variant —
    /// wildcard and catch-all arms are resolved against the cross-file
    /// enum definition and reported with the variants they hide.
    WildcardArm,
    /// R7: float ordering/accumulation hazards in sim-critical code.
    FloatDet,
    /// R8: raw integer literals mixed with nanosecond-denominated
    /// values without a named unit constructor.
    TimeUnit,
    /// A malformed or justification-less `bm-lint:` pragma.
    BadPragma,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 9] = [
        Rule::WallClock,
        Rule::IterOrder,
        Rule::UnseededRng,
        Rule::PanicPath,
        Rule::Println,
        Rule::WildcardArm,
        Rule::FloatDet,
        Rule::TimeUnit,
        Rule::BadPragma,
    ];

    /// Stable string id (used in pragmas, baselines, and reports).
    pub fn id(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::IterOrder => "iter-order",
            Rule::UnseededRng => "unseeded-rng",
            Rule::PanicPath => "panic-path",
            Rule::Println => "println",
            Rule::WildcardArm => "wildcard-arm",
            Rule::FloatDet => "float-determinism",
            Rule::TimeUnit => "time-unit",
            Rule::BadPragma => "bad-pragma",
        }
    }

    /// Parses a rule id.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }

    /// Why the rule exists, in discrete-event-simulation terms.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::WallClock => {
                "R1 wall-clock: `Instant::now()`/`SystemTime` read the host's clock. \
                 Any value derived from wall time differs between runs, so a branch or \
                 latency computed from it diverges from the seed-replay: two runs with \
                 the same seed produce different event orders and different figures. \
                 All time must come from `bm_sim::SimTime` handed down by the scheduler. \
                 Exempt: `crates/compat` (vendored benchmarking shims), `crates/bench` \
                 (host-side harness reporting) and `crates/prof` (the wall-clock \
                 self-profiler — its `monotonic_ns()` is the sanctioned audit point; \
                 sim crates must never feed its readings back into scheduling)."
            }
            Rule::IterOrder => {
                "R2 iter-order: `HashMap`/`HashSet` iteration order depends on \
                 `RandomState`'s per-process seed. If any sim-critical crate iterates \
                 one — even to drain completions or roll up stats — event ordering \
                 (or float summation order) changes run-to-run and seed replay breaks \
                 byte-identically-reproduced figures (fig08/09/12). Use `BTreeMap`, \
                 `BTreeSet`, an index-ordered `Vec`, or suppress with \
                 `// bm-lint: allow(iter-order): <why order cannot leak>`."
            }
            Rule::UnseededRng => {
                "R3 unseeded-rng: `thread_rng()`/`rand::random()`/`OsRng` draw entropy \
                 from the OS. A single unseeded draw anywhere in the pipeline makes the \
                 run unreproducible — fault plans, workload generators, and perturbation \
                 models must derive from the run's root seed (`bm_sim::rng`)."
            }
            Rule::PanicPath => {
                "R4 panic-path: `unwrap`/`expect`/`panic!` in sim-critical library code \
                 turns a recoverable modelling bug into an abort that takes the whole \
                 testbed (and every tenant's pending I/O) with it. The fault-injection \
                 suite deliberately drives error paths; library code must return typed \
                 errors or document the invariant with an assert at the boundary. \
                 Existing debt is ratcheted by `lint-baseline.toml`: it may shrink, \
                 never grow."
            }
            Rule::Println => {
                "R5 println: direct stdout/stderr writes from library crates bypass the \
                 telemetry layer, interleave nondeterministically with harness output, \
                 and corrupt the byte-compared experiment tables. Record a telemetry \
                 event or return the string to the caller; binaries, tests, and \
                 examples may print."
            }
            Rule::WildcardArm => {
                "R6 wildcard-arm: `Effect`, `FaultKind`, `BmsCommand`, and `Stage` are \
                 the load-bearing enums of the scheme pipeline, the fault plan, the \
                 management plane, and the event loop. A `_ =>` or catch-all binding \
                 arm in a match over them swallows every future variant silently: a \
                 new fault kind injects nothing, a new effect never executes, and the \
                 run *passes* while simulating the wrong thing. The analyzer resolves \
                 the scrutinee against the enum's definition (across crates) and lists \
                 the variants the arm hides; enumerate them so the compiler flags new \
                 ones."
            }
            Rule::FloatDet => {
                "R7 float-determinism: floats only admit a partial order, and float \
                 addition is not associative. `partial_cmp` in a sort, a `.sum()` or \
                 float `fold` over an iteration-order-sensitive sequence, or an `as \
                 f64` cast of a nanosecond counter (precision loss past 2^53) each \
                 produce results that depend on ordering or magnitude, not on the \
                 seed. Use `total_cmp`, accumulate over deterministically ordered \
                 sequences, and route ns→float conversions through the `SimTime`/\
                 `SimDuration` float accessors."
            }
            Rule::TimeUnit => {
                "R8 time-unit: a bare integer literal added to or compared against a \
                 `_ns` field hides its unit — `deadline_ns + 500` reads as \"500 \
                 what?\" and a µs-vs-ns slip shifts every downstream event by 1000×. \
                 Build durations with `SimDuration::from_us`/`from_ms`/`from_nanos` \
                 at the literal site, or name the constant so the unit is in the \
                 identifier."
            }
            Rule::BadPragma => {
                "bad-pragma: a `// bm-lint: allow(<rule>)` suppression must carry a \
                 justification (`// bm-lint: allow(iter-order): keys are replayed in \
                 sorted order below`). A bare pragma, an unknown rule id, or malformed \
                 syntax does not suppress anything and is itself a finding — silent \
                 exemptions are how determinism discipline rots."
            }
        }
    }
}

/// How a file participates in the build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of the crate's library target.
    Lib,
    /// A binary target (`src/bin`, `src/main.rs`).
    Bin,
    /// An integration test (`tests/`).
    Test,
    /// An example (`examples/`).
    Example,
    /// A benchmark (`benches/`).
    Bench,
}

/// Where a file lives, for rule applicability.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Crate directory name (`sim`, `core`, …, `compat` for vendored
    /// subsets, `bmstore` for the root package).
    pub crate_id: String,
    /// Target kind.
    pub kind: FileKind,
}

impl FileCtx {
    /// Convenience constructor.
    pub fn new(crate_id: &str, kind: FileKind) -> Self {
        FileCtx {
            crate_id: crate_id.to_string(),
            kind,
        }
    }

    fn sim_critical(&self) -> bool {
        SIM_CRITICAL.contains(&self.crate_id.as_str())
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The rule violated.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// Crate the file belongs to (baseline bucket).
    pub crate_id: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable detail.
    pub detail: String,
    /// Whether a justified pragma suppresses this finding. Suppressed
    /// findings are excluded from the ratchet but reported (with their
    /// pragma status) by `--format json`.
    pub suppressed: bool,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path,
            self.line,
            self.rule.id(),
            self.detail
        )
    }
}

/// Whether `rule` applies at all to files with this context. Per-line
/// test-region exclusion is handled separately.
fn applies(rule: Rule, ctx: &FileCtx) -> bool {
    match rule {
        Rule::WallClock => {
            ctx.crate_id != "compat" && ctx.crate_id != "bench" && ctx.crate_id != "prof"
        }
        Rule::IterOrder => ctx.sim_critical() && matches!(ctx.kind, FileKind::Lib | FileKind::Bin),
        Rule::UnseededRng => ctx.crate_id != "compat",
        Rule::PanicPath => ctx.sim_critical() && ctx.kind == FileKind::Lib,
        Rule::Println => {
            ctx.crate_id != "compat" && ctx.crate_id != "bench" && ctx.kind == FileKind::Lib
        }
        Rule::WildcardArm => {
            ctx.crate_id != "compat" && matches!(ctx.kind, FileKind::Lib | FileKind::Bin)
        }
        Rule::FloatDet | Rule::TimeUnit => {
            ctx.sim_critical() && matches!(ctx.kind, FileKind::Lib | FileKind::Bin)
        }
        Rule::BadPragma => true,
    }
}

/// Whether `rule` also fires inside `#[cfg(test)]` regions and
/// test-kind files. Determinism of the *model* matters even in tests
/// for R1/R3 (a wall-clock seed makes a proptest unreproducible), but
/// panics/collections in test assertions are fine.
fn applies_in_tests(rule: Rule) -> bool {
    matches!(rule, Rule::WallClock | Rule::UnseededRng | Rule::BadPragma)
}

/// A parsed `bm-lint: allow(...)` pragma occurrence.
#[derive(Debug, Clone)]
struct PragmaParse {
    rule: String,
    justified: bool,
}

/// Extracts pragmas from one comment string.
///
/// Only `bm-lint: allow(<rule-id>)` with a plausible rule id (lowercase
/// letters and dashes) counts as a pragma; anything else — prose that
/// merely mentions `bm-lint:`, or a `<rule>` placeholder in docs — is
/// ignored rather than diagnosed, so documentation can describe the
/// syntax without tripping the scanner.
fn parse_pragmas(comment: &str) -> Vec<PragmaParse> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find("bm-lint:") {
        let after = &rest[pos + "bm-lint:".len()..];
        rest = after;
        let trimmed = after.trim_start();
        let Some(args) = trimmed.strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.find(')') else {
            continue;
        };
        let rule = args[..close].trim().to_string();
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        let tail = args[close + 1..].trim_start();
        let justified = tail
            .strip_prefix(':')
            .map(|j| !j.trim().is_empty())
            .unwrap_or(false);
        out.push(PragmaParse { rule, justified });
        rest = &args[close + 1..];
    }
    out
}

/// Marks, per token, whether the token sits inside a `#[cfg(test)]`
/// region. Heuristic (matching the workspace convention of
/// `#[cfg(test)] mod tests { … }`): after a `#[cfg(… test …)]`
/// attribute, the next brace block is the test region.
fn test_marks(toks: &[Tok]) -> Vec<bool> {
    let mut out = vec![false; toks.len()];
    let mut depth: i64 = 0;
    let mut armed = false;
    let mut floor: Option<i64> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("#") && toks.get(i + 1).map(|x| x.is_punct("[")).unwrap_or(false) {
            let mut j = i + 2;
            let mut d = 1i64;
            let mut saw_cfg = false;
            let mut saw_test = false;
            while j < toks.len() && d > 0 {
                let u = &toks[j];
                if u.is_punct("[") {
                    d += 1;
                } else if u.is_punct("]") {
                    d -= 1;
                } else if u.is_ident("cfg") {
                    saw_cfg = true;
                } else if u.is_ident("test") {
                    saw_test = true;
                }
                j += 1;
            }
            if saw_cfg && saw_test {
                armed = true;
                for slot in out.iter_mut().take(j).skip(i) {
                    *slot = true;
                }
                i = j;
                continue;
            }
        }
        if floor.is_some() || armed {
            out[i] = true;
        }
        if t.is_punct("{") {
            depth += 1;
            if armed && floor.is_none() {
                floor = Some(depth);
                armed = false;
            }
        } else if t.is_punct("}") {
            if floor == Some(depth) {
                floor = None;
            }
            depth -= 1;
        }
        i += 1;
    }
    out
}

/// Enums whose matches must be exhaustive (R6).
const WATCHED_ENUMS: &[&str] = &["Effect", "FaultKind", "BmsCommand", "Stage"];

/// How a catch-all arm was written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CatchAll {
    /// A bare `_` token.
    Underscore,
    /// A single lowercase/underscore-prefixed binding (`other => …`).
    Binding,
}

/// One `match` expression being tracked by the R6 stack machine.
struct Frame {
    /// Brace depth of the arms (depth just inside the match's `{`).
    arm_depth: i64,
    /// Paren/bracket depth outside the match expression.
    group_base: i64,
    /// Line of the `match` keyword.
    match_line: u32,
    /// Whether the cursor is in an arm *pattern* (before `=>`).
    in_pattern: bool,
    /// Whether an `if` guard started (pattern collection stops).
    in_guard: bool,
    /// Token count of the current pattern at arm level.
    pat_count: u32,
    /// If the pattern's first (and so far only) token could be a
    /// catch-all, what kind, and on what line.
    pat_first: Option<(CatchAll, u32)>,
    /// The pattern contains structure (`(`, `{`, `|`, `&`, `@`, guard)
    /// and cannot be a bare catch-all.
    pat_broken: bool,
    /// Watched-enum variants named in pattern position: enum → set.
    seen: BTreeMap<String, BTreeSet<String>>,
    /// Catch-all arms found: (line, description).
    wildcards: Vec<(u32, &'static str)>,
}

impl Frame {
    fn new(arm_depth: i64, group_base: i64, match_line: u32) -> Frame {
        let mut f = Frame {
            arm_depth,
            group_base,
            match_line,
            in_pattern: false,
            in_guard: false,
            pat_count: 0,
            pat_first: None,
            pat_broken: false,
            seen: BTreeMap::new(),
            wildcards: Vec::new(),
        };
        f.start_arm();
        f
    }

    fn start_arm(&mut self) {
        self.in_pattern = true;
        self.in_guard = false;
        self.pat_count = 0;
        self.pat_first = None;
        self.pat_broken = false;
    }

    fn end_pattern(&mut self) {
        if self.in_pattern && self.pat_count == 1 && !self.pat_broken {
            match self.pat_first {
                Some((CatchAll::Underscore, line)) => {
                    self.wildcards.push((line, "wildcard `_` arm"));
                }
                Some((CatchAll::Binding, line)) => {
                    self.wildcards.push((line, "catch-all binding arm"));
                }
                None => {}
            }
        }
        self.in_pattern = false;
        self.in_guard = false;
    }
}

/// Runs the R6 exhaustiveness machine over the token stream. Emits
/// `(line, detail)` pairs.
fn exhaustiveness(toks: &[Tok], in_test: &[bool], table: &SymbolTable) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    let mut depth: i64 = 0;
    let mut group: i64 = 0;
    // (group, depth, line) at the `match` keyword, awaiting its `{`.
    let mut pending: Option<(i64, i64, u32)> = None;
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let at_arm = frames
            .last()
            .map(|f| f.arm_depth == depth && f.group_base == group)
            .unwrap_or(false);
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "{" => {
                    if at_arm {
                        if let Some(f) = frames.last_mut() {
                            if f.in_pattern && !f.in_guard {
                                f.pat_count += 1;
                                f.pat_broken = true;
                            }
                        }
                    }
                    depth += 1;
                    if let Some((pg, pd, pl)) = pending {
                        if pg == group && pd == depth - 1 {
                            pending = None;
                            frames.push(Frame::new(depth, group, pl));
                        }
                    }
                }
                "}" => {
                    if frames.last().map(|f| f.arm_depth == depth) == Some(true) {
                        let f = frames.pop().expect("frame top checked above");
                        finalize_frame(f, table, &mut found);
                    }
                    depth -= 1;
                    // A `}` landing back at arm level closed a brace
                    // arm body (`=> { … }`, no trailing comma): the
                    // next token starts the next arm's pattern. Payload
                    // braces inside a pattern also land here, but with
                    // `in_pattern` still set — leave those alone.
                    if let Some(f) = frames.last_mut() {
                        if f.arm_depth == depth && f.group_base == group && !f.in_pattern {
                            f.start_arm();
                        }
                    }
                }
                "(" | "[" => {
                    if at_arm {
                        if let Some(f) = frames.last_mut() {
                            if f.in_pattern && !f.in_guard {
                                f.pat_count += 1;
                                f.pat_broken = true;
                            }
                        }
                    }
                    group += 1;
                }
                ")" | "]" => group -= 1,
                "," if at_arm => {
                    if let Some(f) = frames.last_mut() {
                        f.start_arm();
                    }
                }
                "=>" if at_arm => {
                    if let Some(f) = frames.last_mut() {
                        f.end_pattern();
                    }
                }
                "|" | "&" | "@" if at_arm => {
                    if let Some(f) = frames.last_mut() {
                        if f.in_pattern && !f.in_guard {
                            f.pat_broken = true;
                        }
                    }
                }
                ";" if pending.map(|(pg, pd, _)| pg == group && pd == depth) == Some(true) => {
                    pending = None;
                }
                _ => {}
            },
            TokKind::Ident => {
                if t.text == "match" && !in_test[i] {
                    pending = Some((group, depth, t.line));
                } else if at_arm {
                    let watched = WATCHED_ENUMS.contains(&t.text.as_str())
                        && toks.get(i + 1).map(|n| n.is_punct("::")).unwrap_or(false)
                        && toks
                            .get(i + 2)
                            .map(|n| n.kind == TokKind::Ident)
                            .unwrap_or(false);
                    if let Some(f) = frames.last_mut() {
                        if f.in_pattern {
                            if t.text == "if" {
                                f.in_guard = true;
                                f.pat_broken = true;
                            } else if !f.in_guard {
                                f.pat_count += 1;
                                if f.pat_count == 1 {
                                    let first = t.text.chars().next().unwrap_or('A');
                                    f.pat_first = if t.text == "_" {
                                        Some((CatchAll::Underscore, t.line))
                                    } else if first.is_ascii_lowercase() || first == '_' {
                                        Some((CatchAll::Binding, t.line))
                                    } else {
                                        None
                                    };
                                }
                                if watched {
                                    f.seen
                                        .entry(t.text.clone())
                                        .or_default()
                                        .insert(toks[i + 2].text.clone());
                                }
                            }
                        }
                    }
                }
            }
            _ => {
                if at_arm {
                    if let Some(f) = frames.last_mut() {
                        if f.in_pattern && !f.in_guard {
                            f.pat_count += 1;
                        }
                    }
                }
            }
        }
        i += 1;
    }
    found
}

/// Judges one closed match frame against the symbol table.
fn finalize_frame(f: Frame, table: &SymbolTable, found: &mut Vec<(u32, String)>) {
    if f.seen.is_empty() {
        return;
    }
    let has_catch_all = !f.wildcards.is_empty();
    for (ename, seen) in &f.seen {
        let seen_vec: Vec<String> = seen.iter().cloned().collect();
        let def = table.resolve_enum(ename, &seen_vec);
        let missing: Vec<&str> = def
            .map(|d| {
                d.variants
                    .iter()
                    .filter(|v| !seen.contains(*v))
                    .map(|v| v.as_str())
                    .collect()
            })
            .unwrap_or_default();
        if has_catch_all {
            for (line, kind) in &f.wildcards {
                let detail = match def {
                    Some(d) if !missing.is_empty() => format!(
                        "{kind} in match over `{ename}` hides unhandled variants: {} \
                         (defined at {}:{})",
                        missing.join(", "),
                        d.path,
                        d.line
                    ),
                    Some(_) => format!(
                        "{kind} in match over `{ename}` — every variant is already \
                         handled; enumerate them and drop the catch-all"
                    ),
                    None => format!("{kind} in match over load-bearing enum `{ename}`"),
                };
                found.push((*line, detail));
            }
        } else if !missing.is_empty() {
            found.push((
                f.match_line,
                format!(
                    "match over `{ename}` is missing variants: {}",
                    missing.join(", ")
                ),
            ));
        }
    }
}

/// Whether a float literal's value is an exemption for comparisons:
/// `0.0` and `1.0` are exact in IEEE 754 and comparing against them is
/// a guard, not an ordering.
fn exempt_float(text: &str) -> bool {
    matches!(text.parse::<f64>(), Ok(v) if v == 0.0 || v == 1.0)
}

/// Whether an Int token is a nonzero literal (R8 ignores 0: `x_ns != 0`
/// is a presence check, not unit arithmetic).
fn nonzero_int(text: &str) -> bool {
    matches!(text.parse::<u128>(), Ok(v) if v != 0)
}

fn is_cmp(t: &Tok) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), "<" | ">" | "<=" | ">=" | "==" | "!=")
}

/// R7 float-determinism detectors. Emits `(line, detail)` pairs.
fn float_det(toks: &[Tok], in_test: &[bool]) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        if t.is_punct(".") {
            if let (Some(a), Some(b)) = (toks.get(i + 1), toks.get(i + 2)) {
                if a.is_ident("partial_cmp") && b.is_punct("(") {
                    found.push((
                        t.line,
                        "partial_cmp() admits NaN incomparability; use total_cmp for a \
                         total, deterministic float order"
                            .to_string(),
                    ));
                }
                if a.is_ident("sum")
                    && b.is_punct("::")
                    && toks.get(i + 3).map(|x| x.is_punct("<")).unwrap_or(false)
                    && toks
                        .get(i + 4)
                        .map(|x| x.is_ident("f64") || x.is_ident("f32"))
                        .unwrap_or(false)
                {
                    found.push((
                        t.line,
                        "float .sum() — float addition is not associative, so the \
                         result depends on iteration order"
                            .to_string(),
                    ));
                }
                if a.is_ident("fold")
                    && b.is_punct("(")
                    && toks
                        .get(i + 3)
                        .map(|x| x.kind == TokKind::Float)
                        .unwrap_or(false)
                {
                    found.push((
                        t.line,
                        "float fold() accumulator — the result depends on iteration \
                         order unless the sequence order is pinned"
                            .to_string(),
                    ));
                }
            }
        }
        if is_cmp(t) {
            let float_operand = [i.wrapping_sub(1), i + 1]
                .iter()
                .filter_map(|&j| toks.get(j))
                .any(|n| n.kind == TokKind::Float && !exempt_float(&n.text));
            if float_operand {
                found.push((
                    t.line,
                    "ordering comparison against a float literal; thresholds on sim \
                     paths should be integers/fixed-point or carry a pragma \
                     explaining why the float compare is exact"
                        .to_string(),
                ));
            }
        }
        if t.is_ident("as") {
            if let Some(n) = toks.get(i + 1) {
                if n.is_ident("f64") || n.is_ident("f32") {
                    // The cast *operand* must be ns-typed: either the
                    // ident right before `as` carries a `_ns` suffix, or
                    // the expression chains off `.as_nanos()` within a
                    // short lookback. A nearby `_ns` variable alone does
                    // not taint an unrelated cast (`arrivals as f64`).
                    let operand_ns = i
                        .checked_sub(1)
                        .and_then(|j| toks.get(j))
                        .map(|p| p.kind == TokKind::Ident && p.text.ends_with("_ns"))
                        .unwrap_or(false);
                    let ns_source = operand_ns
                        || (i.saturating_sub(8)..i).any(|j| toks[j].is_ident("as_nanos"));
                    if ns_source {
                        found.push((
                            t.line,
                            format!(
                                "nanosecond count cast with `as {}` loses precision past \
                                 2^53; use SimTime/SimDuration's as_nanos_f64()/\
                                 as_micros_f64() accessors",
                                n.text
                            ),
                        ));
                    }
                }
            }
        }
    }
    found
}

/// R8 time-unit detectors. Emits `(line, detail)` pairs.
fn time_unit(toks: &[Tok], in_test: &[bool]) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        if (t.kind == TokKind::Punct && matches!(t.text.as_str(), "+" | "-" | "+=" | "-="))
            || is_cmp(t)
        {
            let prev = i.checked_sub(1).and_then(|j| toks.get(j));
            let next = toks.get(i + 1);
            let ns = |x: Option<&Tok>| {
                x.map(|x| x.kind == TokKind::Ident && x.text.ends_with("_ns"))
                    .unwrap_or(false)
            };
            let lit = |x: Option<&Tok>| {
                x.map(|x| x.kind == TokKind::Int && nonzero_int(&x.text))
                    .unwrap_or(false)
            };
            // A literal whose far-side neighbour is `*`/`/`/`%` is a
            // scale factor (`t_ns * 2 > other_ns`), not a raw time.
            let scaled = |j: Option<usize>| {
                j.and_then(|j| toks.get(j))
                    .map(|x| x.kind == TokKind::Punct && matches!(x.text.as_str(), "*" | "/" | "%"))
                    .unwrap_or(false)
            };
            let lit_next = lit(next) && !scaled(Some(i + 2));
            let lit_prev = lit(prev) && !scaled(i.checked_sub(2));
            if (ns(prev) && lit_next) || (lit_prev && ns(next)) {
                found.push((
                    t.line,
                    "raw integer literal in arithmetic/comparison against a `_ns` \
                     value hides its unit; use SimDuration::from_us/from_ms/\
                     from_nanos or a named `_NS` constant"
                        .to_string(),
                ));
            }
        }
        if t.is_ident("from_nanos") && toks.get(i + 1).map(|x| x.is_punct("(")).unwrap_or(false) {
            if let Some(arg) = toks.get(i + 2) {
                if arg.kind == TokKind::Int
                    && matches!(arg.text.parse::<u128>(), Ok(v) if v >= 1000)
                    && toks.get(i + 3).map(|x| x.is_punct(")")).unwrap_or(false)
                {
                    found.push((
                        t.line,
                        "from_nanos(<literal ≥ 1µs>) obscures the magnitude; write \
                         from_us/from_ms so the unit is visible at the call site"
                            .to_string(),
                    ));
                }
            }
        }
    }
    found
}

/// Scans one file's source, returning **all** findings; suppressed ones
/// carry `suppressed: true` (a well-formed, justified pragma on the
/// finding's line or the line directly above).
pub fn scan_source(
    rel_path: &str,
    src: &str,
    ctx: &FileCtx,
    table: &SymbolTable,
) -> Vec<Violation> {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let marks = test_marks(toks);
    let in_test_file = matches!(
        ctx.kind,
        FileKind::Test | FileKind::Bench | FileKind::Example
    );
    let mut raw: Vec<Violation> = Vec::new();

    let mk = |rule: Rule, line: u32, detail: String| Violation {
        rule,
        path: rel_path.to_string(),
        crate_id: ctx.crate_id.clone(),
        line: line as usize,
        detail,
        suppressed: false,
    };

    // Token-sequence needle rules.
    for i in 0..toks.len() {
        let t = &toks[i];
        let next = toks.get(i + 1);
        let nn = toks.get(i + 2);
        let in_test = marks[i] || in_test_file;
        let mut hit = |rule: Rule, detail: &str| {
            if applies(rule, ctx) && (!in_test || applies_in_tests(rule)) {
                raw.push(mk(rule, t.line, detail.to_string()));
            }
        };
        if t.is_ident("Instant")
            && next.map(|n| n.is_punct("::")).unwrap_or(false)
            && nn.map(|n| n.is_ident("now")).unwrap_or(false)
        {
            hit(Rule::WallClock, "wall-clock read via Instant::now()");
        } else if t.is_ident("SystemTime") {
            hit(Rule::WallClock, "wall-clock type SystemTime");
        }
        if t.is_ident("HashMap") {
            hit(
                Rule::IterOrder,
                "HashMap in sim-critical crate (iteration order is seeded per-process)",
            );
        } else if t.is_ident("HashSet") {
            hit(
                Rule::IterOrder,
                "HashSet in sim-critical crate (iteration order is seeded per-process)",
            );
        }
        if t.is_ident("thread_rng") {
            hit(Rule::UnseededRng, "unseeded thread_rng()");
        } else if t.is_ident("rand")
            && next.map(|n| n.is_punct("::")).unwrap_or(false)
            && nn.map(|n| n.is_ident("random")).unwrap_or(false)
        {
            hit(Rule::UnseededRng, "unseeded rand::random()");
        } else if t.is_ident("from_entropy") {
            hit(Rule::UnseededRng, "OS-entropy-seeded RNG");
        } else if t.is_ident("OsRng") {
            hit(Rule::UnseededRng, "OS entropy source OsRng");
        }
        if t.is_punct(".")
            && next.map(|n| n.is_ident("unwrap")).unwrap_or(false)
            && nn.map(|n| n.is_punct("(")).unwrap_or(false)
        {
            hit(Rule::PanicPath, "unwrap() on sim-critical library path");
        } else if t.is_punct(".")
            && next.map(|n| n.is_ident("expect")).unwrap_or(false)
            && nn.map(|n| n.is_punct("(")).unwrap_or(false)
        {
            hit(Rule::PanicPath, "expect() on sim-critical library path");
        } else if t.is_ident("panic") && next.map(|n| n.is_punct("!")).unwrap_or(false) {
            hit(Rule::PanicPath, "panic! on sim-critical library path");
        }
        if next.map(|n| n.is_punct("!")).unwrap_or(false) {
            match t.text.as_str() {
                "println" if t.kind == TokKind::Ident => {
                    hit(Rule::Println, "println! in library code")
                }
                "eprintln" if t.kind == TokKind::Ident => {
                    hit(Rule::Println, "eprintln! in library code")
                }
                "print" if t.kind == TokKind::Ident => hit(Rule::Println, "print! in library code"),
                "eprint" if t.kind == TokKind::Ident => {
                    hit(Rule::Println, "eprint! in library code")
                }
                "dbg" if t.kind == TokKind::Ident => hit(Rule::Println, "dbg! in library code"),
                _ => {}
            }
        }
    }

    // Structured rules (never fire in test-kind files by applicability).
    if applies(Rule::WildcardArm, ctx) && !in_test_file {
        for (line, detail) in exhaustiveness(toks, &marks, table) {
            raw.push(mk(Rule::WildcardArm, line, detail));
        }
    }
    if applies(Rule::FloatDet, ctx) && !in_test_file {
        for (line, detail) in float_det(toks, &marks) {
            raw.push(mk(Rule::FloatDet, line, detail));
        }
    }
    if applies(Rule::TimeUnit, ctx) && !in_test_file {
        for (line, detail) in time_unit(toks, &marks) {
            raw.push(mk(Rule::TimeUnit, line, detail));
        }
    }

    // Pragmas: emit bad-pragma findings, collect justified allows.
    let mut allows: Vec<(usize, String)> = Vec::new();
    for (line, comment) in &lexed.comments {
        for p in parse_pragmas(comment) {
            if Rule::from_id(&p.rule).is_none() {
                raw.push(mk(
                    Rule::BadPragma,
                    *line,
                    format!("pragma names unknown rule `{}`", p.rule),
                ));
            } else if !p.justified {
                raw.push(mk(
                    Rule::BadPragma,
                    *line,
                    format!(
                        "allow({0}) pragma has no justification \
                         (write `bm-lint: allow({0}): <reason>`)",
                        p.rule
                    ),
                ));
            } else {
                allows.push((*line as usize, p.rule));
            }
        }
    }

    raw.sort_by_key(|a| (a.line, a.rule));
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    for v in &mut raw {
        if v.rule != Rule::BadPragma
            && allows
                .iter()
                .any(|(l, rule)| rule == v.rule.id() && (*l == v.line || *l + 1 == v.line))
        {
            v.suppressed = true;
        }
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str, ctx: &FileCtx) -> Vec<Violation> {
        let mut table = SymbolTable::default();
        table.harvest("x.rs", &ctx.crate_id, &lex(src));
        scan_source("x.rs", src, ctx, &table)
    }

    fn active(src: &str, ctx: &FileCtx) -> Vec<Violation> {
        scan(src, ctx)
            .into_iter()
            .filter(|v| !v.suppressed)
            .collect()
    }

    fn lib_ctx() -> FileCtx {
        FileCtx::new("core", FileKind::Lib)
    }

    #[test]
    fn needles_in_comments_and_strings_do_not_fire() {
        let src = "// HashMap in a comment\nlet s = \"Instant::now()\";\n";
        assert!(active(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn idents_containing_needles_do_not_fire() {
        // The old substring masker flagged these.
        let src = "struct MyHashMapLike;\nfn print_lnish() {}\nlet systemtime_like = 1;\n";
        assert!(active(src, &lib_ctx()).is_empty());
    }

    #[test]
    fn split_token_sequences_fire() {
        let src = "let t = Instant ::\n    now();\n";
        let v = active(src, &lib_ctx());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::WallClock);
    }

    #[test]
    fn cfg_test_regions_are_exempt_for_panic_rules() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { x.unwrap(); }\n}\n";
        assert!(active(src, &lib_ctx()).is_empty());
        let src2 = "fn f(x: Option<u8>) { x.unwrap(); }\n";
        let v = active(src2, &lib_ctx());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::PanicPath);
    }

    #[test]
    fn pragma_on_same_or_previous_line_suppresses_with_flag() {
        let src = "use std::collections::HashMap; // bm-lint: allow(iter-order): lookup-only\n";
        let all = scan(src, &lib_ctx());
        assert_eq!(all.len(), 1);
        assert!(all[0].suppressed);
        let src2 = "// bm-lint: allow(iter-order): lookup-only\nuse std::collections::HashMap;\n";
        assert!(active(src2, &lib_ctx()).is_empty());
    }

    #[test]
    fn unjustified_pragma_does_not_suppress() {
        let src = "use std::collections::HashMap; // bm-lint: allow(iter-order)\n";
        let v = active(src, &lib_ctx());
        let rules: Vec<_> = v.iter().map(|v| v.rule).collect();
        assert!(rules.contains(&Rule::IterOrder));
        assert!(rules.contains(&Rule::BadPragma));
    }

    #[test]
    fn wildcard_arm_only_for_watched_enums() {
        let src = "fn f(e: Effect) -> u8 {\n    match e {\n        Effect::A => 1,\n        _ => 0,\n    }\n}\n";
        let v = active(src, &FileCtx::new("testbed", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::WildcardArm);
        assert_eq!(v[0].line, 4);
        let benign =
            "fn f(x: u8) -> u8 {\n    match x {\n        1 => 1,\n        _ => 0,\n    }\n}\n";
        assert!(active(benign, &FileCtx::new("testbed", FileKind::Lib)).is_empty());
    }

    #[test]
    fn wildcard_names_unhandled_variants_from_definition() {
        let src = "enum Effect { Alpha, Beta, Gamma }\n\
                   fn f(e: Effect) -> u8 {\n    match e {\n        Effect::Alpha => 1,\n        _ => 0,\n    }\n}\n";
        let v = active(src, &FileCtx::new("testbed", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
        assert!(v[0].detail.contains("Beta, Gamma"), "{}", v[0].detail);
        assert!(!v[0].detail.contains("Alpha"));
    }

    #[test]
    fn catch_all_binding_is_flagged_like_wildcard() {
        let src = "enum Stage { A, B }\nfn f(s: Stage) -> u8 {\n    match s {\n        Stage::A => 1,\n        other => 0,\n    }\n}\n";
        let v = active(src, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 5);
        assert!(v[0].detail.contains("catch-all binding"), "{}", v[0].detail);
        assert!(v[0].detail.contains("B"));
    }

    #[test]
    fn missing_arm_without_wildcard_is_reported_at_match() {
        // The compiler would reject this, but the analyzer sees it when
        // a variant is added to the definition after the match was
        // written (the cross-crate fixture case).
        let src = "enum FaultKind { X, Y, Z }\nfn f(k: FaultKind) -> u8 {\n    match k {\n        FaultKind::X => 1,\n        FaultKind::Y => 2,\n    }\n}\n";
        let v = active(src, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
        assert!(
            v[0].detail.contains("missing variants: Z"),
            "{}",
            v[0].detail
        );
    }

    #[test]
    fn nested_payload_patterns_do_not_leak_into_arm_level() {
        // `Stage::…` inside an Effect payload must not register a Stage
        // frame, and the inner wildcard-free match stays clean.
        let src = "enum Effect { ScheduleAt, Done }\n\
                   fn f(e: Effect) -> u8 {\n    match e {\n        Effect::ScheduleAt { stage: Stage::Doorbell, .. } => 1,\n        Effect::Done => 2,\n    }\n}\n";
        assert!(active(src, &FileCtx::new("testbed", FileKind::Lib)).is_empty());
    }

    #[test]
    fn wildcard_in_nested_unwatched_match_is_clean() {
        let src = "fn f(e: Effect, n: u8) -> u8 {\n    match e {\n        Effect::A => match n {\n            1 => 1,\n            _ => 0,\n        },\n        Effect::B => 2,\n    }\n}\n";
        assert!(active(src, &FileCtx::new("testbed", FileKind::Lib)).is_empty());
    }

    #[test]
    fn watched_enum_in_arm_body_does_not_mark_outer_match() {
        let src = "fn f(x: u8) -> Effect {\n    match x {\n        1 => Effect::A,\n        _ => Effect::B,\n    }\n}\n";
        assert!(active(src, &FileCtx::new("testbed", FileKind::Lib)).is_empty());
    }

    #[test]
    fn guarded_underscore_is_not_a_catch_all() {
        let src = "fn f(e: Effect) -> u8 {\n    match e {\n        Effect::A => 1,\n        _ if cheap() => 2,\n        Effect::B => 3,\n    }\n}\n";
        assert!(active(src, &FileCtx::new("testbed", FileKind::Lib)).is_empty());
    }

    #[test]
    fn float_rules_fire_in_sim_critical_only() {
        let src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n";
        let v = active(src, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatDet);
        assert!(active(src, &FileCtx::new("host", FileKind::Lib)).is_empty());
    }

    #[test]
    fn float_partial_cmp_and_fold_flagged_definitions_exempt() {
        let src = "fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n";
        let v = active(src, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("total_cmp"));
        // A trait-impl *definition* delegating to cmp is not a call.
        let def =
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }\n";
        assert!(active(def, &FileCtx::new("sim", FileKind::Lib)).is_empty());
        let fold = "fn g(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }\n";
        let v = active(fold, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("fold"));
    }

    #[test]
    fn float_literal_comparisons_exempt_zero_and_one() {
        let guard = "fn f(x: f64) -> bool { x > 0.0 && x != 1.0 }\n";
        assert!(active(guard, &FileCtx::new("sim", FileKind::Lib)).is_empty());
        let threshold = "fn f(x: f64) -> bool { x > 0.95 }\n";
        let v = active(threshold, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatDet);
    }

    #[test]
    fn ns_to_float_cast_flagged_other_casts_exempt() {
        let bad = "fn f(lat_ns: u64) -> f64 { lat_ns as f64 / 1000.0 }\n";
        let v = active(bad, &FileCtx::new("ssd", FileKind::Lib));
        assert!(v
            .iter()
            .any(|v| v.rule == Rule::FloatDet && v.detail.contains("as_nanos_f64")));
        let ok = "fn f(count: u64) -> f64 { count as f64 }\n";
        assert!(active(ok, &FileCtx::new("ssd", FileKind::Lib)).is_empty());
    }

    #[test]
    fn time_unit_flags_literal_arithmetic_not_scaling() {
        let bad = "fn f(deadline_ns: u64) -> u64 { deadline_ns + 500 }\n";
        let v = active(bad, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::TimeUnit);
        // Scaling and zero-checks are fine.
        let ok = "fn f(t_ns: u64) -> bool { t_ns * 2 > other_ns && t_ns != 0 }\n";
        assert!(active(ok, &FileCtx::new("sim", FileKind::Lib)).is_empty());
    }

    #[test]
    fn from_nanos_large_literal_flagged() {
        let bad = "let d = SimDuration::from_nanos(5000);\n";
        let v = active(bad, &FileCtx::new("sim", FileKind::Lib));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::TimeUnit);
        let ok = "let d = SimDuration::from_nanos(750);\n";
        assert!(active(ok, &FileCtx::new("sim", FileKind::Lib)).is_empty());
    }

    #[test]
    fn new_rules_suppressible_with_justified_pragma() {
        for (src, rule) in [
            (
                "// bm-lint: allow(float-determinism): order pinned by sorted keys\nfn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\n",
                Rule::FloatDet,
            ),
            (
                "// bm-lint: allow(time-unit): protocol-defined 500ns hold-off\nfn f(t_ns: u64) -> u64 { t_ns + 500 }\n",
                Rule::TimeUnit,
            ),
            (
                "enum Effect { A, B }\nfn f(e: Effect) -> u8 {\n    match e {\n        Effect::A => 1,\n        // bm-lint: allow(wildcard-arm): forward-compat shim\n        _ => 0,\n    }\n}\n",
                Rule::WildcardArm,
            ),
        ] {
            let all = scan(src, &FileCtx::new("sim", FileKind::Lib));
            let ours: Vec<_> = all.iter().filter(|v| v.rule == rule).collect();
            assert_eq!(ours.len(), 1, "{rule:?}: {all:?}");
            assert!(ours[0].suppressed, "{rule:?} not suppressed");
            assert!(all.iter().all(|v| v.rule != Rule::BadPragma));
        }
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("nope"), None);
    }
}
