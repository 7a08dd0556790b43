//! The two rules clippy cannot express, and their pragma.
//!
//! Both protect one property of the discrete-event simulation: **same
//! seed, same bytes**. They run over the token stream produced by
//! [`crate::lexer`], outside `#[cfg(test)]` regions.

use crate::lexer::{lex, Tok, TokKind};

/// The rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Floats only admit a partial order, and float addition is not
    /// associative. `partial_cmp`, a `.sum()` or float `fold` over an
    /// iteration-order-sensitive sequence, a comparison against a float
    /// threshold, or an `as f64` cast of a nanosecond counter (precision
    /// loss past 2^53) each produce results that depend on ordering or
    /// magnitude, not on the seed. Use `total_cmp`, accumulate over
    /// deterministically ordered sequences, and route ns→float
    /// conversions through the `SimTime`/`SimDuration` float accessors.
    FloatDet,
    /// A bare integer literal added to or compared against a `_ns` value
    /// hides its unit: `deadline_ns + 500` reads as "500 what?", and a
    /// µs-vs-ns slip shifts every downstream event by 1000×. Build
    /// durations with `SimDuration::from_us`/`from_ms`/`from_nanos` at
    /// the literal site, or name the constant so the unit is in the
    /// identifier.
    TimeUnit,
    /// A `// bm-lint: allow(<rule>)` pragma without a justification, or
    /// naming a rule this crate does not check (the rules that moved to
    /// clippy included). It suppresses nothing and is itself a finding.
    BadPragma,
}

impl Rule {
    /// All rules, in report order.
    pub const ALL: [Rule; 3] = [Rule::FloatDet, Rule::TimeUnit, Rule::BadPragma];

    /// Stable string id (used in pragmas and reports).
    pub fn id(self) -> &'static str {
        match self {
            Rule::FloatDet => "float-determinism",
            Rule::TimeUnit => "time-unit",
            Rule::BadPragma => "bad-pragma",
        }
    }

    /// Parses a rule id.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

/// One finding in one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule violated.
    pub rule: Rule,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable detail.
    pub detail: String,
    /// Whether a justified pragma on this line or the line above
    /// suppresses the finding.
    pub suppressed: bool,
}

/// A parsed `bm-lint: allow(...)` pragma occurrence.
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
        let Some(args) = after.trim_start().strip_prefix("allow(") else {
            continue;
        };
        let Some(close) = args.find(')') else {
            continue;
        };
        let rule = args[..close].trim().to_string();
        if rule.is_empty() || !rule.chars().all(|c| c.is_ascii_lowercase() || c == '-') {
            continue;
        }
        let justified = args[close + 1..]
            .trim_start()
            .strip_prefix(':')
            .is_some_and(|j| !j.trim().is_empty());
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
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|x| x.is_punct("[")) {
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

/// Whether a float literal's value is an exemption for comparisons:
/// `0.0` and `1.0` are exact in IEEE 754 and comparing against them is
/// a guard, not an ordering.
fn exempt_float(text: &str) -> bool {
    matches!(text.parse::<f64>(), Ok(v) if v == 0.0 || v == 1.0)
}

/// Whether an Int token is a nonzero literal (the time-unit rule ignores
/// 0: `x_ns != 0` is a presence check, not unit arithmetic).
fn nonzero_int(text: &str) -> bool {
    matches!(text.parse::<u128>(), Ok(v) if v != 0)
}

fn is_cmp(t: &Tok) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), "<" | ">" | "<=" | ">=" | "==" | "!=")
}

/// Float-determinism detectors. Emits `(line, detail)` pairs.
fn float_det(toks: &[Tok], in_test: &[bool]) -> Vec<(u32, String)> {
    let mut found = Vec::new();
    for i in 0..toks.len() {
        if in_test[i] {
            continue;
        }
        let t = &toks[i];
        let at = |j: usize| toks.get(j);
        if t.is_punct(".") {
            if let (Some(a), Some(b)) = (at(i + 1), at(i + 2)) {
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
                    && at(i + 3).is_some_and(|x| x.is_punct("<"))
                    && at(i + 4).is_some_and(|x| x.is_ident("f64") || x.is_ident("f32"))
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
                    && at(i + 3).is_some_and(|x| x.kind == TokKind::Float)
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
                .filter_map(|&j| at(j))
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
            if let Some(n) = at(i + 1).filter(|n| n.is_ident("f64") || n.is_ident("f32")) {
                // The cast *operand* must be ns-typed: either the ident
                // right before `as` carries a `_ns` suffix, or the
                // expression chains off `.as_nanos()` within a short
                // lookback. A nearby `_ns` variable alone does not taint
                // an unrelated cast (`arrivals as f64`).
                let operand_ns = i
                    .checked_sub(1)
                    .and_then(at)
                    .is_some_and(|p| p.kind == TokKind::Ident && p.text.ends_with("_ns"));
                if operand_ns || (i.saturating_sub(8)..i).any(|j| toks[j].is_ident("as_nanos")) {
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
    found
}

/// Time-unit detectors. Emits `(line, detail)` pairs.
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
                x.is_some_and(|x| x.kind == TokKind::Ident && x.text.ends_with("_ns"))
            };
            let lit =
                |x: Option<&Tok>| x.is_some_and(|x| x.kind == TokKind::Int && nonzero_int(&x.text));
            // A literal whose far-side neighbour is `*`/`/`/`%` is a
            // scale factor (`t_ns * 2 > other_ns`), not a raw time.
            let scaled = |j: Option<usize>| {
                j.and_then(|j| toks.get(j)).is_some_and(|x| {
                    x.kind == TokKind::Punct && matches!(x.text.as_str(), "*" | "/" | "%")
                })
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
        if t.is_ident("from_nanos")
            && toks.get(i + 1).is_some_and(|x| x.is_punct("("))
            && toks.get(i + 2).is_some_and(|arg| {
                arg.kind == TokKind::Int && matches!(arg.text.parse::<u128>(), Ok(v) if v >= 1000)
            })
            && toks.get(i + 3).is_some_and(|x| x.is_punct(")"))
        {
            found.push((
                t.line,
                "from_nanos(<literal ≥ 1µs>) obscures the magnitude; write \
                 from_us/from_ms so the unit is visible at the call site"
                    .to_string(),
            ));
        }
    }
    found
}

/// Scans one file's source and returns every finding, in line order;
/// suppressed ones carry `suppressed: true`. `model_code` says whether
/// the float-determinism and time-unit rules apply (the `src` tree of a
/// sim-critical crate); pragmas are checked in every file.
pub fn scan_source(src: &str, model_code: bool) -> Vec<Finding> {
    let lexed = lex(src);
    let mut raw: Vec<(Rule, u32, String)> = Vec::new();
    if model_code {
        let marks = test_marks(&lexed.tokens);
        for (line, detail) in float_det(&lexed.tokens, &marks) {
            raw.push((Rule::FloatDet, line, detail));
        }
        for (line, detail) in time_unit(&lexed.tokens, &marks) {
            raw.push((Rule::TimeUnit, line, detail));
        }
    }

    // Pragmas: report bad ones, collect the justified allows.
    let mut allows: Vec<(u32, Rule)> = Vec::new();
    for (line, comment) in &lexed.comments {
        for p in parse_pragmas(comment) {
            match Rule::from_id(&p.rule) {
                None => raw.push((
                    Rule::BadPragma,
                    *line,
                    format!("pragma names unknown rule `{}`", p.rule),
                )),
                Some(_) if !p.justified => raw.push((
                    Rule::BadPragma,
                    *line,
                    format!(
                        "allow({0}) pragma has no justification \
                         (write `bm-lint: allow({0}): <reason>`)",
                        p.rule
                    ),
                )),
                Some(rule) => allows.push((*line, rule)),
            }
        }
    }

    raw.sort_by_key(|(rule, line, _)| (*line, *rule));
    raw.dedup_by_key(|(rule, line, _)| (*line, *rule));
    raw.into_iter()
        .map(|(rule, line, detail)| Finding {
            rule,
            line,
            detail,
            suppressed: rule != Rule::BadPragma
                && allows
                    .iter()
                    .any(|&(l, r)| r == rule && (l == line || l + 1 == line)),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn active(src: &str) -> Vec<Finding> {
        scan_source(src, true)
            .into_iter()
            .filter(|f| !f.suppressed)
            .collect()
    }

    #[test]
    fn needles_in_comments_and_strings_do_not_fire() {
        let src = "// a.partial_cmp(&b)\nlet s = \"deadline_ns + 500\";\n";
        assert!(active(src).is_empty());
    }

    #[test]
    fn split_token_sequences_fire() {
        let src = "fn f(deadline_ns: u64) -> u64 {\n    deadline_ns\n        + 500\n}\n";
        let v = active(src);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].rule, v[0].line), (Rule::TimeUnit, 3));
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(a: f64) -> bool { a > 0.5 }\n}\n";
        assert!(active(src).is_empty());
        let v = active("fn g(a: f64) -> bool { a > 0.5 }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatDet);
    }

    #[test]
    fn pragma_on_same_or_previous_line_suppresses() {
        let same = "fn f(t_ns: u64) -> u64 { t_ns + 500 } // bm-lint: allow(time-unit): why\n";
        let v = scan_source(same, true);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::TimeUnit);
        assert!(v[0].suppressed);
        let above = "// bm-lint: allow(time-unit): why\nfn f(t_ns: u64) -> u64 { t_ns + 500 }\n";
        assert!(active(above).is_empty());
    }

    #[test]
    fn float_partial_cmp_and_fold_flagged_definitions_exempt() {
        let v = active("fn f(a: f64, b: f64) { a.partial_cmp(&b); }\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("total_cmp"));
        // A trait-impl *definition* delegating to cmp is not a call.
        let def =
            "fn partial_cmp(&self, other: &Self) -> Option<Ordering> { Some(self.cmp(other)) }\n";
        assert!(active(def).is_empty());
        let v = active("fn g(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }\n");
        assert_eq!(v.len(), 1);
        assert!(v[0].detail.contains("fold"));
    }

    #[test]
    fn float_literal_comparisons_exempt_zero_and_one() {
        assert!(active("fn f(x: f64) -> bool { x > 0.0 && x != 1.0 }\n").is_empty());
        let v = active("fn f(x: f64) -> bool { x > 0.95 }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::FloatDet);
    }

    #[test]
    fn ns_to_float_cast_flagged_other_casts_exempt() {
        let v = active("fn f(lat_ns: u64) -> f64 { lat_ns as f64 / 1000.0 }\n");
        assert!(v
            .iter()
            .any(|f| f.rule == Rule::FloatDet && f.detail.contains("as_nanos_f64")));
        assert!(active("fn f(count: u64) -> f64 { count as f64 }\n").is_empty());
    }

    #[test]
    fn time_unit_flags_literal_arithmetic_not_scaling() {
        let v = active("fn f(deadline_ns: u64) -> u64 { deadline_ns + 500 }\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::TimeUnit);
        // Scaling and zero-checks are fine.
        let ok = "fn f(t_ns: u64) -> bool { t_ns * 2 > other_ns && t_ns != 0 }\n";
        assert!(active(ok).is_empty());
    }

    #[test]
    fn from_nanos_large_literal_flagged() {
        let v = active("let d = SimDuration::from_nanos(5000);\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::TimeUnit);
        assert!(active("let d = SimDuration::from_nanos(750);\n").is_empty());
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in Rule::ALL {
            assert_eq!(Rule::from_id(r.id()), Some(r));
        }
        assert_eq!(Rule::from_id("wall-clock"), None);
    }
}
