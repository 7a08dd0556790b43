//! Pass 1: the workspace-wide symbol table.
//!
//! Before any rule runs, every workspace file is lexed once and
//! harvested for the symbols that cross-file rules need:
//!
//! **enum definitions** with their variant lists, so the
//! enum-exhaustiveness rule can resolve `match` arms in one crate
//! against a definition in another.
//!
//! The table is deterministic (BTreeMap, files visited in sorted
//! order) so reports and baselines never depend on walk order.

use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeMap;

/// An enum definition somewhere in the workspace.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Enum name (last path segment).
    pub name: String,
    /// Crate the definition lives in.
    pub crate_id: String,
    /// Workspace-relative path of the defining file.
    pub path: String,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
}

/// The cross-file symbol table rules run against.
#[derive(Debug, Default)]
pub struct SymbolTable {
    /// Enum name → all definitions with that name (normally one; the
    /// exhaustiveness rule disambiguates collisions by variant set).
    pub enums: BTreeMap<String, Vec<EnumDef>>,
}

impl SymbolTable {
    /// Resolves `name` to the definition best matching `seen` variants
    /// (ties and misses fall back to the first definition).
    pub fn resolve_enum(&self, name: &str, seen: &[String]) -> Option<&EnumDef> {
        let defs = self.enums.get(name)?;
        defs.iter()
            .max_by_key(|d| seen.iter().filter(|v| d.variants.contains(v)).count())
            .or_else(|| defs.first())
    }

    /// Harvests one lexed file into the table.
    pub fn harvest(&mut self, rel_path: &str, crate_id: &str, lexed: &Lexed) {
        let toks = &lexed.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_ident("enum") && !prev_is_path_sep(toks, i) {
                if let Some(next) = advance_enum(toks, i, rel_path, crate_id) {
                    self.enums
                        .entry(next.0.name.clone())
                        .or_default()
                        .push(next.0);
                    i = next.1;
                    continue;
                }
            }
            i += 1;
        }
    }
}

/// Whether `toks[i]` is preceded by `::` (a path segment, not a
/// keyword use).
fn prev_is_path_sep(toks: &[Tok], i: usize) -> bool {
    i > 0 && toks[i - 1].is_punct("::")
}

/// Parses `enum Name<…> { V1, V2(…), V3 {…} = d, … }` starting at the
/// `enum` keyword. Returns the definition and the index just past the
/// closing brace.
fn advance_enum(
    toks: &[Tok],
    at: usize,
    rel_path: &str,
    crate_id: &str,
) -> Option<(EnumDef, usize)> {
    let mut i = at + 1;
    let name_tok = toks.get(i)?;
    if name_tok.kind != TokKind::Ident {
        return None;
    }
    let name = name_tok.text.clone();
    let line = toks[at].line;
    i += 1;
    // Skip generics: count `<`/`>` (the lexer never emits `->`/`>>`
    // here except `>>` closing nested generics, which counts double).
    if toks.get(i).map(|t| t.is_punct("<")).unwrap_or(false) {
        let mut depth = 0i32;
        while let Some(t) = toks.get(i) {
            match t.text.as_str() {
                "<" | "<<" if t.kind == TokKind::Punct => depth += t.text.len() as i32,
                ">" | ">>" if t.kind == TokKind::Punct => depth -= t.text.len() as i32,
                _ => {}
            }
            i += 1;
            if depth <= 0 {
                break;
            }
        }
    }
    // Skip a `where` clause.
    while let Some(t) = toks.get(i) {
        if t.is_punct("{") {
            break;
        }
        if t.is_punct(";") {
            return None;
        }
        i += 1;
    }
    if !toks.get(i)?.is_punct("{") {
        return None;
    }
    i += 1;
    let mut variants = Vec::new();
    let mut depth = 1i32; // depth of any bracket kind inside the body
    let mut expect_variant = true;
    while let Some(t) = toks.get(i) {
        match t.text.as_str() {
            "{" | "(" | "[" if t.kind == TokKind::Punct => depth += 1,
            "}" | ")" | "]" if t.kind == TokKind::Punct => {
                depth -= 1;
                if depth == 0 {
                    return Some((
                        EnumDef {
                            name,
                            crate_id: crate_id.to_string(),
                            path: rel_path.to_string(),
                            line,
                            variants,
                        },
                        i + 1,
                    ));
                }
            }
            "," if t.kind == TokKind::Punct && depth == 1 => expect_variant = true,
            "#" if t.kind == TokKind::Punct && depth == 1 => {
                // Skip the attribute's bracket group.
                i += 1;
                if toks.get(i).map(|t| t.is_punct("[")).unwrap_or(false) {
                    let mut d = 0i32;
                    while let Some(a) = toks.get(i) {
                        match a.text.as_str() {
                            "[" if a.kind == TokKind::Punct => d += 1,
                            "]" if a.kind == TokKind::Punct => d -= 1,
                            _ => {}
                        }
                        i += 1;
                        if d == 0 {
                            break;
                        }
                    }
                }
                continue;
            }
            _ => {
                if expect_variant && t.kind == TokKind::Ident && depth == 1 {
                    variants.push(t.text.clone());
                    expect_variant = false;
                }
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn table_of(src: &str) -> SymbolTable {
        let mut t = SymbolTable::default();
        t.harvest("x.rs", "core", &lex(src));
        t
    }

    #[test]
    fn harvests_enum_variants_with_payloads() {
        let t = table_of(
            "#[derive(Debug)]\npub enum Effect {\n  ScheduleAt { at: SimTime, stage: Stage },\n  Forward(usize, u32),\n  #[doc = \"x\"]\n  Done,\n}\n",
        );
        let def = &t.enums["Effect"][0];
        assert_eq!(def.variants, vec!["ScheduleAt", "Forward", "Done"]);
        assert_eq!(def.line, 2);
    }

    #[test]
    fn harvests_generic_enums_and_discriminants() {
        let t = table_of("enum E<T: Clone, U = Vec<u8>> { A = 1, B(T), C { u: U } }");
        assert_eq!(t.enums["E"][0].variants, vec!["A", "B", "C"]);
    }

    #[test]
    fn nested_enum_in_fn_body_is_found_and_outer_scan_continues() {
        let t = table_of("fn f() { enum Inner { X, Y } }\nenum Outer { Z }");
        assert_eq!(t.enums["Inner"][0].variants, vec!["X", "Y"]);
        assert_eq!(t.enums["Outer"][0].variants, vec!["Z"]);
    }

    #[test]
    fn resolve_prefers_matching_variant_set() {
        let mut t = SymbolTable::default();
        t.harvest("a.rs", "a", &lex("enum Dup { A, B }"));
        t.harvest("b.rs", "b", &lex("enum Dup { X, Y }"));
        let d = t.resolve_enum("Dup", &["X".to_string()]).unwrap();
        assert_eq!(d.crate_id, "b");
    }
}
