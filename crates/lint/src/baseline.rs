//! The ratcheted baseline: existing debt may shrink, never grow.
//!
//! `lint-baseline.toml` is a tiny TOML subset — `[rule-id]` sections
//! with `crate = count` entries — parsed by hand so the lint tool stays
//! dependency-free. Missing entries mean zero, so a crate that is clean
//! today can never regress silently.

use crate::rules::{Rule, Violation};
use std::collections::BTreeMap;

/// Per-`(rule, crate)` violation counts. `BTreeMap` so serialization
/// and reports are deterministic.
pub type Counts = BTreeMap<(String, String), u64>;

/// Aggregates violations into baseline buckets.
pub fn count_violations(violations: &[Violation]) -> Counts {
    let mut counts = Counts::new();
    for v in violations {
        *counts
            .entry((v.rule.id().to_string(), v.crate_id.clone()))
            .or_insert(0) += 1;
    }
    counts
}

/// A parsed baseline file.
#[derive(Debug, Clone, Default)]
pub struct Baseline {
    /// `(rule id, crate) -> allowed count`.
    pub counts: Counts,
}

impl Baseline {
    /// Allowed count for a bucket (absent = 0).
    pub fn allowed(&self, rule: &str, crate_id: &str) -> u64 {
        self.counts
            .get(&(rule.to_string(), crate_id.to_string()))
            .copied()
            .unwrap_or(0)
    }

    /// Parses the `[section]` / `key = int` subset.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on unknown rule
    /// sections, bare keys outside a section, or non-integer values.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut counts = Counts::new();
        let mut section: Option<String> = None;
        for (no, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if Rule::from_id(name).is_none() {
                    return Err(format!("line {}: unknown rule section [{name}]", no + 1));
                }
                section = Some(name.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `crate = count`", no + 1));
            };
            let Some(rule) = section.clone() else {
                return Err(format!("line {}: entry outside a [rule] section", no + 1));
            };
            let count: u64 = value
                .trim()
                .parse()
                .map_err(|_| format!("line {}: count is not an integer", no + 1))?;
            counts.insert((rule, key.trim().to_string()), count);
        }
        Ok(Baseline { counts })
    }

    /// Serializes `counts` in the committed-file format. Zero-count
    /// buckets are omitted, except for `iter-order` in sim-critical
    /// crates, which are written explicitly: R2 at zero *is* the
    /// determinism contract, and the explicit zeros document it.
    pub fn serialize(counts: &Counts) -> String {
        let mut out = String::new();
        out.push_str(
            "# bm-lint ratcheted baseline.\n\
             # Counts are per (rule, crate); absent entries mean zero. CI fails when a\n\
             # count grows; shrink a count here when you pay down debt (or run\n\
             # `cargo run --release -p bm-lint -- tighten`). Never raise one by hand\n\
             # without a justified `bm-lint: allow(...)` alternative being impossible.\n",
        );
        for rule in Rule::ALL {
            out.push('\n');
            out.push_str(&format!("[{}]\n", rule.id()));
            let mut wrote = false;
            if rule == Rule::IterOrder {
                for cr in crate::rules::SIM_CRITICAL {
                    let n = counts
                        .get(&(rule.id().to_string(), (*cr).to_string()))
                        .copied()
                        .unwrap_or(0);
                    out.push_str(&format!("{cr} = {n}\n"));
                    wrote = true;
                }
            }
            for ((r, cr), n) in counts {
                if r == rule.id()
                    && *n > 0
                    && !(rule == Rule::IterOrder
                        && crate::rules::SIM_CRITICAL.contains(&cr.as_str()))
                {
                    out.push_str(&format!("{cr} = {n}\n"));
                    wrote = true;
                }
            }
            if !wrote {
                out.push_str("# clean\n");
            }
        }
        out
    }
}

/// A bucket whose count moved relative to the baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Rule id.
    pub rule: String,
    /// Crate id.
    pub crate_id: String,
    /// Current count.
    pub current: u64,
    /// Baseline (allowed) count.
    pub allowed: u64,
}

/// The ratchet verdict.
#[derive(Debug, Clone, Default)]
pub struct RatchetReport {
    /// Buckets that grew — these fail CI.
    pub regressions: Vec<Delta>,
    /// Buckets that shrank — the baseline can be tightened.
    pub improvements: Vec<Delta>,
}

impl RatchetReport {
    /// Whether the tree passes the ratchet.
    pub fn ok(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares current counts against the baseline.
pub fn ratchet(current: &Counts, baseline: &Baseline) -> RatchetReport {
    let mut report = RatchetReport::default();
    for ((rule, crate_id), &n) in current {
        let allowed = baseline.allowed(rule, crate_id);
        if n > allowed {
            report.regressions.push(Delta {
                rule: rule.clone(),
                crate_id: crate_id.clone(),
                current: n,
                allowed,
            });
        }
    }
    for ((rule, crate_id), &allowed) in &baseline.counts {
        let n = current
            .get(&(rule.clone(), crate_id.clone()))
            .copied()
            .unwrap_or(0);
        if n < allowed {
            report.improvements.push(Delta {
                rule: rule.clone(),
                crate_id: crate_id.clone(),
                current: n,
                allowed,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts_of(entries: &[(&str, &str, u64)]) -> Counts {
        entries
            .iter()
            .map(|(r, c, n)| ((r.to_string(), c.to_string()), *n))
            .collect()
    }

    #[test]
    fn parse_round_trips_serialize() {
        let counts = counts_of(&[("panic-path", "core", 3), ("wall-clock", "host", 1)]);
        let text = Baseline::serialize(&counts);
        let parsed = Baseline::parse(&text).unwrap();
        assert_eq!(parsed.allowed("panic-path", "core"), 3);
        assert_eq!(parsed.allowed("wall-clock", "host"), 1);
        assert_eq!(parsed.allowed("panic-path", "ssd"), 0);
        // Explicit iter-order zeros survive the round trip.
        assert!(text.contains("[iter-order]"));
        assert!(text.contains("sim = 0"));
    }

    #[test]
    fn parse_rejects_unknown_rules_and_garbage() {
        assert!(Baseline::parse("[no-such-rule]\ncore = 1\n").is_err());
        assert!(Baseline::parse("core = 1\n").is_err());
        assert!(Baseline::parse("[panic-path]\ncore = many\n").is_err());
    }

    #[test]
    fn ratchet_flags_growth_and_improvement() {
        let base = Baseline {
            counts: counts_of(&[("panic-path", "core", 3), ("panic-path", "ssd", 2)]),
        };
        let current = counts_of(&[("panic-path", "core", 4), ("panic-path", "ssd", 1)]);
        let report = ratchet(&current, &base);
        assert!(!report.ok());
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].crate_id, "core");
        assert_eq!(report.improvements.len(), 1);
        assert_eq!(report.improvements[0].crate_id, "ssd");
    }

    #[test]
    fn new_bucket_regresses_against_implicit_zero() {
        let base = Baseline::default();
        let current = counts_of(&[("wall-clock", "sim", 1)]);
        assert!(!ratchet(&current, &base).ok());
    }
}
