//! Profile exports: folded stacks, a stable-schema JSON report, and a
//! top-k text table.
//!
//! The folded format is one line per scope path — escaped segments
//! joined with `;`, a space, then the scaled self-nanoseconds — which
//! is exactly what `flamegraph.pl` / inferno consume. Lines are in
//! deterministic path-sorted order and their values sum to the
//! measured run total (see the crate docs for the scaling argument).
//!
//! The JSON report is schema-versioned (`"schema": 1`) and written by
//! hand in fixed field order; [`parse_json`] is the matching minimal
//! validating parser, which `tests/prof.rs` uses to prove the report
//! stays machine-readable.

use crate::{ScopeStat, Snapshot};

/// Escapes one path segment for the folded format: `;` (the frame
/// separator) becomes `:`, whitespace (the count separator) becomes
/// `_`.
pub fn escape_seg(seg: &str) -> String {
    seg.chars()
        .map(|c| match c {
            ';' => ':',
            c if c.is_whitespace() => '_',
            c => c,
        })
        .collect()
}

/// Renders the folded-stack export: `a;b;c <self_ns>` per scope, in
/// deterministic path order. Zero-valued scopes are kept so the key
/// set is stride-independent.
pub fn folded(snap: &Snapshot) -> String {
    let mut out = String::new();
    for scope in &snap.scopes {
        out.push_str(&scope.key());
        out.push(' ');
        out.push_str(&scope.self_ns.to_string());
        out.push('\n');
    }
    out
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders the JSON report (schema 1). Fields are written in a fixed
/// order so the output is byte-stable for a given snapshot.
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": 1,\n");
    out.push_str(&format!("  \"total_run_ns\": {},\n", snap.total_run_ns));
    out.push_str(&format!("  \"timed_self_ns\": {},\n", snap.timed_self_ns));
    out.push_str(&format!("  \"timing_stride\": {},\n", snap.timing_stride));
    out.push_str(&format!("  \"events\": {},\n", snap.events));
    out.push_str("  \"scopes\": [\n");
    for (i, s) in snap.scopes.iter().enumerate() {
        out.push_str("    {\"path\": ");
        push_json_str(&mut out, &s.key());
        out.push_str(&format!(
            ", \"count\": {}, \"timed_count\": {}, \"self_ns\": {}, \"total_ns\": {}, \"max_ns\": {}, \"allocs\": {}, \"alloc_bytes\": {}}}{}\n",
            s.count,
            s.timed_count,
            s.self_ns,
            s.total_ns,
            s.max_ns,
            s.allocs,
            s.alloc_bytes,
            if i + 1 < snap.scopes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"timeline\": [\n");
    for (i, p) in snap.samples.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"wall_ns\": {}, \"events_fired\": {}, \"arena_slots\": {}}}{}\n",
            p.wall_ns,
            p.events_fired,
            p.arena_slots,
            if i + 1 < snap.samples.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

/// What [`parse_json`] extracts — enough for the export test's claims
/// (schema version, ns accounting, non-empty scope set).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedReport {
    /// Schema version (must be 1).
    pub schema: u64,
    /// Measured dispatch wall time.
    pub total_run_ns: u64,
    /// Events retired.
    pub events: u64,
    /// Sum of `self_ns` over all scopes.
    pub self_ns_sum: u64,
    /// Number of scope entries.
    pub scope_count: usize,
    /// Number of timeline points.
    pub sample_count: usize,
}

/// Minimal validating parser for the schema-1 report. Strict about
/// structure (objects, arrays, strings, unsigned integers — the full
/// grammar [`render_json`] emits) and about required fields.
///
/// # Errors
///
/// Returns a human-readable description of the first structural or
/// schema problem found.
pub fn parse_json(text: &str) -> Result<ParsedReport, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    let obj = value.as_object("top level")?;
    let schema = obj.field_u64("schema")?;
    if schema != 1 {
        return Err(format!("unsupported prof report schema {schema}"));
    }
    let total_run_ns = obj.field_u64("total_run_ns")?;
    obj.field_u64("timed_self_ns")?;
    let stride = obj.field_u64("timing_stride")?;
    if stride == 0 {
        return Err("timing_stride must be >= 1".to_string());
    }
    let events = obj.field_u64("events")?;
    let scopes = obj.field("scopes")?.as_array("scopes")?;
    let mut self_ns_sum = 0u64;
    for (i, s) in scopes.iter().enumerate() {
        let s = s.as_object(&format!("scopes[{i}]"))?;
        let Value::Str(path) = s.field("path")? else {
            return Err(format!("scopes[{i}].path is not a string"));
        };
        if path.is_empty() {
            return Err(format!("scopes[{i}].path is empty"));
        }
        for key in [
            "count",
            "timed_count",
            "self_ns",
            "total_ns",
            "max_ns",
            "allocs",
            "alloc_bytes",
        ] {
            s.field_u64(key).map_err(|e| format!("scopes[{i}]: {e}"))?;
        }
        self_ns_sum += s.field_u64("self_ns")?;
    }
    let timeline = obj.field("timeline")?.as_array("timeline")?;
    for (i, t) in timeline.iter().enumerate() {
        let t = t.as_object(&format!("timeline[{i}]"))?;
        for key in ["wall_ns", "events_fired", "arena_slots"] {
            t.field_u64(key)
                .map_err(|e| format!("timeline[{i}]: {e}"))?;
        }
    }
    Ok(ParsedReport {
        schema,
        total_run_ns,
        events,
        self_ns_sum,
        scope_count: scopes.len(),
        sample_count: timeline.len(),
    })
}

enum Value {
    Num(u64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn as_object(&self, what: &str) -> Result<&Vec<(String, Value)>, String> {
        match self {
            Value::Object(fields) => Ok(fields),
            _ => Err(format!("{what} is not an object")),
        }
    }

    fn as_array(&self, what: &str) -> Result<&Vec<Value>, String> {
        match self {
            Value::Array(items) => Ok(items),
            _ => Err(format!("{what} is not an array")),
        }
    }
}

trait ObjectExt {
    fn field(&self, name: &str) -> Result<&Value, String>;
    fn field_u64(&self, name: &str) -> Result<u64, String>;
}

impl ObjectExt for Vec<(String, Value)> {
    fn field(&self, name: &str) -> Result<&Value, String> {
        self.iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field \"{name}\""))
    }

    fn field_u64(&self, name: &str) -> Result<u64, String> {
        match self.field(name)? {
            Value::Num(n) => Ok(*n),
            _ => Err(format!("field \"{name}\" is not an unsigned integer")),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(code).ok_or("bad \\u escape")?);
                            self.pos += 4;
                        }
                        other => {
                            return Err(format!(
                                "unsupported escape {:?} at byte {}",
                                other.map(|b| *b as char),
                                self.pos
                            ))
                        }
                    }
                    self.pos += 1;
                }
                Some(&b) => {
                    out.push(b as char);
                    self.pos += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<u64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }
}

/// Renders the top-`k` scopes by scaled self time as an aligned text
/// table (plus a totals line). Ties break on path, so the rendering is
/// deterministic.
pub fn top_table(snap: &Snapshot, k: usize) -> String {
    let mut by_self: Vec<&ScopeStat> = snap.scopes.iter().collect();
    by_self.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.path.cmp(&b.path)));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>12} {:>10} {:>6} {:>10} {:>9} {:>10}\n",
        "scope", "count", "self ms", "self%", "total ms", "max us", "allocs"
    ));
    for s in by_self.iter().take(k) {
        let pct = if snap.total_run_ns > 0 {
            s.self_ns as f64 * 100.0 / snap.total_run_ns as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<44} {:>12} {:>10.3} {:>6.1} {:>10.3} {:>9.1} {:>10}\n",
            s.key(),
            s.count,
            s.self_ns as f64 / 1e6,
            pct,
            s.total_ns as f64 / 1e6,
            s.max_ns as f64 / 1e3,
            s.allocs,
        ));
    }
    out.push_str(&format!(
        "total: {:.3} ms dispatch, {} events, {:.0} events/s, {} scopes, {} samples\n",
        snap.total_run_ns as f64 / 1e6,
        snap.events,
        if snap.total_run_ns > 0 {
            snap.events as f64 / (snap.total_run_ns as f64 / 1e9)
        } else {
            0.0
        },
        snap.scopes.len(),
        snap.samples.len(),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    fn scope(path: &[&str], self_ns: u64) -> ScopeStat {
        ScopeStat {
            path: path.iter().map(|s| s.to_string()).collect(),
            count: 2,
            timed_count: 1,
            self_ns,
            total_ns: self_ns,
            max_ns: self_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    fn sample_snapshot() -> Snapshot {
        Snapshot {
            total_run_ns: 600,
            timed_self_ns: 600,
            timing_stride: 1,
            events: 3,
            scopes: vec![
                scope(&["client"], 100),
                scope(&["stage"], 200),
                scope(&["stage", "Doorbell"], 300),
            ],
            samples: vec![
                Sample {
                    wall_ns: 10,
                    events_fired: 1,
                    arena_slots: 4,
                },
                Sample {
                    wall_ns: 20,
                    events_fired: 3,
                    arena_slots: 4,
                },
            ],
        }
    }

    #[test]
    fn folded_lines_are_sorted_and_sum_to_total() {
        let text = folded(&sample_snapshot());
        assert_eq!(text, "client 100\nstage 200\nstage;Doorbell 300\n");
        let sum: u64 = text
            .lines()
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(sum, 600);
    }

    #[test]
    fn folded_escapes_separator_and_whitespace() {
        assert_eq!(escape_seg("a;b c"), "a:b_c");
        assert_eq!(escape_seg("tab\there"), "tab_here");
        let mut snap = sample_snapshot();
        snap.scopes = vec![scope(&["odd seg;x"], 5)];
        let text = folded(&snap);
        assert_eq!(text, "odd_seg:x 5\n");
        // Each line still splits into exactly (key, value).
        let line = text.lines().next().unwrap();
        assert_eq!(line.split(' ').count(), 2);
    }

    #[test]
    fn json_roundtrips_through_the_validating_parser() {
        let snap = sample_snapshot();
        let text = render_json(&snap);
        let parsed = parse_json(&text).expect("own output parses");
        assert_eq!(parsed.schema, 1);
        assert_eq!(parsed.total_run_ns, 600);
        assert_eq!(parsed.events, 3);
        assert_eq!(parsed.self_ns_sum, 600);
        assert_eq!(parsed.scope_count, 3);
        assert_eq!(parsed.sample_count, 2);
    }

    #[test]
    fn json_parser_rejects_schema_drift() {
        let snap = sample_snapshot();
        let good = render_json(&snap);
        let bad = good.replace("\"schema\": 1", "\"schema\": 2");
        assert!(parse_json(&bad).unwrap_err().contains("schema"));
        let bad = good.replace("\"total_run_ns\"", "\"renamed\"");
        assert!(parse_json(&bad).unwrap_err().contains("total_run_ns"));
        assert!(parse_json("{").is_err());
        assert!(parse_json("").is_err());
    }

    #[test]
    fn json_string_escaping_roundtrips() {
        let mut snap = sample_snapshot();
        snap.scopes = vec![scope(&["quote\"back\\slash"], 7)];
        let text = render_json(&snap);
        let parsed = parse_json(&text).expect("escaped path parses");
        assert_eq!(parsed.scope_count, 1);
        assert_eq!(parsed.self_ns_sum, 7);
    }

    #[test]
    fn top_table_ranks_by_self_time() {
        let table = top_table(&sample_snapshot(), 2);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4, "header + 2 rows + totals:\n{table}");
        assert!(lines[1].starts_with("stage;Doorbell"));
        assert!(lines[2].starts_with("stage "));
        assert!(lines[3].starts_with("total:"));
        assert!(lines[3].contains("3 events"));
    }
}
