//! A dependency-free Rust tokenizer.
//!
//! The lexer produces a token stream (idents, lifetimes, numeric
//! literals with float/int kind, string/char literals, multi-character
//! operators) plus per-line comment text for pragma parsing. Rules match
//! token *sequences*, so an expression split across lines still matches,
//! identifiers that merely *contain* a needle (`my_partial_cmp`) do not,
//! and nothing inside a literal or a comment ever fires.
//!
//! The tests pin three edge-case families that a character-level
//! masker misclassifies:
//!
//! * **raw strings vs. lifetimes** — `'r"x"` (a lifetime immediately
//!   followed by a string literal, as appears in `macro_rules!`
//!   matchers) must not be consumed as a raw string `r"…"`, swallowing
//!   following code;
//! * **escaped-quote char literals** — `'\''` must not leave the closing
//!   quote behind as a phantom lifetime token;
//! * **nested block comments** — per-line comment text keeps the
//!   nested `*/` delimiter and emits no phantom comment entries for
//!   lines where a multi-line comment merely continues, so pragmas
//!   inside nested comments are attributed to the right line.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`match`, `enum`, `as`, names, …).
    Ident,
    /// A lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Integer literal (`42`, `0xff`, `1_000u64`).
    Int,
    /// Float literal (`1.0`, `1e9`, `2f64`).
    Float,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    Str,
    /// Char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation / operator, possibly multi-character (`::`, `=>`).
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Classification.
    pub kind: TokKind,
    /// Token text. Empty for `Str`/`Char` (contents are literal data
    /// the rules must never match against); for `Int`/`Float`, the
    /// digits without `_` separators or suffix (rules compare values).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Tok {
    /// Whether this token is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Whether this token is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// A lexed source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// The token stream, literal contents stripped.
    pub tokens: Vec<Tok>,
    /// Comment text by 1-based line: every comment that *covers* part
    /// of a line contributes its text for that line, so pragmas in
    /// line comments, block comments, and the interior lines of
    /// multi-line block comments are all findable by line.
    pub comments: Vec<(u32, String)>,
}

impl Lexed {
    /// All comment text attributed to `line`.
    pub fn comments_on(&self, line: u32) -> impl Iterator<Item = &str> {
        self.comments
            .iter()
            .filter(move |(l, _)| *l == line)
            .map(|(_, t)| t.as_str())
    }
}

/// Multi-character operators, longest first so maximal munch holds.
const MULTI_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenizes `src`. Never fails: unrecognized bytes become single-char
/// `Punct` tokens, and unterminated literals/comments run to EOF (the
/// compiler rejects such files anyway; the lexer just stays sane).
pub fn lex(src: &str) -> Lexed {
    Lexer {
        chars: src.chars().collect(),
        i: 0,
        line: 1,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    i: usize,
    line: u32,
    out: Lexed,
}

impl Lexer {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek(0)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Tok { kind, text, line });
    }

    fn run(mut self) -> Lexed {
        while let Some(c) = self.peek(0) {
            if c == '\n' || c.is_whitespace() {
                self.bump();
            } else if c == '/' && self.peek(1) == Some('/') {
                self.line_comment();
            } else if c == '/' && self.peek(1) == Some('*') {
                self.block_comment();
            } else if c == '"' {
                self.string();
            } else if let Some((prefix_len, hashes)) = self.raw_string_start() {
                self.raw_string(prefix_len, hashes);
            } else if c == 'b' && matches!(self.peek(1), Some('"') | Some('\'')) {
                // Byte string / byte char: consume the prefix, then the
                // literal proper.
                self.bump();
                if self.peek(0) == Some('"') {
                    self.string();
                } else {
                    self.char_or_lifetime();
                }
            } else if c == '\'' {
                self.char_or_lifetime();
            } else if c.is_ascii_digit() {
                self.number();
            } else if is_ident_start(c) {
                self.ident();
            } else {
                self.punct();
            }
        }
        self.out
    }

    fn line_comment(&mut self) {
        let line = self.line;
        self.bump();
        self.bump();
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.out.comments.push((line, text));
    }

    /// Nested block comment; text is attributed per line so pragmas on
    /// interior lines of a multi-line comment resolve to their own
    /// line. Nested delimiters are preserved in the text.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        let mut seg = String::new();
        let mut seg_line = self.line;
        while depth > 0 {
            match self.peek(0) {
                None => break,
                Some('\n') => {
                    if !seg.trim().is_empty() {
                        self.out.comments.push((seg_line, std::mem::take(&mut seg)));
                    } else {
                        seg.clear();
                    }
                    self.bump();
                    seg_line = self.line;
                }
                Some('*') if self.peek(1) == Some('/') => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                    if depth > 0 {
                        seg.push_str("*/");
                    }
                }
                Some('/') if self.peek(1) == Some('*') => {
                    depth += 1;
                    seg.push_str("/*");
                    self.bump();
                    self.bump();
                }
                Some(c) => {
                    seg.push(c);
                    self.bump();
                }
            }
        }
        if !seg.trim().is_empty() {
            self.out.comments.push((seg_line, seg));
        }
    }

    /// A `"…"` string with escapes (the opening quote is current).
    fn string(&mut self) {
        let line = self.line;
        self.bump();
        while let Some(c) = self.bump() {
            if c == '\\' {
                self.bump();
            } else if c == '"' {
                break;
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    /// If the cursor starts a raw (byte) string literal, returns
    /// `(prefix_len_through_quote, hash_count)`.
    fn raw_string_start(&self) -> Option<(usize, u32)> {
        let mut j = 0usize;
        if self.peek(j) == Some('b') {
            j += 1;
        }
        if self.peek(j) != Some('r') {
            return None;
        }
        // `r` must begin the token: `var"` and `br` inside an ident are
        // handled by the ident path, and a preceding lifetime (`'r"x"`)
        // is handled by char_or_lifetime before we ever get here.
        j += 1;
        let mut hashes = 0u32;
        while self.peek(j) == Some('#') {
            hashes += 1;
            j += 1;
        }
        if self.peek(j) == Some('"') {
            Some((j + 1, hashes))
        } else {
            None
        }
    }

    fn raw_string(&mut self, prefix_len: usize, hashes: u32) {
        let line = self.line;
        for _ in 0..prefix_len {
            self.bump();
        }
        'outer: while let Some(c) = self.bump() {
            if c == '"' {
                for k in 0..hashes as usize {
                    if self.peek(k) != Some('#') {
                        continue 'outer;
                    }
                }
                for _ in 0..hashes {
                    self.bump();
                }
                break;
            }
        }
        self.push(TokKind::Str, String::new(), line);
    }

    /// Disambiguates `'a` (lifetime) from `'x'` / `'\n'` (char
    /// literal). The opening `'` is current. Rust's rule: a char
    /// literal always has a closing quote; a lifetime is `'` + ident
    /// with no closing quote.
    fn char_or_lifetime(&mut self) {
        let line = self.line;
        self.bump(); // the opening '
        match self.peek(0) {
            Some('\\') => {
                // Escaped char literal: consume the escape, then
                // everything up to and including the closing quote
                // (covers \' \\ \xNN \u{…}).
                self.bump();
                self.bump(); // the escape selector char (', \, n, x, u, …)
                while let Some(c) = self.peek(0) {
                    if c == '\'' {
                        self.bump();
                        break;
                    }
                    self.bump();
                }
                self.push(TokKind::Char, String::new(), line);
            }
            Some(c) if self.peek(1) == Some('\'') => {
                // 'x' — a one-char literal (any char, incl. '/' or '"').
                let _ = c;
                self.bump();
                self.bump();
                self.push(TokKind::Char, String::new(), line);
            }
            Some(c) if is_ident_start(c) => {
                // A lifetime: consume the ident. (If it were a char
                // literal the previous arm would have taken it.)
                let mut text = String::new();
                while let Some(c) = self.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    self.bump();
                }
                self.push(TokKind::Lifetime, text, line);
            }
            _ => {
                // Stray quote (invalid Rust); emit as punctuation.
                self.push(TokKind::Punct, "'".to_string(), line);
            }
        }
    }

    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        let mut kind = TokKind::Int;
        if self.peek(0) == Some('0') && matches!(self.peek(1), Some('x') | Some('o') | Some('b')) {
            // Radix literal: 0x/0o/0b digits (+ `_`), then a suffix.
            self.bump();
            self.bump();
            while let Some(c) = self.peek(0) {
                if c.is_ascii_alphanumeric() || c == '_' {
                    self.bump();
                } else {
                    break;
                }
            }
            // Value rarely matters for radix literals; keep it empty.
            self.push(TokKind::Int, String::new(), line);
            return;
        }
        while let Some(c) = self.peek(0) {
            if c.is_ascii_digit() {
                text.push(c);
                self.bump();
            } else if c == '_' {
                self.bump();
            } else {
                break;
            }
        }
        // Fractional part: a `.` followed by a digit (or by nothing
        // ident-like — `1.` is a float, `1..2` a range, `1.max` a
        // method call).
        if self.peek(0) == Some('.') {
            match self.peek(1) {
                Some(c) if c.is_ascii_digit() => {
                    kind = TokKind::Float;
                    text.push('.');
                    self.bump();
                    while let Some(c) = self.peek(0) {
                        if c.is_ascii_digit() {
                            text.push(c);
                            self.bump();
                        } else if c == '_' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                Some('.') => {}
                Some(c) if is_ident_start(c) => {}
                _ => {
                    kind = TokKind::Float;
                    text.push('.');
                    self.bump();
                }
            }
        }
        // Exponent.
        if matches!(self.peek(0), Some('e') | Some('E')) {
            let sign = matches!(self.peek(1), Some('+') | Some('-'));
            let digit_at = if sign { 2 } else { 1 };
            if matches!(self.peek(digit_at), Some(c) if c.is_ascii_digit()) {
                kind = TokKind::Float;
                text.push(self.bump().unwrap_or('e'));
                if sign {
                    text.push(self.bump().unwrap_or('+'));
                }
                while let Some(c) = self.peek(0) {
                    if c.is_ascii_digit() {
                        text.push(c);
                        self.bump();
                    } else if c == '_' {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        // Suffix (`u64`, `f64`, …) — a float suffix flips the kind.
        if matches!(self.peek(0), Some(c) if is_ident_start(c)) {
            let mut suffix = String::new();
            while let Some(c) = self.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                suffix.push(c);
                self.bump();
            }
            if suffix == "f32" || suffix == "f64" {
                kind = TokKind::Float;
            }
        }
        self.push(kind, text, line);
    }

    fn ident(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if !is_ident_continue(c) {
                break;
            }
            text.push(c);
            self.bump();
        }
        // Raw identifier `r#match`: the ident path never sees it (the
        // raw-string probe requires a quote after the hashes), so `r`
        // followed by `#` must be glued here.
        if text == "r"
            && self.peek(0) == Some('#')
            && matches!(self.peek(1), Some(c) if is_ident_start(c))
        {
            self.bump(); // '#'
            text.clear();
            while let Some(c) = self.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(c);
                self.bump();
            }
        }
        self.push(TokKind::Ident, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        for op in MULTI_PUNCT {
            if self
                .chars
                .get(self.i..self.i + op.len())
                .map(|w| w.iter().collect::<String>() == **op)
                .unwrap_or(false)
            {
                for _ in 0..op.len() {
                    self.bump();
                }
                self.push(TokKind::Punct, (*op).to_string(), line);
                return;
            }
        }
        let c = self.bump().unwrap_or(' ');
        self.push(TokKind::Punct, c.to_string(), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_ops_and_lines() {
        let l = lex("let x = a::b;\nx += 1;");
        let texts: Vec<&str> = l.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["let", "x", "=", "a", "::", "b", ";", "x", "+=", "1", ";"]
        );
        assert_eq!(l.tokens[0].line, 1);
        assert_eq!(l.tokens[7].line, 2);
    }

    #[test]
    fn string_contents_never_tokenize() {
        let toks = kinds(r#"let s = "Instant::now() { HashMap }";"#);
        assert!(toks.iter().all(|(_, t)| t != "HashMap" && t != "Instant"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 1);
    }

    #[test]
    fn raw_strings_close_on_matching_hashes() {
        let toks = kinds(r###"let s = r#"thread_rng "inner" }"#; fin();"###);
        assert!(toks.iter().all(|(_, t)| t != "thread_rng"));
        assert!(toks.iter().any(|(_, t)| t == "fin"));
    }

    #[test]
    fn lifetime_then_string_is_not_a_raw_string() {
        // The old masker consumed `'r"x" swallowed` as a raw string.
        let toks = kinds(r#"m!('r"x" swallowed);"#);
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "r"));
        assert!(toks.iter().any(|(_, t)| t == "swallowed"));
    }

    #[test]
    fn escaped_quote_char_literal_has_no_phantom_lifetime() {
        // The old masker left the closing quote of '\'' behind.
        let l = lex(r"let q = '\''; let h = x;");
        assert!(l.tokens.iter().all(|t| t.kind != TokKind::Lifetime));
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            1
        );
        assert!(l.tokens.iter().any(|t| t.is_ident("h")));
    }

    #[test]
    fn char_literals_with_slashes_do_not_open_comments() {
        let l = lex("let a = ['/', '/']; let live = 1;");
        assert!(l.tokens.iter().any(|t| t.is_ident("live")));
        assert!(l.comments.is_empty());
        assert_eq!(
            l.tokens.iter().filter(|t| t.kind == TokKind::Char).count(),
            2
        );
    }

    #[test]
    fn nested_block_comments_attribute_text_per_line() {
        let l = lex("a();\n/* one\n two /* nested */ end */ b();\nc();");
        assert!(l.tokens.iter().any(|t| t.is_ident("b")));
        assert!(l.tokens.iter().any(|t| t.is_ident("c")));
        let line2: Vec<&str> = l.comments_on(2).collect();
        assert_eq!(line2, vec![" one"]);
        let line3: Vec<&str> = l.comments_on(3).collect();
        assert_eq!(line3.len(), 1);
        // The nested delimiters survive in the text.
        assert!(line3[0].contains("/* nested */"));
        // No phantom empty comments on code-only lines.
        assert!(l.comments_on(1).next().is_none());
    }

    #[test]
    fn numbers_classify_int_vs_float() {
        let toks = kinds("1 + 2.5 - 1e9 * 0xff / 3f64 % 1_000u64 .. 7.max(1.)");
        let floats = toks.iter().filter(|(k, _)| *k == TokKind::Float).count();
        let ints = toks.iter().filter(|(k, _)| *k == TokKind::Int).count();
        assert_eq!(floats, 4, "{toks:?}"); // 2.5, 1e9, 3f64, 1.
        assert_eq!(ints, 4, "{toks:?}"); // 1, 0xff, 1_000u64, 7
        assert!(toks.iter().any(|(_, t)| t == "1000"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let toks =
            kinds("fn f<'a>(x: &'a str) { let c = '{'; let d = '\\n'; matches!(c, '0'..='9') }");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Lifetime && t == "a"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 4);
        // The brace in the char literal never tokenizes.
        let opens = toks.iter().filter(|(_, t)| t == "{").count();
        let closes = toks.iter().filter(|(_, t)| t == "}").count();
        assert_eq!(opens, 1);
        assert_eq!(closes, 1);
    }

    #[test]
    fn raw_identifiers_lex_as_idents() {
        let toks = kinds("let r#match = 1; r#true");
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "match"));
        assert!(toks
            .iter()
            .any(|(k, t)| *k == TokKind::Ident && t == "true"));
    }

    #[test]
    fn byte_strings_and_byte_chars() {
        let toks = kinds(r##"let a = b"HashMap"; let c = b'/'; let r = br#"x"#;"##);
        assert!(toks.iter().all(|(_, t)| t != "HashMap"));
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Str).count(), 2);
        assert_eq!(toks.iter().filter(|(k, _)| *k == TokKind::Char).count(), 1);
    }

    #[test]
    fn line_comments_collect_text() {
        let l = lex("let x = 1; // HashMap here\nlet y = 2;");
        assert_eq!(l.comments, vec![(1, " HashMap here".to_string())]);
        assert!(l.tokens.iter().all(|t| t.text != "HashMap"));
    }
}
