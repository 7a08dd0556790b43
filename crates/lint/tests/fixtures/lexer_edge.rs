// Negative fixture for the lexer edge cases a character-level masker
// misclassifies: raw strings, nested block comments, and char literals
// containing `/`. Every needle below is literal data — zero findings.
pub fn edges() -> usize {
    let raw = r#"a.partial_cmp(&b) "quoted" deadline_ns + 500"#;
    let nested = 1; /* outer /* x > 0.95 inner */ still comment t_ns + 7 */
    let slash = '/';
    let quote = '\'';
    let bytes = br"lat_ns as f64";
    raw.len() + nested + (slash as usize) + (quote as usize) + bytes.len()
}
