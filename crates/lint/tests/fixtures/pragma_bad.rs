// bad-pragma fixture: pragmas that must not suppress anything.
fn nope(xs: &[f64], deadline_ns: u64) -> u64 {
    // bm-lint: allow(float-determinism)
    let s = xs.iter().sum::<f64>();
    // bm-lint: allow(no-such-rule): justification present but rule unknown
    let t = deadline_ns + 500;
    // bm-lint: allow(panic-path): moved to clippy, so it names no bm-lint rule
    s as u64 + t
}
