// Negative fixture: needles in comments and strings must not fire.
// A comment mentioning a.partial_cmp(&b), deadline_ns + 500 and x > 0.95.
fn clean() -> &'static str {
    let s = "xs.iter().sum::<f64>() + lat_ns as f64 + from_nanos(5000)";
    /* block comment: t_ns - 250 < limit_ns, xs.iter().fold(0.0, f) */
    s
}
