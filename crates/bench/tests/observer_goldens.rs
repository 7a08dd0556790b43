//! Golden outputs of the observer exports: the telemetry report, the
//! SLO incident report and the metrics exposition must stay byte for
//! byte what the committed files under `tests/golden/` say. The
//! simulation is deterministic, so any diff is a behaviour or format
//! change, and a change that means it regenerates the file with the
//! command the failure prints and explains the diff.

use std::process::Command;

/// Runs `bin` with `args` and diffs its stdout against `golden`.
fn assert_golden(bin: &str, args: &[&str], golden: &str) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(out.status.success(), "{bin} {args:?} exited {}", out.status);
    let path = format!("{}/tests/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let got = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if got == want {
        return;
    }
    let name = bin.rsplit('/').next().unwrap_or(bin);
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "{name} {args:?} differs from tests/golden/{golden} at line {}:\n  got:  {:?}\n  want: {:?}\n\
         regenerate with: cargo run --release -q -p bm-bench --bin {name} -- {} > crates/bench/tests/golden/{golden}",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of output>"),
        args.join(" "),
    );
}

#[test]
fn telemetry_report_quick_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_telemetry_report"),
        &["--quick"],
        "telemetry_report_quick.txt",
    );
}

#[test]
fn slo_incident_report_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        &["slo"],
        "bmstore_cli_slo.txt",
    );
}

#[test]
fn metrics_exposition_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        &["metrics", "--scheme", "bm-store"],
        "bmstore_cli_metrics_bm-store.txt",
    );
}
