//! `bmstore_cli` and `telemetry_report` reject arguments they cannot
//! run: each prints the usage and exits 2 before a run starts, instead
//! of panicking in the PRP builder, the engine's chunk allocator or the
//! vhost model, or silently running something else (a different size,
//! or nothing at all and reporting 0 IOPS). A size `bmstore_cli` runs
//! but whose I/Os fail is reported and exits 1. An output file that
//! cannot be written is reported, and exits 2, before the run.

use std::process::Command;

/// Runs `bin` with each argument list and asserts usage, exit 2 and no
/// panic.
fn assert_usage_exit(bin: &str, cases: &[&[&str]]) {
    for args in cases {
        let out = Command::new(bin)
            .args(*args)
            .output()
            .unwrap_or_else(|e| panic!("{bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn bad_arguments_exit_with_usage_instead_of_panicking() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        &[
            &["--bs", "0"],
            &["--bs", "1000"],
            &["--scheme", "bm-store", "--ssds", "0"],
            &["--scheme", "bm-store", "--ssds", "9"],
            &["--iodepth", "0"],
            &["--numjobs", "0"],
            &["--runtime-ms", "0"],
            &["--rw", "rw:2"],
            &["--rw", "rw:-1"],
            &["--rw", "rw:NaN"],
            &["--scheme", "spdk:0"],
            &["--scheme", "spdk:49"],
            &["--runtime-ms", "5", "--out", "/nonexistent/dir/x.prom"],
        ],
    );
}

#[test]
fn telemetry_report_bad_arguments_exit_with_usage() {
    assert_usage_exit(
        env!("CARGO_BIN_EXE_telemetry_report"),
        &[&["--bogus"], &["--trace"], &["--quick", "--jsonl"]],
    );
}

#[test]
fn telemetry_report_unwritable_output_exits_before_the_run() {
    let bin = env!("CARGO_BIN_EXE_telemetry_report");
    for flag in ["--trace", "--jsonl"] {
        let args = ["--quick", flag, "/nonexistent/dir/t.json"];
        let out = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("{bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.contains("cannot write /nonexistent/dir/t.json"),
            "{args:?}: {stderr}"
        );
        // Nothing ran: the report's table never started.
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn failed_ios_are_counted_and_fail_the_run() {
    // A 4 MiB command is longer than BM-Store forwards in one command,
    // so the engine fails each one; a 4 KiB run is clean.
    let bin = env!("CARGO_BIN_EXE_bmstore_cli");
    for (bs, code) in [("4194304", 1), ("4096", 0)] {
        let args = ["--scheme", "bm-store", "--bs", bs, "--runtime-ms", "5"];
        let out = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("{bin}: {e}"));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(code), "{args:?}: {stdout}");
        assert_eq!(stdout.contains("failed: "), code == 1, "{args:?}: {stdout}");
    }
}
