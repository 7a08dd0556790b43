//! `bmstore_cli` rejects sizes the simulator cannot run: each prints
//! the usage and exits 2 before a run starts, instead of panicking in
//! the PRP builder or the engine's chunk allocator, or silently running
//! a different size. A size it runs but whose I/Os fail is reported and
//! exits 1.

use std::process::Command;

#[test]
fn bad_sizes_exit_with_usage_instead_of_panicking() {
    let bin = env!("CARGO_BIN_EXE_bmstore_cli");
    for args in [
        &["--bs", "0"][..],
        &["--bs", "1000"],
        &["--scheme", "bm-store", "--ssds", "0"],
        &["--scheme", "bm-store", "--ssds", "9"],
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .unwrap_or_else(|e| panic!("{bin}: {e}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
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
