//! Golden outputs: every figure and table binary's `--quick` table, the
//! telemetry report, the SLO incident report and four metrics
//! expositions must stay byte for byte what the committed files under
//! `tests/golden/` say. The simulation is deterministic, so any diff is
//! a behaviour or format change, and a change that means it regenerates
//! the file with the command the failure prints and explains the diff.
//!
//! The metrics goldens pin the simulated envelope of the BM-Store fio
//! cases exactly: IOPS, bandwidth, p50/p99, peak queue depths, peak
//! pending events, events fired and the saturated stage.

use std::process::Command;

/// Runs `bin` with the whitespace-separated `args` and diffs its stdout
/// against `golden`.
fn assert_golden(bin: &str, args: &str, golden: &str) {
    let out = Command::new(bin)
        .args(args.split_whitespace())
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(out.status.success(), "{bin} {args} exited {}", out.status);
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
        "{name} {args} differs from tests/golden/{golden} at line {}:\n  got:  {:?}\n  want: {:?}\n\
         regenerate with: cargo run --release -q -p bm-bench --bin {name} -- {args} > crates/bench/tests/golden/{golden}",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of output>"),
    );
}

#[test]
fn telemetry_report_quick_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_telemetry_report"),
        "--quick",
        "telemetry_report_quick.txt",
    );
}

#[test]
fn slo_incident_report_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        "slo",
        "bmstore_cli_slo.txt",
    );
}

#[test]
fn metrics_exposition_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        "metrics --scheme bm-store",
        "bmstore_cli_metrics_bm-store.txt",
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: scripts/check.sh runs it with --release"
)]
fn metrics_rand_write_qd16_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        "metrics --rw randwrite --iodepth 16",
        "bmstore_cli_metrics_bm-store_randwrite_qd16.txt",
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: scripts/check.sh runs it with --release"
)]
fn metrics_single_vm_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        "metrics --scheme bm-store-vm",
        "bmstore_cli_metrics_bm-store-vm.txt",
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: scripts/check.sh runs it with --release"
)]
fn metrics_four_ssd_seq_read_matches_golden() {
    assert_golden(
        env!("CARGO_BIN_EXE_bmstore_cli"),
        "metrics --ssds 4 --rw seqread --bs 131072 --iodepth 256",
        "bmstore_cli_metrics_bm-store_4ssd_seqread_128k.txt",
    );
}

/// One release-only test per figure and table binary, named after it,
/// diffing its `--quick` stdout against `<bin>_quick.txt`.
macro_rules! quick_goldens {
    ($($bin:ident),* $(,)?) => {
        mod quick {
            $(
                #[test]
                #[cfg_attr(
                    debug_assertions,
                    ignore = "release-only: scripts/check.sh runs it with --release"
                )]
                fn $bin() {
                    super::assert_golden(
                        env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
                        "--quick",
                        concat!(stringify!($bin), "_quick.txt"),
                    );
                }
            )*
        }
    };
}

quick_goldens!(
    fig01_spdk_cores,
    table02_fpga_resources,
    fig08_baremetal,
    table06_os_matrix,
    fig09_vm_perf,
    fig10_scalability,
    fig11_multivm,
    fig12_fairness,
    fig13_mysql,
    fig14_mixed,
    table09_hotupgrade,
    tco_analysis,
    ablation_zerocopy,
    ablation_arm_offload,
);
