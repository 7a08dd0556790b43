//! # bm-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` for the index), plus `bmstore_cli` and
//! `telemetry_report`. Every figure binary accepts `--quick` to shorten
//! simulated windows, and prints a paper-vs-measured table; the
//! `--quick` tables are committed goldens (`tests/goldens.rs`).

#![forbid(unsafe_code)]

use bm_sim::SimDuration;
use bm_workloads::fio::FioSpec;

/// Whether the invocation asked for a quick run.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}

/// The argument check every figure and table binary runs first:
/// `--quick` is the one argument they take. Any other prints the usage
/// line for `bin` and exits 2, so a mistyped `--quick` cannot start the
/// full-length experiment instead.
pub fn check_args(bin: &str) {
    if std::env::args().skip(1).any(|a| a != "--quick") {
        eprintln!("usage: {bin} [--quick]");
        std::process::exit(2);
    }
}

/// The window scale factor for this invocation.
pub fn scale() -> f64 {
    if quick() {
        0.2
    } else {
        1.0
    }
}

/// Applies the invocation's scale to a spec.
pub fn scaled(spec: FioSpec) -> FioSpec {
    spec.scaled(scale())
}

/// Prints a table header.
pub fn header(title: &str, cols: &[&str]) {
    println!("\n== {title} ==");
    let row: Vec<String> = cols.iter().map(|c| format!("{c:>14}")).collect();
    println!("{:16}{}", "", row.join(""));
}

/// Prints one row: a label plus formatted values.
pub fn row(label: &str, values: &[String]) {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:>14}")).collect();
    println!("{label:16}{}", cells.join(""));
}

/// Formats a count with thousands grouping.
pub fn fmt_count(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.0}K", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Formats a latency.
pub fn fmt_lat(d: SimDuration) -> String {
    format!("{:.1}us", d.as_micros_f64())
}

/// Formats a bandwidth in MB/s.
pub fn fmt_bw(mbps: f64) -> String {
    format!("{mbps:.0}MB/s")
}

/// Formats a ratio as a percentage.
pub fn fmt_pct(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Paper reference values used in the comparison columns.
pub mod paper {
    /// Table V: bare-metal average latency (µs): (case, native, bm_store).
    pub const TABLE_V_LATENCY_US: [(&str, f64, f64); 6] = [
        ("rand-r-1", 77.2, 80.4),
        ("rand-r-128", 786.7, 792.6),
        ("rand-w-1", 11.6, 14.5),
        ("rand-w-16", 179.8, 179.9),
        ("seq-r-256", 40_579.3, 40_041.3),
        ("seq-w-256", 92_502.3, 95_030.0),
    ];

    /// Table VII: single-VM average latency (µs): (case, vfio, bm, spdk).
    pub const TABLE_VII_LATENCY_US: [(&str, f64, f64, f64); 6] = [
        ("rand-r-1", 79.7, 83.7, 82.7),
        ("rand-r-128", 1_647.0, 1_666.0, 1_893.4),
        ("rand-w-1", 14.9, 19.6, 19.2),
        ("rand-w-16", 264.7, 275.5, 305.3),
        ("seq-r-256", 40_990.4, 40_075.6, 65_197.1),
        ("seq-w-256", 98_819.2, 100_615.0, 112_245.7),
    ];

    /// Table VI: (os/kernel, IOPS, BW MB/s, avg latency µs).
    pub const TABLE_VI: [(&str, f64, f64, f64); 5] = [
        ("CentOS7.4/3.10", 642_000.0, 2629.0, 394.4),
        ("CentOS7.4/4.19", 642_000.0, 2629.0, 395.9),
        ("CentOS7.4/5.4", 642_000.0, 2630.0, 396.1),
        ("Fedora33/4.9", 603_000.0, 2468.0, 207.0),
        ("Fedora33/5.8", 607_000.0, 2487.0, 206.4),
    ];

    /// Fig. 11: peak multi-VM bandwidth (GB/s) at 16 VMs.
    pub const FIG11_PEAK_GBPS: f64 = 12.40;

    /// §V-E headline: max SPDK deficit on TPC-C.
    pub const TPCC_SPDK_DEFICIT: f64 = 0.134;

    /// §V-E Sysbench: BM-Store below native.
    pub const SYSBENCH_BM_BELOW_NATIVE: f64 = 0.0259;
    /// Sysbench: BM-Store above SPDK.
    pub const SYSBENCH_BM_OVER_SPDK: f64 = 0.081;

    /// Table VIII: Sysbench normalized average latency: vfio, bm, spdk.
    pub const TABLE_VIII_LATENCY: (f64, f64, f64) = (1.0, 1.026, 1.112);

    /// Table IX: hot-upgrade total time bounds (s).
    pub const TABLE_IX_TOTAL_S: (f64, f64) = (6.0, 9.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_full_without_quick() {
        // (Running tests never passes --quick.)
        assert_eq!(scale(), 1.0);
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_count(1_234_567.0), "1.23M");
        assert_eq!(fmt_count(12_345.0), "12K");
        assert_eq!(fmt_count(123.0), "123");
        assert_eq!(fmt_pct(0.134), "13.4%");
        assert_eq!(fmt_bw(3231.4), "3231MB/s");
    }
}
