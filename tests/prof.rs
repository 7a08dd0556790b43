//! The profiler's contract properties, end to end:
//!
//! 1. **Read-only**: enabling `bm-prof` must not perturb the
//!    simulation. The figure-relevant outputs of a BM-Store fio run are
//!    byte-identical (exact f64 bit patterns) with the profiler on, in
//!    the fig. 8 bare-metal, fig. 9 single-VM and fig. 12 multi-VM
//!    layouts.
//! 2. **Cheap**: a profiled run stays within 10% wall-clock of an
//!    unprofiled one (stride-sampled timing, guard-free scope
//!    boundaries). Measured min-of-3 with runs interleaved so machine
//!    noise hits both sides.
//! 3. **Exports hold**: the folded stacks are well formed, the JSON
//!    report parses back, and the attributed self time sums to the
//!    measured dispatch total.
//!
//! Wall time is read through `bmstore::prof::monotonic_ns`, the
//! sanctioned audit point for harness timing (`clippy.toml` disallows
//! `Instant::now` everywhere else).

use bmstore::prof::report::{folded, parse_json, render_json};
use bmstore::prof::{monotonic_ns, Snapshot};
use bmstore::testbed::{SchemeKind, TestbedConfig};
use bmstore::workloads::fio::{run_fio, FioSpec};
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// The overhead bound measures wall time, so the tests in this file
/// take turns instead of sharing the CPU. The lock guards no data, so
/// a test that panicked holding it leaves nothing half-updated.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// One profiled rand-r-128 run: the exact figure rendering, the run's
/// wall-clock nanoseconds and the profile snapshot (if the profiler
/// was on).
struct Case {
    figures: String,
    wall_ns: u64,
    snapshot: Option<Snapshot>,
}

/// Runs the rand-r-128 fio case on `layout` at `scale` and renders
/// every figure-relevant number exactly.
fn profiled_case(layout: TestbedConfig, scale: f64, profiler: bool) -> Case {
    let cfg = if profiler {
        layout.with_profiler()
    } else {
        layout
    };
    let spec = FioSpec::rand_r_128().scaled(scale);
    let begin = monotonic_ns();
    let (results, world) = run_fio(cfg, spec);
    let wall_ns = monotonic_ns() - begin;
    let mut figures = String::new();
    let _ = writeln!(figures, "events {}", world.events_fired);
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(
            figures,
            "dev{i} ops {} iops {:016x} bw {:016x} p50 {} p99 {} p999 {} avg {}",
            r.ops,
            r.iops.to_bits(),
            r.bandwidth_mbps.to_bits(),
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.p999.as_nanos(),
            r.avg_latency.as_nanos(),
        );
    }
    Case {
        figures,
        wall_ns,
        snapshot: world.tb.profiler().snapshot(),
    }
}

#[test]
fn profiler_is_read_only_and_cheap() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let fig08 = || TestbedConfig::bm_store_bare_metal(1);
    // Property 1: byte-identical figures. The first pair also warms
    // caches so the timing loop below starts from a steady state.
    let off = profiled_case(fig08(), 0.2, false);
    let on = profiled_case(fig08(), 0.2, true);
    assert_eq!(
        on.figures, off.figures,
        "profiler-on figures must be byte-identical to profiler-off"
    );

    // Property 2: overhead bound. Min-of-3, interleaved. The absolute
    // slack absorbs timer granularity and CI neighbours on what is a
    // sub-second debug-profile run.
    let (mut wall_off, mut wall_on) = (off.wall_ns, on.wall_ns);
    for _ in 0..2 {
        wall_off = wall_off.min(profiled_case(fig08(), 0.2, false).wall_ns);
        wall_on = wall_on.min(profiled_case(fig08(), 0.2, true).wall_ns);
    }
    let budget = wall_off + wall_off / 10 + 150_000_000;
    assert!(
        wall_on <= budget,
        "profiled run took {wall_on} ns, over the 10% overhead budget \
         ({budget} ns against baseline {wall_off} ns)"
    );
}

#[test]
fn profiler_is_read_only_in_vm_layouts_and_its_exports_hold() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    let layouts = [
        (
            "fig09 single-vm",
            TestbedConfig::single_vm(SchemeKind::BmStore { in_vm: true }),
        ),
        ("fig12 multi-vm", TestbedConfig::multi_vm_bm_store(4)),
    ];
    for (label, layout) in layouts {
        let off = profiled_case(layout.clone(), 0.05, false);
        assert!(
            off.snapshot.is_none(),
            "{label}: a profiler-off run has no snapshot"
        );
        let on = profiled_case(layout, 0.05, true);
        assert_eq!(
            on.figures, off.figures,
            "{label}: profiler-on figures must be byte-identical to profiler-off"
        );

        // Property 3 on the profiled run's own snapshot.
        let snap = on.snapshot.expect("profiler-on run has a snapshot");
        assert!(!snap.scopes.is_empty(), "{label}: snapshot has scopes");
        for line in folded(&snap).lines() {
            let well_formed = line
                .rsplit_once(' ')
                .is_some_and(|(key, ns)| !key.is_empty() && ns.parse::<u64>().is_ok());
            assert!(well_formed, "{label}: folded line {line:?} is malformed");
        }
        let report = parse_json(&render_json(&snap))
            .unwrap_or_else(|e| panic!("{label}: JSON report does not parse: {e}"));
        assert_eq!(report.scope_count, snap.scopes.len());
        let (total, sum) = (report.total_run_ns, report.self_ns_sum);
        assert!(total > 0, "{label}: the run measured its dispatch time");
        assert!(
            sum.abs_diff(total) <= total / 10,
            "{label}: self time {sum} ns is not within 10% of the measured \
             dispatch total {total} ns"
        );
    }
}
