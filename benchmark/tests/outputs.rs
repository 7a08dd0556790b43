//! The seed reaches every client, the simulated results repeat exactly
//! for one seed, and the output checks catch what they are meant to.

use bmbench::rig::{run_rep, RigOptions, WORKLOADS};
use bmbench::{summarize, Record};

fn outcome(r: &Record) -> Vec<(String, f64)> {
    [
        "events",
        "submitted",
        "ok",
        "failed",
        "digest",
        "window_ios",
        "p50_us",
        "p99_us",
    ]
    .iter()
    .map(|k| (k.to_string(), r[*k]))
    .collect()
}

#[test]
fn same_seed_repeats_and_another_seed_differs() {
    for w in &WORKLOADS {
        let (a, _) = run_rep(w, 42, &RigOptions::default());
        let (b, _) = run_rep(w, 42, &RigOptions::default());
        let (c, _) = run_rep(w, 43, &RigOptions::default());
        assert!(a["submitted"] > 0.0, "{}: no I/O", w.name);
        assert_eq!(outcome(&a), outcome(&b), "{}: seed 42 twice", w.name);
        assert_ne!(a["digest"], c["digest"], "{}: seeds 42 and 43", w.name);
        assert_eq!(a["submitted"], a["ok"] + a["failed"], "{}", w.name);
        if w.fault_free() {
            assert_eq!(a["failed"], 0.0, "{}", w.name);
        }
    }
}

#[test]
fn observers_and_profiler_leave_the_simulation_unchanged() {
    let w = &WORKLOADS[4];
    let traced = RigOptions {
        traced: true,
        ..RigOptions::default()
    };
    let toggled = RigOptions {
        toggle_observers: true,
        ..RigOptions::default()
    };
    let (plain, _) = run_rep(w, 7, &RigOptions::default());
    let (traced, folded) = run_rep(w, 7, &traced);
    let (unobserved, _) = run_rep(w, 7, &toggled);
    assert_eq!(outcome(&plain), outcome(&traced));
    for k in ["submitted", "ok", "failed", "digest"] {
        assert_eq!(plain[k], unobserved[k], "{k}");
    }
    assert!(
        plain["failed"] > 0.0,
        "the fault plan makes some commands fail"
    );
    assert!(folded.is_some_and(|f| f.contains("stage:EngineDoorbell")));
}

#[test]
fn checks_flag_lost_failed_and_diverging_commands() {
    let rep = |submitted: f64, ok: f64, failed: f64, digest: f64| -> Record {
        [
            ("submitted", submitted),
            ("ok", ok),
            ("failed", failed),
            ("digest", digest),
            ("events", 10.0),
            ("run_s", 1.0),
            ("setup_s", 0.1),
            ("peak_rss_mb", 5.0),
            ("window_ios", 1.0),
            ("window_s", 1.0),
            ("p50_us", 1.0),
            ("p99_us", 1.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    };
    let fault_free = &WORKLOADS[0];
    let good = summarize(
        fault_free,
        &[rep(10.0, 10.0, 0.0, 1.0), rep(10.0, 10.0, 0.0, 1.0)],
    );
    assert!(good.correct(), "{:?}", good.problems);
    assert_eq!((good.attempted, good.failed), (20, 0));

    let lost = summarize(fault_free, &[rep(10.0, 9.0, 0.0, 1.0)]);
    assert_eq!(lost.failed, 1);
    let errored = summarize(fault_free, &[rep(10.0, 8.0, 2.0, 1.0)]);
    assert_eq!(errored.failed, 2);
    let diverged = summarize(
        fault_free,
        &[rep(10.0, 10.0, 0.0, 1.0), rep(10.0, 10.0, 0.0, 2.0)],
    );
    assert_eq!(diverged.failed, 10);
    for s in [lost, errored, diverged] {
        assert!(!s.correct());
    }
    // Injected faults may fail commands; that is the expected outcome.
    let faulty = summarize(&WORKLOADS[4], &[rep(10.0, 8.0, 2.0, 1.0)]);
    assert!(faulty.correct(), "{:?}", faulty.problems);
    assert_eq!(faulty.metrics["error_rate"].value, 0.2);
}
