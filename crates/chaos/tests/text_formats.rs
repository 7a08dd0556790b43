//! The two text formats a repro artifact is read back through, fed
//! arbitrary text: `FaultPlan::from_text` and
//! `ReproArtifact::from_text` never panic, and a plan either is
//! rejected or holds only values within `MAX_FAULT_NANOS`. An artifact
//! whose faults sit at that limit replays without overflowing the
//! clock.

use bm_chaos::ReproArtifact;
use bm_sim::faults::{FaultKind, FaultPlan, MAX_FAULT_NANOS};
use proptest::prelude::*;

/// Event kinds, field keys, format keywords and near misses.
const WORDS: &[&str] = &[
    "bmstore-chaos-repro v1",
    "policy abort-to-host",
    "policy quiesce-replay",
    "sabotage 1",
    "bmstore-fault-plan v1",
    "seed",
    "at",
    "incident-begin",
    "incident-end",
    "#",
    "ssd-latency-spike",
    "ssd-stall",
    "ssd-death",
    "ssd-error-burst",
    "ssd-drop-commands",
    "mctp-drop",
    "link-retrain",
    "engine-crash",
    "power-loss",
    "ssd-reinsert",
    "not-a-kind",
    "ssd=",
    "extra=",
    "until=",
    "probability=",
    "count=",
    "restart_after=",
    "torn_writes=",
    "=",
];

const KINDS: &[&str] = &[
    "ssd-latency-spike",
    "ssd-stall",
    "ssd-death",
    "ssd-error-burst",
    "ssd-drop-commands",
    "mctp-drop",
    "link-retrain",
    "engine-crash",
    "power-loss",
    "ssd-reinsert",
];

const KEYS: &[&str] = &[
    "ssd",
    "extra",
    "until",
    "probability",
    "count",
    "restart_after",
    "torn_writes",
];

/// Numbers around the limits the parser enforces, and some that are
/// not numbers.
fn number() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..10_000_000).prop_map(|n| n.to_string()),
        Just(MAX_FAULT_NANOS.to_string()),
        Just((MAX_FAULT_NANOS + 1).to_string()),
        Just("9223372036854775807".to_string()),
        Just("9223372036854775808".to_string()),
        Just(u64::MAX.to_string()),
        any::<u64>().prop_map(|n| n.to_string()),
        Just("0.25".to_string()),
        Just("7".to_string()),
        Just("NaN".to_string()),
        Just("-1".to_string()),
        Just("inf".to_string()),
    ]
}

/// A word, a word with a number glued on, or a bare number.
fn token() -> impl Strategy<Value = String> {
    (any::<prop::sample::Index>(), number(), 0u8..3).prop_map(|(w, n, form)| {
        let word = WORDS[w.index(WORDS.len())];
        match form {
            0 => word.to_string(),
            1 => format!("{word}{n}"),
            _ => n,
        }
    })
}

/// `at N KIND key=N ...` with any kind and any keys.
fn event_line() -> impl Strategy<Value = String> {
    let field = (any::<prop::sample::Index>(), number())
        .prop_map(|(k, n)| format!("{}={n}", KEYS[k.index(KEYS.len())]));
    (
        number(),
        any::<prop::sample::Index>(),
        prop::collection::vec(field, 0..4),
    )
        .prop_map(|(at, kind, fields)| {
            format!(
                "at {at} {} {}",
                KINDS[kind.index(KINDS.len())],
                fields.join(" ")
            )
        })
}

fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        event_line(),
        event_line(),
        prop::collection::vec(token(), 0..6).prop_map(|t| t.join(" ")),
        prop::collection::vec(any::<char>(), 0..12).prop_map(|c| c.into_iter().collect()),
    ]
}

const PLAN_HEADER: &str = "bmstore-fault-plan v1\nseed 1\n";
const REPRO_HEADER: &str = "bmstore-chaos-repro v1\npolicy abort-to-host\nsabotage 0\n";

/// Lines after no header, the plan's, or the artifact's and the plan's.
fn text() -> impl Strategy<Value = String> {
    (0u8..3, prop::collection::vec(line(), 0..8)).prop_map(|(framing, lines)| {
        let mut out = match framing {
            0 => String::new(),
            1 => PLAN_HEADER.to_string(),
            _ => format!("{REPRO_HEADER}{PLAN_HEADER}"),
        };
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        out
    })
}

/// Every value in `plan` is at most `MAX_FAULT_NANOS` and every
/// probability is in [0, 1].
fn check_bounds(plan: &FaultPlan) -> Result<(), TestCaseError> {
    for ev in plan.events() {
        prop_assert!(ev.at.as_nanos() <= MAX_FAULT_NANOS, "{ev:?}");
        let nanos = match ev.kind {
            FaultKind::SsdLatencySpike { extra, until, .. } => {
                vec![extra.as_nanos(), until.as_nanos()]
            }
            FaultKind::SsdStall { until, .. } | FaultKind::LinkRetrain { until } => {
                vec![until.as_nanos()]
            }
            FaultKind::SsdErrorBurst {
                probability, until, ..
            } => {
                prop_assert!((0.0..=1.0).contains(&probability), "{ev:?}");
                vec![until.as_nanos()]
            }
            FaultKind::EngineCrash { restart_after } => vec![restart_after.as_nanos()],
            FaultKind::SsdDeath { .. }
            | FaultKind::SsdDropCommands { .. }
            | FaultKind::MctpDrop { .. }
            | FaultKind::PowerLoss { .. }
            | FaultKind::SsdReinsert { .. } => Vec::new(),
        };
        prop_assert!(nanos.iter().all(|&n| n <= MAX_FAULT_NANOS), "{ev:?}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Whatever the text, the plan parser returns; a plan it accepts is
    /// in bounds and survives its own text round trip.
    #[test]
    fn arbitrary_text_never_panics_the_fault_plan_parser(text in text()) {
        if let Ok(plan) = FaultPlan::from_text(&text) {
            check_bounds(&plan)?;
            prop_assert_eq!(FaultPlan::from_text(&plan.to_text()), Ok(plan));
        }
    }

    /// Whatever the text, the repro-artifact parser returns; the plan
    /// of an artifact it accepts is in bounds.
    #[test]
    fn arbitrary_text_never_panics_the_repro_artifact_parser(text in text()) {
        if let Ok(artifact) = ReproArtifact::from_text(&text) {
            check_bounds(&artifact.plan)?;
        }
    }
}

/// Plans whose instants and durations sit at `MAX_FAULT_NANOS` replay
/// to a clean verdict. With the values at 2^63 − 1 ns instead, the
/// first three overflow the clock or a busy total and panic a debug
/// build: two crash outages summed by the recovery oracle, a crash
/// whose outage begins where an earlier one ends, and commands under a
/// latency spike.
#[test]
fn plans_at_the_limit_replay_without_overflow() {
    let max = MAX_FAULT_NANOS;
    for events in [
        format!(
            "at 1000000 engine-crash restart_after={max}\n\
             at 2000000 engine-crash restart_after={max}"
        ),
        format!(
            "at 0 engine-crash restart_after={max}\n\
             at {max} engine-crash restart_after={max}"
        ),
        format!("at 1000 ssd-latency-spike ssd=0 extra={max} until={max}"),
        format!(
            "at 1000 ssd-stall ssd=1 until={max}\n\
             at 2000 link-retrain until={max}\n\
             at 3000 ssd-error-burst ssd=2 probability=1 until={max}\n\
             at {max} power-loss torn_writes=1"
        ),
    ] {
        let text = format!("{REPRO_HEADER}{PLAN_HEADER}{events}\n");
        let artifact = ReproArtifact::from_text(&text).expect("values at the limit parse");
        let report = artifact.replay();
        assert!(report.passed(), "{events}: {}", report.summary());
        assert_eq!(report.completed, report.issued, "{events}");
    }
}
