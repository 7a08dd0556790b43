//! # bm-chaos — seeded chaos campaigns for the BM-Store testbed
//!
//! Randomized-but-reproducible robustness testing of the BM-Store
//! engine's crash-recovery machinery (§IV-D resilience, pushed past the
//! paper's scripted scenarios):
//!
//! 1. [`generate_plan`] derives a mixed [`FaultPlan`] — engine crashes,
//!    power losses with torn writes, SSD deaths/re-inserts, latency
//!    spikes, error bursts, link retrains — entirely from one `u64`
//!    seed.
//! 2. [`run_case`] drives the plan through the Scheme/Effect testbed
//!    with version-tracked tenant workloads, then checks every
//!    invariant oracle (exactly-once completion, back-end conservation,
//!    checksummed read-back of acknowledged writes, no stuck commands
//!    at drain, bounded recovery time).
//! 3. [`run_campaign`] sweeps N consecutive seeds and collects the
//!    failures.
//! 4. [`shrink_plan`] delta-debugs a failing plan down to a minimal
//!    fault schedule that still trips an oracle, and [`ReproArtifact`]
//!    serializes it (plus the policy knobs) to a text file that
//!    `bmstore_cli chaos replay` re-executes bit-identically.
//!
//! Everything is deterministic: the same seed produces the same plan,
//! the same simulation, and the same [`CaseReport`]. No wall clock, no
//! process-seeded randomness, no hash-order iteration.

#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::wildcard_enum_match_arm
    )
)]

mod case;
mod generate;
mod shrink;
mod tenant;

pub use case::{run_case, run_case_observed, CaseReport, Violation};
pub use generate::generate_plan;
pub use shrink::shrink_plan;

use bm_sim::faults::FaultPlan;
use bm_sim::SimDuration;
use bmstore_core::FailPolicy;

/// Shape of one chaos case: how many tenants churn for how long, what
/// the engine does when retries run out, and whether the deliberate
/// journal-sabotage bug is armed (oracle self-test only).
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Tenant devices — one whole-disk namespace per back-end SSD.
    pub tenants: usize,
    /// Working-set blocks per tenant.
    pub lbas_per_tenant: usize,
    /// How long tenants churn before the drain + verify phase.
    pub churn: SimDuration,
    /// Engine policy when a command exhausts its timeout retries, and
    /// for commands in flight across a crash.
    pub fail_policy: FailPolicy,
    /// Per-command engine timeout (`None` disarms deadlines — not
    /// recommended for chaos, lost commands would hang forever).
    pub command_timeout: Option<SimDuration>,
    /// Upper bound on generated fault events per plan (≥ 1 drawn).
    pub max_events: usize,
    /// Arms the engine's deliberate journal-tail-drop bug so the
    /// oracles can prove they catch a real lost command. Test-only.
    pub sabotage_drop_journal_tail: bool,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            tenants: 4,
            lbas_per_tenant: 6,
            churn: SimDuration::from_ms(30),
            fail_policy: FailPolicy::AbortToHost,
            command_timeout: Some(SimDuration::from_ms(5)),
            max_events: 6,
            sabotage_drop_journal_tail: false,
        }
    }
}

impl ChaosConfig {
    /// Default campaign under [`FailPolicy::AbortToHost`].
    pub fn abort_to_host() -> Self {
        ChaosConfig::default()
    }

    /// Default campaign under [`FailPolicy::QuiesceReplay`]. The plan
    /// generator reacts: fault kinds whose quiesce would wait forever
    /// for a management resume (stalls, swallowed commands) are
    /// excluded, because chaos runs have no management plane driving
    /// replacements.
    pub fn quiesce_replay() -> Self {
        ChaosConfig {
            fail_policy: FailPolicy::QuiesceReplay,
            ..ChaosConfig::default()
        }
    }
}

/// Generates the plan for `seed` and runs it: the campaign's unit step.
pub fn run_seed(cfg: &ChaosConfig, seed: u64) -> (FaultPlan, CaseReport) {
    let plan = generate_plan(cfg, seed);
    let report = run_case(cfg, &plan);
    (plan, report)
}

/// One seed whose oracles tripped.
#[derive(Debug, Clone)]
pub struct FailedCase {
    /// The campaign seed.
    pub seed: u64,
    /// The generated (unshrunk) plan.
    pub plan: FaultPlan,
    /// The failing report (violations non-empty).
    pub report: CaseReport,
}

/// Aggregate outcome of an N-seed campaign.
#[derive(Debug, Clone, Default)]
pub struct CampaignReport {
    /// Seeds run.
    pub cases: usize,
    /// Seeds with no violations.
    pub passed: usize,
    /// Total I/Os issued across all seeds.
    pub total_issued: u64,
    /// Total completed crash-recovery cycles across all seeds.
    pub total_recoveries: u64,
    /// Total fault events injected across all seeds.
    pub total_faults: usize,
    /// The failing seeds, in order.
    pub failures: Vec<FailedCase>,
}

impl CampaignReport {
    /// Whether every seed passed every oracle.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty() && self.passed == self.cases
    }
}

/// Runs seeds `base_seed .. base_seed + n` and collects the failures.
/// Failures are *not* auto-shrunk (shrinking replays the case many
/// times); call [`shrink_plan`] on `FailedCase::plan` afterwards.
pub fn run_campaign(cfg: &ChaosConfig, base_seed: u64, n: usize) -> CampaignReport {
    let mut out = CampaignReport::default();
    for i in 0..n {
        let seed = base_seed.wrapping_add(i as u64);
        let (plan, report) = run_seed(cfg, seed);
        out.cases += 1;
        out.total_issued += report.issued;
        out.total_recoveries += report.recoveries;
        out.total_faults += plan.events().len();
        if report.violations.is_empty() {
            out.passed += 1;
        } else {
            out.failures.push(FailedCase { seed, plan, report });
        }
    }
    out
}

/// Shrinks a failing plan against the full oracle battery: an event
/// subset "still fails" when [`run_case`] under `cfg` reports at least
/// one violation.
pub fn shrink_failing_case(cfg: &ChaosConfig, plan: &FaultPlan) -> FaultPlan {
    shrink_plan(plan, |candidate| {
        !run_case(cfg, candidate).violations.is_empty()
    })
}

/// A self-contained repro: the minimal fault plan plus the policy knobs
/// the case ran under. Text round-trip is exact, so a replay is
/// bit-identical to the shrunk run that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproArtifact {
    /// Engine fail policy the case ran under.
    pub fail_policy: FailPolicy,
    /// Whether the journal-sabotage knob was armed.
    pub sabotage: bool,
    /// The (typically shrunk) fault plan; its embedded seed doubles as
    /// the testbed seed.
    pub plan: FaultPlan,
    /// Optional incident report from an observed replay (alerts +
    /// fault windows + blame profiles + the tripped oracles in one
    /// timeline). Carried verbatim in the text form; absent in
    /// artifacts written before it existed.
    pub incident: Option<String>,
}

impl ReproArtifact {
    /// Captures the knobs of `cfg` alongside `plan`.
    pub fn new(cfg: &ChaosConfig, plan: FaultPlan) -> Self {
        ReproArtifact {
            fail_policy: cfg.fail_policy,
            sabotage: cfg.sabotage_drop_journal_tail,
            plan,
            incident: None,
        }
    }

    /// Attaches an incident report (trailing newlines normalized so
    /// the text round-trip stays byte-exact).
    pub fn with_incident(mut self, incident: &str) -> Self {
        self.incident = Some(incident.trim_end_matches('\n').to_string());
        self
    }

    /// The [`ChaosConfig`] to replay under: defaults with this
    /// artifact's policy knobs applied.
    pub fn config(&self) -> ChaosConfig {
        ChaosConfig {
            fail_policy: self.fail_policy,
            sabotage_drop_journal_tail: self.sabotage,
            ..ChaosConfig::default()
        }
    }

    /// Replays the artifact.
    pub fn replay(&self) -> CaseReport {
        run_case(&self.config(), &self.plan)
    }

    /// Serializes to the dependency-free text format:
    ///
    /// ```text
    /// bmstore-chaos-repro v1
    /// policy abort-to-host
    /// sabotage 0
    /// bmstore-fault-plan v1
    /// seed 17
    /// at 1000000 engine-crash restart_after=2000000
    /// ```
    pub fn to_text(&self) -> String {
        let policy = match self.fail_policy {
            FailPolicy::AbortToHost => "abort-to-host",
            FailPolicy::QuiesceReplay => "quiesce-replay",
        };
        let mut out = format!(
            "bmstore-chaos-repro v1\npolicy {policy}\nsabotage {}\n{}",
            u8::from(self.sabotage),
            self.plan.to_text()
        );
        if let Some(incident) = &self.incident {
            out.push_str("incident-begin\n");
            out.push_str(incident);
            out.push_str("\nincident-end\n");
        }
        out
    }

    /// Parses [`Self::to_text`] output. Returns a description of the
    /// first malformed line on error.
    pub fn from_text(text: &str) -> Result<ReproArtifact, String> {
        let mut lines = text.lines();
        match lines.next().map(str::trim) {
            Some("bmstore-chaos-repro v1") => {}
            other => return Err(format!("bad header {other:?}")),
        }
        let fail_policy = match lines.next().map(str::trim) {
            Some("policy abort-to-host") => FailPolicy::AbortToHost,
            Some("policy quiesce-replay") => FailPolicy::QuiesceReplay,
            other => return Err(format!("bad policy line {other:?}")),
        };
        let sabotage = match lines.next().map(str::trim) {
            Some("sabotage 0") => false,
            Some("sabotage 1") => true,
            other => return Err(format!("bad sabotage line {other:?}")),
        };
        let rest: Vec<&str> = lines.collect();
        let (plan_lines, incident) = match rest.iter().position(|l| *l == "incident-begin") {
            Some(pos) => {
                let tail = &rest[pos + 1..];
                let end = tail
                    .iter()
                    .rposition(|l| *l == "incident-end")
                    .ok_or("incident-begin without incident-end")?;
                (&rest[..pos], Some(tail[..end].join("\n")))
            }
            None => (&rest[..], None),
        };
        let plan = FaultPlan::from_text(&plan_lines.join("\n"))?;
        Ok(ReproArtifact {
            fail_policy,
            sabotage,
            plan,
            incident,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_sim::faults::FaultKind;
    use bm_sim::SimTime;

    #[test]
    fn repro_artifact_round_trips() {
        let plan = FaultPlan::new(99).with(
            SimTime::ZERO + SimDuration::from_ms(2),
            FaultKind::EngineCrash {
                restart_after: SimDuration::from_us(700),
            },
        );
        let art = ReproArtifact {
            fail_policy: FailPolicy::QuiesceReplay,
            sabotage: true,
            plan,
            incident: None,
        };
        let text = art.to_text();
        let back = ReproArtifact::from_text(&text).expect("parses");
        assert_eq!(back, art);
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn repro_artifact_round_trips_with_incident() {
        let plan = FaultPlan::new(7).with(
            SimTime::ZERO + SimDuration::from_ms(1),
            FaultKind::SsdStall {
                ssd: 1,
                until: SimTime::ZERO + SimDuration::from_ms(4),
            },
        );
        let incident = "bmstore-incident v1\nsummary alerts=1 faults=1 recoveries=0 \
                        replayed=0 aborted=0\ntimeline (2 events):\n  t=1ns x\n  \
                        t=2ns alert fire latency tenant=0 severity=critical burn=4.00\nend";
        let art = ReproArtifact::new(&ChaosConfig::default(), plan).with_incident(incident);
        let text = art.to_text();
        let back = ReproArtifact::from_text(&text).expect("parses");
        assert_eq!(back, art);
        assert_eq!(back.to_text(), text);
        assert_eq!(back.incident.as_deref(), Some(incident));
        // Trailing newlines normalize to the same artifact.
        let renewlined = format!("{incident}\n\n");
        assert_eq!(
            ReproArtifact::new(&ChaosConfig::default(), art.plan.clone())
                .with_incident(&renewlined),
            back
        );
    }

    #[test]
    fn repro_artifact_rejects_garbage() {
        assert!(ReproArtifact::from_text("").is_err());
        assert!(ReproArtifact::from_text("bmstore-chaos-repro v1\npolicy nope").is_err());
        assert!(ReproArtifact::from_text(
            "bmstore-chaos-repro v1\npolicy abort-to-host\nsabotage 7"
        )
        .is_err());
    }
}
