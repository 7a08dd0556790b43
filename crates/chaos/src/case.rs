//! One chaos case: build the testbed, run the plan to drain, then
//! check every invariant oracle.

use crate::tenant::{pattern, ChaosTenant, VerifyOutcome};
use crate::ChaosConfig;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::slo::{SloConfig, SloSpec};
use bm_sim::{SimDuration, SimTime};
use bm_ssd::{DataMode, SsdId};
use bm_testbed::{DeviceId, Testbed, TestbedConfig, World};
use std::fmt;

/// Engine reboot delay the world applies after a power loss (mirrors
/// the testbed's `POWER_LOSS_RESTART`), used for the recovery bound.
const POWER_LOSS_RESTART: SimDuration = SimDuration::from_ms(5);
/// Per-crash slack on top of the commanded restart delay: doorbell
/// re-arming, replay, and double-crash outage extension.
const RECOVERY_SLACK: SimDuration = SimDuration::from_ms(10);
/// Quiet period between churn end and the verify reads.
const DRAIN_MARGIN: SimDuration = SimDuration::from_ms(30);

/// One invariant-oracle failure. `Display` renders a one-line
/// human-readable description; equality is structural, so replays can
/// be compared violation-for-violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A completion tag was delivered to its tenant more than once.
    DuplicateCompletion {
        /// Tenant device index.
        tenant: usize,
        /// The tag delivered twice.
        tag: u64,
    },
    /// Issued I/Os never completed by the time the simulation drained.
    LostCompletions {
        /// Tenant device index.
        tenant: usize,
        /// Completions observed.
        completed: u64,
        /// I/Os issued.
        issued: u64,
    },
    /// A successful verify read returned bytes that do not match the
    /// last *acknowledged* write version.
    ReadbackMismatch {
        /// Tenant device index.
        tenant: usize,
        /// The block.
        lba: u64,
        /// The acked version the device was expected to return.
        version: usize,
    },
    /// A back-end port's counters violate the conservation law
    /// `forwarded == completed + abandoned + live`.
    ConservationBroken {
        /// Back-end SSD index.
        ssd: usize,
        /// Live (outstanding) slots.
        live: u64,
        /// Commands forwarded.
        forwarded: u64,
        /// Completions drained.
        completed: u64,
        /// Slots abandoned (crash, timeout, surprise re-insert).
        abandoned: u64,
    },
    /// Back-end slots still live after the simulation drained.
    StuckInFlight {
        /// Back-end SSD index.
        ssd: usize,
        /// Slots still live.
        live: u64,
    },
    /// Engine backlog still buffering commands after drain.
    StuckBacklog {
        /// Back-end SSD index.
        ssd: usize,
        /// Commands still buffered.
        buffered: usize,
    },
    /// The plan crashed the engine but no recovery cycle completed.
    MissingRecovery {
        /// Crash-class events in the plan.
        crash_events: usize,
    },
    /// Total time spent crashed exceeded the commanded outage budget.
    UnboundedRecovery {
        /// Nanoseconds actually spent crashed.
        spent_ns: u64,
        /// Budget: commanded restart delays plus fixed slack.
        bound_ns: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateCompletion { tenant, tag } => {
                write!(f, "tenant {tenant}: tag {tag} completed more than once")
            }
            Violation::LostCompletions {
                tenant,
                completed,
                issued,
            } => write!(
                f,
                "tenant {tenant}: {completed} of {issued} I/Os completed at drain"
            ),
            Violation::ReadbackMismatch {
                tenant,
                lba,
                version,
            } => write!(
                f,
                "tenant {tenant} lba {lba}: read-back does not match acked version {version}"
            ),
            Violation::ConservationBroken {
                ssd,
                live,
                forwarded,
                completed,
                abandoned,
            } => write!(
                f,
                "ssd {ssd}: conservation broken \
                 (forwarded {forwarded} != completed {completed} + abandoned {abandoned} + live {live})"
            ),
            Violation::StuckInFlight { ssd, live } => {
                write!(f, "ssd {ssd}: {live} commands still in flight at drain")
            }
            Violation::StuckBacklog { ssd, buffered } => {
                write!(f, "ssd {ssd}: {buffered} commands still backlogged at drain")
            }
            Violation::MissingRecovery { crash_events } => write!(
                f,
                "{crash_events} crash events injected but no recovery cycle completed"
            ),
            Violation::UnboundedRecovery { spent_ns, bound_ns } => write!(
                f,
                "recovery took {spent_ns} ns, over the {bound_ns} ns outage budget"
            ),
        }
    }
}

/// Deterministic outcome of one chaos case.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CaseReport {
    /// The plan (and testbed) seed.
    pub seed: u64,
    /// I/Os issued across all tenants.
    pub issued: u64,
    /// Completions delivered (each counted once).
    pub completed: u64,
    /// Non-success completions tenants absorbed (not a violation:
    /// aborted and errored I/O is the honest outcome of a fault).
    pub failed_io: u64,
    /// Completed engine crash-recovery cycles.
    pub recoveries: u64,
    /// Journaled commands replayed on recovery.
    pub replayed: u64,
    /// Journaled commands aborted to the host on recovery.
    pub aborted_on_recovery: u64,
    /// Scheduler past-due events clamped to "now".
    pub clamped_past: u64,
    /// Every oracle failure, in deterministic order.
    pub violations: Vec<Violation>,
}

impl CaseReport {
    /// Whether every oracle held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One-line summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "seed {}: {} issued, {} completed, {} failed-io, {} recoveries ({} replayed, {} aborted), {} violations",
            self.seed,
            self.issued,
            self.completed,
            self.failed_io,
            self.recoveries,
            self.replayed,
            self.aborted_on_recovery,
            self.violations.len()
        )
    }
}

/// The SLO policy observed replays attach: a generous per-tenant
/// latency objective plus a stall watchdog, both tuned so a healthy
/// drain stays silent and a real fault shows up on the timeline.
fn observed_slo(tenants: usize) -> SloConfig {
    let mut slo = SloConfig::new().with_stall_after(SimDuration::from_ms(10));
    for t in 0..tenants {
        slo = slo.with_spec(
            SloSpec::latency(t as u16, SimDuration::from_ms(1))
                .with_windows(SimDuration::from_ms(1), SimDuration::from_ms(5)),
        );
    }
    slo
}

/// Runs `plan` through the BM-Store testbed under `cfg` and applies the
/// oracle battery. The plan's embedded seed doubles as the testbed
/// seed, so one artifact reproduces the whole run.
pub fn run_case(cfg: &ChaosConfig, plan: &FaultPlan) -> CaseReport {
    run_case_inner(cfg, plan, false).0
}

/// [`run_case`] with telemetry, metrics, and the SLO engine enabled,
/// returning the deterministic incident report alongside the oracle
/// verdict. Observability is inert with respect to simulation state, so
/// the `CaseReport` is identical to the unobserved run's; oracle
/// violations are stamped onto the incident timeline at drain time.
pub fn run_case_observed(cfg: &ChaosConfig, plan: &FaultPlan) -> (CaseReport, String) {
    let (report, incident) = run_case_inner(cfg, plan, true);
    (report, incident.unwrap_or_default())
}

fn run_case_inner(
    cfg: &ChaosConfig,
    plan: &FaultPlan,
    observed: bool,
) -> (CaseReport, Option<String>) {
    let churn_end = SimTime::ZERO + cfg.churn;
    let verify_at = churn_end + DRAIN_MARGIN;
    let mut tcfg = TestbedConfig::bm_store_bare_metal(cfg.tenants)
        .with_data_mode(DataMode::Full)
        .with_seed(plan.seed())
        .with_fault_plan(plan.clone());
    if let Some(timeout) = cfg.command_timeout {
        tcfg = tcfg.with_command_timeout(timeout, cfg.fail_policy);
    } else {
        tcfg.engine_fail_policy = cfg.fail_policy;
    }
    tcfg.engine_drop_journal_tail = cfg.sabotage_drop_journal_tail;
    if observed {
        tcfg = tcfg.with_telemetry().with_slo(observed_slo(cfg.tenants));
    }

    let mut tb = Testbed::new(tcfg);
    let tenants: Vec<ChaosTenant> = (0..cfg.tenants)
        .map(|d| {
            let lbas = cfg.lbas_per_tenant;
            ChaosTenant::new(&mut tb, DeviceId(d), lbas, churn_end, verify_at)
        })
        .collect();
    let mut world = World::new(tb);
    let ids: Vec<_> = tenants
        .into_iter()
        .map(|t| world.add_client(Box::new(t)))
        .collect();
    let mut world = world.run(None);
    #[expect(
        clippy::expect_used,
        reason = "every id came from add_client for a ChaosTenant above; skipping one would shift the tenant numbering of every oracle"
    )]
    let shared_all: Vec<_> = ids
        .iter()
        .map(|&id| {
            let tenant = world.client_as::<ChaosTenant>(id);
            &tenant.expect("chaos tenant").shared
        })
        .collect();

    let mut report = CaseReport {
        seed: plan.seed(),
        clamped_past: world.clamped_past,
        ..CaseReport::default()
    };

    // Oracle 1+2: exactly-once completion, nothing stuck at drain.
    for (d, s) in shared_all.iter().enumerate() {
        report.issued += s.issued;
        report.completed += s.seen.len() as u64;
        report.failed_io += s.failed_io;
        for &tag in &s.duplicates {
            report
                .violations
                .push(Violation::DuplicateCompletion { tenant: d, tag });
        }
        if (s.seen.len() as u64) < s.issued {
            report.violations.push(Violation::LostCompletions {
                tenant: d,
                completed: s.seen.len() as u64,
                issued: s.issued,
            });
        }
    }

    // Oracle 3: checksummed read-back of every acknowledged write.
    let mut acked = Vec::new();
    for (d, s) in shared_all.iter().enumerate() {
        for (i, lba) in s.lbas.iter().enumerate() {
            if let (VerifyOutcome::Ok, Some(v)) = (s.verify[i], lba.expect) {
                acked.push((d, lba.lba.0, lba.vbuf, v));
            }
        }
    }
    for (d, lba, vbuf, v) in acked {
        let got = world.tb.host_mem.read_vec(world.tb.buffer_addr(vbuf), 4096);
        if got != pattern(d, lba, v) {
            report.violations.push(Violation::ReadbackMismatch {
                tenant: d,
                lba,
                version: v,
            });
        }
    }

    // Oracle 4: back-end conservation law and empty pipelines at drain.
    if let Some(engine) = world.tb.engine() {
        for (i, port) in engine.adaptor().ports().enumerate() {
            let live = port.live() as u64;
            let forwarded = port.forwarded();
            let completed = port.completed();
            let abandoned = port.abandoned();
            if completed + abandoned + live != forwarded {
                report.violations.push(Violation::ConservationBroken {
                    ssd: i,
                    live,
                    forwarded,
                    completed,
                    abandoned,
                });
            }
            if live > 0 {
                report
                    .violations
                    .push(Violation::StuckInFlight { ssd: i, live });
            }
            let buffered = engine.backlog_len(SsdId(i as u8));
            if buffered > 0 {
                report
                    .violations
                    .push(Violation::StuckBacklog { ssd: i, buffered });
            }
        }

        // Oracle 5: recovery ran when commanded, within its budget.
        let stats = engine.resilience_stats();
        report.recoveries = stats.recoveries;
        report.replayed = stats.replayed;
        report.aborted_on_recovery = stats.aborted_on_recovery;
        let mut crash_events = 0usize;
        let mut bound = SimDuration::ZERO;
        for e in plan.events() {
            match e.kind {
                FaultKind::EngineCrash { restart_after } => {
                    crash_events += 1;
                    bound = bound.saturating_add(restart_after + RECOVERY_SLACK);
                }
                FaultKind::PowerLoss { .. } => {
                    crash_events += 1;
                    bound = bound.saturating_add(POWER_LOSS_RESTART + RECOVERY_SLACK);
                }
                FaultKind::SsdLatencySpike { .. }
                | FaultKind::SsdStall { .. }
                | FaultKind::SsdDeath { .. }
                | FaultKind::SsdErrorBurst { .. }
                | FaultKind::SsdDropCommands { .. }
                | FaultKind::MctpDrop { .. }
                | FaultKind::LinkRetrain { .. }
                | FaultKind::SsdReinsert { .. } => {}
            }
        }
        if crash_events > 0 && stats.recoveries == 0 {
            report
                .violations
                .push(Violation::MissingRecovery { crash_events });
        }
        if stats.recovery_time > bound {
            report.violations.push(Violation::UnboundedRecovery {
                spent_ns: stats.recovery_time.as_nanos(),
                bound_ns: bound.as_nanos(),
            });
        }
    }

    let incident = observed.then(|| {
        let extras: Vec<(SimTime, String)> = report
            .violations
            .iter()
            .map(|v| (world.run_end(), format!("violation: {v}")))
            .collect();
        world.incident_report(&extras, 5)
    });

    (report, incident)
}
