//! Per-tenant SLO engine: declarative objectives, multi-window
//! burn-rate alerting, and deterministic incident reports.
//!
//! The telemetry layer records what happened and the critical-path pass
//! explains per-command blame; this module decides *when to page*.
//! Tenants declare latency objectives ([`SloSpec`]); the
//! engine consumes every command completion and, on each periodic
//! sampler tick, evaluates the classic SRE multi-window burn rate over a
//! 1% error budget: an alert fires only when **both** a short and a
//! long window burn it at least twice as fast as allowed, and clears
//! when the short window burns slower than allowed. A progress
//! watchdog raises a [`Stall`] alert when completions stop arriving
//! while commands are outstanding — the alerting analogue of the chaos
//! drain oracle.
//!
//! Everything is driven by sim time and integer completion counts, so
//! the alert sequence is a pure function of `(seed, fault plan,
//! config)`: same run, same alerts, same rendered incident text, every
//! time. There is no wall clock, no randomness, and no allocation on
//! the completion hot path beyond checkpoint bookkeeping.
//!
//! [`render_incident`] correlates the alert log with fault/recovery
//! windows (metric annotations), chaos oracle violations, and blame
//! profiles into one ordered, parseable incident timeline; see the
//! module-level format note on [`parse_incident`].
//!
//! [`Stall`]: AlertKind::Stall

use crate::metrics::Annotation;
use crate::telemetry::critical_path::CriticalPathAnalysis;
use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Error budget: the fraction of completions allowed to miss the
/// objective.
const BUDGET: f64 = 0.01;
/// An alert fires when both windows burn the budget at least this many
/// times faster than allowed.
const FIRE_BURN: f64 = 2.0;
/// A firing alert clears when the short window's burn drops below this.
const CLEAR_BURN: f64 = 1.0;

/// One tenant's latency objective: completions must finish within
/// `threshold`; failures also count against the error budget.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Tenant the objective covers.
    pub tenant: u16,
    /// Per-command latency objective.
    pub threshold: SimDuration,
    /// Fast-reacting evaluation window.
    pub short_window: SimDuration,
    /// Slow, sustained-burn evaluation window.
    pub long_window: SimDuration,
}

impl SloSpec {
    /// Latency objective over the default 100µs/1ms windows.
    pub fn latency(tenant: u16, threshold: SimDuration) -> Self {
        SloSpec {
            tenant,
            threshold,
            short_window: SimDuration::from_us(100),
            long_window: SimDuration::from_ms(1),
        }
    }

    /// Overrides the evaluation windows.
    pub fn with_windows(mut self, short: SimDuration, long: SimDuration) -> Self {
        self.short_window = short;
        self.long_window = long;
        self
    }
}

/// The full SLO policy handed to the testbed via
/// `TestbedConfig::with_slo`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SloConfig {
    /// Objectives, evaluated in order (deterministic alert sequence).
    pub specs: Vec<SloSpec>,
    /// Progress watchdog: raise a `Stall` alert when no completion has
    /// arrived for this long while commands are outstanding. `None`
    /// disables the watchdog.
    pub stall_after: Option<SimDuration>,
}

impl SloConfig {
    /// An empty policy (no specs, watchdog off).
    pub fn new() -> Self {
        SloConfig::default()
    }

    /// Adds one objective.
    pub fn with_spec(mut self, spec: SloSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Arms the progress watchdog.
    pub fn with_stall_after(mut self, after: SimDuration) -> Self {
        self.stall_after = Some(after);
        self
    }
}

/// What kind of objective an alert concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertKind {
    /// Latency objective burn.
    Latency,
    /// Progress watchdog: outstanding work but no completions.
    Stall,
}

impl AlertKind {
    /// Stable lowercase name used in rendered alerts.
    pub fn name(self) -> &'static str {
        match self {
            AlertKind::Latency => "latency",
            AlertKind::Stall => "stall",
        }
    }
}

/// Fire/clear edge of an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Condition began.
    Fire,
    /// Condition ended.
    Clear,
}

impl AlertState {
    /// Stable lowercase name used in rendered alerts.
    pub fn name(self) -> &'static str {
        match self {
            AlertState::Fire => "fire",
            AlertState::Clear => "clear",
        }
    }
}

/// One seed-stable alert edge emitted by [`SloEngine::evaluate`].
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Sampler tick that produced the edge.
    pub at: SimTime,
    /// Tenant under the objective; `None` for the global stall
    /// watchdog.
    pub tenant: Option<u16>,
    /// Objective kind.
    pub kind: AlertKind,
    /// Fire or clear.
    pub state: AlertState,
    /// Short-window burn multiple at the edge (for stalls: elapsed
    /// silence as a multiple of the watchdog threshold).
    pub burn: f64,
}

impl Alert {
    /// Canonical one-line rendering, e.g.
    /// `t=150000ns alert fire latency tenant=0 severity=critical burn=4.20`.
    /// Every alert is critical: each one is worth a page.
    pub fn render(&self) -> String {
        let tenant = match self.tenant {
            Some(t) => t.to_string(),
            None => "-".to_string(),
        };
        format!(
            "t={}ns alert {} {} tenant={} severity=critical burn={:.2}",
            self.at.as_nanos(),
            self.state.name(),
            self.kind.name(),
            tenant,
            self.burn,
        )
    }

    /// Compact label recorded as a metrics-timeline annotation.
    pub fn annotation_label(&self) -> String {
        let tenant = match self.tenant {
            Some(t) => t.to_string(),
            None => "-".to_string(),
        };
        format!(
            "slo:{}:{}:tenant={}:burn={:.2}",
            self.state.name(),
            self.kind.name(),
            tenant,
            self.burn,
        )
    }
}

/// Cumulative counters at a sampler tick: `(at, good, bad)`.
type Checkpoint = (SimTime, u64, u64);

#[derive(Debug, Clone)]
struct SpecState {
    good: u64,
    bad: u64,
    checkpoints: VecDeque<Checkpoint>,
    firing: bool,
}

impl SpecState {
    fn new() -> Self {
        let mut checkpoints = VecDeque::new();
        checkpoints.push_back((SimTime::ZERO, 0, 0));
        SpecState {
            good: 0,
            bad: 0,
            checkpoints,
            firing: false,
        }
    }

    /// Latest checkpoint at least `window` old, if the window is full.
    fn baseline(&self, now: SimTime, window: SimDuration) -> Option<Checkpoint> {
        self.checkpoints
            .iter()
            .rev()
            .find(|(at, _, _)| at.as_nanos() + window.as_nanos() <= now.as_nanos())
            .copied()
    }
}

/// The evaluator. Owned by the testbed world; fed by
/// `observe_completion` on every delivered completion and ticked by
/// `evaluate` from the periodic metrics sampler.
#[derive(Debug, Clone)]
pub struct SloEngine {
    config: SloConfig,
    states: Vec<SpecState>,
    alerts: Vec<Alert>,
    completions_total: u64,
    last_progress: (SimTime, u64),
    stall_firing: bool,
}

impl SloEngine {
    /// Builds the engine for a policy.
    pub fn new(config: SloConfig) -> Self {
        let states = config.specs.iter().map(|_| SpecState::new()).collect();
        SloEngine {
            config,
            states,
            alerts: Vec::new(),
            completions_total: 0,
            last_progress: (SimTime::ZERO, 0),
            stall_firing: false,
        }
    }

    /// The policy under evaluation.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Every alert edge emitted so far, in emission order.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Classifies one delivered completion against every matching
    /// spec. `ok=false` completions always count as bad.
    pub fn observe_completion(&mut self, tenant: u16, latency: SimDuration, ok: bool) {
        self.completions_total += 1;
        for (spec, state) in self.config.specs.iter().zip(self.states.iter_mut()) {
            if spec.tenant != tenant {
                continue;
            }
            if ok && latency <= spec.threshold {
                state.good += 1;
            } else {
                state.bad += 1;
            }
        }
    }

    /// Burn multiple for one spec over one window, or `None` while the
    /// window has not filled yet.
    fn window_burn(state: &SpecState, now: SimTime, window: SimDuration) -> Option<f64> {
        let (_, g0, b0) = state.baseline(now, window)?;
        let dbad = state.bad - b0;
        let dtotal = (state.good + state.bad) - (g0 + b0);
        if dtotal == 0 {
            return Some(0.0);
        }
        Some((dbad as f64 / dtotal as f64) / BUDGET)
    }

    /// One sampler tick: evaluates every spec's two windows, runs the
    /// stall watchdog, checkpoints counters, and returns (and logs) the
    /// alert edges this tick produced. `outstanding` is the number of
    /// commands currently in flight host-side.
    pub fn evaluate(&mut self, now: SimTime, outstanding: u64) -> Vec<Alert> {
        let mut edges = Vec::new();
        for (spec, state) in self.config.specs.iter().zip(self.states.iter_mut()) {
            let short = Self::window_burn(state, now, spec.short_window);
            let long = Self::window_burn(state, now, spec.long_window);
            if !state.firing {
                if let (Some(s), Some(l)) = (short, long) {
                    if s >= FIRE_BURN && l >= FIRE_BURN {
                        state.firing = true;
                        edges.push(Alert {
                            at: now,
                            tenant: Some(spec.tenant),
                            kind: AlertKind::Latency,
                            state: AlertState::Fire,
                            burn: s,
                        });
                    }
                }
            } else if let Some(s) = short {
                if s < CLEAR_BURN {
                    state.firing = false;
                    edges.push(Alert {
                        at: now,
                        tenant: Some(spec.tenant),
                        kind: AlertKind::Latency,
                        state: AlertState::Clear,
                        burn: s,
                    });
                }
            }
            state.checkpoints.push_back((now, state.good, state.bad));
            // Keep exactly one checkpoint older than the long window so
            // baselines stay resolvable without unbounded growth.
            while state.checkpoints.len() >= 2 {
                let second_old = state.checkpoints[1].0.as_nanos() + spec.long_window.as_nanos()
                    <= now.as_nanos();
                if second_old {
                    state.checkpoints.pop_front();
                } else {
                    break;
                }
            }
        }

        // Progress watchdog.
        if self.completions_total > self.last_progress.1 {
            self.last_progress = (now, self.completions_total);
            if self.stall_firing {
                self.stall_firing = false;
                edges.push(Alert {
                    at: now,
                    tenant: None,
                    kind: AlertKind::Stall,
                    state: AlertState::Clear,
                    burn: 0.0,
                });
            }
        } else if let Some(after) = self.config.stall_after {
            let silent = now.saturating_since(self.last_progress.0);
            if outstanding > 0 && silent >= after && !self.stall_firing {
                self.stall_firing = true;
                edges.push(Alert {
                    at: now,
                    tenant: None,
                    kind: AlertKind::Stall,
                    state: AlertState::Fire,
                    burn: silent.as_nanos_f64()
                        / after.max(SimDuration::from_nanos(1)).as_nanos_f64(),
                });
            }
        }

        self.alerts.extend(edges.iter().cloned());
        edges
    }
}

/// Everything an incident report correlates.
pub struct IncidentInput<'a> {
    /// The alert log (usually [`SloEngine::alerts`]).
    pub alerts: &'a [Alert],
    /// Metrics-timeline annotations (fault/recovery windows; `slo:*`
    /// entries are skipped here because the alert log already carries
    /// them).
    pub annotations: &'a [Annotation],
    /// Optional blame analysis for the "critical path shifted" story.
    pub blame: Option<&'a CriticalPathAnalysis>,
    /// Extra timeline entries (e.g. chaos oracle violations).
    pub extra_events: &'a [(SimTime, String)],
    /// Engine recovery counters for the summary line.
    pub recoveries: u64,
    /// Commands replayed across recoveries.
    pub replayed: u64,
    /// Commands aborted to host on recovery.
    pub aborted_on_recovery: u64,
    /// How many slowest commands to include.
    pub top_k: usize,
}

/// Renders the deterministic incident report: a versioned header, a
/// machine-checkable summary line, one ordered timeline correlating
/// faults + recoveries + alerts + extra events, the per-tenant blame
/// story (including the dominant-stage shift inside fault windows), the
/// top-k critical paths, and an `end` terminator.
pub fn render_incident(input: &IncidentInput<'_>) -> String {
    let mut out = String::new();
    let faults = input
        .annotations
        .iter()
        .filter(|a| a.label.starts_with("fault:"))
        .count();
    let _ = writeln!(out, "bmstore-incident v1");
    let _ = writeln!(
        out,
        "summary alerts={} faults={} recoveries={} replayed={} aborted={}",
        input.alerts.len(),
        faults,
        input.recoveries,
        input.replayed,
        input.aborted_on_recovery,
    );

    let mut timeline: Vec<(u64, String)> = Vec::new();
    for a in input.annotations {
        if a.label.starts_with("slo:") {
            continue;
        }
        let line = match a.end {
            Some(end) => format!(
                "t={}ns {} (until {}ns)",
                a.start.as_nanos(),
                a.label,
                end.as_nanos()
            ),
            None => format!("t={}ns {} (open)", a.start.as_nanos(), a.label),
        };
        timeline.push((a.start.as_nanos(), line));
    }
    for alert in input.alerts {
        timeline.push((alert.at.as_nanos(), alert.render()));
    }
    for (at, text) in input.extra_events {
        timeline.push((at.as_nanos(), format!("t={}ns {}", at.as_nanos(), text)));
    }
    timeline.sort();
    let _ = writeln!(out, "timeline ({} events):", timeline.len());
    for (_, line) in &timeline {
        let _ = writeln!(out, "  {line}");
    }

    if let Some(blame) = input.blame {
        let tenants: Vec<u16> = {
            let mut t: Vec<u16> = blame.profiles.keys().map(|(tenant, _)| *tenant).collect();
            t.dedup();
            t
        };
        let _ = writeln!(out, "blame ({} tenants):", tenants.len());
        for tenant in tenants {
            let profile = blame.tenant_profile(tenant);
            let dominant = profile.dominant().map(|(n, _)| n).unwrap_or("(idle)");
            let _ = writeln!(
                out,
                "  tenant={} n={} mean={}ns p99={}ns dominant={}",
                tenant,
                profile.commands,
                profile.total.mean().as_nanos(),
                profile.total.percentile(0.99).as_nanos(),
                dominant,
            );
            let (inside, outside) = blame.tenant_fault_split(tenant);
            if inside.commands > 0 && outside.commands > 0 {
                let din = inside.dominant().map(|(n, _)| n).unwrap_or("(idle)");
                let dout = outside.dominant().map(|(n, _)| n).unwrap_or("(idle)");
                if din != dout {
                    let _ = writeln!(
                        out,
                        "  tenant={tenant} critical path shifted: {dout} -> {din} during fault windows",
                    );
                }
            }
        }
        let _ = writeln!(out, "top critical paths:");
        for b in blame.top_slowest(input.top_k) {
            let _ = writeln!(
                out,
                "  cmd={} tenant={} op=0x{:02x} total={}ns path: {}",
                b.cmd.0,
                b.tenant,
                b.opcode,
                b.total().as_nanos(),
                b.render_path(),
            );
        }
    }
    let _ = writeln!(out, "end");
    out
}

/// Machine-checkable digest parsed back out of a rendered incident.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentSummary {
    /// `alerts=` count from the summary line.
    pub alerts: u64,
    /// `faults=` count from the summary line.
    pub faults: u64,
    /// `recoveries=` count from the summary line.
    pub recoveries: u64,
    /// Timeline entry count from the `timeline (N events):` header.
    pub timeline_events: u64,
    /// Alert lines actually present in the timeline.
    pub alert_lines: u64,
}

fn summary_field(line: &str, key: &str) -> Result<u64, String> {
    let needle = format!("{key}=");
    let start = line
        .find(&needle)
        .ok_or_else(|| format!("incident summary missing `{key}=`"))?
        + needle.len();
    let rest = &line[start..];
    let end = rest.find(' ').unwrap_or(rest.len());
    rest[..end]
        .parse::<u64>()
        .map_err(|e| format!("incident summary field `{key}`: {e}"))
}

/// Whether a timeline line is an [`Alert::render`] line. An extra event
/// or annotation that merely contains `ns alert` is not; one whose text
/// spells a whole alert line is indistinguishable from it.
fn is_alert_line(line: &str) -> bool {
    let Some((at, alert)) = line
        .strip_prefix("  t=")
        .and_then(|l| l.split_once("ns alert "))
    else {
        return false;
    };
    let tenant = |t: &str| {
        t.strip_prefix("tenant=")
            .is_some_and(|t| t == "-" || t.parse::<u16>().is_ok())
    };
    at.parse::<u64>().is_ok()
        && matches!(
            alert.split(' ').collect::<Vec<_>>().as_slice(),
            ["fire" | "clear", "latency" | "stall", t, "severity=critical", burn]
                if tenant(t) && burn.starts_with("burn=")
        )
}

/// Validates a rendered incident report and extracts its digest.
/// Checks the version header, that the timeline holds as many entries
/// as its header claims, the `end` terminator, and that the timeline's
/// alert-line count matches the summary's claim — so a truncated or
/// hand-mangled report fails loudly instead of parsing to a rosier
/// story.
pub fn parse_incident(text: &str) -> Result<IncidentSummary, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty incident report")?;
    if header != "bmstore-incident v1" {
        return Err(format!("bad incident header: {header:?}"));
    }
    let summary = lines.next().ok_or("incident report missing summary")?;
    if !summary.starts_with("summary ") {
        return Err(format!("bad incident summary line: {summary:?}"));
    }
    let alerts = summary_field(summary, "alerts")?;
    let faults = summary_field(summary, "faults")?;
    let recoveries = summary_field(summary, "recoveries")?;
    let timeline_header = lines.next().ok_or("incident report missing timeline")?;
    let timeline_events = timeline_header
        .strip_prefix("timeline (")
        .and_then(|r| r.strip_suffix(" events):"))
        .ok_or_else(|| format!("bad timeline header: {timeline_header:?}"))?
        .parse::<u64>()
        .map_err(|e| format!("timeline count: {e}"))?;
    let mut alert_lines = 0u64;
    for _ in 0..timeline_events {
        let entry = lines
            .next()
            .filter(|l| l.starts_with("  t="))
            .ok_or("incident timeline holds fewer entries than its header claims")?;
        alert_lines += u64::from(is_alert_line(entry));
    }
    if !lines.any(|l| l == "end") {
        return Err("incident report missing `end` terminator".to_string());
    }
    if alert_lines != alerts {
        return Err(format!(
            "incident summary claims {alerts} alerts but timeline has {alert_lines}"
        ));
    }
    Ok(IncidentSummary {
        alerts,
        faults,
        recoveries,
        timeline_events,
        alert_lines,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    fn latency_spec() -> SloSpec {
        SloSpec::latency(0, SimDuration::from_us(50))
            .with_windows(SimDuration::from_us(100), SimDuration::from_us(300))
    }

    #[test]
    fn burn_fires_on_both_windows_and_clears_on_short() {
        let mut eng = SloEngine::new(SloConfig::new().with_spec(latency_spec()));
        // Ticks every 100us. First 3 ticks: all good -> no alert.
        for tick in 1..=3u64 {
            for _ in 0..10 {
                eng.observe_completion(0, SimDuration::from_us(10), true);
            }
            assert!(eng.evaluate(t(tick * 100), 0).is_empty());
        }
        // Next 3 ticks: everything misses the objective -> fire once.
        let mut fired = Vec::new();
        for tick in 4..=6u64 {
            for _ in 0..10 {
                eng.observe_completion(0, SimDuration::from_us(500), true);
            }
            fired.extend(eng.evaluate(t(tick * 100), 0));
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].state, AlertState::Fire);
        assert_eq!(fired[0].kind, AlertKind::Latency);
        assert_eq!(fired[0].tenant, Some(0));
        assert!(fired[0].burn >= 2.0);
        // Recovery: good completions drain the short window -> clear.
        let mut cleared = Vec::new();
        for tick in 7..=10u64 {
            for _ in 0..10 {
                eng.observe_completion(0, SimDuration::from_us(10), true);
            }
            cleared.extend(eng.evaluate(t(tick * 100), 0));
        }
        assert_eq!(cleared.len(), 1);
        assert_eq!(cleared[0].state, AlertState::Clear);
        assert_eq!(eng.alerts().len(), 2);
    }

    #[test]
    fn short_spike_does_not_fire_the_long_window() {
        let mut eng = SloEngine::new(SloConfig::new().with_spec(latency_spec()));
        // Long window needs 300us of history; burn only one tick.
        for tick in 1..=3u64 {
            for _ in 0..100 {
                eng.observe_completion(0, SimDuration::from_us(10), true);
            }
            assert!(eng.evaluate(t(tick * 100), 0).is_empty());
        }
        // One bad tick out of a long good history: short window burns
        // hard, long window stays under threshold -> no page.
        for _ in 0..2 {
            eng.observe_completion(0, SimDuration::from_us(500), true);
        }
        for _ in 0..98 {
            eng.observe_completion(0, SimDuration::from_us(10), true);
        }
        let edges = eng.evaluate(t(400), 0);
        assert!(edges.is_empty(), "long window should gate: {edges:?}");
    }

    #[test]
    fn failed_completions_count_against_latency_budget() {
        let mut eng = SloEngine::new(SloConfig::new().with_spec(latency_spec()));
        for tick in 1..=4u64 {
            for _ in 0..10 {
                eng.observe_completion(0, SimDuration::from_us(1), false);
            }
            let edges = eng.evaluate(t(tick * 100), 0);
            if tick >= 3 {
                assert_eq!(edges.len(), if tick == 3 { 1 } else { 0 });
            }
        }
        assert_eq!(eng.alerts()[0].state, AlertState::Fire);
    }

    #[test]
    fn stall_watchdog_fires_and_clears() {
        let cfg = SloConfig::new().with_stall_after(SimDuration::from_us(250));
        let mut eng = SloEngine::new(cfg);
        eng.observe_completion(0, SimDuration::from_us(10), true);
        assert!(eng.evaluate(t(100), 5).is_empty());
        // Silence with outstanding work: fires once past the threshold.
        assert!(eng.evaluate(t(200), 5).is_empty());
        let edges = eng.evaluate(t(400), 5);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].kind, AlertKind::Stall);
        assert_eq!(edges[0].state, AlertState::Fire);
        assert_eq!(edges[0].tenant, None);
        // No double-fire while still stalled.
        assert!(eng.evaluate(t(500), 5).is_empty());
        // Progress clears it.
        eng.observe_completion(0, SimDuration::from_us(10), true);
        let edges = eng.evaluate(t(600), 5);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].state, AlertState::Clear);
    }

    #[test]
    fn stall_needs_outstanding_work() {
        let cfg = SloConfig::new().with_stall_after(SimDuration::from_us(100));
        let mut eng = SloEngine::new(cfg);
        assert!(eng.evaluate(t(1000), 0).is_empty(), "idle is not a stall");
    }

    #[test]
    fn identical_inputs_give_identical_alert_logs() {
        let run = || {
            let mut eng = SloEngine::new(
                SloConfig::new()
                    .with_spec(latency_spec())
                    .with_stall_after(SimDuration::from_us(500)),
            );
            for tick in 1..=8u64 {
                for i in 0..10u64 {
                    let lat = if (4..=5).contains(&tick) { 900 } else { 5 + i };
                    eng.observe_completion(0, SimDuration::from_us(lat), true);
                }
                eng.evaluate(t(tick * 100), 3);
            }
            eng.alerts()
                .iter()
                .map(Alert::render)
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn checkpoints_stay_bounded() {
        let mut eng = SloEngine::new(SloConfig::new().with_spec(latency_spec()));
        for tick in 1..=1000u64 {
            eng.observe_completion(0, SimDuration::from_us(1), true);
            eng.evaluate(t(tick * 100), 0);
        }
        // long_window = 300us at 100us ticks: one stale + ~3 in-window
        // + the fresh one.
        assert!(eng.states[0].checkpoints.len() <= 6);
    }

    #[test]
    fn incident_renders_and_round_trips() {
        let alerts = vec![
            Alert {
                at: t(150),
                tenant: Some(3),
                kind: AlertKind::Latency,
                state: AlertState::Fire,
                burn: 4.2,
            },
            Alert {
                at: t(900),
                tenant: Some(3),
                kind: AlertKind::Latency,
                state: AlertState::Clear,
                burn: 0.1,
            },
        ];
        let annotations = vec![
            Annotation {
                start: t(100),
                end: Some(t(600)),
                label: "fault:ssd-stall".to_string(),
            },
            Annotation {
                start: t(150),
                end: None,
                label: "slo:fire:latency:tenant=3:burn=4.20".to_string(),
            },
        ];
        let extras = vec![(t(700), "oracle: LostCompletions tenant=3".to_string())];
        let text = render_incident(&IncidentInput {
            alerts: &alerts,
            annotations: &annotations,
            blame: None,
            extra_events: &extras,
            recoveries: 1,
            replayed: 4,
            aborted_on_recovery: 0,
            top_k: 3,
        });
        assert!(text.starts_with("bmstore-incident v1\n"));
        assert!(text.contains("t=150000ns alert fire latency tenant=3"));
        assert!(text.contains("fault:ssd-stall (until 600000ns)"));
        assert!(text.contains("oracle: LostCompletions"));
        // slo:* annotations are skipped (alert log already has them).
        assert!(!text.contains("slo:fire"));
        let parsed = parse_incident(&text).unwrap();
        assert_eq!(parsed.alerts, 2);
        assert_eq!(parsed.faults, 1);
        assert_eq!(parsed.recoveries, 1);
        assert_eq!(parsed.timeline_events, 4);
        // Determinism: rendering twice gives the same bytes.
        let again = render_incident(&IncidentInput {
            alerts: &alerts,
            annotations: &annotations,
            blame: None,
            extra_events: &extras,
            recoveries: 1,
            replayed: 4,
            aborted_on_recovery: 0,
            top_k: 3,
        });
        assert_eq!(text, again);
    }

    #[test]
    fn parse_rejects_mangled_reports() {
        assert!(parse_incident("").is_err());
        assert!(parse_incident("bogus\n").is_err());
        let good = render_incident(&IncidentInput {
            alerts: &[],
            annotations: &[],
            blame: None,
            extra_events: &[],
            recoveries: 0,
            replayed: 0,
            aborted_on_recovery: 0,
            top_k: 1,
        });
        assert!(parse_incident(&good).is_ok());
        // Truncation loses the terminator.
        let truncated = good.trim_end_matches("end\n");
        assert!(parse_incident(truncated).is_err());
        // A forged alert count no longer matches the timeline.
        let forged = good.replace("alerts=0", "alerts=7");
        assert!(parse_incident(&forged).is_err());
    }
}
