//! Critical-path blame attribution: *why* was this command slow?
//!
//! [`super::TelemetryRecorder`] records what happened — spans per stage,
//! retries, fault marks. This module turns that record into a verdict:
//! a deterministic per-command breakdown of the root span into
//!
//! * **per-stage service** — time covered by a successful stage span
//!   (nested stages attribute to the innermost, so the SSD's service
//!   interval is `backend`, not double-counted under `dma`),
//! * **retry** — time covered by a failed forwarding attempt,
//! * **crash-recovery** — uncovered time inside an engine-outage window,
//! * **queue-wait** — uncovered time outside any outage (the command sat
//!   in a queue no layer instrumented).
//!
//! The four buckets partition the root window exactly, so per-command
//! blame always sums back to end-to-end latency (the property test in
//! `tests/` holds with and without a fault plan). Fault-window overlap
//! is tracked *alongside* the partition (a command can be in `backend`
//! service *during* an SSD stall; both facts matter) and never
//! double-counts thanks to window coalescing.
//!
//! Per-command blames aggregate into per-`(tenant, opcode)`
//! [`BlameProfile`]s — the per-command analogue of the stage-level
//! bottleneck report — and a "top-k slowest commands with their
//! critical paths" rendering for incident reports.
//!
//! Everything here is a pure function of the recorder and the supplied
//! windows: no scheduling, no randomness, no wall clock.

use super::{CmdId, Span, TelemetryEventKind, TelemetryRecorder, TelemetryStage};
use crate::metrics::Annotation;
use crate::stats::LatencyHistogram;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Fault and engine-outage windows the blame pass correlates spans
/// against. Windows are coalesced at construction, so overlap queries
/// never double-count.
#[derive(Debug, Clone, Default)]
pub struct BlameWindows {
    fault: Vec<(SimTime, SimTime)>,
    recovery: Vec<(SimTime, SimTime)>,
}

impl BlameWindows {
    /// Builds from explicit window lists (`recovery` ⊆ engine outages).
    pub fn new(fault: Vec<(SimTime, SimTime)>, recovery: Vec<(SimTime, SimTime)>) -> Self {
        BlameWindows {
            fault: coalesce(fault),
            recovery: coalesce(recovery),
        }
    }

    /// Derives windows from the metrics timeline annotations the
    /// testbed records at fault-injection and recovery time: every
    /// `fault:*` window counts as fault time; `fault:engine-crash`,
    /// `fault:power-loss` and `recovery:*` windows count as engine
    /// outage. Open-ended windows close at `default_end` (run end).
    pub fn from_annotations(annotations: &[Annotation], default_end: SimTime) -> Self {
        let mut fault = Vec::new();
        let mut recovery = Vec::new();
        for a in annotations {
            let end = a.end.unwrap_or(default_end).max(a.start);
            if a.label.starts_with("fault:") {
                fault.push((a.start, end));
            }
            if a.label.starts_with("fault:engine-crash")
                || a.label.starts_with("fault:power-loss")
                || a.label.starts_with("recovery:")
            {
                recovery.push((a.start, end));
            }
        }
        Self::new(fault, recovery)
    }

    /// Coalesced fault windows.
    pub fn fault(&self) -> &[(SimTime, SimTime)] {
        &self.fault
    }

    /// Coalesced engine-outage windows.
    pub fn recovery(&self) -> &[(SimTime, SimTime)] {
        &self.recovery
    }
}

/// Sorts and merges overlapping/adjacent windows; drops empty ones.
fn coalesce(mut windows: Vec<(SimTime, SimTime)>) -> Vec<(SimTime, SimTime)> {
    windows.retain(|(s, e)| e > s);
    windows.sort();
    let mut out: Vec<(SimTime, SimTime)> = Vec::with_capacity(windows.len());
    for (s, e) in windows {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// One command's blame breakdown. The partition invariant:
/// `queue_wait + retry + crash_recovery + Σ service == total()`, exact
/// in nanoseconds.
#[derive(Debug, Clone)]
pub struct CommandBlame {
    /// The command.
    pub cmd: CmdId,
    /// Owning tenant.
    pub tenant: u16,
    /// NVMe opcode byte.
    pub opcode: u8,
    /// Root-span start (client submission).
    pub start: SimTime,
    /// Root-span end (completion delivered).
    pub end: SimTime,
    /// Time no instrumented stage covered, outside engine outages.
    pub queue_wait: SimDuration,
    /// Time covered by failed (retried/aborted) stage attempts.
    pub retry: SimDuration,
    /// Uncovered time inside an engine crash/power-loss outage.
    pub crash_recovery: SimDuration,
    /// Successful service time per stage (innermost stage wins when
    /// spans nest, e.g. `backend` inside `dma`).
    pub service: BTreeMap<TelemetryStage, SimDuration>,
    /// Overlap of the root window with (coalesced) fault windows.
    /// Informational — *not* part of the partition.
    pub fault_overlap: SimDuration,
    /// Retry instants recorded against the command.
    pub retries: u32,
}

impl CommandBlame {
    /// End-to-end latency (the root span's duration).
    pub fn total(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Sum of the partition buckets; equals [`Self::total`] by
    /// construction.
    pub fn blame_sum(&self) -> SimDuration {
        let svc: u64 = self.service.values().map(|d| d.as_nanos()).sum();
        SimDuration::from_nanos(
            self.queue_wait.as_nanos()
                + self.retry.as_nanos()
                + self.crash_recovery.as_nanos()
                + svc,
        )
    }

    /// Non-zero blame parts, largest first (ties break on the label so
    /// the order is deterministic).
    pub fn parts(&self) -> Vec<(&'static str, SimDuration)> {
        let mut parts: Vec<(&'static str, SimDuration)> = Vec::new();
        for (stage, d) in &self.service {
            if d.as_nanos() > 0 {
                parts.push((stage.name(), *d));
            }
        }
        for (name, d) in [
            ("queue-wait", self.queue_wait),
            ("retry", self.retry),
            ("crash-recovery", self.crash_recovery),
        ] {
            if d.as_nanos() > 0 {
                parts.push((name, d));
            }
        }
        parts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        parts
    }

    /// The largest blame bucket, if the command took any time at all.
    pub fn dominant(&self) -> Option<(&'static str, SimDuration)> {
        self.parts().into_iter().next()
    }

    /// One-line critical path: `backend=800000ns queue-wait=90000ns ...`.
    pub fn render_path(&self) -> String {
        let mut out = String::new();
        for (i, (name, d)) in self.parts().into_iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            let _ = write!(out, "{}={}ns", name, d.as_nanos());
        }
        if out.is_empty() {
            out.push_str("(instant)");
        }
        out
    }
}

/// Blame aggregated over every command of one `(tenant, opcode)` pair.
/// End-to-end latencies land in a [`LatencyHistogram`], so profile
/// roll-ups ([`BlameProfile::merge`]) keep exact counts/extremes and
/// bucket-accurate percentiles.
#[derive(Debug, Clone, Default)]
pub struct BlameProfile {
    /// Commands aggregated.
    pub commands: u64,
    /// End-to-end latency distribution.
    pub total: LatencyHistogram,
    /// Summed queue-wait blame.
    pub queue_wait: SimDuration,
    /// Summed retry blame.
    pub retry: SimDuration,
    /// Summed crash-recovery blame.
    pub crash_recovery: SimDuration,
    /// Summed fault-window overlap (informational).
    pub fault_overlap: SimDuration,
    /// Summed retry instants.
    pub retries: u64,
    /// Summed per-stage service blame.
    pub service: BTreeMap<TelemetryStage, SimDuration>,
}

impl BlameProfile {
    /// Folds one command's blame into the profile.
    pub fn add(&mut self, b: &CommandBlame) {
        self.commands += 1;
        self.total.record(b.total());
        self.queue_wait += b.queue_wait;
        self.retry += b.retry;
        self.crash_recovery += b.crash_recovery;
        self.fault_overlap += b.fault_overlap;
        self.retries += u64::from(b.retries);
        for (stage, d) in &b.service {
            let slot = self.service.entry(*stage).or_insert(SimDuration::ZERO);
            *slot += *d;
        }
    }

    /// Merges another profile (tenant → fleet roll-up). Histogram
    /// counts, sums and extremes combine exactly.
    pub fn merge(&mut self, other: &BlameProfile) {
        self.commands += other.commands;
        self.total.merge(&other.total);
        self.queue_wait += other.queue_wait;
        self.retry += other.retry;
        self.crash_recovery += other.crash_recovery;
        self.fault_overlap += other.fault_overlap;
        self.retries += other.retries;
        for (stage, d) in &other.service {
            let slot = self.service.entry(*stage).or_insert(SimDuration::ZERO);
            *slot += *d;
        }
    }

    /// Non-zero blame parts, largest first (deterministic tie-break).
    pub fn parts(&self) -> Vec<(&'static str, SimDuration)> {
        let mut parts: Vec<(&'static str, SimDuration)> = Vec::new();
        for (stage, d) in &self.service {
            if d.as_nanos() > 0 {
                parts.push((stage.name(), *d));
            }
        }
        for (name, d) in [
            ("queue-wait", self.queue_wait),
            ("retry", self.retry),
            ("crash-recovery", self.crash_recovery),
        ] {
            if d.as_nanos() > 0 {
                parts.push((name, d));
            }
        }
        parts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        parts
    }

    /// The profile's largest blame bucket.
    pub fn dominant(&self) -> Option<(&'static str, SimDuration)> {
        self.parts().into_iter().next()
    }

    /// Sum of the partition buckets across all aggregated commands.
    pub fn blame_sum(&self) -> SimDuration {
        let svc: u64 = self.service.values().map(|d| d.as_nanos()).sum();
        SimDuration::from_nanos(
            self.queue_wait.as_nanos()
                + self.retry.as_nanos()
                + self.crash_recovery.as_nanos()
                + svc,
        )
    }
}

/// The full analysis: every completed command's blame plus the
/// per-`(tenant, opcode)` aggregation.
#[derive(Debug, Clone, Default)]
pub struct CriticalPathAnalysis {
    /// Per-command blames, sorted by `(start, cmd)`.
    pub commands: Vec<CommandBlame>,
    /// Aggregated profiles keyed by `(tenant, opcode)`.
    pub profiles: BTreeMap<(u16, u8), BlameProfile>,
}

impl CriticalPathAnalysis {
    /// The `k` slowest commands, slowest first (ties break on `cmd`).
    pub fn top_slowest(&self, k: usize) -> Vec<&CommandBlame> {
        let mut v: Vec<&CommandBlame> = self.commands.iter().collect();
        v.sort_by(|a, b| b.total().cmp(&a.total()).then_with(|| a.cmd.cmp(&b.cmd)));
        v.truncate(k);
        v
    }

    /// All profiles merged into one fleet-wide view.
    pub fn fleet_profile(&self) -> BlameProfile {
        let mut fleet = BlameProfile::default();
        for p in self.profiles.values() {
            fleet.merge(p);
        }
        fleet
    }

    /// One tenant's profiles (opcodes merged).
    pub fn tenant_profile(&self, tenant: u16) -> BlameProfile {
        let mut out = BlameProfile::default();
        for ((t, _), p) in &self.profiles {
            if *t == tenant {
                out.merge(p);
            }
        }
        out
    }

    /// Splits one tenant's commands by fault-window overlap: commands
    /// that ran (partly) inside a fault window vs. entirely outside.
    /// Incident reports use the pair to describe how the critical path
    /// *shifted* during the fault.
    pub fn tenant_fault_split(&self, tenant: u16) -> (BlameProfile, BlameProfile) {
        let mut inside = BlameProfile::default();
        let mut outside = BlameProfile::default();
        for b in &self.commands {
            if b.tenant != tenant {
                continue;
            }
            if b.fault_overlap.as_nanos() > 0 {
                inside.add(b);
            } else {
                outside.add(b);
            }
        }
        (inside, outside)
    }
}

/// Extracts per-command blame and profiles from the recorder.
///
/// Only commands whose root span completed (both endpoints in the ring)
/// are analyzed; still-open commands and spans evicted from the bounded
/// ring are skipped, never guessed at.
pub fn analyze(rec: &TelemetryRecorder, windows: &BlameWindows) -> CriticalPathAnalysis {
    let spans = rec.spans();
    let mut roots: BTreeMap<CmdId, Span> = BTreeMap::new();
    let mut children: BTreeMap<CmdId, Vec<Span>> = BTreeMap::new();
    for s in spans {
        if !s.cmd.is_some() {
            continue;
        }
        if s.stage == TelemetryStage::Command {
            // First completed root wins; a cid reuse allocates a new
            // CmdId, so duplicates only arise from ring pathologies.
            roots.entry(s.cmd).or_insert(s);
        } else {
            children.entry(s.cmd).or_default().push(s);
        }
    }
    let mut retries: BTreeMap<CmdId, u32> = BTreeMap::new();
    rec.events().for_each(|e| {
        if let TelemetryEventKind::Retry { .. } = e.kind {
            *retries.entry(e.cmd).or_insert(0) += 1;
        }
    });

    let mut commands = Vec::with_capacity(roots.len());
    let mut profiles: BTreeMap<(u16, u8), BlameProfile> = BTreeMap::new();
    for (cmd, root) in &roots {
        let kids = children.get(cmd).map(Vec::as_slice).unwrap_or(&[]);
        let blame = blame_one(root, kids, windows, retries.get(cmd).copied().unwrap_or(0));
        profiles
            .entry((blame.tenant, blame.opcode))
            .or_default()
            .add(&blame);
        commands.push(blame);
    }
    commands.sort_by_key(|b| (b.start, b.cmd));
    CriticalPathAnalysis { commands, profiles }
}

/// Clips `(s, e)` to `[t0, t1]`, in nanoseconds; `None` when empty.
fn clip(s: SimTime, e: SimTime, t0: SimTime, t1: SimTime) -> Option<(u64, u64)> {
    let a = s.max(t0).as_nanos();
    let b = e.min(t1).as_nanos();
    (b > a).then_some((a, b))
}

/// Attributes one command's root window across the blame buckets.
///
/// The window is cut at every child-span and outage-window boundary;
/// each elementary segment is charged to exactly one bucket:
/// a failed covering span → retry; else the innermost successful
/// covering span's stage → service; else an engine outage → crash
/// recovery; else queue-wait. Because the segments partition the root
/// window, the buckets sum back to the root duration exactly.
fn blame_one(root: &Span, children: &[Span], windows: &BlameWindows, retries: u32) -> CommandBlame {
    let (t0, t1) = (root.start, root.end);
    let kids: Vec<(u64, u64, TelemetryStage, bool)> = children
        .iter()
        .filter(|s| s.stage != TelemetryStage::Command)
        .filter_map(|s| clip(s.start, s.end, t0, t1).map(|(a, b)| (a, b, s.stage, s.ok)))
        .collect();
    let outages: Vec<(u64, u64)> = windows
        .recovery
        .iter()
        .filter_map(|&(s, e)| clip(s, e, t0, t1))
        .collect();

    let mut cuts: Vec<u64> = Vec::with_capacity(2 + kids.len() * 2 + outages.len() * 2);
    cuts.push(t0.as_nanos());
    cuts.push(t1.as_nanos());
    cuts.extend(kids.iter().flat_map(|k| [k.0, k.1]));
    cuts.extend(outages.iter().flat_map(|w| [w.0, w.1]));
    cuts.sort_unstable();
    cuts.dedup();

    let mut queue_wait = 0u64;
    let mut retry = 0u64;
    let mut crash = 0u64;
    let mut service: BTreeMap<TelemetryStage, u64> = BTreeMap::new();
    for pair in cuts.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let len = b - a;
        let mut failed = false;
        let mut innermost: Option<TelemetryStage> = None;
        for &(ks, ke, stage, ok) in &kids {
            if ks <= a && b <= ke {
                if ok {
                    // Stage order is pipeline depth; the deepest stage
                    // covering the segment owns it.
                    innermost = Some(innermost.map_or(stage, |d| d.max(stage)));
                } else {
                    failed = true;
                }
            }
        }
        if failed {
            retry += len;
        } else if let Some(stage) = innermost {
            *service.entry(stage).or_insert(0) += len;
        } else if outages.iter().any(|&(s, e)| s <= a && b <= e) {
            crash += len;
        } else {
            queue_wait += len;
        }
    }

    let fault_overlap: u64 = windows
        .fault
        .iter()
        .filter_map(|&(s, e)| clip(s, e, t0, t1))
        .map(|(a, b)| b - a)
        .sum();

    CommandBlame {
        cmd: root.cmd,
        tenant: root.tenant,
        opcode: root.opcode,
        start: t0,
        end: t1,
        queue_wait: SimDuration::from_nanos(queue_wait),
        retry: SimDuration::from_nanos(retry),
        crash_recovery: SimDuration::from_nanos(crash),
        service: service
            .into_iter()
            .map(|(k, v)| (k, SimDuration::from_nanos(v)))
            .collect(),
        fault_overlap: SimDuration::from_nanos(fault_overlap),
        retries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    fn span(cmd: u64, stage: TelemetryStage, start: u64, end: u64, ok: bool) -> Span {
        Span {
            cmd: CmdId(cmd),
            tenant: 0,
            opcode: 0x02,
            stage,
            start: t(start),
            end: t(end),
            ok,
        }
    }

    #[test]
    fn uncovered_time_is_queue_wait_and_nesting_goes_innermost() {
        let root = span(1, TelemetryStage::Command, 0, 100, true);
        let kids = vec![
            span(1, TelemetryStage::Submit, 0, 10, true),
            span(1, TelemetryStage::Dma, 20, 90, true),
            span(1, TelemetryStage::Backend, 30, 80, true),
        ];
        let b = blame_one(&root, &kids, &BlameWindows::default(), 0);
        assert_eq!(b.blame_sum(), b.total());
        assert_eq!(b.queue_wait, SimDuration::from_us(10 + 10)); // 10..20 and 90..100
        assert_eq!(
            b.service[&TelemetryStage::Backend],
            SimDuration::from_us(50)
        );
        // Dma only owns its un-nested margins.
        assert_eq!(b.service[&TelemetryStage::Dma], SimDuration::from_us(20));
        assert_eq!(b.dominant().unwrap().0, "backend");
    }

    #[test]
    fn failed_attempts_become_retry_and_outages_crash_recovery() {
        let root = span(7, TelemetryStage::Command, 0, 100, true);
        let kids = vec![
            span(7, TelemetryStage::Dma, 10, 30, false),
            span(7, TelemetryStage::Dma, 60, 90, true),
        ];
        let windows = BlameWindows::new(
            vec![(t(30), t(55))],
            vec![(t(30), t(55))], // engine outage 30..55
        );
        let b = blame_one(&root, &kids, &windows, 1);
        assert_eq!(b.blame_sum(), b.total());
        assert_eq!(b.retry, SimDuration::from_us(20));
        assert_eq!(b.crash_recovery, SimDuration::from_us(25));
        assert_eq!(b.service[&TelemetryStage::Dma], SimDuration::from_us(30));
        // 0..10 + 55..60 + 90..100 uncovered outside the outage.
        assert_eq!(b.queue_wait, SimDuration::from_us(25));
        assert_eq!(b.fault_overlap, SimDuration::from_us(25));
        assert_eq!(b.retries, 1);
    }

    #[test]
    fn windows_coalesce_so_overlap_never_double_counts() {
        let w = BlameWindows::new(
            vec![
                (t(0), t(50)),
                (t(25), t(60)),
                (t(60), t(70)),
                (t(90), t(90)),
            ],
            Vec::new(),
        );
        assert_eq!(w.fault(), &[(t(0), t(70))]);
        let root = span(1, TelemetryStage::Command, 10, 80, true);
        let b = blame_one(&root, &[], &w, 0);
        assert_eq!(b.fault_overlap, SimDuration::from_us(60)); // 10..70
        assert_eq!(b.queue_wait, b.total());
    }

    #[test]
    fn analyze_builds_profiles_and_top_k() {
        let mut rec = TelemetryRecorder::new(4096);
        for i in 0..4u64 {
            let cmd = rec.begin_command(t(i * 100), 0, i as u16, 0x02);
            rec.span(
                cmd,
                0,
                0,
                0x02,
                TelemetryStage::Backend,
                t(i * 100),
                t(i * 100 + 10 * (i + 1)),
                true,
            );
            rec.end_command(t(i * 100 + 10 * (i + 1) + 5), 0, i as u16, true);
        }
        let analysis = analyze(&rec, &BlameWindows::default());
        assert_eq!(analysis.commands.len(), 4);
        let top = analysis.top_slowest(2);
        assert_eq!(top.len(), 2);
        assert!(top[0].total() >= top[1].total());
        let profile = &analysis.profiles[&(0u16, 0x02u8)];
        assert_eq!(profile.commands, 4);
        assert_eq!(profile.total.count(), 4);
        assert_eq!(profile.dominant().unwrap().0, "backend");
    }

    #[test]
    fn profile_merge_matches_direct_aggregation() {
        // Histogram interaction: merging per-tenant profiles must give
        // the same counts/extremes as aggregating every command into
        // one profile directly.
        let mut direct = BlameProfile::default();
        let mut a = BlameProfile::default();
        let mut b = BlameProfile::default();
        for i in 0..20u64 {
            let root = span(i + 1, TelemetryStage::Command, i * 10, i * 10 + 3 + i, true);
            let blame = blame_one(&root, &[], &BlameWindows::default(), 0);
            direct.add(&blame);
            if i % 2 == 0 {
                a.add(&blame)
            } else {
                b.add(&blame)
            }
        }
        a.merge(&b);
        assert_eq!(a.commands, direct.commands);
        assert_eq!(a.total.count(), direct.total.count());
        assert_eq!(a.total.min(), direct.total.min());
        assert_eq!(a.total.max(), direct.total.max());
        assert_eq!(a.total.percentile(0.5), direct.total.percentile(0.5));
        assert_eq!(a.blame_sum(), direct.blame_sum());
    }

    proptest! {
        /// The partition invariant holds for arbitrary span layouts,
        /// with and without fault/outage windows: per-stage blame plus
        /// the wait buckets always sums to the root span exactly.
        #[test]
        fn blame_partitions_the_root_window(
            root_len in 1u64..500,
            kids in prop::collection::vec(
                (0u64..500, 1u64..120, 0usize..6, any::<bool>()), 0..12),
            outage_raw in (any::<bool>(), 0u64..500, 1u64..200),
        ) {
            let stages = [
                TelemetryStage::Submit,
                TelemetryStage::Fetch,
                TelemetryStage::Translate,
                TelemetryStage::Qos,
                TelemetryStage::Dma,
                TelemetryStage::Backend,
            ];
            let root = span(1, TelemetryStage::Command, 0, root_len, true);
            let children: Vec<Span> = kids
                .into_iter()
                .map(|(s, len, stage, ok)| {
                    span(1, stages[stage], s, s + len, ok)
                })
                .collect();
            let outage = outage_raw.0.then_some((outage_raw.1, outage_raw.2));
            let windows = match outage {
                Some((s, len)) => BlameWindows::new(
                    vec![(t(s), t(s + len))],
                    vec![(t(s), t(s + len))],
                ),
                None => BlameWindows::default(),
            };
            let b = blame_one(&root, &children, &windows, 0);
            prop_assert_eq!(b.blame_sum(), b.total());
            prop_assert!(b.fault_overlap <= b.total());
        }

        /// Histogram merge/percentile interaction under profile
        /// roll-up: split-then-merge equals direct recording for
        /// count/min/max, and percentiles stay within the histogram's
        /// bucket error of the direct path (identical buckets, so they
        /// are equal).
        #[test]
        fn profile_histogram_rollup_is_exact(
            totals in prop::collection::vec(1u64..1_000_000, 1..64),
            split in any::<u64>(),
        ) {
            let mut direct = BlameProfile::default();
            let mut left = BlameProfile::default();
            let mut right = BlameProfile::default();
            for (i, ns) in totals.iter().enumerate() {
                let root = Span {
                    cmd: CmdId(i as u64 + 1),
                    tenant: 0,
                    opcode: 0x02,
                    stage: TelemetryStage::Command,
                    start: SimTime::ZERO,
                    end: SimTime::from_nanos(*ns),
                    ok: true,
                };
                let b = blame_one(&root, &[], &BlameWindows::default(), 0);
                direct.add(&b);
                if (split >> (i % 64)) & 1 == 0 {
                    left.add(&b)
                } else {
                    right.add(&b)
                }
            }
            left.merge(&right);
            prop_assert_eq!(left.total.count(), direct.total.count());
            prop_assert_eq!(left.total.min(), direct.total.min());
            prop_assert_eq!(left.total.max(), direct.total.max());
            for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                prop_assert_eq!(left.total.percentile(q), direct.total.percentile(q));
            }
        }
    }
}
