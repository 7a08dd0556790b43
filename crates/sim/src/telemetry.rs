//! End-to-end command telemetry: spans, events, aggregation, export.
//!
//! The paper's BMS-Controller treats I/O monitoring as a first-class
//! subsystem (§IV-D): the engine latches status into registers and the
//! controller serves them out-of-band. This module is the in-simulation
//! half of that story — a cheap, deterministic span/event recorder that
//! lets any pipeline layer attribute latency to a stage without touching
//! the data path's timing:
//!
//! * every command gets a [`CmdId`] correlation ID at submission,
//! * each layer records **one-shot spans** (`start`/`end` both known at
//!   record time — sim time is exact, so nothing needs an open-span map),
//! * faults and retries attach to the owning command as instant events,
//! * spans aggregate into per-`(tenant, function, opcode, stage)`
//!   [`LatencyHistogram`]s for roll-up reporting,
//! * the raw stream exports as Chrome `trace_event` JSON or JSONL.
//!
//! Determinism: the recorder only ever *reads* sim time handed to it by
//! the caller; it never schedules events, draws randomness, or consults
//! wall-clock time. Layers reach it through the
//! [`Observer`](crate::observe::Observer), where a missing recorder makes
//! every call a no-op, so enabling telemetry cannot perturb event ordering.

pub mod critical_path;

use crate::stats::LatencyHistogram;
use crate::time::{SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Correlation ID assigned to each command at submission; threaded
/// through every pipeline layer so spans from different crates join
/// into one tree. `CmdId(0)` is reserved for "no command" (global
/// events such as fault injections).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CmdId(pub u64);

impl CmdId {
    /// The reserved "not attached to any command" ID.
    pub const NONE: CmdId = CmdId(0);

    /// Whether this is a real per-command ID.
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for CmdId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cmd{}", self.0)
    }
}

/// Pipeline stages a span can cover. Ordered roughly front-to-back;
/// the order index is used for deterministic sorting and display.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TelemetryStage {
    /// Root span: client submission → completion delivered to client.
    Command,
    /// Host-side: SQE pushed → doorbell reaches the device.
    Submit,
    /// Engine: doorbell observed → SQE fetched over PCIe.
    Fetch,
    /// Engine: LBA mapping + command rewrite pipeline.
    Translate,
    /// Engine: command parked in the QoS deferral queue.
    Qos,
    /// Engine: forwarded to the back-end → back-end completion seen
    /// (one span per forwarding attempt; retries yield several).
    Dma,
    /// SSD-internal service time (inside the Dma window).
    Backend,
    /// Engine: CQE forwarded to the host + interrupt.
    Completion,
}

impl TelemetryStage {
    /// All stages, in pipeline order.
    pub const ALL: [TelemetryStage; 8] = [
        TelemetryStage::Command,
        TelemetryStage::Submit,
        TelemetryStage::Fetch,
        TelemetryStage::Translate,
        TelemetryStage::Qos,
        TelemetryStage::Dma,
        TelemetryStage::Backend,
        TelemetryStage::Completion,
    ];

    /// Short display name (also the Chrome trace event name).
    pub fn name(self) -> &'static str {
        match self {
            TelemetryStage::Command => "cmd",
            TelemetryStage::Submit => "submit",
            TelemetryStage::Fetch => "fetch",
            TelemetryStage::Translate => "translate",
            TelemetryStage::Qos => "qos",
            TelemetryStage::Dma => "dma",
            TelemetryStage::Backend => "backend",
            TelemetryStage::Completion => "completion",
        }
    }
}

/// What a telemetry event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TelemetryEventKind {
    /// A stage began.
    SpanBegin { stage: TelemetryStage },
    /// A stage ended; `ok` is false when it ended in error/abort/timeout.
    SpanEnd { stage: TelemetryStage, ok: bool },
    /// A retry attempt was scheduled for the owning command.
    Retry { attempt: u32 },
    /// A labelled instant (fault injected, abort, quiesce, ...).
    Mark { label: &'static str },
}

/// One entry in the telemetry stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Sim time of the event.
    pub at: SimTime,
    /// Owning command ([`CmdId::NONE`] for global events).
    pub cmd: CmdId,
    /// Tenant (device index on the host side, function index on the
    /// engine side — 1:1 for BM-Store).
    pub tenant: u16,
    /// NVMe opcode byte of the owning command (0 for global events).
    pub opcode: u8,
    /// Payload.
    pub kind: TelemetryEventKind,
}

/// Aggregation key: one latency histogram per distinct value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggKey {
    /// Tenant index.
    pub tenant: u16,
    /// Engine function index (mirrors tenant for BM-Store).
    pub function: u8,
    /// NVMe opcode byte.
    pub opcode: u8,
    /// Pipeline stage the histogram covers.
    pub stage: TelemetryStage,
}

/// A reconstructed span: one stage's `[start, end)` window for a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Owning command.
    pub cmd: CmdId,
    /// Tenant index.
    pub tenant: u16,
    /// NVMe opcode byte.
    pub opcode: u8,
    /// Stage covered.
    pub stage: TelemetryStage,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Whether the stage completed successfully.
    pub ok: bool,
}

impl Span {
    /// The span's duration.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// In-flight root-span binding for one `(tenant, cid)` slot.
#[derive(Debug, Clone, Copy)]
struct OpenCmd {
    cmd: CmdId,
    opcode: u8,
    started: SimTime,
}

/// The recorder: a bounded ring of [`TelemetryEvent`]s plus streaming
/// per-key latency aggregation. Owns [`CmdId`] allocation so IDs are
/// unique across the whole run.
#[derive(Debug)]
pub struct TelemetryRecorder {
    capacity: usize,
    ring: VecDeque<TelemetryEvent>,
    dropped: u64,
    next_cmd: u64,
    /// `(tenant, host cid)` → open root span. NVMe guarantees a cid is
    /// not reused while outstanding, so this binding is unambiguous.
    open: BTreeMap<(u16, u16), OpenCmd>,
    agg: BTreeMap<AggKey, LatencyHistogram>,
}

impl TelemetryRecorder {
    /// Default ring capacity: enough for ~8k commands' full span trees.
    pub const DEFAULT_CAPACITY: usize = 1 << 17;

    /// Creates a recorder holding at most `capacity` events; older
    /// events are evicted (and counted in [`dropped`](Self::dropped)).
    pub fn new(capacity: usize) -> Self {
        TelemetryRecorder {
            capacity: capacity.max(2),
            ring: VecDeque::new(),
            dropped: 0,
            next_cmd: 0,
            open: BTreeMap::new(),
            agg: BTreeMap::new(),
        }
    }

    fn push(&mut self, ev: TelemetryEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
    }

    /// Opens the root span for a newly submitted command and returns its
    /// fresh [`CmdId`].
    pub fn begin_command(&mut self, now: SimTime, tenant: u16, cid: u16, opcode: u8) -> CmdId {
        self.next_cmd += 1;
        let cmd = CmdId(self.next_cmd);
        self.open.insert(
            (tenant, cid),
            OpenCmd {
                cmd,
                opcode,
                started: now,
            },
        );
        self.push(TelemetryEvent {
            at: now,
            cmd,
            tenant,
            opcode,
            kind: TelemetryEventKind::SpanBegin {
                stage: TelemetryStage::Command,
            },
        });
        cmd
    }

    /// Looks up the open command bound to `(tenant, cid)`.
    pub fn lookup(&self, tenant: u16, cid: u16) -> Option<(CmdId, u8)> {
        self.open.get(&(tenant, cid)).map(|o| (o.cmd, o.opcode))
    }

    /// Closes the root span when the completion reaches the client.
    /// Aggregates end-to-end latency under [`TelemetryStage::Command`].
    pub fn end_command(&mut self, now: SimTime, tenant: u16, cid: u16, ok: bool) -> Option<CmdId> {
        let open = self.open.remove(&(tenant, cid))?;
        self.push(TelemetryEvent {
            at: now,
            cmd: open.cmd,
            tenant,
            opcode: open.opcode,
            kind: TelemetryEventKind::SpanEnd {
                stage: TelemetryStage::Command,
                ok,
            },
        });
        self.aggregate(
            tenant,
            tenant as u8,
            open.opcode,
            TelemetryStage::Command,
            now.saturating_since(open.started),
        );
        Some(open.cmd)
    }

    /// Records a completed stage span in one shot (both endpoints are
    /// known exactly in sim time when the layer observes them).
    #[expect(
        clippy::too_many_arguments,
        reason = "one flat call per observed stage keeps the hot path free of a span struct"
    )]
    pub fn span(
        &mut self,
        cmd: CmdId,
        tenant: u16,
        function: u8,
        opcode: u8,
        stage: TelemetryStage,
        start: SimTime,
        end: SimTime,
        ok: bool,
    ) {
        self.push(TelemetryEvent {
            at: start,
            cmd,
            tenant,
            opcode,
            kind: TelemetryEventKind::SpanBegin { stage },
        });
        self.push(TelemetryEvent {
            at: end,
            cmd,
            tenant,
            opcode,
            kind: TelemetryEventKind::SpanEnd { stage, ok },
        });
        self.aggregate(tenant, function, opcode, stage, end.saturating_since(start));
    }

    /// Records an instant event (retry, fault mark) against `cmd`.
    pub fn event(
        &mut self,
        now: SimTime,
        cmd: CmdId,
        tenant: u16,
        opcode: u8,
        kind: TelemetryEventKind,
    ) {
        self.push(TelemetryEvent {
            at: now,
            cmd,
            tenant,
            opcode,
            kind,
        });
    }

    fn aggregate(
        &mut self,
        tenant: u16,
        function: u8,
        opcode: u8,
        stage: TelemetryStage,
        d: SimDuration,
    ) {
        self.agg
            .entry(AggKey {
                tenant,
                function,
                opcode,
                stage,
            })
            .or_default()
            .record(d);
    }

    /// The event stream, oldest first (bounded by the ring capacity).
    pub fn events(&self) -> impl Iterator<Item = &TelemetryEvent> {
        self.ring.iter()
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The histogram for one key, if any samples were recorded.
    pub fn histogram(&self, key: &AggKey) -> Option<&LatencyHistogram> {
        self.agg.get(key)
    }

    /// Rolls all tenants' histograms for `stage` into one fleet total
    /// (a [`LatencyHistogram::merge`] roll-up, as an operator dashboard
    /// would).
    pub fn fleet_rollup(&self, stage: TelemetryStage) -> LatencyHistogram {
        let mut total = LatencyHistogram::new();
        for (k, h) in &self.agg {
            if k.stage == stage {
                total.merge(h);
            }
        }
        total
    }

    /// Per-tenant roll-up for `stage` (opcodes merged), sorted by tenant.
    pub fn tenant_rollup(&self, stage: TelemetryStage) -> Vec<(u16, LatencyHistogram)> {
        let mut by_tenant: BTreeMap<u16, LatencyHistogram> = BTreeMap::new();
        for (k, h) in &self.agg {
            if k.stage == stage {
                by_tenant.entry(k.tenant).or_default().merge(h);
            }
        }
        let mut out: Vec<_> = by_tenant.into_iter().collect();
        out.sort_by_key(|(t, _)| *t);
        out
    }

    /// Reconstructs completed spans from the event ring by pairing each
    /// `SpanBegin` with the next `SpanEnd` of the same `(cmd, stage)`.
    /// Unmatched begins (still-open spans, or ends evicted from the
    /// ring) are omitted. Sorted by `(start, cmd, stage, end)` so the
    /// output is deterministic.
    pub fn spans(&self) -> Vec<Span> {
        // Open begins for a (cmd, stage), as (start, tenant, opcode).
        type OpenBegins = BTreeMap<(CmdId, TelemetryStage), Vec<(SimTime, u16, u8)>>;
        let mut open: OpenBegins = BTreeMap::new();
        let mut spans = Vec::new();
        for ev in &self.ring {
            match ev.kind {
                TelemetryEventKind::SpanBegin { stage } => open
                    .entry((ev.cmd, stage))
                    .or_default()
                    .push((ev.at, ev.tenant, ev.opcode)),
                TelemetryEventKind::SpanEnd { stage, ok } => {
                    if let Some((start, tenant, opcode)) =
                        open.get_mut(&(ev.cmd, stage)).and_then(Vec::pop)
                    {
                        spans.push(Span {
                            cmd: ev.cmd,
                            tenant,
                            opcode,
                            stage,
                            start,
                            end: ev.at,
                            ok,
                        });
                    }
                }
                TelemetryEventKind::Retry { .. } | TelemetryEventKind::Mark { .. } => {}
            }
        }
        spans.sort_by_key(|s| (s.start, s.cmd, s.stage, s.end));
        spans
    }
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Writes the recorder's spans + instants as Chrome `trace_event` JSON
/// (load via `chrome://tracing` or Perfetto). Spans are emitted as
/// complete (`"ph":"X"`) events — `pid` is the tenant, `tid` the
/// command — so the viewer derives nesting from containment. Instants
/// become `"ph":"i"` events. One event per line, deterministic order.
pub fn chrome_trace(rec: &TelemetryRecorder) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for s in rec.spans() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"cmd\":{},\"opcode\":{},\"ok\":{}}}}}",
            s.stage.name(),
            s.tenant,
            s.cmd.0,
            s.start.as_micros_f64(),
            s.duration().as_micros_f64(),
            s.cmd.0,
            s.opcode,
            s.ok,
        ));
    }
    let mut instants: Vec<&TelemetryEvent> = rec
        .events()
        .filter(|e| {
            matches!(
                e.kind,
                TelemetryEventKind::Retry { .. } | TelemetryEventKind::Mark { .. }
            )
        })
        .collect();
    instants.sort_by_key(|e| (e.at, e.cmd));
    for e in instants {
        let name = match e.kind {
            TelemetryEventKind::Retry { attempt } => format!("retry#{attempt}"),
            TelemetryEventKind::Mark { label } => label.to_string(),
            TelemetryEventKind::SpanBegin { .. } | TelemetryEventKind::SpanEnd { .. } => {
                unreachable!()
            }
        };
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\
             \"args\":{{\"cmd\":{}}}}}",
            name,
            e.tenant,
            e.cmd.0,
            e.at.as_micros_f64(),
            e.cmd.0,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Writes the raw event stream as JSON Lines, one event per line.
pub fn jsonl(rec: &TelemetryRecorder) -> String {
    let mut out = String::new();
    for e in rec.events() {
        let (kind, detail) = match e.kind {
            TelemetryEventKind::SpanBegin { stage } => {
                ("span_begin", format!("\"stage\":\"{}\"", stage.name()))
            }
            TelemetryEventKind::SpanEnd { stage, ok } => (
                "span_end",
                format!("\"stage\":\"{}\",\"ok\":{}", stage.name(), ok),
            ),
            TelemetryEventKind::Retry { attempt } => ("retry", format!("\"attempt\":{attempt}")),
            TelemetryEventKind::Mark { label } => ("mark", format!("\"label\":\"{label}\"")),
        };
        out.push_str(&format!(
            "{{\"ts\":{},\"cmd\":{},\"tenant\":{},\"opcode\":{},\"kind\":\"{}\",{}}}\n",
            e.at.as_nanos(),
            e.cmd.0,
            e.tenant,
            e.opcode,
            kind,
            detail,
        ));
    }
    out
}

/// A span parsed back out of [`chrome_trace`] output (validation aid
/// for the smoke test and attribution tests — parses exactly the format
/// this module emits, nothing more).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSpan {
    /// Event name (the stage name).
    pub name: String,
    /// Tenant (Chrome `pid`).
    pub pid: u64,
    /// Command ID (Chrome `tid`).
    pub tid: u64,
    /// Start, microseconds.
    pub ts_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(&rest[..end])
}

/// Parses `"ph":"X"` span events back out of [`chrome_trace`] output.
/// Returns `None` if any span line is missing a required field or the
/// braces don't balance (i.e. the JSON is malformed).
pub fn parse_chrome_trace(trace: &str) -> Option<Vec<ParsedSpan>> {
    let opens = trace.matches(['{', '[']).count();
    let closes = trace.matches(['}', ']']).count();
    if opens != closes {
        return None;
    }
    let mut spans = Vec::new();
    for line in trace.lines() {
        if !line.contains("\"ph\":\"X\"") {
            continue;
        }
        let name = field(line, "name")?.trim_matches('"').to_string();
        spans.push(ParsedSpan {
            name,
            pid: field(line, "pid")?.parse().ok()?,
            tid: field(line, "tid")?.parse().ok()?,
            ts_us: field(line, "ts")?.parse().ok()?,
            dur_us: field(line, "dur")?.parse().ok()?,
        });
    }
    Some(spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    #[test]
    fn command_lifecycle_allocates_and_closes() {
        let mut r = TelemetryRecorder::new(1024);
        let a = r.begin_command(t(1), 0, 7, 0x02);
        let b = r.begin_command(t(1), 1, 7, 0x01);
        assert_ne!(a, b, "CmdIds are unique across tenants");
        assert_eq!(r.lookup(0, 7), Some((a, 0x02)));
        assert_eq!(r.lookup(1, 7), Some((b, 0x01)));
        assert_eq!(r.end_command(t(101), 0, 7, true), Some(a));
        assert_eq!(r.lookup(0, 7), None);
        assert_eq!(r.lookup(1, 7), Some((b, 0x01)));
        let key = AggKey {
            tenant: 0,
            function: 0,
            opcode: 0x02,
            stage: TelemetryStage::Command,
        };
        let h = r.histogram(&key).expect("root span aggregated");
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), SimDuration::from_us(100));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut r = TelemetryRecorder::new(4);
        for i in 0..6 {
            r.event(
                t(i),
                CmdId(i),
                0,
                0,
                TelemetryEventKind::Mark { label: "x" },
            );
        }
        assert_eq!(r.dropped(), 2);
        let first = r.events().next().unwrap();
        assert_eq!(first.at, t(2), "oldest events evicted first");
    }

    #[test]
    fn spans_reconstruct_and_sort() {
        let mut r = TelemetryRecorder::new(1024);
        let cmd = r.begin_command(t(0), 3, 1, 0x02);
        r.span(cmd, 3, 3, 0x02, TelemetryStage::Fetch, t(1), t(2), true);
        r.span(cmd, 3, 3, 0x02, TelemetryStage::Dma, t(2), t(9), false);
        r.span(cmd, 3, 3, 0x02, TelemetryStage::Dma, t(10), t(20), true);
        r.end_command(t(21), 3, 1, true);
        let spans = r.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].stage, TelemetryStage::Command);
        assert_eq!(spans[0].duration(), SimDuration::from_us(21));
        // Two Dma attempts survive as distinct spans.
        let dma: Vec<_> = spans
            .iter()
            .filter(|s| s.stage == TelemetryStage::Dma)
            .collect();
        assert_eq!(dma.len(), 2);
        assert!(!dma[0].ok && dma[1].ok);
    }

    #[test]
    fn rollups_merge_across_tenants() {
        let mut r = TelemetryRecorder::new(1024);
        for tenant in 0..3u16 {
            let cmd = r.begin_command(t(0), tenant, 1, 0x02);
            r.span(
                cmd,
                tenant,
                tenant as u8,
                0x02,
                TelemetryStage::Dma,
                t(0),
                t(10 * (tenant as u64 + 1)),
                true,
            );
        }
        let fleet = r.fleet_rollup(TelemetryStage::Dma);
        assert_eq!(fleet.count(), 3);
        assert_eq!(fleet.max(), SimDuration::from_us(30));
        let per_tenant = r.tenant_rollup(TelemetryStage::Dma);
        assert_eq!(per_tenant.len(), 3);
        assert_eq!(per_tenant[2].0, 2);
        assert_eq!(per_tenant[2].1.max(), SimDuration::from_us(30));
    }

    #[test]
    fn chrome_trace_round_trips_through_parser() {
        let mut r = TelemetryRecorder::new(1024);
        let cmd = r.begin_command(t(5), 1, 9, 0x01);
        r.span(cmd, 1, 1, 0x01, TelemetryStage::Fetch, t(6), t(7), true);
        r.event(t(8), cmd, 1, 0x01, TelemetryEventKind::Retry { attempt: 1 });
        r.end_command(t(50), 1, 9, true);
        let trace = chrome_trace(&r);
        let spans = parse_chrome_trace(&trace).expect("valid trace JSON");
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "cmd").unwrap();
        assert_eq!(root.pid, 1);
        assert_eq!(root.tid, cmd.0);
        assert!((root.ts_us - 5.0).abs() < 1e-9);
        assert!((root.dur_us - 45.0).abs() < 1e-9);
        // Children nest inside the root window.
        let fetch = spans.iter().find(|s| s.name == "fetch").unwrap();
        assert!(fetch.ts_us >= root.ts_us);
        assert!(fetch.ts_us + fetch.dur_us <= root.ts_us + root.dur_us);
    }

    #[test]
    fn jsonl_emits_one_line_per_event() {
        let mut r = TelemetryRecorder::new(1024);
        let cmd = r.begin_command(t(0), 0, 0, 0x02);
        r.event(
            t(1),
            cmd,
            0,
            0x02,
            TelemetryEventKind::Mark { label: "hit" },
        );
        r.end_command(t(2), 0, 0, false);
        let dump = jsonl(&r);
        assert_eq!(dump.lines().count(), 3);
        assert!(dump.contains("\"kind\":\"mark\""));
        assert!(dump.contains("\"label\":\"hit\""));
        assert!(dump.contains("\"ok\":false"));
    }
}
