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

/// One ring entry, 24 bytes: a whole stage span, or one
/// [`TelemetryEvent`] packed into half a decoded event's 48.
#[derive(Debug, Clone, Copy)]
struct Record {
    /// [`TelemetryEvent::at`], or a span's start, in nanoseconds.
    at: u64,
    cmd: u64,
    tenant: u16,
    opcode: u8,
    /// The kind in bits 0–2 (`KIND_*`), the span stage in bits 3–5 and
    /// `ok` in bit 6.
    tag: u8,
    /// A span's duration in nanoseconds, a retry's attempt, or the index
    /// of a `Mark` label in [`TelemetryRecorder::labels`].
    arg: u32,
}

const _: () = assert!(std::mem::size_of::<Record>() <= 24);

const KIND_BEGIN: u8 = 0;
const KIND_END: u8 = 1;
const KIND_RETRY: u8 = 2;
const KIND_MARK: u8 = 3;
/// A whole span: its `SpanBegin` at `at` and its `SpanEnd` `arg` ns later.
const KIND_SPAN: u8 = 4;
const KIND_MASK: u8 = 0b111;
const STAGE_SHIFT: u8 = 3;
const OK_BIT: u8 = 1 << 6;

impl Record {
    /// How many events the record holds.
    fn event_count(&self) -> u64 {
        if self.tag & KIND_MASK == KIND_SPAN {
            2
        } else {
            1
        }
    }
}

/// The tag bits of a span's stage and `ok`.
fn stage_tag(stage: TelemetryStage, ok: bool) -> u8 {
    let ok = if ok { OK_BIT } else { 0 };
    (stage as u8) << STAGE_SHIFT | ok
}

/// The recorder: a bounded ring of [`TelemetryEvent`]s plus streaming
/// per-key latency aggregation. Owns [`CmdId`] allocation so IDs are
/// unique across the whole run.
///
/// Every per-command call is O(1): open commands sit in a table per
/// tenant indexed by CID, and each histogram in a dense slot behind
/// the ordered [`AggKey`] index, which only the roll-ups and
/// [`histogram`](Self::histogram) read. The ring keeps a stage span as
/// one 24-byte record and any other event as one record of its own
/// (its time, command, tenant, opcode, a tag byte for the kind, stage
/// and `ok`, and a 32-bit argument: a span's duration in nanoseconds, a
/// retry's attempt or the index of a `Mark` label in a per-recorder
/// table), and [`events`](Self::events) decodes them.
#[derive(Debug)]
pub struct TelemetryRecorder {
    /// The most records the ring holds.
    capacity: usize,
    ring: VecDeque<Record>,
    /// The distinct `Mark` labels recorded, in first-use order.
    labels: Vec<&'static str>,
    /// Events (not records) evicted from the ring.
    dropped: u64,
    next_cmd: u64,
    /// `[tenant][host cid]` → open root span, grown on demand to the
    /// highest tenant and CID in use. NVMe guarantees a cid is not
    /// reused while outstanding, so this binding is unambiguous.
    open: Vec<Vec<Option<OpenCmd>>>,
    /// Histogram slots, in creation order.
    hists: Vec<LatencyHistogram>,
    /// The ordered index over `hists`.
    agg: BTreeMap<AggKey, usize>,
    /// `[tenant][stage]` → `(function, opcode, slot)`: the dense path
    /// from a span to its histogram (one or two entries in practice).
    agg_slots: Vec<[Vec<(u8, u8, usize)>; TelemetryStage::ALL.len()]>,
}

impl TelemetryRecorder {
    /// Default ring capacity, in records: enough for ~8k commands' span
    /// trees, since a 4K read takes 8 records (six stage spans plus the
    /// root's begin and end). The ring is then 1.5 MB of records, and
    /// counting records rather than events keeps it at that size, under
    /// a 2 MB L2, while eviction never splits a span.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// Creates a recorder whose ring holds at most `capacity` records
    /// (at least 2, so a span that takes two records fits).
    ///
    /// A stage span takes one record when it ends at or after its start
    /// and its duration fits in a `u32` of nanoseconds (4.29 s); any
    /// other span takes a begin and an end record, and every other event
    /// one record. When the ring is full, the oldest record is evicted
    /// with all of its events, and [`dropped`](Self::dropped) counts the
    /// events. The ring is allocated once, at `capacity` records, when
    /// the first record arrives, and never grows.
    pub fn new(capacity: usize) -> Self {
        TelemetryRecorder {
            capacity: capacity.max(2),
            ring: VecDeque::new(),
            labels: Vec::new(),
            dropped: 0,
            next_cmd: 0,
            open: Vec::new(),
            hists: Vec::new(),
            agg: BTreeMap::new(),
            agg_slots: Vec::new(),
        }
    }

    /// Appends `r`, evicting the oldest record when the ring is full.
    fn push_record(&mut self, r: Record) {
        if self.ring.len() == self.capacity {
            if let Some(old) = self.ring.pop_front() {
                self.dropped += old.event_count();
            }
        } else if self.ring.capacity() == 0 {
            self.ring.reserve_exact(self.capacity);
        }
        self.ring.push_back(r);
    }

    /// Appends `ev` as a record of its own.
    fn push(&mut self, ev: TelemetryEvent) {
        let (tag, arg) = match ev.kind {
            TelemetryEventKind::SpanBegin { stage } => (KIND_BEGIN | stage_tag(stage, false), 0),
            TelemetryEventKind::SpanEnd { stage, ok } => (KIND_END | stage_tag(stage, ok), 0),
            TelemetryEventKind::Retry { attempt } => (KIND_RETRY, attempt),
            TelemetryEventKind::Mark { label } => (KIND_MARK, self.intern(label)),
        };
        self.push_record(Record {
            at: ev.at.as_nanos(),
            cmd: ev.cmd.0,
            tenant: ev.tenant,
            opcode: ev.opcode,
            tag,
            arg,
        });
    }

    /// The index of `label` in the label table, added on first use.
    fn intern(&mut self, label: &'static str) -> u32 {
        let i = match self.labels.iter().position(|&l| l == label) {
            Some(i) => i,
            None => {
                self.labels.push(label);
                self.labels.len() - 1
            }
        };
        i as u32
    }

    /// The events `r` packs: one, or a span's begin and then its end.
    fn decode(&self, r: &Record) -> (TelemetryEvent, Option<TelemetryEvent>) {
        let stage = TelemetryStage::ALL[usize::from((r.tag >> STAGE_SHIFT) & 0b111)];
        let ok = r.tag & OK_BIT != 0;
        let event = |at: u64, kind| TelemetryEvent {
            at: SimTime::from_nanos(at),
            cmd: CmdId(r.cmd),
            tenant: r.tenant,
            opcode: r.opcode,
            kind,
        };
        let kind = match r.tag & KIND_MASK {
            KIND_BEGIN => TelemetryEventKind::SpanBegin { stage },
            KIND_END => TelemetryEventKind::SpanEnd { stage, ok },
            KIND_RETRY => TelemetryEventKind::Retry { attempt: r.arg },
            KIND_MARK => TelemetryEventKind::Mark {
                label: self.labels[r.arg as usize],
            },
            _ => {
                let end = event(
                    r.at + u64::from(r.arg),
                    TelemetryEventKind::SpanEnd { stage, ok },
                );
                return (
                    event(r.at, TelemetryEventKind::SpanBegin { stage }),
                    Some(end),
                );
            }
        };
        (event(r.at, kind), None)
    }

    /// Opens the root span for a newly submitted command and returns its
    /// fresh [`CmdId`].
    pub fn begin_command(&mut self, now: SimTime, tenant: u16, cid: u16, opcode: u8) -> CmdId {
        self.next_cmd += 1;
        let cmd = CmdId(self.next_cmd);
        let (t, c) = (usize::from(tenant), usize::from(cid));
        if self.open.len() <= t {
            self.open.resize_with(t + 1, Vec::new);
        }
        let cids = &mut self.open[t];
        if cids.len() <= c {
            cids.resize(c + 1, None);
        }
        cids[c] = Some(OpenCmd {
            cmd,
            opcode,
            started: now,
        });
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
        let open = self.open.get(usize::from(tenant))?.get(usize::from(cid))?;
        open.map(|o| (o.cmd, o.opcode))
    }

    /// Closes the root span when the completion reaches the client.
    /// Aggregates end-to-end latency under [`TelemetryStage::Command`].
    pub fn end_command(&mut self, now: SimTime, tenant: u16, cid: u16, ok: bool) -> Option<CmdId> {
        let cids = self.open.get_mut(usize::from(tenant))?;
        let open = cids.get_mut(usize::from(cid))?.take()?;
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
    /// known exactly in sim time when the layer observes them): one ring
    /// record when `end - start` fits in a `u32` of nanoseconds, and a
    /// begin and an end record otherwise, so every span stays exact.
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
        let duration = end.as_nanos().checked_sub(start.as_nanos());
        match duration.and_then(|d| u32::try_from(d).ok()) {
            Some(d) => self.push_record(Record {
                at: start.as_nanos(),
                cmd: cmd.0,
                tenant,
                opcode,
                tag: KIND_SPAN | stage_tag(stage, ok),
                arg: d,
            }),
            None => {
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
            }
        }
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
        let t = usize::from(tenant);
        if self.agg_slots.len() <= t {
            self.agg_slots.resize_with(t + 1, Default::default);
        }
        let cell = &mut self.agg_slots[t][stage as usize];
        let found = cell
            .iter()
            .find(|&&(f, op, _)| f == function && op == opcode);
        let slot = match found {
            Some(&(_, _, slot)) => slot,
            None => {
                let slot = self.hists.len();
                self.hists.push(LatencyHistogram::new());
                let key = AggKey {
                    tenant,
                    function,
                    opcode,
                    stage,
                };
                self.agg.insert(key, slot);
                cell.push((function, opcode, slot));
                slot
            }
        };
        self.hists[slot].record(d);
    }

    /// `(key, histogram)` pairs in key order.
    fn histograms(&self) -> impl Iterator<Item = (&AggKey, &LatencyHistogram)> {
        self.agg.iter().map(|(k, &slot)| (k, &self.hists[slot]))
    }

    /// The event stream, oldest first (bounded by the ring capacity),
    /// decoded from the ring's records. A one-record span yields its
    /// `SpanBegin` and then its `SpanEnd`.
    pub fn events(&self) -> impl Iterator<Item = TelemetryEvent> + '_ {
        self.ring.iter().flat_map(|r| {
            let (first, second) = self.decode(r);
            std::iter::once(first).chain(second)
        })
    }

    /// Events evicted from the ring because it was full: an evicted
    /// record counts every event it held.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The histogram for one key, if any samples were recorded.
    pub fn histogram(&self, key: &AggKey) -> Option<&LatencyHistogram> {
        self.agg.get(key).map(|&slot| &self.hists[slot])
    }

    /// Rolls all tenants' histograms for `stage` into one fleet total
    /// (a [`LatencyHistogram::merge`] roll-up, as an operator dashboard
    /// would).
    pub fn fleet_rollup(&self, stage: TelemetryStage) -> LatencyHistogram {
        let mut total = LatencyHistogram::new();
        for (k, h) in self.histograms() {
            if k.stage == stage {
                total.merge(h);
            }
        }
        total
    }

    /// Per-tenant roll-up for `stage` (opcodes merged), sorted by tenant.
    pub fn tenant_rollup(&self, stage: TelemetryStage) -> Vec<(u16, LatencyHistogram)> {
        let mut by_tenant: BTreeMap<u16, LatencyHistogram> = BTreeMap::new();
        for (k, h) in self.histograms() {
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
        for ev in self.events() {
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
    let mut instants: Vec<TelemetryEvent> = rec
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
/// for the span-nesting and attribution tests — parses exactly the
/// format this module emits, nothing more).
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
    fn ring_records_round_trip_every_kind() {
        let mut kinds = Vec::new();
        for stage in TelemetryStage::ALL {
            kinds.push(TelemetryEventKind::SpanBegin { stage });
            for ok in [true, false] {
                kinds.push(TelemetryEventKind::SpanEnd { stage, ok });
            }
        }
        kinds.extend([
            TelemetryEventKind::Retry { attempt: 0 },
            TelemetryEventKind::Retry { attempt: u32::MAX },
            TelemetryEventKind::Mark { label: "first" },
            TelemetryEventKind::Mark { label: "second" },
            TelemetryEventKind::Mark { label: "first" },
        ]);
        // Each field at the top of its range, less the index, so no
        // two entries agree and a truncated field would show.
        let mut pushed: Vec<TelemetryEvent> = (0u8..)
            .zip(kinds)
            .map(|(i, kind)| TelemetryEvent {
                at: SimTime::from_nanos(u64::MAX - u64::from(i)),
                cmd: CmdId(u64::MAX - u64::from(i)),
                tenant: u16::MAX - u16::from(i),
                opcode: u8::MAX - i,
                kind,
            })
            .collect();
        let mut r = TelemetryRecorder::new(1024);
        for e in &pushed {
            r.event(e.at, e.cmd, e.tenant, e.opcode, e.kind);
        }
        assert_eq!(
            r.labels,
            ["first", "second"],
            "a repeated label is interned once"
        );
        // Spans of every stage: one record each when the duration fits
        // a `u32` of nanoseconds, and a begin and an end record when it
        // does not or when the span ends before it starts.
        const MAX: u64 = u32::MAX as u64;
        let mut spans: Vec<(Option<u64>, bool)> = vec![
            (Some(0), true),
            (Some(MAX), true),
            (Some(MAX + 1), false),
            (None, false),
        ];
        spans.extend((1..=16).map(|d| (Some(d * 1_000), true)));
        let mut records = pushed.len();
        // Indices continue past the events', so no entry agrees with one.
        for (i, &(duration, fits)) in (pushed.len() as u8..).zip(&spans) {
            let stage = TelemetryStage::ALL[usize::from(i) % TelemetryStage::ALL.len()];
            let ok = i % 3 != 0;
            let top = u64::MAX - u64::from(i);
            let (start, end) = match duration {
                Some(d) => (top - d, top),
                None => (top, top - 1),
            };
            let (start, end) = (SimTime::from_nanos(start), SimTime::from_nanos(end));
            let (cmd, tenant, opcode) = (CmdId(top), u16::MAX - u16::from(i), u8::MAX - i);
            r.span(cmd, tenant, 7, opcode, stage, start, end, ok);
            let event = |at, kind| TelemetryEvent {
                at,
                cmd,
                tenant,
                opcode,
                kind,
            };
            pushed.push(event(start, TelemetryEventKind::SpanBegin { stage }));
            pushed.push(event(end, TelemetryEventKind::SpanEnd { stage, ok }));
            records += if fits { 1 } else { 2 };
        }
        assert_eq!(r.events().collect::<Vec<_>>(), pushed);
        assert_eq!(r.ring.len(), records);
    }

    #[test]
    fn eviction_takes_whole_spans() {
        let mut r = TelemetryRecorder::new(3);
        for i in 0..5 {
            r.span(
                CmdId(i + 1),
                0,
                0,
                0x02,
                TelemetryStage::Dma,
                t(i),
                t(i + 1),
                true,
            );
        }
        let events: Vec<_> = r.events().collect();
        assert_eq!(events.len(), 6, "three whole spans");
        assert_eq!(r.dropped(), 4, "two evicted spans of two events each");
        assert_eq!(
            events[0].kind,
            TelemetryEventKind::SpanBegin {
                stage: TelemetryStage::Dma
            }
        );
        assert_eq!(events[0].cmd, CmdId(3));
        assert_eq!(r.spans().len(), 3);
    }

    #[test]
    fn ring_is_allocated_once_at_capacity() {
        let mut r = TelemetryRecorder::new(100);
        assert_eq!(r.ring.capacity(), 0, "nothing allocated before use");
        let cmd = r.begin_command(t(0), 0, 1, 0x02);
        assert_eq!(r.ring.capacity(), 100);
        for i in 0..500 {
            r.span(cmd, 0, 0, 0x02, TelemetryStage::Dma, t(i), t(i + 1), true);
        }
        assert_eq!(r.ring.len(), 100);
        assert_eq!(r.ring.capacity(), 100, "the ring never grows");
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
