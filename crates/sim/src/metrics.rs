//! Deterministic, sim-time-sampled metrics.
//!
//! [`telemetry`](crate::telemetry) answers *"what happened to command
//! X"* (spans and traces); this module answers *"where is the system
//! saturated, and is it getting slower release over release"*. It is a
//! registry of three metric shapes, all identified by a
//! ([`MetricKey`]) metric name plus ordered label pairs:
//!
//! * **counters** — monotonic `u64` totals (commands started, bytes
//!   forwarded, retransmits, per-stage busy nanoseconds),
//! * **gauges** — instantaneous values with a peak watermark and a
//!   time-weighted integral, so the *mean occupancy over the run* falls
//!   out without storing every transition,
//! * **bounded time series** — `(SimTime, f64)` traces recorded by the
//!   testbed's periodic sampling event, capped at a fixed capacity so a
//!   long run cannot grow without bound (overflow is counted, never
//!   silent).
//!
//! Fault windows are recorded as [`Annotation`]s so excursions in the
//! series line up with their cause.
//!
//! # Slots
//!
//! Each counter, gauge and series lives in a dense slot of a `Vec`,
//! behind an ordered `MetricKey → slot` index. The index is read only
//! when a key is first written and at export, so every export lists
//! keys in `BTreeMap` order and never lists one that was not written.
//! Writes come in two forms that resolve to the same slots:
//!
//! * the **key form** ([`MetricsRegistry::counter_add`],
//!   [`gauge_set`](MetricsRegistry::gauge_set),
//!   [`sample`](MetricsRegistry::sample)) looks its key up in the index,
//! * the **slot form** ([`MetricsRegistry::counter_add_id`],
//!   [`gauge_set_id`](MetricsRegistry::gauge_set_id),
//!   [`sample_id`](MetricsRegistry::sample_id),
//!   [`stage_busy`](MetricsRegistry::stage_busy)) names the metric by
//!   type — a [`MetricId`] or a [`Stage`] — and finds its slot by array
//!   index. The per-I/O and per-tick writers use it.
//!
//! The slot-form cache lives inside the registry, so an id written
//! through one registry can never reach another registry's slot.
//!
//! # Determinism
//!
//! The registry is driven entirely by simulated time: it never
//! schedules events, draws randomness, or reads a wall clock. Sampling
//! is a *simulator event* (the testbed schedules it only when metrics
//! are enabled), so with metrics off the event stream — and therefore
//! every figure table — is byte-identical to a build without this
//! module. Components reach the registry through the
//! [`Observer`](crate::observe::Observer), which skips every call when
//! the registry is off.
//!
//! # Bottleneck analysis
//!
//! Components account per-stage *busy time* (the interval a command
//! occupies the stage, waiting included) and *arrivals* via
//! [`MetricsRegistry::stage_busy`]. Over a window `T` this yields, per
//! stage, a Little's-law breakdown: arrival rate `λ = arrivals / T`,
//! mean occupancy `L = busy / T`, and implied latency `W = L / λ =
//! busy / arrivals`. The stage with the highest occupancy is the
//! saturated stage ([`MetricsRegistry::bottleneck_report`]).
//!
//! # Examples
//!
//! ```
//! use bm_sim::metrics::{names, Metric, MetricKey, MetricsRegistry, Stage};
//! use bm_sim::{SimDuration, SimTime};
//!
//! let mut r = MetricsRegistry::new();
//! let t0 = SimTime::ZERO;
//! r.stage_busy(Stage::Ssd, SimDuration::from_us(80), 1);
//! r.gauge_set(t0, &MetricKey::new("depth"), 4.0);
//! r.sample(t0, &MetricKey::new("depth"), 4.0);
//! // Slot form and key form reach the same counter.
//! r.counter_add_id(Metric::EngineStarted.of(2), 1);
//! let key = MetricKey::labeled(names::ENGINE_STARTED, "function", "f2");
//! r.counter_add(&key, 1);
//! assert_eq!(r.counter(&key), 2);
//! let report = r.bottleneck_report(SimTime::ZERO + SimDuration::from_us(100), 4);
//! assert_eq!(report.saturated.as_deref(), Some("ssd"));
//! ```

use crate::stats::TimeSeries;
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Default capacity of each bounded time series (samples per key).
pub const DEFAULT_SERIES_CAPACITY: usize = 1 << 14;

/// Canonical metric names, shared by every instrumented crate so the
/// exposition is consistent and the report generators can find them.
pub mod names {
    /// Per-stage busy nanoseconds (counter; label `stage`).
    pub const STAGE_BUSY_NS: &str = "bm_stage_busy_ns_total";
    /// Per-stage command arrivals (counter; label `stage`).
    pub const STAGE_ARRIVALS: &str = "bm_stage_arrivals_total";
    /// Commands inside the engine pipeline (gauge; label `function`).
    pub const ENGINE_OUTSTANDING: &str = "bm_engine_outstanding";
    /// Commands fetched into the pipeline (counter; label `function`).
    pub const ENGINE_STARTED: &str = "bm_engine_commands_started_total";
    /// Commands that left the pipeline (counter; label `function`).
    pub const ENGINE_FINISHED: &str = "bm_engine_commands_finished_total";
    /// Commands parked behind a paused/full back-end port (gauge; label `ssd`).
    pub const DOORBELL_BACKLOG: &str = "bm_engine_doorbell_backlog";
    /// Back-end SQ slots in flight, zombies included (gauge; label `ssd`).
    pub const BACKEND_INFLIGHT: &str = "bm_backend_sq_inflight";
    /// SQEs pushed to a back-end ring (counter; label `ssd`).
    pub const BACKEND_FORWARDED: &str = "bm_backend_forwarded_total";
    /// CQEs drained from a back-end ring (counter; label `ssd`).
    pub const BACKEND_COMPLETED: &str = "bm_backend_completed_total";
    /// Timed-out attempts abandoned (counter; label `ssd`).
    pub const BACKEND_ABANDONED: &str = "bm_backend_abandoned_total";
    /// Live (non-zombie) back-end slots (gauge; label `ssd`).
    pub const BACKEND_LIVE: &str = "bm_backend_live";
    /// Zombie slots awaiting stale completions (gauge; label `ssd`).
    pub const BACKEND_ZOMBIES: &str = "bm_backend_zombie_slots";
    /// Payload bytes owned by in-flight back-end commands (gauge).
    pub const DMA_INFLIGHT_BYTES: &str = "bm_dma_inflight_bytes";
    /// Host-visible SQ entries awaiting completion (gauge; label `function`).
    pub const HOST_SQ_INFLIGHT: &str = "bm_host_sq_inflight";
    /// Host submissions waiting for a free ring slot (gauge; label `function`).
    pub const HOST_SQ_WAITING: &str = "bm_host_sq_waiting";
    /// SSD media busy nanoseconds (counter; label `ssd`).
    pub const SSD_BUSY_NS: &str = "bm_ssd_service_busy_ns_total";
    /// SSD commands serviced (counter; label `ssd`).
    pub const SSD_OPS: &str = "bm_ssd_service_ops_total";
    /// In-flight management requests: MCTP reassemblies in progress at
    /// the controller (SOM received, EOM still missing) (gauge).
    pub const MCTP_PARTIALS: &str = "bm_mctp_partial_assemblies";
    /// Management packets lost on the wire (counter).
    pub const MCTP_DROPPED: &str = "bm_mctp_packets_dropped_total";
    /// Management retransmissions issued (counter).
    pub const MCTP_RETRANSMITS: &str = "bm_mctp_retransmits_total";
    /// Engine command timeouts observed (counter).
    pub const ENGINE_TIMEOUTS: &str = "bm_engine_timeouts_total";
    /// Engine command retries issued (counter).
    pub const ENGINE_RETRIES: &str = "bm_engine_retries_total";
    /// Simulator events executed (counter; sampled per tick).
    pub const SCHED_EVENTS_FIRED: &str = "bm_sched_events_fired_total";
    /// Events pending in the scheduler (gauge; peak twin = high-water).
    pub const SCHED_PENDING: &str = "bm_sched_pending_events";
    /// Exact scheduler high-water mark, set once at run end (gauge).
    pub const SCHED_PEAK_PENDING: &str = "bm_sched_peak_pending_events";
    /// Past-due schedules clamped to now (counter).
    pub const SCHED_CLAMPED_PAST: &str = "bm_sched_clamped_past_total";
    /// Scheduler arena slots allocated (gauge; growth = leak signal).
    pub const SCHED_ARENA_SLOTS: &str = "bm_sched_arena_slots";
    /// Engine crash/recovery cycles completed (counter).
    pub const ENGINE_RECOVERIES: &str = "bm_engine_recoveries_total";
    /// Journaled commands replayed across recoveries (counter).
    pub const ENGINE_RECOVERY_REPLAYED: &str = "bm_engine_recovery_replayed_total";
    /// Journaled commands aborted to host on recovery (counter).
    pub const ENGINE_RECOVERY_ABORTED: &str = "bm_engine_recovery_aborted_total";
    /// Nanoseconds spent down across recoveries (counter).
    pub const ENGINE_RECOVERY_TIME_NS: &str = "bm_engine_recovery_time_ns_total";
}

/// Engine pipeline stage labels (the `stage` label value of each
/// [`Stage`]), in paper order (Fig. 3), plus the back-end device.
pub mod stages {
    use super::Stage;

    /// Label of [`Stage::FrontEnd`].
    pub const FRONT_END: &str = "front_end";
    /// Label of [`Stage::TargetCtrl`].
    pub const TARGET_CTRL: &str = "target_ctrl";
    /// Label of [`Stage::Mapping`].
    pub const MAPPING: &str = "mapping";
    /// Label of [`Stage::Qos`].
    pub const QOS: &str = "qos";
    /// Label of [`Stage::DmaRouting`].
    pub const DMA_ROUTING: &str = "dma_routing";
    /// Label of [`Stage::HostAdaptor`].
    pub const HOST_ADAPTOR: &str = "host_adaptor";
    /// Label of [`Stage::Ssd`].
    pub const SSD: &str = "ssd";

    /// All stages the bottleneck report knows about, in display order.
    pub const ALL: [Stage; 7] = [
        Stage::FrontEnd,
        Stage::TargetCtrl,
        Stage::Mapping,
        Stage::Qos,
        Stage::DmaRouting,
        Stage::HostAdaptor,
        Stage::Ssd,
    ];
}

/// A stage of the bottleneck report: the engine pipeline in paper order
/// (Fig. 3), plus the back-end device. What
/// [`MetricsRegistry::stage_busy`] charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Stage {
    /// SR-IOV front end: doorbell decode + SQE fetch.
    FrontEnd,
    /// NVMe target controller: validation + per-command processing.
    TargetCtrl,
    /// LBA mapping table lookup / chunk split.
    Mapping,
    /// QoS admission (busy only while commands wait in the throttle).
    Qos,
    /// DMA routing + back-end forward (store-and-forward link included).
    DmaRouting,
    /// Host adaptor: CQE forward + interrupt post.
    HostAdaptor,
    /// The back-end device itself (service interval, internal queueing
    /// included) — not an engine stage, but the report needs it to tell
    /// "SSD-bound" from "engine-bound".
    Ssd,
}

impl Stage {
    /// The stage's `stage` label value (see [`stages`]).
    pub fn label(self) -> &'static str {
        match self {
            Stage::FrontEnd => stages::FRONT_END,
            Stage::TargetCtrl => stages::TARGET_CTRL,
            Stage::Mapping => stages::MAPPING,
            Stage::Qos => stages::QOS,
            Stage::DmaRouting => stages::DMA_ROUTING,
            Stage::HostAdaptor => stages::HOST_ADAPTOR,
            Stage::Ssd => stages::SSD,
        }
    }
}

/// A metric identity: name plus ordered `(label, value)` pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricKey {
    /// Metric name (Prometheus-style snake case).
    pub name: &'static str,
    /// Label pairs, in a fixed order chosen by the instrumentation site.
    pub labels: Vec<(&'static str, String)>,
}

impl MetricKey {
    /// A key with no labels.
    pub fn new(name: &'static str) -> Self {
        MetricKey {
            name,
            labels: Vec::new(),
        }
    }

    /// A key with one label.
    pub fn labeled(name: &'static str, label: &'static str, value: impl fmt::Display) -> Self {
        MetricKey {
            name,
            labels: vec![(label, value.to_string())],
        }
    }

    /// The value of `label`, if present.
    pub fn label(&self, label: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| *k == label)
            .map(|(_, v)| v.as_str())
    }

    fn render(&self) -> String {
        self.render_as(self.name)
    }

    /// Renders with `name` substituted for the key's own (peak twins:
    /// the suffix must precede the label set in Prometheus syntax).
    fn render_as(&self, name: &str) -> String {
        if self.labels.is_empty() {
            return name.to_string();
        }
        let mut out = String::from(name);
        out.push('{');
        for (i, (k, v)) in self.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{v}\"");
        }
        out.push('}');
        out
    }
}

/// The metrics the simulator writes per I/O or per sampler tick, named
/// by type so the registry finds their slots by array index. Each one,
/// with a label index, is a [`MetricId`]; its [`MetricId::key`] is the
/// key a key-form write of the same metric uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// [`names::ENGINE_STARTED`], label `function="f<i>"`.
    EngineStarted,
    /// [`names::ENGINE_FINISHED`], label `function="f<i>"`.
    EngineFinished,
    /// [`names::ENGINE_OUTSTANDING`], label `function="f<i>"`.
    EngineOutstanding,
    /// [`names::HOST_SQ_INFLIGHT`], label `function="<i>"`.
    HostSqInflight,
    /// [`names::HOST_SQ_WAITING`], label `function="<i>"`.
    HostSqWaiting,
    /// [`names::SSD_BUSY_NS`], label `ssd="<i>"`.
    SsdBusy,
    /// [`names::SSD_OPS`], label `ssd="<i>"`.
    SsdOps,
    /// [`names::DOORBELL_BACKLOG`], label `ssd="<i>"`.
    DoorbellBacklog,
    /// [`names::BACKEND_INFLIGHT`], label `ssd="<i>"`.
    BackendInflight,
    /// [`names::BACKEND_LIVE`], label `ssd="<i>"`.
    BackendLive,
    /// [`names::BACKEND_ZOMBIES`], label `ssd="<i>"`.
    BackendZombies,
    /// [`names::DMA_INFLIGHT_BYTES`], label `ssd="<i>"`.
    DmaInflightBytes,
    /// [`names::BACKEND_FORWARDED`], label `ssd="<i>"`.
    BackendForwarded,
    /// [`names::BACKEND_COMPLETED`], label `ssd="<i>"`.
    BackendCompleted,
    /// [`names::BACKEND_ABANDONED`], label `ssd="<i>"`.
    BackendAbandoned,
    /// [`names::SCHED_EVENTS_FIRED`], unlabeled.
    SchedEventsFired,
    /// [`names::SCHED_PENDING`], unlabeled.
    SchedPending,
    /// [`names::SCHED_CLAMPED_PAST`], unlabeled.
    SchedClampedPast,
    /// [`names::SCHED_ARENA_SLOTS`], unlabeled.
    SchedArenaSlots,
    /// [`names::MCTP_PARTIALS`], unlabeled.
    MctpPartials,
}

/// How a [`Metric`]'s one label renders from its index `i`.
#[derive(Debug, Clone, Copy)]
enum LabelShape {
    /// No label; `i` is ignored.
    Unlabeled,
    /// `function="f<i>"`: an engine function.
    EngineFunction,
    /// `function="<i>"`: a host device.
    HostFunction,
    /// `ssd="<i>"`.
    Ssd,
}

impl Metric {
    fn spec(self) -> (&'static str, LabelShape) {
        use LabelShape::{EngineFunction, HostFunction, Ssd, Unlabeled};
        match self {
            Metric::EngineStarted => (names::ENGINE_STARTED, EngineFunction),
            Metric::EngineFinished => (names::ENGINE_FINISHED, EngineFunction),
            Metric::EngineOutstanding => (names::ENGINE_OUTSTANDING, EngineFunction),
            Metric::HostSqInflight => (names::HOST_SQ_INFLIGHT, HostFunction),
            Metric::HostSqWaiting => (names::HOST_SQ_WAITING, HostFunction),
            Metric::SsdBusy => (names::SSD_BUSY_NS, Ssd),
            Metric::SsdOps => (names::SSD_OPS, Ssd),
            Metric::DoorbellBacklog => (names::DOORBELL_BACKLOG, Ssd),
            Metric::BackendInflight => (names::BACKEND_INFLIGHT, Ssd),
            Metric::BackendLive => (names::BACKEND_LIVE, Ssd),
            Metric::BackendZombies => (names::BACKEND_ZOMBIES, Ssd),
            Metric::DmaInflightBytes => (names::DMA_INFLIGHT_BYTES, Ssd),
            Metric::BackendForwarded => (names::BACKEND_FORWARDED, Ssd),
            Metric::BackendCompleted => (names::BACKEND_COMPLETED, Ssd),
            Metric::BackendAbandoned => (names::BACKEND_ABANDONED, Ssd),
            Metric::SchedEventsFired => (names::SCHED_EVENTS_FIRED, Unlabeled),
            Metric::SchedPending => (names::SCHED_PENDING, Unlabeled),
            Metric::SchedClampedPast => (names::SCHED_CLAMPED_PAST, Unlabeled),
            Metric::SchedArenaSlots => (names::SCHED_ARENA_SLOTS, Unlabeled),
            Metric::MctpPartials => (names::MCTP_PARTIALS, Unlabeled),
        }
    }

    /// The metric for function, device or SSD number `label`. An
    /// unlabeled metric's key ignores `label`.
    #[inline]
    pub fn of(self, label: usize) -> MetricId {
        MetricId {
            metric: self,
            label,
        }
    }
}

/// A metric in slot form: a [`Metric`] plus a small label index. Build
/// one with [`Metric::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId {
    metric: Metric,
    label: usize,
}

impl MetricId {
    /// The key this id writes, e.g. `bm_engine_outstanding{function="f2"}`.
    pub fn key(self) -> MetricKey {
        let ((name, shape), i) = (self.metric.spec(), self.label);
        match shape {
            LabelShape::Unlabeled => MetricKey::new(name),
            LabelShape::EngineFunction => {
                MetricKey::labeled(name, "function", format_args!("f{i}"))
            }
            LabelShape::HostFunction => MetricKey::labeled(name, "function", i),
            LabelShape::Ssd => MetricKey::labeled(name, "ssd", i),
        }
    }
}

/// A gauge: instantaneous value, peak watermark, and a time-weighted
/// integral maintained piecewise between updates so mean occupancy is
/// available without storing the full transition history.
#[derive(Debug, Clone)]
pub struct GaugeState {
    value: f64,
    peak: f64,
    integral_ns: f64,
    last_update: SimTime,
}

impl GaugeState {
    fn new(now: SimTime, value: f64) -> Self {
        GaugeState {
            value,
            peak: value,
            integral_ns: 0.0,
            last_update: now,
        }
    }

    fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.saturating_since(self.last_update).as_nanos_f64();
        self.integral_ns += self.value * dt;
        self.last_update = now;
        self.value = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Current value.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Highest value ever set.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted mean over `[start, now]`, treating the time before
    /// the gauge existed as zero.
    pub fn mean_over(&self, start: SimTime, now: SimTime) -> f64 {
        let window = now.saturating_since(start).as_nanos_f64();
        if window == 0.0 {
            return self.value;
        }
        let tail = now.saturating_since(self.last_update).as_nanos_f64();
        (self.integral_ns + self.value * tail) / window
    }
}

/// A capacity-bounded time series. Once full, further samples are
/// dropped and counted — determinism over completeness.
#[derive(Debug, Clone)]
pub struct BoundedSeries {
    series: TimeSeries,
    capacity: usize,
    dropped: u64,
}

impl BoundedSeries {
    fn new(key: &MetricKey, capacity: usize) -> Self {
        BoundedSeries {
            series: TimeSeries::new(key.render()),
            capacity,
            dropped: 0,
        }
    }

    fn push(&mut self, at: SimTime, value: f64) {
        if self.series.len() < self.capacity {
            self.series.push(at, value);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        self.series.points()
    }

    /// Samples discarded after the series filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The underlying series (name, aggregates).
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }
}

/// A labeled time window (e.g. an injected fault) pinned to the run's
/// series so excursions can be matched to their cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Window start.
    pub start: SimTime,
    /// Window end; `None` for instantaneous or still-open windows.
    pub end: Option<SimTime>,
    /// Human-readable cause.
    pub label: String,
}

/// One stage's row in the [`BottleneckReport`].
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage label (see [`stages`]).
    pub stage: String,
    /// Commands that entered the stage.
    pub arrivals: u64,
    /// Total busy time accumulated by the stage.
    pub busy: SimDuration,
    /// Mean occupancy `L = busy / window` (may exceed 1 for stages with
    /// internal parallelism, e.g. the SSD's flash dies).
    pub occupancy: f64,
    /// Arrival rate `λ` in commands per second.
    pub arrival_rate_per_s: f64,
    /// Little's-law implied latency `W = L / λ = busy / arrivals`.
    pub implied_latency: SimDuration,
}

/// The utilization / queueing summary for a run window.
#[derive(Debug, Clone)]
pub struct BottleneckReport {
    /// Window the rates are computed over.
    pub window: SimDuration,
    /// Per-stage breakdown, sorted by descending occupancy.
    pub stages: Vec<StageReport>,
    /// The stage with the highest occupancy, if any stage was busy.
    pub saturated: Option<String>,
    /// Top tenants by mean pipeline occupancy: `(function label, mean L)`.
    pub top_tenants: Vec<(String, f64)>,
}

/// One metric shape's store: values in dense slots behind the ordered
/// key index (see the [module docs](self#slots)).
#[derive(Debug)]
struct Slots<T> {
    /// Key → slot. Read when a key is first written and at export.
    index: BTreeMap<MetricKey, usize>,
    values: Vec<T>,
    /// The slot form's cache of `index`: `[metric][label]` → slot.
    by_id: Vec<Vec<Option<usize>>>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            index: BTreeMap::new(),
            values: Vec::new(),
            by_id: Vec::new(),
        }
    }

    fn get(&self, key: &MetricKey) -> Option<&T> {
        self.index.get(key).map(|&slot| &self.values[slot])
    }

    /// The slot of `key`, created with `init` on the key's first write.
    fn slot(&mut self, key: &MetricKey, init: impl FnOnce(&MetricKey) -> T) -> usize {
        if let Some(&slot) = self.index.get(key) {
            return slot;
        }
        self.values.push(init(key));
        let slot = self.values.len() - 1;
        self.index.insert(key.clone(), slot);
        slot
    }

    /// The slot of `id`: two array indexings once resolved. The first
    /// write of an id resolves its key through [`Self::slot`].
    #[inline]
    fn id_slot(&mut self, id: MetricId, init: impl FnOnce(&MetricKey) -> T) -> usize {
        let cached = self.by_id.get(id.metric as usize);
        match cached.and_then(|labels| labels.get(id.label)) {
            Some(&Some(slot)) => slot,
            _ => self.resolve(id, init),
        }
    }

    #[cold]
    fn resolve(&mut self, id: MetricId, init: impl FnOnce(&MetricKey) -> T) -> usize {
        let slot = self.slot(&id.key(), init);
        let metric = id.metric as usize;
        if self.by_id.len() <= metric {
            self.by_id.resize_with(metric + 1, Vec::new);
        }
        let labels = &mut self.by_id[metric];
        if labels.len() <= id.label {
            labels.resize(id.label + 1, None);
        }
        labels[id.label] = Some(slot);
        slot
    }

    /// `(key, value)` pairs in key order.
    fn iter(&self) -> impl Iterator<Item = (&MetricKey, &T)> {
        self.index.iter().map(|(k, &slot)| (k, &self.values[slot]))
    }
}

/// A gauge's slot: its state and, once the sampler has snapshotted it,
/// the slot of its same-key series.
#[derive(Debug)]
struct GaugeSlot {
    state: GaugeState,
    series: Option<usize>,
}

impl GaugeSlot {
    fn new(now: SimTime, value: f64) -> Self {
        GaugeSlot {
            state: GaugeState::new(now, value),
            series: None,
        }
    }
}

/// The metrics store: counters, gauges, bounded series, annotations.
///
/// Components reach it through the [`Observer`](crate::observe::Observer).
#[derive(Debug)]
pub struct MetricsRegistry {
    series_capacity: usize,
    started: SimTime,
    last_sample: Option<SimTime>,
    sample_ticks: u64,
    counters: Slots<u64>,
    gauges: Slots<GaugeSlot>,
    /// Gauges whose series slot is known: every slot below this.
    gauges_linked: usize,
    series: Slots<BoundedSeries>,
    annotations: Vec<Annotation>,
    /// Per-stage `[busy, arrivals]` counter slots, resolved on first
    /// write by [`MetricsRegistry::stage_busy`].
    stage_slots: [[Option<usize>; 2]; stages::ALL.len()],
}

impl MetricsRegistry {
    /// An empty registry with [`DEFAULT_SERIES_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SERIES_CAPACITY)
    }

    /// An empty registry with `series_capacity` samples per series key.
    pub fn with_capacity(series_capacity: usize) -> Self {
        MetricsRegistry {
            series_capacity,
            started: SimTime::ZERO,
            last_sample: None,
            sample_ticks: 0,
            counters: Slots::new(),
            gauges: Slots::new(),
            gauges_linked: 0,
            series: Slots::new(),
            annotations: Vec::new(),
            stage_slots: [[None; 2]; stages::ALL.len()],
        }
    }

    /// Adds `delta` to a counter, creating it at zero. The key form: it
    /// looks `key` up in the ordered index. Per-I/O writers use
    /// [`Self::counter_add_id`] or [`Self::stage_busy`] instead.
    pub fn counter_add(&mut self, key: &MetricKey, delta: u64) {
        let slot = self.counters.slot(key, |_| 0);
        self.counters.values[slot] += delta;
    }

    /// [`Self::counter_add`] in slot form.
    pub fn counter_add_id(&mut self, id: MetricId, delta: u64) {
        let slot = self.counters.id_slot(id, |_| 0);
        self.counters.values[slot] += delta;
    }

    /// Reads a counter (zero if never written).
    pub fn counter(&self, key: &MetricKey) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sets a gauge, folding the elapsed interval into its integral.
    pub fn gauge_set(&mut self, now: SimTime, key: &MetricKey, value: f64) {
        let mut created = false;
        let slot = self.gauges.slot(key, |_| {
            created = true;
            GaugeSlot::new(now, value)
        });
        if !created {
            self.gauges.values[slot].state.set(now, value);
        }
    }

    /// [`Self::gauge_set`] in slot form.
    pub fn gauge_set_id(&mut self, now: SimTime, id: MetricId, value: f64) {
        let mut created = false;
        let slot = self.gauges.id_slot(id, |_| {
            created = true;
            GaugeSlot::new(now, value)
        });
        if !created {
            self.gauges.values[slot].state.set(now, value);
        }
    }

    /// Reads a gauge.
    pub fn gauge(&self, key: &MetricKey) -> Option<&GaugeState> {
        self.gauges.get(key).map(|g| &g.state)
    }

    /// Appends one point to a bounded series, creating it on first use.
    pub fn sample(&mut self, at: SimTime, key: &MetricKey, value: f64) {
        let capacity = self.series_capacity;
        let slot = self.series.slot(key, |k| BoundedSeries::new(k, capacity));
        self.series.values[slot].push(at, value);
    }

    /// [`Self::sample`] in slot form.
    pub fn sample_id(&mut self, at: SimTime, id: MetricId, value: f64) {
        let capacity = self.series_capacity;
        let slot = self.series.id_slot(id, |k| BoundedSeries::new(k, capacity));
        self.series.values[slot].push(at, value);
    }

    /// Snapshots every gauge's current value into its series at `now`
    /// — the periodic sampler's bulk step, equivalent to calling
    /// [`MetricsRegistry::sample`] per gauge. Each gauge remembers its
    /// series slot, so only a gauge's first snapshot reads the index.
    pub fn snapshot_gauges(&mut self, now: SimTime) {
        if self.gauges_linked < self.gauges.values.len() {
            let capacity = self.series_capacity;
            for (key, &slot) in &self.gauges.index {
                let gauge = &mut self.gauges.values[slot];
                if gauge.series.is_none() {
                    let series = self.series.slot(key, |k| BoundedSeries::new(k, capacity));
                    gauge.series = Some(series);
                }
            }
            self.gauges_linked = self.gauges.values.len();
        }
        for gauge in &self.gauges.values {
            if let Some(series) = gauge.series {
                self.series.values[series].push(now, gauge.state.value());
            }
        }
    }

    /// Reads a series.
    pub fn series(&self, key: &MetricKey) -> Option<&BoundedSeries> {
        self.series.get(key)
    }

    /// Accounts one stage traversal: `busy` occupancy-time (waiting
    /// included) and `arrivals` commands entering the stage, on the
    /// stage's `bm_stage_busy_ns_total` and `bm_stage_arrivals_total`
    /// counters. Slot form: after a stage's first call, each counter is
    /// one array indexing away.
    pub fn stage_busy(&mut self, stage: Stage, busy: SimDuration, arrivals: u64) {
        self.stage_add(stage, 0, busy.as_nanos());
        if arrivals > 0 {
            self.stage_add(stage, 1, arrivals);
        }
    }

    /// Adds `delta` to stage counter `which` (0 busy, 1 arrivals).
    #[inline]
    fn stage_add(&mut self, stage: Stage, which: usize, delta: u64) {
        let cached = &mut self.stage_slots[stage as usize][which];
        let slot = match *cached {
            Some(slot) => slot,
            None => {
                let name = [names::STAGE_BUSY_NS, names::STAGE_ARRIVALS][which];
                let key = MetricKey::labeled(name, "stage", stage.label());
                *cached.insert(self.counters.slot(&key, |_| 0))
            }
        };
        self.counters.values[slot] += delta;
    }

    /// Records a labeled window annotation (e.g. a fault injection).
    pub fn annotate(&mut self, start: SimTime, end: Option<SimTime>, label: impl Into<String>) {
        self.annotations.push(Annotation {
            start,
            end,
            label: label.into(),
        });
    }

    /// Marks one firing of the periodic sampling event.
    pub fn mark_sample_tick(&mut self, now: SimTime) {
        self.sample_ticks += 1;
        self.last_sample = Some(now);
    }

    /// Number of sampling-event firings.
    pub fn sample_ticks(&self) -> u64 {
        self.sample_ticks
    }

    /// Time of the most recent sampling-event firing.
    pub fn last_sample(&self) -> Option<SimTime> {
        self.last_sample
    }

    /// All recorded annotations, in recording order.
    pub fn annotations(&self) -> &[Annotation] {
        &self.annotations
    }

    /// All counters, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricKey, u64)> {
        self.counters.iter().map(|(k, v)| (k, *v))
    }

    /// All gauges, in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricKey, &GaugeState)> {
        self.gauges.iter().map(|(k, g)| (k, &g.state))
    }

    /// All series, in key order.
    pub fn series_iter(&self) -> impl Iterator<Item = (&MetricKey, &BoundedSeries)> {
        self.series.iter()
    }

    /// Total samples dropped across all series after filling.
    pub fn series_dropped(&self) -> u64 {
        self.series.values.iter().map(|s| s.dropped).sum()
    }

    /// Builds the utilization / Little's-law summary as of `now`,
    /// listing up to `top_k` tenants by mean pipeline occupancy.
    pub fn bottleneck_report(&self, now: SimTime, top_k: usize) -> BottleneckReport {
        let window = now.saturating_since(self.started);
        let window_ns = window.as_nanos_f64();
        let mut stage_rows = Vec::new();
        for (key, busy_ns) in self.counters.iter() {
            if key.name != names::STAGE_BUSY_NS {
                continue;
            }
            let Some(stage) = key.label("stage") else {
                continue;
            };
            let arrivals = self.counter(&MetricKey::labeled(names::STAGE_ARRIVALS, "stage", stage));
            let busy = SimDuration::from_nanos(*busy_ns);
            let occupancy = if window_ns > 0.0 {
                busy.as_nanos_f64() / window_ns
            } else {
                0.0
            };
            let arrival_rate_per_s = if window_ns > 0.0 {
                arrivals as f64 * 1e9 / window_ns
            } else {
                0.0
            };
            let implied_latency = busy_ns
                .checked_div(arrivals)
                .map(SimDuration::from_nanos)
                .unwrap_or(SimDuration::ZERO);
            stage_rows.push(StageReport {
                stage: stage.to_string(),
                arrivals,
                busy,
                occupancy,
                arrival_rate_per_s,
                implied_latency,
            });
        }
        stage_rows.sort_by(|a, b| {
            b.occupancy
                .total_cmp(&a.occupancy)
                .then_with(|| a.stage.cmp(&b.stage))
        });
        let saturated = stage_rows
            .first()
            .filter(|s| s.busy > SimDuration::ZERO)
            .map(|s| s.stage.clone());

        let mut tenants: Vec<(String, f64)> = self
            .gauges()
            .filter(|(k, _)| k.name == names::ENGINE_OUTSTANDING)
            .filter_map(|(k, g)| {
                k.label("function")
                    .map(|f| (f.to_string(), g.mean_over(self.started, now)))
            })
            .collect();
        tenants.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        tenants.truncate(top_k);

        BottleneckReport {
            window,
            stages: stage_rows,
            saturated,
            top_tenants: tenants,
        }
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

fn fmt_f64(v: f64) -> String {
    // bm-lint: allow(float-determinism): integer-rendering threshold in a formatter; it inspects an already-computed value, not sim state
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.6}")
    }
}

/// Renders the registry as Prometheus text-format exposition
/// (counters and gauges; series are exported via [`csv`]). Annotations
/// and sampler health appear as trailing comments. Deterministic: keys
/// are emitted in `BTreeMap` order.
pub fn prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for (key, value) in reg.counters() {
        if key.name != last_name {
            let _ = writeln!(out, "# TYPE {} counter", key.name);
            last_name = key.name;
        }
        let _ = writeln!(out, "{} {}", key.render(), value);
    }
    last_name = "";
    for (key, gauge) in reg.gauges() {
        if key.name != last_name {
            let _ = writeln!(out, "# TYPE {} gauge", key.name);
            last_name = key.name;
        }
        let _ = writeln!(out, "{} {}", key.render(), fmt_f64(gauge.value()));
    }
    last_name = "";
    for (key, gauge) in reg.gauges() {
        let peak_name = format!("{}_peak", key.name);
        if key.name != last_name {
            let _ = writeln!(out, "# TYPE {peak_name} gauge");
            last_name = key.name;
        }
        let _ = writeln!(
            out,
            "{} {}",
            key.render_as(&peak_name),
            fmt_f64(gauge.peak())
        );
    }
    let _ = writeln!(out, "# TYPE bm_metrics_sample_ticks counter");
    let _ = writeln!(out, "bm_metrics_sample_ticks {}", reg.sample_ticks());
    let _ = writeln!(out, "# TYPE bm_metrics_series_dropped counter");
    let _ = writeln!(out, "bm_metrics_series_dropped {}", reg.series_dropped());
    for a in reg.annotations() {
        let end = a
            .end
            .map(|e| e.as_nanos().to_string())
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(
            out,
            "# ANNOTATION {} {} {}",
            a.start.as_nanos(),
            end,
            a.label
        );
    }
    out
}

/// Renders every bounded series as CSV: `series,t_ns,value`, one row
/// per sample, keys in `BTreeMap` order.
pub fn csv(reg: &MetricsRegistry) -> String {
    let mut out = String::from("series,t_ns,value\n");
    for (key, series) in reg.series_iter() {
        let rendered = key.render();
        for (at, v) in series.points() {
            let _ = writeln!(out, "\"{}\",{},{}", rendered, at.as_nanos(), fmt_f64(*v));
        }
    }
    out
}

/// Renders a [`BottleneckReport`] as an aligned text table.
pub fn render_bottleneck(report: &BottleneckReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "window {:.3} ms; saturated stage: {}",
        report.window.as_secs_f64() * 1e3,
        report.saturated.as_deref().unwrap_or("(idle)")
    );
    let _ = writeln!(
        out,
        "{:<14} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "stage", "arrivals", "lambda/s", "mean L", "W (us)", "util %"
    );
    for s in &report.stages {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12.0} {:>10.3} {:>12.1} {:>12.1}",
            s.stage,
            s.arrivals,
            s.arrival_rate_per_s,
            s.occupancy,
            s.implied_latency.as_micros_f64(),
            100.0 * s.occupancy.min(1.0),
        );
    }
    if !report.top_tenants.is_empty() {
        let _ = writeln!(out, "top tenants by mean pipeline occupancy:");
        for (tenant, l) in &report.top_tenants {
            let _ = writeln!(out, "  {tenant:<12} {l:>8.3}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimTime {
        SimTime::from_nanos(n * 1_000)
    }

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut reg = MetricsRegistry::new();
        let key = MetricKey::labeled(names::ENGINE_STARTED, "function", 0);
        assert_eq!(reg.counter(&key), 0);
        reg.counter_add(&key, 2);
        reg.counter_add(&key, 3);
        assert_eq!(reg.counter(&key), 5);
    }

    #[test]
    fn gauge_integral_gives_time_weighted_mean() {
        let mut reg = MetricsRegistry::new();
        let key = MetricKey::new("depth");
        // 0..10µs at 4, 10..20µs at 8 → mean 6 over 20µs.
        reg.gauge_set(us(0), &key, 4.0);
        reg.gauge_set(us(10), &key, 8.0);
        let g = reg.gauge(&key).unwrap();
        assert_eq!(g.value(), 8.0);
        assert_eq!(g.peak(), 8.0);
        let mean = g.mean_over(SimTime::ZERO, us(20));
        assert!((mean - 6.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn gauge_created_mid_window_counts_zero_before() {
        let mut reg = MetricsRegistry::new();
        let key = MetricKey::new("depth");
        reg.gauge_set(us(10), &key, 10.0);
        // 0..10µs implicit zero, 10..20µs at 10 → mean 5.
        let mean = reg.gauge(&key).unwrap().mean_over(SimTime::ZERO, us(20));
        assert!((mean - 5.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn bounded_series_counts_overflow() {
        let mut reg = MetricsRegistry::with_capacity(2);
        let key = MetricKey::new("s");
        for i in 0..5u64 {
            reg.sample(us(i), &key, i as f64);
        }
        let s = reg.series(&key).unwrap();
        assert_eq!(s.points().len(), 2);
        assert_eq!(s.dropped(), 3);
        assert_eq!(reg.series_dropped(), 3);
    }

    #[test]
    fn bottleneck_names_busiest_stage_and_obeys_littles_law() {
        let mut reg = MetricsRegistry::new();
        // 100 commands × 80µs in the SSD, 100 × 1µs in the front end,
        // over a 1ms window: L_ssd = 8, W_ssd = 80µs, λ = 100k/s.
        reg.stage_busy(Stage::Ssd, SimDuration::from_us(80) * 100, 100);
        reg.stage_busy(Stage::FrontEnd, SimDuration::from_us(1) * 100, 100);
        let report = reg.bottleneck_report(us(1_000), 4);
        assert_eq!(report.saturated.as_deref(), Some(stages::SSD));
        let ssd = &report.stages[0];
        assert_eq!(ssd.arrivals, 100);
        assert!((ssd.occupancy - 8.0).abs() < 1e-9);
        assert!((ssd.arrival_rate_per_s - 100_000.0).abs() < 1e-6);
        assert_eq!(ssd.implied_latency, SimDuration::from_us(80));
        // Little's law: L = λ · W.
        let lw = ssd.arrival_rate_per_s * ssd.implied_latency.as_secs_f64();
        assert!((ssd.occupancy - lw).abs() < 1e-9);
    }

    #[test]
    fn bottleneck_ranks_tenants_by_mean_occupancy() {
        let mut reg = MetricsRegistry::new();
        for (f, depth) in [(0u8, 2.0), (1, 9.0), (2, 4.0)] {
            let key = MetricKey::labeled(names::ENGINE_OUTSTANDING, "function", format!("f{f}"));
            reg.gauge_set(us(0), &key, depth);
        }
        let report = reg.bottleneck_report(us(100), 2);
        assert_eq!(report.top_tenants.len(), 2);
        assert_eq!(report.top_tenants[0].0, "f1");
        assert_eq!(report.top_tenants[1].0, "f2");
    }

    #[test]
    fn idle_registry_reports_no_saturation() {
        let reg = MetricsRegistry::new();
        let report = reg.bottleneck_report(us(10), 4);
        assert!(report.saturated.is_none());
        assert!(report.stages.is_empty());
        // The renderer copes with an empty report.
        assert!(render_bottleneck(&report).contains("(idle)"));
    }

    #[test]
    fn prometheus_exposition_is_deterministic_and_typed() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add(&MetricKey::labeled(names::SSD_OPS, "ssd", 1), 7);
        reg.counter_add(&MetricKey::labeled(names::SSD_OPS, "ssd", 0), 3);
        reg.gauge_set(us(5), &MetricKey::new(names::DMA_INFLIGHT_BYTES), 4096.0);
        reg.annotate(us(1), Some(us(2)), "fault: spike ssd0");
        let text = prometheus(&reg);
        let again = prometheus(&reg);
        assert_eq!(text, again);
        assert!(text.contains("# TYPE bm_ssd_service_ops_total counter"));
        // BTreeMap order: ssd="0" before ssd="1".
        let a = text.find("ssd=\"0\"").unwrap();
        let b = text.find("ssd=\"1\"").unwrap();
        assert!(a < b);
        assert!(text.contains("bm_dma_inflight_bytes 4096"));
        assert!(text.contains("bm_dma_inflight_bytes_peak 4096"));
        assert!(text.contains("# ANNOTATION 1000 2000 fault: spike ssd0"));
    }

    #[test]
    fn csv_lists_every_sample() {
        let mut reg = MetricsRegistry::new();
        let key = MetricKey::labeled(names::BACKEND_INFLIGHT, "ssd", 0);
        reg.sample(us(1), &key, 3.0);
        reg.sample(us(2), &key, 5.0);
        let text = csv(&reg);
        assert!(text.starts_with("series,t_ns,value\n"));
        assert!(text.contains("\"bm_backend_sq_inflight{ssd=\"0\"}\",1000,3"));
        assert!(text.contains("\"bm_backend_sq_inflight{ssd=\"0\"}\",2000,5"));
    }

    #[test]
    fn sample_ticks_and_last_sample_track_the_sampler() {
        let mut reg = MetricsRegistry::new();
        assert_eq!(reg.sample_ticks(), 0);
        reg.mark_sample_tick(us(10));
        reg.mark_sample_tick(us(20));
        assert_eq!(reg.sample_ticks(), 2);
        assert_eq!(reg.last_sample(), Some(us(20)));
    }
}
