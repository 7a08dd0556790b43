//! Deterministic, sim-time-sampled metrics.
//!
//! [`telemetry`](crate::telemetry) answers *"what happened to command
//! X"* (spans and traces); this module answers *"where is the system
//! saturated, and is it getting slower release over release"*. It is a
//! registry of three metric shapes, each addressed by a [`MetricId`]:
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
//! # Keys
//!
//! Every metric the simulator writes is a [`Metric`] variant, which
//! fixes its name and the shape of its one label (an engine function, a
//! host device, an SSD or a [`Stage`]). A [`Metric`] with a label index
//! is a [`MetricId`] ([`Metric::of`]), the registry's only key. The
//! registry keeps counters, gauges and series in dense tables indexed
//! by `(metric, label)`, so a write is two array indexings and never
//! builds or compares a string. There is one write method per shape:
//! [`MetricsRegistry::counter_add`], [`gauge_set`](MetricsRegistry::gauge_set)
//! and [`sample`](MetricsRegistry::sample). A gauge's series is the
//! series with the same id.
//!
//! Keys are rendered (`bm_engine_outstanding{function="f2"}`) and
//! sorted only when they are exported or iterated: by name, then by
//! label value compared as a string, so `ssd="10"` comes before
//! `ssd="2"`. A key never written is never listed, while a counter
//! written with 0 is. An unlabeled metric has one slot, whatever label
//! index reaches it.
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
//! use bm_sim::metrics::{prometheus, Metric, MetricsRegistry, Stage};
//! use bm_sim::{SimDuration, SimTime};
//!
//! let mut r = MetricsRegistry::new();
//! let t0 = SimTime::ZERO;
//! r.stage_busy(Stage::Ssd, SimDuration::from_us(80), 1);
//! let inflight = Metric::BackendInflight.of(0);
//! r.gauge_set(t0, inflight, 4.0);
//! r.snapshot_gauges(t0);
//! assert_eq!(r.series(inflight).map(|s| s.points().len()), Some(1));
//! r.counter_add(Metric::EngineStarted.of(2), 1);
//! r.counter_add(Metric::EngineStarted.of(2), 1);
//! assert_eq!(r.counter(Metric::EngineStarted.of(2)), 2);
//! assert!(prometheus(&r).contains("bm_engine_commands_started_total{function=\"f2\"} 2\n"));
//! let report = r.bottleneck_report(SimTime::ZERO + SimDuration::from_us(100), 4);
//! assert_eq!(report.saturated.as_deref(), Some("ssd"));
//! ```

use crate::time::{SimDuration, SimTime};
use std::fmt::Write as _;

/// Default capacity of each bounded time series (samples per key).
pub const DEFAULT_SERIES_CAPACITY: usize = 1 << 14;

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
    /// Every stage, in paper order; a stage's index here is its label
    /// index in [`Metric::StageBusy`] and [`Metric::StageArrivals`].
    pub const ALL: [Stage; 7] = [
        Stage::FrontEnd,
        Stage::TargetCtrl,
        Stage::Mapping,
        Stage::Qos,
        Stage::DmaRouting,
        Stage::HostAdaptor,
        Stage::Ssd,
    ];

    /// The stage's `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            Stage::FrontEnd => "front_end",
            Stage::TargetCtrl => "target_ctrl",
            Stage::Mapping => "mapping",
            Stage::Qos => "qos",
            Stage::DmaRouting => "dma_routing",
            Stage::HostAdaptor => "host_adaptor",
            Stage::Ssd => "ssd",
        }
    }
}

/// Every metric the simulator writes. Each variant fixes the metric's
/// exported name and the shape of its one label; with a label index it
/// is a [`MetricId`] ([`Metric::of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// `bm_stage_busy_ns_total{stage="<stage>"}`: nanoseconds a
    /// [`Stage`] was busy (counter).
    StageBusy,
    /// `bm_stage_arrivals_total{stage="<stage>"}`: commands that entered
    /// a [`Stage`] (counter).
    StageArrivals,
    /// `bm_engine_commands_started_total{function="f<i>"}`: commands
    /// fetched into the pipeline (counter).
    EngineStarted,
    /// `bm_engine_commands_finished_total{function="f<i>"}`: commands
    /// that left the pipeline (counter).
    EngineFinished,
    /// `bm_engine_outstanding{function="f<i>"}`: commands inside the
    /// engine pipeline (gauge).
    EngineOutstanding,
    /// `bm_engine_timeouts_total`: engine command timeouts (counter).
    EngineTimeouts,
    /// `bm_engine_retries_total`: engine command retries issued
    /// (counter).
    EngineRetries,
    /// `bm_engine_recoveries_total`: engine crash/recovery cycles
    /// completed (counter).
    EngineRecoveries,
    /// `bm_engine_recovery_replayed_total`: journaled commands replayed
    /// across recoveries (counter).
    EngineRecoveryReplayed,
    /// `bm_engine_recovery_aborted_total`: journaled commands aborted to
    /// the host on recovery (counter).
    EngineRecoveryAborted,
    /// `bm_engine_recovery_time_ns_total`: nanoseconds spent down
    /// across recoveries (counter).
    EngineRecoveryTime,
    /// `bm_host_sq_inflight{function="<i>"}`: host-visible SQ entries
    /// awaiting completion (gauge).
    HostSqInflight,
    /// `bm_host_sq_waiting{function="<i>"}`: host submissions waiting
    /// for a free ring slot (gauge).
    HostSqWaiting,
    /// `bm_ssd_service_busy_ns_total{ssd="<i>"}`: SSD media busy
    /// nanoseconds (sampled as a series).
    SsdBusy,
    /// `bm_ssd_service_ops_total{ssd="<i>"}`: SSD commands serviced
    /// (sampled as a series).
    SsdOps,
    /// `bm_engine_doorbell_backlog{ssd="<i>"}`: commands parked behind
    /// a paused or full back-end port (gauge).
    DoorbellBacklog,
    /// `bm_backend_sq_inflight{ssd="<i>"}`: back-end SQ slots in
    /// flight, zombies included (gauge).
    BackendInflight,
    /// `bm_backend_live{ssd="<i>"}`: live (non-zombie) back-end slots
    /// (gauge).
    BackendLive,
    /// `bm_backend_zombie_slots{ssd="<i>"}`: zombie slots awaiting
    /// stale completions (gauge).
    BackendZombies,
    /// `bm_dma_inflight_bytes{ssd="<i>"}`: payload bytes owned by
    /// in-flight back-end commands (gauge).
    DmaInflightBytes,
    /// `bm_backend_forwarded_total{ssd="<i>"}`: SQEs pushed to a
    /// back-end ring (sampled as a series).
    BackendForwarded,
    /// `bm_backend_completed_total{ssd="<i>"}`: CQEs drained from a
    /// back-end ring (sampled as a series).
    BackendCompleted,
    /// `bm_backend_abandoned_total{ssd="<i>"}`: timed-out attempts
    /// abandoned (sampled as a series).
    BackendAbandoned,
    /// `bm_sched_events_fired_total`: simulator events executed
    /// (counter at run end; sampled per tick).
    SchedEventsFired,
    /// `bm_sched_pending_events`: events pending in the scheduler
    /// (gauge; its peak twin is the sampled high-water mark).
    SchedPending,
    /// `bm_sched_peak_pending_events`: the scheduler's exact high-water
    /// mark, set once at run end (gauge).
    SchedPeakPending,
    /// `bm_sched_clamped_past_total`: past-due schedules clamped to now
    /// (counter at run end; sampled per tick).
    SchedClampedPast,
    /// `bm_sched_arena_slots`: scheduler arena slots allocated (gauge;
    /// growth is a leak signal).
    SchedArenaSlots,
    /// `bm_mctp_partial_assemblies`: MCTP reassemblies in progress at
    /// the controller, SOM received and EOM still missing (gauge).
    MctpPartials,
    /// `bm_mctp_packets_dropped_total`: management packets lost on the
    /// wire (counter).
    MctpDropped,
    /// `bm_mctp_retransmits_total`: management retransmissions issued
    /// (counter).
    MctpRetransmits,
}

/// How a [`Metric`]'s one label renders from its index `i`.
#[derive(Debug, Clone, Copy)]
enum LabelShape {
    /// `function="f<i>"`: an engine function.
    EngineFunction,
    /// `function="<i>"`: a host device.
    HostFunction,
    /// `ssd="<i>"`.
    Ssd,
    /// `stage="<label>"` of `Stage::ALL[i]`; an index past the last
    /// stage renders as the number.
    Stage,
}

impl Metric {
    /// Every metric, in declaration order, so that a table row's index
    /// names its metric.
    const ALL: [Metric; 31] = [
        Metric::StageBusy,
        Metric::StageArrivals,
        Metric::EngineStarted,
        Metric::EngineFinished,
        Metric::EngineOutstanding,
        Metric::EngineTimeouts,
        Metric::EngineRetries,
        Metric::EngineRecoveries,
        Metric::EngineRecoveryReplayed,
        Metric::EngineRecoveryAborted,
        Metric::EngineRecoveryTime,
        Metric::HostSqInflight,
        Metric::HostSqWaiting,
        Metric::SsdBusy,
        Metric::SsdOps,
        Metric::DoorbellBacklog,
        Metric::BackendInflight,
        Metric::BackendLive,
        Metric::BackendZombies,
        Metric::DmaInflightBytes,
        Metric::BackendForwarded,
        Metric::BackendCompleted,
        Metric::BackendAbandoned,
        Metric::SchedEventsFired,
        Metric::SchedPending,
        Metric::SchedPeakPending,
        Metric::SchedClampedPast,
        Metric::SchedArenaSlots,
        Metric::MctpPartials,
        Metric::MctpDropped,
        Metric::MctpRetransmits,
    ];

    /// The metric's name and label shape (`None`: unlabeled).
    fn spec(self) -> (&'static str, Option<LabelShape>) {
        use LabelShape::{EngineFunction, HostFunction, Ssd, Stage};
        match self {
            Metric::StageBusy => ("bm_stage_busy_ns_total", Some(Stage)),
            Metric::StageArrivals => ("bm_stage_arrivals_total", Some(Stage)),
            Metric::EngineStarted => ("bm_engine_commands_started_total", Some(EngineFunction)),
            Metric::EngineFinished => ("bm_engine_commands_finished_total", Some(EngineFunction)),
            Metric::EngineOutstanding => ("bm_engine_outstanding", Some(EngineFunction)),
            Metric::EngineTimeouts => ("bm_engine_timeouts_total", None),
            Metric::EngineRetries => ("bm_engine_retries_total", None),
            Metric::EngineRecoveries => ("bm_engine_recoveries_total", None),
            Metric::EngineRecoveryReplayed => ("bm_engine_recovery_replayed_total", None),
            Metric::EngineRecoveryAborted => ("bm_engine_recovery_aborted_total", None),
            Metric::EngineRecoveryTime => ("bm_engine_recovery_time_ns_total", None),
            Metric::HostSqInflight => ("bm_host_sq_inflight", Some(HostFunction)),
            Metric::HostSqWaiting => ("bm_host_sq_waiting", Some(HostFunction)),
            Metric::SsdBusy => ("bm_ssd_service_busy_ns_total", Some(Ssd)),
            Metric::SsdOps => ("bm_ssd_service_ops_total", Some(Ssd)),
            Metric::DoorbellBacklog => ("bm_engine_doorbell_backlog", Some(Ssd)),
            Metric::BackendInflight => ("bm_backend_sq_inflight", Some(Ssd)),
            Metric::BackendLive => ("bm_backend_live", Some(Ssd)),
            Metric::BackendZombies => ("bm_backend_zombie_slots", Some(Ssd)),
            Metric::DmaInflightBytes => ("bm_dma_inflight_bytes", Some(Ssd)),
            Metric::BackendForwarded => ("bm_backend_forwarded_total", Some(Ssd)),
            Metric::BackendCompleted => ("bm_backend_completed_total", Some(Ssd)),
            Metric::BackendAbandoned => ("bm_backend_abandoned_total", Some(Ssd)),
            Metric::SchedEventsFired => ("bm_sched_events_fired_total", None),
            Metric::SchedPending => ("bm_sched_pending_events", None),
            Metric::SchedPeakPending => ("bm_sched_peak_pending_events", None),
            Metric::SchedClampedPast => ("bm_sched_clamped_past_total", None),
            Metric::SchedArenaSlots => ("bm_sched_arena_slots", None),
            Metric::MctpPartials => ("bm_mctp_partial_assemblies", None),
            Metric::MctpDropped => ("bm_mctp_packets_dropped_total", None),
            Metric::MctpRetransmits => ("bm_mctp_retransmits_total", None),
        }
    }

    /// The metric for function, device, SSD or stage number `label`.
    /// Every label index reaches an unlabeled metric's one slot.
    #[inline]
    pub fn of(self, label: usize) -> MetricId {
        let label = if self.spec().1.is_some() { label } else { 0 };
        MetricId {
            metric: self,
            label,
        }
    }
}

const _: () = {
    let mut i = 0;
    while i < Metric::ALL.len() {
        assert!(Metric::ALL[i] as usize == i);
        i += 1;
    }
};

/// A metric and a label index: the registry's key. Build one with
/// [`Metric::of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricId {
    metric: Metric,
    label: usize,
}

impl MetricId {
    /// The metric's exported name, e.g. `bm_engine_outstanding`.
    pub fn name(self) -> &'static str {
        self.metric.spec().0
    }

    /// The `(label, value)` pair, e.g. `("function", "f2")`, or `None`
    /// for an unlabeled metric.
    pub fn label(self) -> Option<(&'static str, String)> {
        let i = self.label;
        Some(match self.metric.spec().1? {
            LabelShape::EngineFunction => ("function", format!("f{i}")),
            LabelShape::HostFunction => ("function", i.to_string()),
            LabelShape::Ssd => ("ssd", i.to_string()),
            LabelShape::Stage => {
                let stage = Stage::ALL.get(i).map(|s| s.label().to_string());
                ("stage", stage.unwrap_or_else(|| i.to_string()))
            }
        })
    }

    /// The exposition key with `suffix` appended to the name, e.g.
    /// `bm_engine_outstanding_peak{function="f2"}` (a peak twin's suffix
    /// must precede the label set in Prometheus syntax).
    fn render(self, suffix: &str) -> String {
        let name = self.name();
        match self.label() {
            None => format!("{name}{suffix}"),
            Some((label, value)) => format!("{name}{suffix}{{{label}=\"{value}\"}}"),
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
#[derive(Debug, Clone, Default)]
pub struct BoundedSeries {
    points: Vec<(SimTime, f64)>,
    dropped: u64,
}

impl BoundedSeries {
    fn push(&mut self, capacity: usize, at: SimTime, value: f64) {
        if self.points.len() < capacity {
            self.points.push((at, value));
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded points, in sampling order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Samples discarded after the series filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
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
    /// Stage label (see [`Stage::label`]).
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

/// One metric shape's values, dense by `[metric][label]`; a `None`
/// cell is a key never written (see the [module docs](self#keys)).
#[derive(Debug)]
struct Table<T> {
    rows: [Vec<Option<T>>; Metric::ALL.len()],
}

impl<T> Table<T> {
    fn new() -> Self {
        Table {
            rows: std::array::from_fn(|_| Vec::new()),
        }
    }

    fn get(&self, id: MetricId) -> Option<&T> {
        self.rows[id.metric as usize].get(id.label)?.as_ref()
    }

    /// `id`'s cell; the row grows to reach it.
    #[inline]
    fn cell(&mut self, id: MetricId) -> &mut Option<T> {
        let row = &mut self.rows[id.metric as usize];
        if row.len() <= id.label {
            row.resize_with(id.label + 1, || None);
        }
        &mut row[id.label]
    }

    /// Every written `(id, value)`, in table order.
    fn written(&self) -> impl Iterator<Item = (MetricId, &T)> {
        Metric::ALL
            .into_iter()
            .zip(&self.rows)
            .flat_map(|(metric, row)| {
                let cells = row.iter().enumerate();
                cells.filter_map(move |(label, cell)| Some((metric.of(label), cell.as_ref()?)))
            })
    }

    /// Every written `(id, value)`, in key order: by name, then by
    /// label value compared as a string.
    fn sorted(&self) -> impl Iterator<Item = (MetricId, &T)> {
        let mut written: Vec<_> = self.written().collect();
        written.sort_by_cached_key(|(id, _)| (id.name(), id.label()));
        written.into_iter()
    }
}

/// The metrics store: counters, gauges, bounded series, annotations.
///
/// Components reach it through the [`Observer`](crate::observe::Observer).
#[derive(Debug)]
pub struct MetricsRegistry {
    series_capacity: usize,
    last_sample: Option<SimTime>,
    sample_ticks: u64,
    counters: Table<u64>,
    gauges: Table<GaugeState>,
    series: Table<BoundedSeries>,
    annotations: Vec<Annotation>,
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
            last_sample: None,
            sample_ticks: 0,
            counters: Table::new(),
            gauges: Table::new(),
            series: Table::new(),
            annotations: Vec::new(),
        }
    }

    /// Adds `delta` to a counter, creating it at zero.
    #[inline]
    pub fn counter_add(&mut self, id: MetricId, delta: u64) {
        *self.counters.cell(id).get_or_insert(0) += delta;
    }

    /// Reads a counter (zero if never written).
    pub fn counter(&self, id: MetricId) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Sets a gauge, folding the elapsed interval into its integral.
    #[inline]
    pub fn gauge_set(&mut self, now: SimTime, id: MetricId, value: f64) {
        let cell = self.gauges.cell(id);
        match cell {
            Some(gauge) => gauge.set(now, value),
            None => *cell = Some(GaugeState::new(now, value)),
        }
    }

    /// Reads a gauge.
    pub fn gauge(&self, id: MetricId) -> Option<&GaugeState> {
        self.gauges.get(id)
    }

    /// Appends one point to a bounded series, creating it on first use.
    pub fn sample(&mut self, at: SimTime, id: MetricId, value: f64) {
        let series = self
            .series
            .cell(id)
            .get_or_insert_with(BoundedSeries::default);
        series.push(self.series_capacity, at, value);
    }

    /// Snapshots every gauge's current value into the series with the
    /// same id at `now` — the periodic sampler's bulk step, equivalent
    /// to calling [`MetricsRegistry::sample`] per gauge.
    pub fn snapshot_gauges(&mut self, now: SimTime) {
        for (id, gauge) in self.gauges.written() {
            let series = self
                .series
                .cell(id)
                .get_or_insert_with(BoundedSeries::default);
            series.push(self.series_capacity, now, gauge.value());
        }
    }

    /// Reads a series.
    pub fn series(&self, id: MetricId) -> Option<&BoundedSeries> {
        self.series.get(id)
    }

    /// Accounts one stage traversal: `busy` occupancy-time (waiting
    /// included) on the stage's [`Metric::StageBusy`] counter and
    /// `arrivals` commands entering the stage on its
    /// [`Metric::StageArrivals`] counter, which only a nonzero count
    /// writes.
    #[inline]
    pub fn stage_busy(&mut self, stage: Stage, busy: SimDuration, arrivals: u64) {
        self.counter_add(Metric::StageBusy.of(stage as usize), busy.as_nanos());
        if arrivals > 0 {
            self.counter_add(Metric::StageArrivals.of(stage as usize), arrivals);
        }
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
    pub fn counters(&self) -> impl Iterator<Item = (MetricId, u64)> + '_ {
        self.counters.sorted().map(|(id, v)| (id, *v))
    }

    /// All gauges, in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (MetricId, &GaugeState)> {
        self.gauges.sorted()
    }

    /// All series, in key order.
    pub fn series_iter(&self) -> impl Iterator<Item = (MetricId, &BoundedSeries)> {
        self.series.sorted()
    }

    /// Total samples dropped across all series after filling.
    pub fn series_dropped(&self) -> u64 {
        self.series.written().map(|(_, s)| s.dropped).sum()
    }

    /// Builds the utilization / Little's-law summary of `[0, now]`,
    /// listing up to `top_k` tenants by mean pipeline occupancy.
    pub fn bottleneck_report(&self, now: SimTime, top_k: usize) -> BottleneckReport {
        let window = now.saturating_since(SimTime::ZERO);
        let window_ns = window.as_nanos_f64();
        let mut stage_rows = Vec::new();
        for (id, &busy_ns) in self.counters.written() {
            let (Metric::StageBusy, Some((_, stage))) = (id.metric, id.label()) else {
                continue;
            };
            let arrivals = self.counter(Metric::StageArrivals.of(id.label));
            let busy = SimDuration::from_nanos(busy_ns);
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
                stage,
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
            .gauges
            .written()
            .filter(|(id, _)| id.metric == Metric::EngineOutstanding)
            .filter_map(|(id, g)| Some((id.label()?.1, g.mean_over(SimTime::ZERO, now))))
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
/// are emitted in key order (see the [module docs](self#keys)).
pub fn prometheus(reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    let mut last_name = "";
    for (id, value) in reg.counters() {
        if id.name() != last_name {
            let _ = writeln!(out, "# TYPE {} counter", id.name());
            last_name = id.name();
        }
        let _ = writeln!(out, "{} {}", id.render(""), value);
    }
    last_name = "";
    for (id, gauge) in reg.gauges() {
        if id.name() != last_name {
            let _ = writeln!(out, "# TYPE {} gauge", id.name());
            last_name = id.name();
        }
        let _ = writeln!(out, "{} {}", id.render(""), fmt_f64(gauge.value()));
    }
    last_name = "";
    for (id, gauge) in reg.gauges() {
        if id.name() != last_name {
            let _ = writeln!(out, "# TYPE {}_peak gauge", id.name());
            last_name = id.name();
        }
        let _ = writeln!(out, "{} {}", id.render("_peak"), fmt_f64(gauge.peak()));
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
/// per sample, keys in key order.
pub fn csv(reg: &MetricsRegistry) -> String {
    let mut out = String::from("series,t_ns,value\n");
    for (id, series) in reg.series_iter() {
        let rendered = id.render("");
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
        let id = Metric::EngineStarted.of(0);
        assert_eq!(reg.counter(id), 0);
        reg.counter_add(id, 2);
        reg.counter_add(id, 3);
        assert_eq!(reg.counter(id), 5);
    }

    #[test]
    fn gauge_integral_gives_time_weighted_mean() {
        let mut reg = MetricsRegistry::new();
        let id = Metric::SchedPending.of(0);
        // 0..10µs at 4, 10..20µs at 8 → mean 6 over 20µs.
        reg.gauge_set(us(0), id, 4.0);
        reg.gauge_set(us(10), id, 8.0);
        let g = reg.gauge(id).unwrap();
        assert_eq!(g.value(), 8.0);
        assert_eq!(g.peak(), 8.0);
        let mean = g.mean_over(SimTime::ZERO, us(20));
        assert!((mean - 6.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn gauge_created_mid_window_counts_zero_before() {
        let mut reg = MetricsRegistry::new();
        let id = Metric::SchedPending.of(0);
        reg.gauge_set(us(10), id, 10.0);
        // 0..10µs implicit zero, 10..20µs at 10 → mean 5.
        let mean = reg.gauge(id).unwrap().mean_over(SimTime::ZERO, us(20));
        assert!((mean - 5.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn bounded_series_counts_overflow() {
        let mut reg = MetricsRegistry::with_capacity(2);
        let id = Metric::SsdOps.of(0);
        for i in 0..5u64 {
            reg.sample(us(i), id, i as f64);
        }
        let s = reg.series(id).unwrap();
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
        assert_eq!(report.saturated.as_deref(), Some(Stage::Ssd.label()));
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
        for (f, depth) in [(0, 2.0), (1, 9.0), (2, 4.0)] {
            reg.gauge_set(us(0), Metric::EngineOutstanding.of(f), depth);
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
        reg.counter_add(Metric::SsdOps.of(2), 7);
        reg.counter_add(Metric::SsdOps.of(10), 3);
        reg.counter_add(Metric::SsdOps.of(0), 0);
        // Any label index reaches an unlabeled metric's one slot.
        reg.gauge_set(us(5), Metric::MctpPartials.of(0), 4.0);
        reg.gauge_set(us(6), Metric::MctpPartials.of(3), 2.0);
        reg.annotate(us(1), Some(us(2)), "fault: spike ssd0");
        let text = prometheus(&reg);
        let again = prometheus(&reg);
        assert_eq!(text, again);
        // Label values compare as strings; a counter written with 0 is listed.
        let ops = "# TYPE bm_ssd_service_ops_total counter\n\
                   bm_ssd_service_ops_total{ssd=\"0\"} 0\n\
                   bm_ssd_service_ops_total{ssd=\"10\"} 3\n\
                   bm_ssd_service_ops_total{ssd=\"2\"} 7\n";
        assert!(text.starts_with(ops), "{text}");
        let partials = "\n# TYPE bm_mctp_partial_assemblies gauge\n\
                        bm_mctp_partial_assemblies 2\n\
                        # TYPE bm_mctp_partial_assemblies_peak gauge\n\
                        bm_mctp_partial_assemblies_peak 4\n";
        assert!(text.contains(partials), "{text}");
        assert!(text.contains("# ANNOTATION 1000 2000 fault: spike ssd0"));
    }

    #[test]
    fn csv_lists_every_sample() {
        let mut reg = MetricsRegistry::new();
        let id = Metric::BackendInflight.of(0);
        reg.sample(us(1), id, 3.0);
        reg.sample(us(2), id, 5.0);
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
