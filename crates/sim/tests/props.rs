//! Property tests on the simulation primitives: histogram accuracy,
//! resource conservation, event-loop ordering, and the observers'
//! slot tables against plain ordered-map models.

use bm_sim::metrics::{self, names, stages, Metric, MetricId, MetricKey, MetricsRegistry, Stage};
use bm_sim::resource::{BandwidthLink, FifoServer, MultiServer, TokenBucket};
use bm_sim::stats::LatencyHistogram;
use bm_sim::telemetry::{
    self, AggKey, CmdId, TelemetryEvent, TelemetryEventKind, TelemetryRecorder, TelemetryStage,
};
use bm_sim::{SimDuration, SimTime, Simulation};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

proptest! {
    /// Reported percentiles are within the histogram's ~3% relative
    /// error of the exact order statistics.
    #[test]
    fn histogram_percentiles_accurate(
        mut values in proptest::collection::vec(1u64..100_000_000, 10..500),
        q in 0.01f64..1.0,
    ) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1] as f64;
        let got = h.percentile(q).as_nanos() as f64;
        prop_assert!(
            got >= exact * 0.99 && got <= exact * 1.07,
            "q={q}: got {got}, exact {exact}"
        );
    }

    #[test]
    fn histogram_mean_exact(values in proptest::collection::vec(1u64..10_000_000, 1..200)) {
        let mut h = LatencyHistogram::new();
        for &v in &values {
            h.record(SimDuration::from_nanos(v));
        }
        let exact = values.iter().sum::<u64>() / values.len() as u64;
        prop_assert_eq!(h.mean().as_nanos(), exact);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min().as_nanos(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max().as_nanos(), *values.iter().max().unwrap());
    }

    /// A FIFO server is work-conserving: total completion span equals
    /// total service when fed from time zero.
    #[test]
    fn fifo_server_work_conserving(services in proptest::collection::vec(1u64..100_000, 1..100)) {
        let mut s = FifoServer::new();
        let mut last = SimTime::ZERO;
        for &svc in &services {
            last = s.occupy(SimTime::ZERO, SimDuration::from_nanos(svc));
        }
        prop_assert_eq!(last.as_nanos(), services.iter().sum::<u64>());
    }

    /// A multi-server never finishes later than a single server would,
    /// and never earlier than perfect parallel speedup allows.
    #[test]
    fn multi_server_bounded_by_ideal(
        m in 1usize..16,
        services in proptest::collection::vec(1u64..100_000, 1..100),
    ) {
        let mut multi = MultiServer::new(m);
        let mut last = SimTime::ZERO;
        for &svc in &services {
            let done = multi.occupy(SimTime::ZERO, SimDuration::from_nanos(svc));
            last = last.max(done);
        }
        let total: u64 = services.iter().sum();
        let max_single = *services.iter().max().unwrap();
        prop_assert!(last.as_nanos() <= total);
        let ideal = (total / m as u64).max(max_single);
        prop_assert!(last.as_nanos() >= ideal);
    }

    /// Transfers through a link take exactly bytes/rate in aggregate.
    #[test]
    fn bandwidth_link_conserves_rate(
        rate_mbps in 1u64..10_000,
        sizes in proptest::collection::vec(1u64..1_000_000, 1..50),
    ) {
        let rate = rate_mbps as f64 * 1e6;
        let mut link = BandwidthLink::new(rate);
        let mut last = SimTime::ZERO;
        for &n in &sizes {
            last = link.transfer(SimTime::ZERO, n);
        }
        let total: u64 = sizes.iter().sum();
        let expect = total as f64 / rate;
        let got = last.as_secs_f64();
        prop_assert!((got - expect).abs() < 1e-6 * sizes.len() as f64 + 1e-9,
            "got {got}, expect {expect}");
    }

    /// Token buckets never report availability above capacity and
    /// refill linearly.
    #[test]
    fn token_bucket_never_exceeds_capacity(
        rate in 1.0f64..1e6,
        cap_frac in 0.01f64..10.0,
        steps in proptest::collection::vec((0u64..1_000_000, 0.0f64..100.0), 1..100),
    ) {
        let cap = (rate * cap_frac).max(1.0);
        let mut tb = TokenBucket::new(rate, cap);
        let mut t = 0u64;
        for (gap, amount) in steps {
            t += gap;
            let now = SimTime::from_nanos(t);
            let avail = tb.available(now);
            prop_assert!(avail <= cap + 1e-9, "available {avail} > capacity {cap}");
            let _ = tb.try_consume(now, amount);
        }
    }

    /// Events fire in nondecreasing time order regardless of insertion
    /// order, and ties preserve insertion order.
    #[test]
    fn event_loop_is_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Simulation::new(Vec::<(u64, usize)>::new());
        for (i, &t) in times.iter().enumerate() {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<(u64, usize)>, s| {
                w.push((s.now().as_nanos(), i));
            });
        }
        sim.run_until_idle();
        let fired = sim.into_world();
        prop_assert_eq!(fired.len(), times.len());
        for pair in fired.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time order violated");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "tie order violated");
            }
        }
    }
}

/// Every [`Metric`], for drawing random ids.
const METRICS: [Metric; 20] = [
    Metric::EngineStarted,
    Metric::EngineFinished,
    Metric::EngineOutstanding,
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
    Metric::SchedClampedPast,
    Metric::SchedArenaSlots,
    Metric::MctpPartials,
];

/// One registry write, decoded from random numbers.
#[derive(Debug, Clone, Copy)]
enum RegOp {
    Counter(MetricId, u64),
    Gauge(SimTime, MetricId, f64),
    Sample(SimTime, MetricId, f64),
    Stage(Stage, SimDuration, u64),
    Snapshot(SimTime),
}

impl RegOp {
    fn decode((kind, metric, label, t, n): (u8, usize, usize, u64, u64)) -> RegOp {
        let id = METRICS[metric % METRICS.len()].of(label);
        let at = SimTime::from_nanos(t);
        match kind % 5 {
            0 => RegOp::Counter(id, n),
            1 => RegOp::Gauge(at, id, n as f64),
            2 => RegOp::Sample(at, id, n as f64),
            3 => RegOp::Stage(
                stages::ALL[metric % stages::ALL.len()],
                SimDuration::from_nanos(n),
                label as u64,
            ),
            _ => RegOp::Snapshot(at),
        }
    }

    /// Applies the write in slot form (`slot`) or key form.
    fn apply(self, reg: &mut MetricsRegistry, slot: bool) {
        match self {
            RegOp::Counter(id, n) if slot => reg.counter_add_id(id, n),
            RegOp::Counter(id, n) => reg.counter_add(&id.key(), n),
            RegOp::Gauge(at, id, v) if slot => reg.gauge_set_id(at, id, v),
            RegOp::Gauge(at, id, v) => reg.gauge_set(at, &id.key(), v),
            RegOp::Sample(at, id, v) if slot => reg.sample_id(at, id, v),
            RegOp::Sample(at, id, v) => reg.sample(at, &id.key(), v),
            RegOp::Stage(stage, busy, arrivals) if slot => reg.stage_busy(stage, busy, arrivals),
            RegOp::Stage(stage, busy, arrivals) => {
                let key = |name| MetricKey::labeled(name, "stage", stage.label());
                reg.counter_add(&key(names::STAGE_BUSY_NS), busy.as_nanos());
                if arrivals > 0 {
                    reg.counter_add(&key(names::STAGE_ARRIVALS), arrivals);
                }
            }
            RegOp::Snapshot(at) => reg.snapshot_gauges(at),
        }
    }
}

/// Gauge state as the model keeps it: value, peak, integral, last set.
type ModelGauge = (f64, f64, f64, SimTime);

/// The registry as plain ordered maps.
#[derive(Default)]
struct RegistryModel {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, ModelGauge>,
    series: BTreeMap<MetricKey, (Vec<(SimTime, f64)>, u64)>,
}

impl RegistryModel {
    fn sample(&mut self, capacity: usize, key: MetricKey, at: SimTime, v: f64) {
        let (points, dropped) = self.series.entry(key).or_default();
        if points.len() < capacity {
            points.push((at, v));
        } else {
            *dropped += 1;
        }
    }

    fn apply(&mut self, capacity: usize, op: RegOp) {
        match op {
            RegOp::Counter(id, n) => *self.counters.entry(id.key()).or_default() += n,
            RegOp::Gauge(at, id, v) => match self.gauges.get_mut(&id.key()) {
                Some((value, peak, integral, last)) => {
                    *integral += *value * at.saturating_since(*last).as_nanos_f64();
                    (*value, *last) = (v, at);
                    *peak = peak.max(v);
                }
                None => {
                    self.gauges.insert(id.key(), (v, v, 0.0, at));
                }
            },
            RegOp::Sample(at, id, v) => self.sample(capacity, id.key(), at, v),
            RegOp::Stage(stage, busy, arrivals) => {
                let key = |name| MetricKey::labeled(name, "stage", stage.label());
                *self.counters.entry(key(names::STAGE_BUSY_NS)).or_default() += busy.as_nanos();
                if arrivals > 0 {
                    *self.counters.entry(key(names::STAGE_ARRIVALS)).or_default() += arrivals;
                }
            }
            RegOp::Snapshot(at) => {
                let values: Vec<_> = self.gauges.iter().map(|(k, g)| (k.clone(), g.0)).collect();
                for (key, v) in values {
                    self.sample(capacity, key, at, v);
                }
            }
        }
    }
}

/// One recorder call, decoded from random numbers.
#[derive(Debug, Clone, Copy)]
enum RecOp {
    Begin(SimTime, u16, u16, u8),
    Lookup(u16, u16),
    Span(u16, u16, u8, TelemetryStage, SimTime, SimTime, bool),
    End(SimTime, u16, u16, bool),
    Mark(SimTime, u16),
}

/// Random numbers a [`RecOp`] decodes from: `(kind, tenant, cid)` and
/// `(opcode, stage, time, second time)`.
type RawRecOp = ((u8, u16, u16), (u8, usize, u64, u64));

impl RecOp {
    fn decode(((kind, tenant, cid), (opcode, stage, t, d)): RawRecOp) -> RecOp {
        let at = SimTime::from_nanos(t);
        let stage = TelemetryStage::ALL[stage % TelemetryStage::ALL.len()];
        match kind % 5 {
            0 => RecOp::Begin(at, tenant, cid, opcode),
            1 => RecOp::Lookup(tenant, cid),
            // A span's end may precede its start; durations saturate.
            2 => RecOp::Span(
                tenant,
                cid,
                opcode,
                stage,
                at,
                SimTime::from_nanos(d),
                d % 2 == 0,
            ),
            3 => RecOp::End(at, tenant, cid, d % 2 == 0),
            _ => RecOp::Mark(at, tenant),
        }
    }
}

/// The recorder as plain ordered maps and a ring of records, each
/// holding one event or a whole span's two.
struct RecorderModel {
    /// The most records the ring holds.
    capacity: usize,
    ring: VecDeque<Vec<TelemetryEvent>>,
    /// Events evicted with their records.
    dropped: u64,
    next_cmd: u64,
    open: BTreeMap<(u16, u16), (CmdId, u8, SimTime)>,
    agg: BTreeMap<AggKey, LatencyHistogram>,
}

impl RecorderModel {
    /// Appends one record of `events`, evicting the oldest record and
    /// counting its events when the ring is full.
    fn push_record(&mut self, events: Vec<TelemetryEvent>) {
        if self.ring.len() == self.capacity {
            let old = self.ring.pop_front().unwrap_or_default();
            self.dropped += old.len() as u64;
        }
        self.ring.push_back(events);
    }

    fn push(&mut self, at: SimTime, cmd: CmdId, tenant: u16, opcode: u8, kind: TelemetryEventKind) {
        self.push_record(vec![TelemetryEvent {
            at,
            cmd,
            tenant,
            opcode,
            kind,
        }]);
    }

    fn aggregate(
        &mut self,
        tenant: u16,
        function: u8,
        opcode: u8,
        stage: TelemetryStage,
        d: SimDuration,
    ) {
        let key = AggKey {
            tenant,
            function,
            opcode,
            stage,
        };
        self.agg.entry(key).or_default().record(d);
    }
}

/// Renders a histogram (or its absence) for comparison.
fn hist_text(h: Option<&LatencyHistogram>) -> Option<String> {
    h.map(|h| format!("{h:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The slot form, the key form and a mix of both on one registry
    /// reach the same slots: all three export what a plain ordered-map
    /// model holds, in key order, and nothing that was never written.
    #[test]
    fn registry_forms_match_ordered_map_model(
        capacity in 1usize..5,
        ops in proptest::collection::vec(
            ((0u8..5, 0usize..40, 0usize..4, 0u64..1_000, 0u64..50), any::<bool>()),
            0..160,
        ),
    ) {
        let mut by_slot = MetricsRegistry::with_capacity(capacity);
        let mut by_key = MetricsRegistry::with_capacity(capacity);
        let mut mixed = MetricsRegistry::with_capacity(capacity);
        let mut model = RegistryModel::default();
        for &(raw, slot) in &ops {
            let op = RegOp::decode(raw);
            op.apply(&mut by_slot, true);
            op.apply(&mut by_key, false);
            op.apply(&mut mixed, slot);
            model.apply(capacity, op);
        }
        let end = SimTime::from_nanos(1_000);
        let export = |reg: &MetricsRegistry| {
            let report = metrics::render_bottleneck(&reg.bottleneck_report(end, 4));
            (metrics::prometheus(reg), metrics::csv(reg), report)
        };
        let want = export(&by_key);
        prop_assert_eq!(&export(&by_slot), &want);
        prop_assert_eq!(&export(&mixed), &want);

        let counters: Vec<_> = by_slot.counters().map(|(k, v)| (k.clone(), v)).collect();
        let model_counters: Vec<_> = model.counters.clone().into_iter().collect();
        prop_assert_eq!(counters, model_counters);
        let gauges: Vec<_> = by_slot
            .gauges()
            .map(|(k, g)| (k.clone(), g.value(), g.peak(), g.mean_over(SimTime::ZERO, end)))
            .collect();
        let model_gauges: Vec<_> = model
            .gauges
            .iter()
            .map(|(k, &(value, peak, integral, last))| {
                let tail = value * end.saturating_since(last).as_nanos_f64();
                (k.clone(), value, peak, (integral + tail) / end.as_nanos() as f64)
            })
            .collect();
        prop_assert_eq!(gauges, model_gauges);
        let series: Vec<_> = by_slot
            .series_iter()
            .map(|(k, s)| (k.clone(), s.points().to_vec(), s.dropped()))
            .collect();
        let model_series: Vec<_> = model
            .series
            .iter()
            .map(|(k, (points, dropped))| (k.clone(), points.clone(), *dropped))
            .collect();
        prop_assert_eq!(series, model_series);
    }

    /// The recorder's CID tables and histogram slots answer every query
    /// as a plain ordered-map model does, across CID reuse, interleaved
    /// tenants, ends without a begin and ring eviction.
    #[test]
    fn recorder_matches_ordered_map_model(
        capacity in 2usize..24,
        ops in proptest::collection::vec(
            ((0u8..5, 0u16..3, 0u16..6), (0u8..3, 0usize..8, 0u64..1_000, 0u64..1_000)),
            0..120,
        ),
    ) {
        let mut rec = TelemetryRecorder::new(capacity);
        let mut model = RecorderModel {
            capacity,
            ring: VecDeque::new(),
            dropped: 0,
            next_cmd: 0,
            open: BTreeMap::new(),
            agg: BTreeMap::new(),
        };
        for &raw in &ops {
            match RecOp::decode(raw) {
                RecOp::Begin(at, tenant, cid, opcode) => {
                    model.next_cmd += 1;
                    let cmd = CmdId(model.next_cmd);
                    model.open.insert((tenant, cid), (cmd, opcode, at));
                    let begin = TelemetryEventKind::SpanBegin { stage: TelemetryStage::Command };
                    model.push(at, cmd, tenant, opcode, begin);
                    prop_assert_eq!(rec.begin_command(at, tenant, cid, opcode), cmd);
                }
                RecOp::Lookup(tenant, cid) => {
                    let want = model.open.get(&(tenant, cid)).map(|&(cmd, op, _)| (cmd, op));
                    prop_assert_eq!(rec.lookup(tenant, cid), want);
                }
                RecOp::Span(tenant, cid, opcode, stage, start, end, ok) => {
                    // Spans hang off the open command when there is one,
                    // and stand alone otherwise.
                    let (cmd, opcode) = rec.lookup(tenant, cid).unwrap_or((CmdId::NONE, opcode));
                    let function = cid as u8 % 2;
                    let event = |at, kind| TelemetryEvent { at, cmd, tenant, opcode, kind };
                    let begin = event(start, TelemetryEventKind::SpanBegin { stage });
                    let close = event(end, TelemetryEventKind::SpanEnd { stage, ok });
                    // A span that ends at or after its start, within a
                    // `u32` of nanoseconds, is one record of two events;
                    // any other is a begin record and an end record.
                    let fits = end >= start
                        && end.saturating_since(start).as_nanos() <= u64::from(u32::MAX);
                    if fits {
                        model.push_record(vec![begin, close]);
                    } else {
                        model.push_record(vec![begin]);
                        model.push_record(vec![close]);
                    }
                    model.aggregate(tenant, function, opcode, stage, end.saturating_since(start));
                    rec.span(cmd, tenant, function, opcode, stage, start, end, ok);
                }
                RecOp::End(at, tenant, cid, ok) => {
                    let want = model.open.remove(&(tenant, cid)).map(|(cmd, opcode, started)| {
                        let stage = TelemetryStage::Command;
                        model.push(at, cmd, tenant, opcode, TelemetryEventKind::SpanEnd { stage, ok });
                        model.aggregate(tenant, tenant as u8, opcode, stage, at.saturating_since(started));
                        cmd
                    });
                    prop_assert_eq!(rec.end_command(at, tenant, cid, ok), want);
                }
                RecOp::Mark(at, tenant) => {
                    let mark = TelemetryEventKind::Mark { label: "mark" };
                    model.push(at, CmdId::NONE, tenant, 0, mark);
                    rec.event(at, CmdId::NONE, tenant, 0, mark);
                }
            }
        }
        for tenant in 0..4 {
            for function in 0..3 {
                for opcode in 0..4 {
                    for stage in TelemetryStage::ALL {
                        let key = AggKey { tenant, function, opcode, stage };
                        prop_assert_eq!(
                            hist_text(rec.histogram(&key)),
                            hist_text(model.agg.get(&key))
                        );
                    }
                }
            }
        }
        for stage in TelemetryStage::ALL {
            let mut fleet = LatencyHistogram::new();
            let mut per_tenant: BTreeMap<u16, LatencyHistogram> = BTreeMap::new();
            for (k, h) in model.agg.iter().filter(|(k, _)| k.stage == stage) {
                fleet.merge(h);
                per_tenant.entry(k.tenant).or_default().merge(h);
            }
            prop_assert_eq!(format!("{:?}", rec.fleet_rollup(stage)), format!("{fleet:?}"));
            let per_tenant: Vec<_> = per_tenant.into_iter().collect();
            prop_assert_eq!(format!("{:?}", rec.tenant_rollup(stage)), format!("{per_tenant:?}"));
        }
        // The exports read only the ring: a recorder fed the model's
        // event stream directly, one record per event and with room for
        // every event, must export the same text.
        prop_assert_eq!(rec.dropped(), model.dropped);
        let events: Vec<TelemetryEvent> = model.ring.iter().flatten().copied().collect();
        prop_assert_eq!(rec.events().collect::<Vec<_>>(), events.clone());
        let mut reference = TelemetryRecorder::new(events.len());
        for e in &events {
            reference.event(e.at, e.cmd, e.tenant, e.opcode, e.kind);
        }
        prop_assert_eq!(rec.spans(), reference.spans());
        prop_assert_eq!(telemetry::chrome_trace(&rec), telemetry::chrome_trace(&reference));
        prop_assert_eq!(telemetry::jsonl(&rec), telemetry::jsonl(&reference));
    }
}
