//! The single owned observation sink.
//!
//! BM-Store's controller watches the engine's I/O counters out of band
//! and never sits on the data path (§IV-D). The simulator's watchers
//! follow the same rule: one [`Observer`] owns the telemetry recorder,
//! the metrics registry, the SLO engine and the wall-clock
//! [`Profiler`], each optional, and model code reaches it through
//! `&mut self` like any other field. Nothing is shared, so an
//! `Observer` is `Send` and two simulations never couple through it.
//!
//! Its methods are the one event stream every component sees: dispatch
//! entered or left (stage passed, effect applied), command begun, stage
//! span or instant, stage busy time, fault, completion, sampler tick.
//! Each costs one branch per component that is off, and nothing flows
//! back into the simulation, so runs are identical with observers on
//! or off.
//!
//! ```
//! use bm_sim::metrics::{Metric, MetricsRegistry, Stage};
//! use bm_sim::observe::Observer;
//! use bm_sim::SimDuration;
//!
//! let mut obs = Observer::new(None, Some(MetricsRegistry::new()), None, None);
//! obs.stage_busy(Stage::Ssd, SimDuration::from_us(80), 1);
//! obs.count(Metric::EngineRetries.of(0), 1);
//! let m = obs.metrics().unwrap();
//! assert_eq!(m.counter(Metric::StageArrivals.of(Stage::Ssd as usize)), 1);
//! assert_eq!(m.counter(Metric::EngineRetries.of(0)), 1);
//! assert!(obs.telemetry().is_none());
//! ```

use crate::metrics::{MetricId, MetricsRegistry, Stage};
use crate::slo::{AlertKind, AlertState, SloEngine};
use crate::telemetry::{CmdId, TelemetryEventKind, TelemetryRecorder, TelemetryStage};
use crate::time::{SimDuration, SimTime};
use bm_prof::Profiler;

/// Owns the observation components; see the [module docs](self).
#[derive(Debug, Default)]
pub struct Observer {
    telemetry: Option<Box<TelemetryRecorder>>,
    metrics: Option<Box<MetricsRegistry>>,
    slo: Option<Box<SloEngine>>,
    prof: Option<Box<Profiler>>,
}

impl Observer {
    /// An observer with the given components; `None` leaves one off.
    pub fn new(
        telemetry: Option<TelemetryRecorder>,
        metrics: Option<MetricsRegistry>,
        slo: Option<SloEngine>,
        prof: Option<Profiler>,
    ) -> Self {
        Observer {
            telemetry: telemetry.map(Box::new),
            metrics: metrics.map(Box::new),
            slo: slo.map(Box::new),
            prof: prof.map(Box::new),
        }
    }

    /// The telemetry recorder, if on.
    pub fn telemetry(&self) -> Option<&TelemetryRecorder> {
        self.telemetry.as_deref()
    }

    /// The metrics registry, if on.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.metrics.as_deref()
    }

    /// The metrics registry, for sites that write several metrics.
    pub fn metrics_mut(&mut self) -> Option<&mut MetricsRegistry> {
        self.metrics.as_deref_mut()
    }

    /// The SLO engine, if a policy is installed.
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_deref()
    }

    /// The wall-clock self-profiler, if on.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.prof.as_deref()
    }

    /// The profiler, for the event loop's run boundaries.
    pub fn profiler_mut(&mut self) -> Option<&mut Profiler> {
        self.prof.as_deref_mut()
    }

    /// A dispatch (stage, effect, callback) begins: a profiler scope.
    #[inline]
    pub fn enter(&mut self, seg: &'static str) {
        if let Some(p) = &mut self.prof {
            p.enter(seg);
        }
    }

    /// The innermost dispatch ends.
    #[inline]
    pub fn exit(&mut self) {
        if let Some(p) = &mut self.prof {
            p.exit();
        }
    }

    /// A command was submitted: opens its root span ([`CmdId::NONE`]
    /// with telemetry off).
    #[inline]
    pub fn begin_command(&mut self, now: SimTime, tenant: u16, cid: u16, opcode: u8) -> CmdId {
        let t = self.telemetry.as_mut();
        t.map_or(CmdId::NONE, |t| t.begin_command(now, tenant, cid, opcode))
    }

    /// The open command bound to `(tenant, cid)` and its opcode, or
    /// `(CmdId::NONE, 0)`.
    #[inline]
    pub fn lookup(&self, tenant: u16, cid: u16) -> (CmdId, u8) {
        let open = self.telemetry.as_ref().and_then(|t| t.lookup(tenant, cid));
        open.unwrap_or((CmdId::NONE, 0))
    }

    /// A command passed a stage ([`TelemetryRecorder::span`]).
    #[expect(
        clippy::too_many_arguments,
        reason = "forwards TelemetryRecorder::span's fields unchanged"
    )]
    #[inline]
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
        if let Some(t) = &mut self.telemetry {
            t.span(cmd, tenant, function, opcode, stage, start, end, ok);
        }
    }

    /// An instant (retry, mark) against `cmd`.
    #[inline]
    pub fn event(
        &mut self,
        at: SimTime,
        cmd: CmdId,
        tenant: u16,
        op: u8,
        kind: TelemetryEventKind,
    ) {
        if let Some(t) = &mut self.telemetry {
            t.event(at, cmd, tenant, op, kind);
        }
    }

    /// A stage was busy for `busy` with `arrivals` new commands
    /// ([`MetricsRegistry::stage_busy`]).
    #[inline]
    pub fn stage_busy(&mut self, stage: Stage, busy: SimDuration, arrivals: u64) {
        if let Some(m) = &mut self.metrics {
            m.stage_busy(stage, busy, arrivals);
        }
    }

    /// Adds `delta` to counter `id`.
    #[inline]
    pub fn count(&mut self, id: MetricId, delta: u64) {
        if let Some(m) = &mut self.metrics {
            m.counter_add(id, delta);
        }
    }

    /// A fault window `[now, end)` opened: annotates the metrics
    /// timeline with `label` and marks the trace.
    pub fn fault(&mut self, now: SimTime, end: Option<SimTime>, label: &'static str) {
        if let Some(m) = &mut self.metrics {
            m.annotate(now, end, label);
        }
        let mark = TelemetryEventKind::Mark {
            label: "fault-injected",
        };
        self.event(now, CmdId::NONE, 0, 0, mark);
    }

    /// A completion reached its client: closes the root span and feeds
    /// the SLO engine.
    #[inline]
    pub fn completion(
        &mut self,
        now: SimTime,
        tenant: u16,
        cid: u16,
        latency: SimDuration,
        ok: bool,
    ) {
        if let Some(t) = &mut self.telemetry {
            t.end_command(now, tenant, cid, ok);
        }
        if let Some(slo) = &mut self.slo {
            slo.observe_completion(tenant, latency, ok);
        }
    }

    /// A sampler tick with `outstanding` commands in flight: evaluates
    /// the SLOs. Each alert edge lands on the metrics timeline as an
    /// annotation and in the trace as a mark.
    pub fn sampler_tick(&mut self, now: SimTime, outstanding: u64) {
        let Some(slo) = &mut self.slo else {
            return;
        };
        for alert in slo.evaluate(now, outstanding) {
            if let Some(m) = &mut self.metrics {
                m.annotate(now, None, alert.annotation_label());
            }
            let label = match (alert.state, alert.kind) {
                (AlertState::Fire, AlertKind::Stall) => "slo-stall",
                (AlertState::Fire, _) => "slo-alert-fire",
                (AlertState::Clear, _) => "slo-alert-clear",
            };
            let tenant = alert.tenant.unwrap_or(0);
            self.event(
                now,
                CmdId::NONE,
                tenant,
                0,
                TelemetryEventKind::Mark { label },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;

    fn assert_send<T: Send>() {}

    #[test]
    fn observer_is_send() {
        assert_send::<Observer>();
    }

    #[test]
    fn default_observer_is_inert() {
        let mut obs = Observer::default();
        let t = SimTime::ZERO;
        obs.enter("stage");
        assert_eq!(obs.begin_command(t, 0, 1, 2), CmdId::NONE);
        assert_eq!(obs.lookup(0, 1), (CmdId::NONE, 0));
        obs.span(CmdId(1), 0, 0, 0, TelemetryStage::Dma, t, t, true);
        obs.stage_busy(Stage::Ssd, SimDuration::from_us(1), 1);
        obs.count(Metric::MctpDropped.of(0), 1);
        obs.fault(t, None, "fault:x");
        obs.completion(t, 0, 1, SimDuration::ZERO, true);
        obs.sampler_tick(t, 0);
        obs.exit();
        assert!(obs.telemetry().is_none() && obs.metrics().is_none());
        assert!(obs.slo().is_none() && obs.profiler().is_none());
    }
}
