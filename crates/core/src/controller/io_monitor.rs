//! The I/O monitor (paper §IV-D).
//!
//! "The BMS-Engine monitors I/O status and saves relevant data in
//! specific registers. The I/O monitor module would read the registers
//! to get the I/O status information through the AXI bus." The monitor
//! keeps timestamped snapshots per function so the console can query
//! both cumulative counters and recent rates.

use crate::engine::counters::FunctionCounters;
use crate::engine::BmsEngine;
use bm_nvme::log_page::TelemetryLogPage;
use bm_pcie::FunctionId;
use bm_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// One timestamped counter snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    /// When the AXI read happened.
    pub at: SimTime,
    /// The register values.
    pub counters: FunctionCounters,
}

/// Rates derived from two snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoRates {
    /// Read IOPS over the window.
    pub read_iops: f64,
    /// Write IOPS over the window.
    pub write_iops: f64,
    /// Total bandwidth in bytes/second.
    pub bytes_per_sec: f64,
}

/// The monitor: polls engine registers and serves queries.
#[derive(Debug, Default)]
pub struct IoMonitor {
    last: BTreeMap<u8, Snapshot>,
    polls: u64,
}

impl IoMonitor {
    /// Creates an idle monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Polls `func`'s registers at `now`. Returns the fresh snapshot
    /// and, when a previous snapshot exists, the rates since it.
    pub fn poll(
        &mut self,
        now: SimTime,
        engine: &BmsEngine,
        func: FunctionId,
    ) -> (Snapshot, Option<IoRates>) {
        self.polls += 1;
        let snap = Snapshot {
            at: now,
            counters: engine.counters().function(func),
        };
        let rates = self.last.get(&func.index()).and_then(|prev| {
            let dt = now.saturating_since(prev.at);
            if dt == SimDuration::ZERO {
                return None;
            }
            let secs = dt.as_secs_f64();
            Some(IoRates {
                read_iops: (snap.counters.reads - prev.counters.reads) as f64 / secs,
                write_iops: (snap.counters.writes - prev.counters.writes) as f64 / secs,
                bytes_per_sec: (snap.counters.total_bytes() - prev.counters.total_bytes()) as f64
                    / secs,
            })
        });
        self.last.insert(func.index(), snap);
        (snap, rates)
    }

    /// Serializes counters into the QueryStats response payload
    /// (6 × u64, little-endian).
    pub fn encode_counters(c: &FunctionCounters) -> Vec<u8> {
        let mut out = Vec::with_capacity(48);
        for v in [
            c.reads,
            c.writes,
            c.read_bytes,
            c.write_bytes,
            c.errors,
            c.qos_deferred,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// Reads `func`'s full register file (counters plus the monitoring
    /// registers) and assembles the telemetry log page the controller
    /// serves over NVMe-MI. Counts as an AXI poll.
    pub fn log_page(
        &mut self,
        now: SimTime,
        engine: &BmsEngine,
        func: FunctionId,
    ) -> TelemetryLogPage {
        let (snap, _) = self.poll(now, engine, func);
        let regs = engine.monitor_regs(func);
        let c = snap.counters;
        TelemetryLogPage {
            function: func.index(),
            reads: c.reads,
            writes: c.writes,
            read_bytes: c.read_bytes,
            write_bytes: c.write_bytes,
            errors: c.errors,
            qos_deferred: c.qos_deferred,
            total_latency_ns: regs.total_latency.as_nanos(),
            outstanding: regs.outstanding,
            peak_outstanding: regs.peak_outstanding,
            latency_buckets: regs.latency_buckets,
        }
    }

    /// Parses a QueryStats response payload.
    pub fn decode_counters(p: &[u8]) -> Option<FunctionCounters> {
        if p.len() < 48 {
            return None;
        }
        let at = |i: usize| {
            p.get(i * 8..(i + 1) * 8)
                .and_then(|s| s.try_into().ok())
                .map(u64::from_le_bytes)
        };
        Some(FunctionCounters {
            reads: at(0)?,
            writes: at(1)?,
            read_bytes: at(2)?,
            write_bytes: at(3)?,
            errors: at(4)?,
            qos_deferred: at(5)?,
        })
    }

    /// AXI reads performed so far.
    pub fn polls(&self) -> u64 {
        self.polls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    #[test]
    fn counters_encode_round_trip() {
        let c = FunctionCounters {
            reads: 1,
            writes: 2,
            read_bytes: 3,
            write_bytes: 4,
            errors: 5,
            qos_deferred: 6,
        };
        let enc = IoMonitor::encode_counters(&c);
        assert_eq!(enc.len(), 48);
        assert_eq!(IoMonitor::decode_counters(&enc), Some(c));
        assert_eq!(IoMonitor::decode_counters(&enc[..40]), None);
    }

    #[test]
    fn rates_need_two_snapshots() {
        let engine = BmsEngine::new(EngineConfig::paper_default(1));
        let mut mon = IoMonitor::new();
        let f = FunctionId::new(0).unwrap();
        let (_, rates) = mon.poll(SimTime::ZERO, &engine, f);
        assert!(rates.is_none());
        let (_, rates) = mon.poll(SimTime::from_nanos(1_000_000_000), &engine, f);
        let rates = rates.unwrap();
        assert_eq!(rates.read_iops, 0.0);
        assert_eq!(mon.polls(), 2);
    }

    #[test]
    fn decoders_reject_short_payloads() {
        let enc = IoMonitor::encode_counters(&FunctionCounters::default());
        assert!(IoMonitor::decode_counters(&enc).is_some());
        assert!(IoMonitor::decode_counters(&enc[..40]).is_none());
        assert!(TelemetryLogPage::from_bytes(&[0u8; 3]).is_err());
    }

    #[test]
    fn log_page_reflects_idle_registers() {
        let engine = BmsEngine::new(EngineConfig::paper_default(2));
        let mut mon = IoMonitor::new();
        let f = FunctionId::new(1).unwrap();
        let page = mon.log_page(SimTime::ZERO, &engine, f);
        assert_eq!(page.function, 1);
        assert_eq!(page.completions(), 0);
        assert_eq!(page.outstanding, 0);
        assert_eq!(mon.polls(), 1, "log page reads count as AXI polls");
        // The page survives its wire round trip.
        let back = TelemetryLogPage::from_bytes(&page.to_bytes()).unwrap();
        assert_eq!(back, page);
    }
}
