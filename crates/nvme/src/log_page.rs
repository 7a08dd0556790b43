//! Vendor telemetry log pages served over NVMe-MI.
//!
//! The BMS-Controller reads the engine's per-function monitoring
//! registers over AXI and serves them out-of-band as a vendor log page
//! (paper §IV-D: the I/O Monitor "supervises the performance and status
//! of BM-Store" without touching the data path). The page carries the
//! cumulative I/O counters plus the outstanding-command gauge and the
//! coarse latency bucket registers, in a fixed little-endian layout so
//! a console can decode it without any schema negotiation.

use crate::mi::MiFrameError;

/// Log page identifier of the BM-Store telemetry page (vendor range).
pub const TELEMETRY_LOG_PAGE_ID: u8 = 0xD0;

/// Layout version this crate encodes.
pub const TELEMETRY_LOG_VERSION: u8 = 1;

/// Number of latency bucket registers carried in the page.
pub const TELEMETRY_LATENCY_BUCKETS: usize = 8;

/// Encoded size: 4-byte header, 7 × u64 counters, 2 × u32 gauges,
/// 8 × u64 latency buckets.
pub const TELEMETRY_LOG_PAGE_LEN: usize = 4 + 7 * 8 + 2 * 4 + TELEMETRY_LATENCY_BUCKETS * 8;

/// One function's telemetry log page.
///
/// Wire layout (all integers little-endian):
///
/// | offset | size | field               |
/// |--------|------|---------------------|
/// | 0      | 1    | page id (`0xD0`)    |
/// | 1      | 1    | layout version      |
/// | 2      | 1    | function index      |
/// | 3      | 1    | reserved (zero)     |
/// | 4      | 8    | reads               |
/// | 12     | 8    | writes              |
/// | 20     | 8    | read bytes          |
/// | 28     | 8    | write bytes         |
/// | 36     | 8    | errors              |
/// | 44     | 8    | QoS deferrals       |
/// | 52     | 8    | total latency (ns)  |
/// | 60     | 4    | outstanding         |
/// | 64     | 4    | peak outstanding    |
/// | 68     | 64   | 8 latency buckets   |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryLogPage {
    /// Front-end function the page describes.
    pub function: u8,
    /// Read commands completed.
    pub reads: u64,
    /// Write commands completed.
    pub writes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Commands completed with error status (including aborts).
    pub errors: u64,
    /// Commands deferred by QoS.
    pub qos_deferred: u64,
    /// Sum of engine-observed latencies, nanoseconds.
    pub total_latency_ns: u64,
    /// Commands currently inside the engine pipeline.
    pub outstanding: u32,
    /// High-water mark of `outstanding`.
    pub peak_outstanding: u32,
    /// Completion counts by engine-observed latency bucket.
    pub latency_buckets: [u64; TELEMETRY_LATENCY_BUCKETS],
}

impl TelemetryLogPage {
    /// Commands latched into the latency buckets (reads + writes +
    /// errors, since every finished command is bucketed).
    pub fn completions(&self) -> u64 {
        self.latency_buckets.iter().sum()
    }

    /// Mean engine-observed latency in nanoseconds (zero if idle).
    pub fn mean_latency_ns(&self) -> u64 {
        self.total_latency_ns
            .checked_div(self.completions())
            .unwrap_or(0)
    }

    /// Serializes to the fixed wire layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(TELEMETRY_LOG_PAGE_LEN);
        b.push(TELEMETRY_LOG_PAGE_ID);
        b.push(TELEMETRY_LOG_VERSION);
        b.push(self.function);
        b.push(0);
        for v in [
            self.reads,
            self.writes,
            self.read_bytes,
            self.write_bytes,
            self.errors,
            self.qos_deferred,
            self.total_latency_ns,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.extend_from_slice(&self.outstanding.to_le_bytes());
        b.extend_from_slice(&self.peak_outstanding.to_le_bytes());
        for v in self.latency_buckets {
            b.extend_from_slice(&v.to_le_bytes());
        }
        debug_assert_eq!(b.len(), TELEMETRY_LOG_PAGE_LEN);
        b
    }

    /// Parses the wire layout.
    ///
    /// # Errors
    ///
    /// Returns [`MiFrameError::Empty`] on a short buffer and
    /// [`MiFrameError::UnknownOpcode`] when the page id or version byte
    /// doesn't match what this crate encodes.
    pub fn from_bytes(bytes: &[u8]) -> Result<TelemetryLogPage, MiFrameError> {
        if bytes.len() < TELEMETRY_LOG_PAGE_LEN {
            return Err(MiFrameError::Empty);
        }
        if bytes[0] != TELEMETRY_LOG_PAGE_ID {
            return Err(MiFrameError::UnknownOpcode(bytes[0]));
        }
        if bytes[1] != TELEMETRY_LOG_VERSION {
            return Err(MiFrameError::UnknownOpcode(bytes[1]));
        }
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the length check keeps every fixed field offset in bounds"
        )]
        let u64_at =
            |off: usize| u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): the length check keeps every fixed field offset in bounds"
        )]
        let u32_at =
            |off: usize| u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let mut latency_buckets = [0u64; TELEMETRY_LATENCY_BUCKETS];
        for (i, b) in latency_buckets.iter_mut().enumerate() {
            *b = u64_at(68 + i * 8);
        }
        Ok(TelemetryLogPage {
            function: bytes[2],
            reads: u64_at(4),
            writes: u64_at(12),
            read_bytes: u64_at(20),
            write_bytes: u64_at(28),
            errors: u64_at(36),
            qos_deferred: u64_at(44),
            total_latency_ns: u64_at(52),
            outstanding: u32_at(60),
            peak_outstanding: u32_at(64),
            latency_buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetryLogPage {
        TelemetryLogPage {
            function: 3,
            reads: 1000,
            writes: 500,
            read_bytes: 4_096_000,
            write_bytes: 2_048_000,
            errors: 7,
            qos_deferred: 42,
            total_latency_ns: 150_700_000,
            outstanding: 16,
            peak_outstanding: 32,
            latency_buckets: [10, 900, 500, 80, 10, 5, 1, 1],
        }
    }

    #[test]
    fn round_trip() {
        let page = sample();
        let bytes = page.to_bytes();
        assert_eq!(bytes.len(), TELEMETRY_LOG_PAGE_LEN);
        assert_eq!(bytes[0], TELEMETRY_LOG_PAGE_ID);
        assert_eq!(TelemetryLogPage::from_bytes(&bytes).unwrap(), page);
    }

    #[test]
    fn derived_aggregates() {
        let page = sample();
        assert_eq!(page.completions(), 1507);
        assert_eq!(page.mean_latency_ns(), 100_000);
        assert_eq!(TelemetryLogPage::default().mean_latency_ns(), 0);
    }

    #[test]
    fn short_and_mismatched_buffers_rejected() {
        let bytes = sample().to_bytes();
        assert_eq!(
            TelemetryLogPage::from_bytes(&bytes[..TELEMETRY_LOG_PAGE_LEN - 1]),
            Err(MiFrameError::Empty)
        );
        let mut wrong_id = bytes.clone();
        wrong_id[0] = 0x00;
        assert_eq!(
            TelemetryLogPage::from_bytes(&wrong_id),
            Err(MiFrameError::UnknownOpcode(0x00))
        );
        let mut wrong_ver = bytes;
        wrong_ver[1] = 9;
        assert_eq!(
            TelemetryLogPage::from_bytes(&wrong_ver),
            Err(MiFrameError::UnknownOpcode(9))
        );
    }
}
