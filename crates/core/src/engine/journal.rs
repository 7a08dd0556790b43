//! The crash journal — the engine's persistent-model region (§IV-D
//! extended: "store I/O context", applied to a full firmware crash).
//!
//! On a crash the engine moves its volatile pipeline state — the
//! command table (span-level in-flight attempts), per-SSD backlogs,
//! QoS-deferred commands, the fan-out countdown table, and the pause
//! flags — into a [`Journal`], modelling the small battery-backed region
//! the card firmware journals to. On restart every journaled command is
//! replayed or aborted per [`super::FailPolicy`]. The journal holds the
//! engine's own typed records: the one engine writes it and reads it
//! back, so there is nothing to encode or decode, and nothing that can
//! fail to.

use super::host_adaptor::Outstanding;
use super::{HostIo, HostKey, Span};
use bm_nvme::Status;
use std::collections::BTreeMap;

/// Everything the crash journal captures.
#[derive(Debug, Default)]
pub(super) struct Journal {
    /// Per-SSD pause flags (quiesce state survives the crash — it is
    /// management-plane state, re-asserted on restart).
    pub(super) paused: Vec<bool>,
    /// Fan-out countdowns: remaining spans and the worst status so far.
    pub(super) fanout: BTreeMap<HostKey, (u8, Status)>,
    /// Span-level commands: in-flight attempts (from the command table,
    /// in forwarding order), then the buffered backlog.
    pub(super) spans: Vec<Span>,
    /// QoS-deferred commands, not yet mapped to back-end spans; replay
    /// re-enters at the forwarding step (admission already ran).
    pub(super) deferred: Vec<HostIo>,
    /// In-flight attempts with no replayable copy: the timeout machinery
    /// was off, so no retry entry kept the span. Recovery can only
    /// abort them to the host.
    pub(super) orphans: Vec<Outstanding>,
}

impl Journal {
    /// Number of journaled records (the crash event's `journaled` count).
    pub(super) fn len(&self) -> usize {
        self.spans.len() + self.deferred.len() + self.orphans.len()
    }
}
