//! Client-facing types: requests, completions, and the [`Client`] trait
//! workload generators implement.

use bm_nvme::types::Lba;
use bm_nvme::Status;
use bm_sim::SimTime;
use std::any::Any;
use std::fmt;

/// Index of a tenant-visible block device in the testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dev{}", self.0)
    }
}

/// Index of a registered client (workload generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClientId(pub usize);

/// Handle to a pre-registered DMA buffer (PRPs prebuilt at registration
/// so the per-I/O path allocates nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub usize);

/// The I/O operation kinds tenants issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Read logical blocks.
    Read,
    /// Write logical blocks.
    Write,
    /// Flush the device's volatile write cache.
    Flush,
}

impl IoOp {
    /// Whether data moves host → device.
    pub fn is_write(self) -> bool {
        matches!(self, IoOp::Write)
    }
}

/// One I/O a client wants issued.
#[derive(Debug, Clone, Copy)]
pub struct IoRequest {
    /// Target device.
    pub dev: DeviceId,
    /// Operation.
    pub op: IoOp,
    /// Starting logical block (device-relative).
    pub lba: Lba,
    /// Block count (1-based; ignored for flush).
    pub blocks: u32,
    /// Data buffer (must cover `blocks`; ignored for flush).
    pub buf: BufferId,
    /// Client-private correlation value.
    pub tag: u64,
}

/// A finished I/O delivered back to its client.
#[derive(Debug, Clone, Copy)]
pub struct Completion {
    /// The request's correlation value.
    pub tag: u64,
    /// The device it ran on.
    pub dev: DeviceId,
    /// When the client submitted it.
    pub submitted: SimTime,
    /// When the client observed completion.
    pub completed: SimTime,
    /// Completion status.
    pub status: Status,
    /// Bytes transferred.
    pub bytes: u64,
    /// Whether it was a write.
    pub is_write: bool,
}

impl Completion {
    /// End-to-end latency as the tenant measures it.
    pub fn latency(&self) -> bm_sim::SimDuration {
        self.completed.saturating_since(self.submitted)
    }
}

/// What a client wants after being called.
#[derive(Debug, Default)]
pub struct ClientOutput {
    /// I/Os to submit now.
    pub requests: Vec<IoRequest>,
    /// If set, call [`Client::on_timer`] at this time.
    pub next_timer: Option<SimTime>,
}

impl ClientOutput {
    /// No requests, no timer.
    pub fn idle() -> Self {
        Self::default()
    }

    /// Submit these requests.
    pub fn submit(requests: Vec<IoRequest>) -> Self {
        ClientOutput {
            requests,
            next_timer: None,
        }
    }
}

/// A workload generator driving one or more devices.
///
/// Clients are called on the simulation thread with the current virtual
/// time; they own their statistics and randomness, and the harness
/// reads them back after a run with [`World::client_as`].
///
/// [`World::client_as`]: crate::World::client_as
pub trait Client: Any {
    /// Called once at simulation start.
    fn start(&mut self, now: SimTime) -> ClientOutput;

    /// Called when one of this client's I/Os completes.
    fn on_completion(&mut self, now: SimTime, completion: Completion) -> ClientOutput;

    /// Called at a previously requested timer.
    fn on_timer(&mut self, _now: SimTime) -> ClientOutput {
        ClientOutput::idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_sim::SimDuration;

    #[test]
    fn completion_latency() {
        let c = Completion {
            tag: 0,
            dev: DeviceId(0),
            submitted: SimTime::from_nanos(100),
            completed: SimTime::from_nanos(1100),
            status: Status::Success,
            bytes: 4096,
            is_write: false,
        };
        assert_eq!(c.latency(), SimDuration::from_nanos(1000));
    }

    #[test]
    fn op_direction() {
        assert!(IoOp::Write.is_write());
        assert!(!IoOp::Read.is_write());
        assert!(!IoOp::Flush.is_write());
    }
}
