//! The front-end: SR-IOV functions and their namespace bindings.
//!
//! Each of the engine's (up to) 128 functions is a standard NVMe
//! controller from the host's point of view: the host driver creates an
//! admin queue, identifies the controller, and creates I/O queues with
//! ordinary admin commands — no custom driver, which is the paper's
//! transparency claim. A function becomes usable once the
//! BMS-Controller *binds* a namespace (a set of mapped chunks) to it.

use crate::engine::mapping::ENTRIES_PER_ROW;
use crate::engine::qos::{NamespaceQos, QosLimit};
use bm_nvme::queue::{CompletionQueue, SubmissionQueue};
use bm_nvme::types::{Nsid, QueueId};
use bm_pcie::{FunctionId, PciAddr};
use std::fmt;

/// A namespace bound to a front-end function.
#[derive(Debug)]
pub struct Binding {
    /// Size in bytes as seen by the host.
    pub size_bytes: u64,
    /// Logical block size.
    pub block_size: u64,
    /// First mapping-table row of this binding. Rows are never reused,
    /// so it also tells this binding apart from a later one.
    pub row_base: usize,
    /// Rows occupied. The mapping table's entries in them are the only
    /// record of the namespace's chunks.
    pub rows: usize,
    /// QoS state for this namespace.
    pub qos: NamespaceQos,
}

impl Binding {
    /// The namespace id the function exposes (always 1: one namespace
    /// per front-end function, per §V-B).
    pub fn nsid(&self) -> Nsid {
        Nsid::ONE
    }

    /// Size in logical blocks.
    pub fn blocks(&self) -> u64 {
        self.size_bytes / self.block_size
    }

    /// Rows needed for `chunks` chunks.
    pub fn rows_for_chunks(chunks: usize) -> usize {
        chunks.div_ceil(ENTRIES_PER_ROW)
    }
}

/// Registered host rings for one queue id.
#[derive(Debug)]
pub struct IoQueuePair {
    /// Engine-side descriptor of the host submission ring.
    pub sq: SubmissionQueue,
    /// Engine-side descriptor of the host completion ring.
    pub cq: CompletionQueue,
}

/// One front-end function's engine-side state.
pub struct FrontEndFunction {
    id: FunctionId,
    binding: Option<Binding>,
    admin: Option<IoQueuePair>,
    io_queues: Vec<Option<IoQueuePair>>,
    /// CQ base registered by CreateIoCq, consumed by CreateIoSq.
    pending_cqs: Vec<Option<(PciAddr, u16)>>,
}

impl fmt::Debug for FrontEndFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrontEndFunction")
            .field("id", &self.id)
            .field("bound", &self.binding.is_some())
            .finish()
    }
}

/// Maximum I/O queues per function (matches 4 vCPU guests comfortably).
pub const MAX_IO_QUEUES: usize = 32;

impl FrontEndFunction {
    /// Creates an unbound function. Whether the host enabled it (CC.EN)
    /// is the engine's to track: [`super::BmsEngine::set_function_enabled`].
    pub fn new(id: FunctionId) -> Self {
        FrontEndFunction {
            id,
            binding: None,
            admin: None,
            io_queues: (0..MAX_IO_QUEUES).map(|_| None).collect(),
            pending_cqs: (0..MAX_IO_QUEUES).map(|_| None).collect(),
        }
    }

    /// The function id.
    pub fn id(&self) -> FunctionId {
        self.id
    }

    /// The current binding, if any.
    pub fn binding(&self) -> Option<&Binding> {
        self.binding.as_ref()
    }

    /// Mutable binding access (QoS admission).
    pub fn binding_mut(&mut self) -> Option<&mut Binding> {
        self.binding.as_mut()
    }

    /// Installs a binding (BMS-Controller operation).
    ///
    /// Returns the previous binding if one existed (hot re-bind).
    pub fn bind(&mut self, binding: Binding) -> Option<Binding> {
        self.binding.replace(binding)
    }

    /// Removes the binding.
    pub fn unbind(&mut self) -> Option<Binding> {
        self.binding.take()
    }

    /// Sets the QoS limit on the current binding.
    ///
    /// Returns whether a binding existed.
    pub fn set_qos(&mut self, limit: QosLimit) -> bool {
        match &mut self.binding {
            Some(b) => {
                b.qos = NamespaceQos::new(limit);
                true
            }
            None => false,
        }
    }

    /// Host registered the admin queue pair (writes to AQA/ASQ/ACQ).
    pub fn register_admin_queues(&mut self, sq_base: PciAddr, cq_base: PciAddr, entries: u16) {
        self.admin = Some(IoQueuePair {
            sq: SubmissionQueue::new(QueueId::ADMIN, sq_base, entries),
            cq: CompletionQueue::new(QueueId::ADMIN, cq_base, entries),
        });
    }

    /// Handles a CreateIoCq admin command.
    ///
    /// Returns `false` for a bad queue id.
    pub fn create_io_cq(&mut self, qid: QueueId, base: PciAddr, entries: u16) -> bool {
        let idx = qid.0 as usize;
        if qid.is_admin() || idx >= MAX_IO_QUEUES {
            return false;
        }
        self.pending_cqs[idx] = Some((base, entries));
        true
    }

    /// Handles a CreateIoSq admin command; pairs with the CQ registered
    /// for the same id.
    ///
    /// Returns `false` if the CQ was not created first or the id is bad.
    pub fn create_io_sq(&mut self, qid: QueueId, base: PciAddr, entries: u16) -> bool {
        let idx = qid.0 as usize;
        if qid.is_admin() || idx >= MAX_IO_QUEUES {
            return false;
        }
        let Some((cq_base, cq_entries)) = self.pending_cqs[idx] else {
            return false;
        };
        self.io_queues[idx] = Some(IoQueuePair {
            sq: SubmissionQueue::new(qid, base, entries),
            cq: CompletionQueue::new(qid, cq_base, cq_entries),
        });
        true
    }

    /// Deletes an I/O queue pair.
    pub fn delete_io_queue(&mut self, qid: QueueId) -> bool {
        let idx = qid.0 as usize;
        if qid.is_admin() || idx >= MAX_IO_QUEUES {
            return false;
        }
        self.pending_cqs[idx] = None;
        self.io_queues[idx].take().is_some()
    }

    /// The queue pair for `qid` (admin or I/O).
    pub fn queue(&mut self, qid: QueueId) -> Option<&mut IoQueuePair> {
        if qid.is_admin() {
            self.admin.as_mut()
        } else {
            self.io_queues.get_mut(qid.0 as usize)?.as_mut()
        }
    }

    /// Ids of all live I/O queues.
    pub fn io_queue_ids(&self) -> Vec<QueueId> {
        self.io_queues
            .iter()
            .enumerate()
            .filter_map(|(i, q)| q.as_ref().map(|_| QueueId(i as u16)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func() -> FrontEndFunction {
        FrontEndFunction::new(FunctionId::new(3).unwrap())
    }

    fn binding(chunks: usize) -> Binding {
        Binding {
            size_bytes: chunks as u64 * (64 << 30),
            block_size: 4096,
            row_base: 0,
            rows: Binding::rows_for_chunks(chunks),
            qos: NamespaceQos::new(QosLimit::UNLIMITED),
        }
    }

    #[test]
    fn queue_creation_requires_cq_first() {
        let mut f = func();
        assert!(!f.create_io_sq(QueueId(1), PciAddr::new(0x1000), 64));
        assert!(f.create_io_cq(QueueId(1), PciAddr::new(0x2000), 64));
        assert!(f.create_io_sq(QueueId(1), PciAddr::new(0x1000), 64));
        assert!(f.queue(QueueId(1)).is_some());
        assert_eq!(f.io_queue_ids(), vec![QueueId(1)]);
    }

    #[test]
    fn admin_queue_registration() {
        let mut f = func();
        assert!(f.queue(QueueId::ADMIN).is_none());
        f.register_admin_queues(PciAddr::new(0x1000), PciAddr::new(0x2000), 32);
        assert!(f.queue(QueueId::ADMIN).is_some());
    }

    #[test]
    fn bad_queue_ids_rejected() {
        let mut f = func();
        assert!(!f.create_io_cq(QueueId(0), PciAddr::new(0x1000), 64));
        assert!(!f.create_io_cq(QueueId(MAX_IO_QUEUES as u16), PciAddr::new(0x1000), 64));
        assert!(!f.delete_io_queue(QueueId(0)));
    }

    #[test]
    fn delete_clears_pair() {
        let mut f = func();
        f.create_io_cq(QueueId(2), PciAddr::new(0x2000), 64);
        f.create_io_sq(QueueId(2), PciAddr::new(0x1000), 64);
        assert!(f.delete_io_queue(QueueId(2)));
        assert!(f.queue(QueueId(2)).is_none());
        assert!(!f.delete_io_queue(QueueId(2)));
    }

    #[test]
    fn binding_lifecycle() {
        let mut f = func();
        assert!(f.binding().is_none());
        assert!(!f.set_qos(QosLimit::iops(100.0)));
        assert!(f.bind(binding(24)).is_none());
        let b = f.binding().unwrap();
        assert_eq!(b.rows, 3);
        assert_eq!(b.blocks(), 24 * (64 << 30) / 4096);
        assert_eq!(b.nsid().raw(), 1);
        assert!(f.set_qos(QosLimit::iops(100.0)));
        let old = f.unbind().unwrap();
        assert_eq!(old.rows, 3);
        assert!(f.binding().is_none());
    }

    #[test]
    fn rows_for_chunks_rounds_up() {
        assert_eq!(Binding::rows_for_chunks(1), 1);
        assert_eq!(Binding::rows_for_chunks(8), 1);
        assert_eq!(Binding::rows_for_chunks(9), 2);
        assert_eq!(Binding::rows_for_chunks(24), 3);
    }
}
