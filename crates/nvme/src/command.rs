//! Submission- and completion-queue entries with faithful wire encoding.
//!
//! The BMS-Engine manipulates commands the way the FPGA does: it fetches
//! the 64-byte SQE from host memory, rewrites the SLBA field after LBA
//! mapping and the PRP fields after global-PRP tagging, and forwards the
//! bytes to the back-end SSD. Keeping the real layout means those
//! rewrites are byte-exact, like the RTL.

use crate::status::Status;
use crate::types::{Cid, Lba, Nsid, QueueId};
use bm_pcie::PciAddr;
use std::fmt;

/// Size of a submission-queue entry in bytes.
pub const SQE_SIZE: u64 = 64;
/// Size of a completion-queue entry in bytes.
pub const CQE_SIZE: u64 = 16;

/// NVM command-set opcodes the simulation implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOpcode {
    /// Flush volatile write cache.
    Flush,
    /// Write logical blocks.
    Write,
    /// Read logical blocks.
    Read,
}

impl IoOpcode {
    /// The wire opcode byte.
    pub fn code(self) -> u8 {
        match self {
            IoOpcode::Flush => 0x00,
            IoOpcode::Write => 0x01,
            IoOpcode::Read => 0x02,
        }
    }

    /// Whether the command moves data from host to device.
    pub fn is_write(self) -> bool {
        matches!(self, IoOpcode::Write)
    }
}

/// Admin opcodes the simulation implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AdminOpcode {
    /// Delete an I/O submission queue.
    DeleteIoSq,
    /// Create an I/O submission queue.
    CreateIoSq,
    /// Delete an I/O completion queue.
    DeleteIoCq,
    /// Create an I/O completion queue.
    CreateIoCq,
    /// Identify controller / namespace.
    Identify,
    /// Set features.
    SetFeatures,
    /// Get features.
    GetFeatures,
    /// Download a firmware image chunk.
    FirmwareDownload,
    /// Commit (activate) a downloaded firmware image.
    FirmwareCommit,
    /// Get log page.
    GetLogPage,
}

impl AdminOpcode {
    /// The wire opcode byte.
    pub fn code(self) -> u8 {
        match self {
            AdminOpcode::DeleteIoSq => 0x00,
            AdminOpcode::CreateIoSq => 0x01,
            AdminOpcode::GetLogPage => 0x02,
            AdminOpcode::DeleteIoCq => 0x04,
            AdminOpcode::CreateIoCq => 0x05,
            AdminOpcode::Identify => 0x06,
            AdminOpcode::SetFeatures => 0x09,
            AdminOpcode::GetFeatures => 0x0a,
            AdminOpcode::FirmwareCommit => 0x10,
            AdminOpcode::FirmwareDownload => 0x11,
        }
    }
}

/// Either kind of opcode, tagged by the queue the command travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// An I/O (NVM command set) opcode.
    Io(IoOpcode),
    /// An admin opcode.
    Admin(AdminOpcode),
}

impl Opcode {
    /// The wire opcode byte.
    pub fn code(self) -> u8 {
        match self {
            Opcode::Io(op) => op.code(),
            Opcode::Admin(op) => op.code(),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Opcode::Io(op) => write!(f, "{op:?}"),
            Opcode::Admin(op) => write!(f, "{op:?}"),
        }
    }
}

/// A 64-byte submission-queue entry.
///
/// Field placement follows the NVMe base specification:
/// CDW0 = opcode | CID<<16, DW1 = NSID, DW6–9 = PRP1/PRP2,
/// CDW10–11 = SLBA, CDW12 low half = NLB (0-based).
///
/// # Examples
///
/// ```
/// use bm_nvme::command::{IoOpcode, Sqe};
/// use bm_nvme::types::{Cid, Lba, Nsid};
/// use bm_pcie::PciAddr;
///
/// let sqe = Sqe::io(IoOpcode::Write, Cid(1), Nsid::new(2).unwrap(),
///                   Lba(64), 16, PciAddr::new(0x4000), PciAddr::NULL);
/// assert_eq!(sqe.nlb_blocks(), 16);
/// assert_eq!(Sqe::from_bytes(&sqe.to_bytes()).unwrap(), sqe);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sqe {
    /// The command opcode.
    pub opcode: Opcode,
    /// Command id, unique per queue among outstanding commands.
    pub cid: Cid,
    /// Target namespace (admin commands may use `None`).
    pub nsid: Option<Nsid>,
    /// First PRP entry (or the only one for transfers ≤ 2 pages).
    pub prp1: PciAddr,
    /// Second PRP entry or PRP-list pointer.
    pub prp2: PciAddr,
    /// Starting LBA (I/O commands) or command-specific DW10–11.
    pub slba: Lba,
    /// CDW12: for I/O, low 16 bits hold the 0-based block count.
    pub cdw12: u32,
    /// CDW10 for admin commands that need it (e.g. identify CNS,
    /// firmware commit action); aliased with `slba` low bits for I/O.
    pub cdw10: u32,
    /// CDW11 for admin commands (e.g. firmware download offset);
    /// aliased with `slba` high bits for I/O.
    pub cdw11: u32,
}

impl Sqe {
    /// Builds an I/O command. `nblocks` is the *1-based* count
    /// (the encoder stores `nblocks - 1` per the spec).
    ///
    /// # Panics
    ///
    /// Panics if `nblocks` is zero or exceeds 65 536.
    pub fn io(
        opcode: IoOpcode,
        cid: Cid,
        nsid: Nsid,
        slba: Lba,
        nblocks: u32,
        prp1: PciAddr,
        prp2: PciAddr,
    ) -> Sqe {
        assert!(
            (1..=65_536).contains(&nblocks),
            "block count must be 1..=65536"
        );
        Sqe {
            opcode: Opcode::Io(opcode),
            cid,
            nsid: Some(nsid),
            prp1,
            prp2,
            slba,
            cdw12: nblocks - 1,
            cdw10: slba.raw() as u32,
            cdw11: (slba.raw() >> 32) as u32,
        }
    }

    /// Builds an admin command.
    pub fn admin(opcode: AdminOpcode, cid: Cid, cdw10: u32, prp1: PciAddr) -> Sqe {
        Sqe {
            opcode: Opcode::Admin(opcode),
            cid,
            nsid: None,
            prp1,
            prp2: PciAddr::NULL,
            slba: Lba(0),
            cdw12: 0,
            cdw10,
            cdw11: 0,
        }
    }

    /// The 1-based block count for I/O commands.
    pub fn nlb_blocks(&self) -> u32 {
        (self.cdw12 & 0xFFFF) + 1
    }

    /// Whether this entry is an I/O read or write (i.e. moves data).
    pub fn io_opcode(&self) -> Option<IoOpcode> {
        match self.opcode {
            Opcode::Io(op) => Some(op),
            Opcode::Admin(_) => None,
        }
    }

    /// Serializes to the 64-byte wire format.
    pub fn to_bytes(&self) -> [u8; SQE_SIZE as usize] {
        let mut b = [0u8; SQE_SIZE as usize];
        let cdw0 = (self.opcode.code() as u32) | ((self.cid.0 as u32) << 16);
        b[0..4].copy_from_slice(&cdw0.to_le_bytes());
        let nsid = self.nsid.map_or(0, Nsid::raw);
        b[4..8].copy_from_slice(&nsid.to_le_bytes());
        b[24..32].copy_from_slice(&self.prp1.raw().to_le_bytes());
        b[32..40].copy_from_slice(&self.prp2.raw().to_le_bytes());
        match self.opcode {
            Opcode::Io(_) => {
                b[40..48].copy_from_slice(&self.slba.raw().to_le_bytes());
            }
            Opcode::Admin(_) => {
                b[40..44].copy_from_slice(&self.cdw10.to_le_bytes());
                b[44..48].copy_from_slice(&self.cdw11.to_le_bytes());
            }
        }
        b[48..52].copy_from_slice(&self.cdw12.to_le_bytes());
        b
    }

    /// Parses the 64-byte wire format.
    ///
    /// # Errors
    ///
    /// Returns [`Status::InvalidOpcode`] for opcodes the model does not
    /// implement. Queue context decides whether the byte is interpreted
    /// as I/O or admin; this parser tries I/O first, then admin, which is
    /// unambiguous because the engine always knows the queue type — use
    /// [`Sqe::from_bytes_admin`] for admin queues.
    pub fn from_bytes(b: &[u8; SQE_SIZE as usize]) -> Result<Sqe, Status> {
        Self::parse(b, false)
    }

    /// Parses an entry fetched from an *admin* queue.
    ///
    /// # Errors
    ///
    /// Returns [`Status::InvalidOpcode`] for unknown opcodes.
    pub fn from_bytes_admin(b: &[u8; SQE_SIZE as usize]) -> Result<Sqe, Status> {
        Self::parse(b, true)
    }

    fn parse(b: &[u8; SQE_SIZE as usize], admin: bool) -> Result<Sqe, Status> {
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let cdw0 = u32::from_le_bytes(b[0..4].try_into().expect("4 bytes"));
        let op_byte = (cdw0 & 0xFF) as u8;
        let cid = Cid((cdw0 >> 16) as u16);
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let nsid = Nsid::new(u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let prp1 = PciAddr::new(u64::from_le_bytes(b[24..32].try_into().expect("8 bytes")));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let prp2 = PciAddr::new(u64::from_le_bytes(b[32..40].try_into().expect("8 bytes")));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let slba = Lba(u64::from_le_bytes(b[40..48].try_into().expect("8 bytes")));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let cdw10 = u32::from_le_bytes(b[40..44].try_into().expect("4 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let cdw11 = u32::from_le_bytes(b[44..48].try_into().expect("4 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let cdw12 = u32::from_le_bytes(b[48..52].try_into().expect("4 bytes"));
        let opcode = if admin {
            Opcode::Admin(match op_byte {
                0x00 => AdminOpcode::DeleteIoSq,
                0x01 => AdminOpcode::CreateIoSq,
                0x02 => AdminOpcode::GetLogPage,
                0x04 => AdminOpcode::DeleteIoCq,
                0x05 => AdminOpcode::CreateIoCq,
                0x06 => AdminOpcode::Identify,
                0x09 => AdminOpcode::SetFeatures,
                0x0a => AdminOpcode::GetFeatures,
                0x10 => AdminOpcode::FirmwareCommit,
                0x11 => AdminOpcode::FirmwareDownload,
                _ => return Err(Status::InvalidOpcode),
            })
        } else {
            Opcode::Io(match op_byte {
                0x00 => IoOpcode::Flush,
                0x01 => IoOpcode::Write,
                0x02 => IoOpcode::Read,
                _ => return Err(Status::InvalidOpcode),
            })
        };
        Ok(Sqe {
            opcode,
            cid,
            nsid,
            prp1,
            prp2,
            slba: if admin { Lba(0) } else { slba },
            cdw12,
            cdw10,
            cdw11,
        })
    }

    /// Transfer length in bytes given the namespace block size
    /// (zero for flush).
    pub fn transfer_len(&self, block_size: u64) -> u64 {
        match self.opcode {
            Opcode::Io(IoOpcode::Flush) => 0,
            Opcode::Io(_) => self.nlb_blocks() as u64 * block_size,
            Opcode::Admin(_) => 0,
        }
    }
}

/// A 16-byte completion-queue entry.
///
/// DW2 = SQ head | SQ id << 16, DW3 = CID | (phase | status << 1) << 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// Command-specific result (DW0).
    pub result: u32,
    /// Submission-queue head pointer at completion time.
    pub sq_head: u16,
    /// Which submission queue the command came from.
    pub sq_id: QueueId,
    /// The completed command's id.
    pub cid: Cid,
    /// Phase tag — flips each time the ring wraps so the host can detect
    /// new entries without a doorbell from the device.
    pub phase: bool,
    /// Completion status.
    pub status: Status,
}

impl Cqe {
    /// Builds a success completion.
    pub fn success(cid: Cid, sq_id: QueueId, sq_head: u16, phase: bool) -> Cqe {
        Cqe {
            result: 0,
            sq_head,
            sq_id,
            cid,
            phase,
            status: Status::Success,
        }
    }

    /// Serializes to the 16-byte wire format.
    pub fn to_bytes(&self) -> [u8; CQE_SIZE as usize] {
        let mut b = [0u8; CQE_SIZE as usize];
        b[0..4].copy_from_slice(&self.result.to_le_bytes());
        b[8..10].copy_from_slice(&self.sq_head.to_le_bytes());
        b[10..12].copy_from_slice(&self.sq_id.0.to_le_bytes());
        b[12..14].copy_from_slice(&self.cid.0.to_le_bytes());
        let (sct, sc) = self.status.to_wire();
        let sf: u16 = (self.phase as u16) | ((sc as u16) << 1) | ((sct as u16) << 9);
        b[14..16].copy_from_slice(&sf.to_le_bytes());
        b
    }

    /// Parses the 16-byte wire format.
    pub fn from_bytes(b: &[u8; CQE_SIZE as usize]) -> Cqe {
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let result = u32::from_le_bytes(b[0..4].try_into().expect("4 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let sq_head = u16::from_le_bytes(b[8..10].try_into().expect("2 bytes"));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let sq_id = QueueId(u16::from_le_bytes(b[10..12].try_into().expect("2 bytes")));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let cid = Cid(u16::from_le_bytes(b[12..14].try_into().expect("2 bytes")));
        #[expect(
            clippy::expect_used,
            reason = "panic-path debt (ROADMAP item 4): in-bounds range"
        )]
        let sf = u16::from_le_bytes(b[14..16].try_into().expect("2 bytes"));
        Cqe {
            result,
            sq_head,
            sq_id,
            cid,
            phase: sf & 1 != 0,
            status: Status::from_wire(((sf >> 9) & 0x7) as u8, ((sf >> 1) & 0xFF) as u8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nsid(n: u32) -> Nsid {
        Nsid::new(n).unwrap()
    }

    #[test]
    fn io_sqe_round_trip() {
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(0xBEEF),
            nsid(3),
            Lba(0x1_0000_0000), // >32-bit LBA exercises full SLBA width
            256,
            PciAddr::new(0xdead_b000),
            PciAddr::new(0xcafe_0000),
        );
        let parsed = Sqe::from_bytes(&sqe.to_bytes()).unwrap();
        assert_eq!(parsed, sqe);
        assert_eq!(parsed.nlb_blocks(), 256);
        assert_eq!(parsed.transfer_len(4096), 256 * 4096);
    }

    #[test]
    fn admin_sqe_round_trip() {
        let sqe = Sqe::admin(
            AdminOpcode::FirmwareCommit,
            Cid(9),
            0x0000_0018,
            PciAddr::NULL,
        );
        let parsed = Sqe::from_bytes_admin(&sqe.to_bytes()).unwrap();
        assert_eq!(parsed, sqe);
        assert_eq!(parsed.cdw10, 0x18);
        assert_eq!(parsed.transfer_len(4096), 0);
    }

    #[test]
    fn unknown_opcodes_rejected() {
        let mut b = [0u8; 64];
        b[0] = 0x7f;
        assert_eq!(Sqe::from_bytes(&b), Err(Status::InvalidOpcode));
        assert_eq!(Sqe::from_bytes_admin(&b), Err(Status::InvalidOpcode));
    }

    #[test]
    fn flush_moves_no_data() {
        let sqe = Sqe::io(
            IoOpcode::Flush,
            Cid(0),
            nsid(1),
            Lba(0),
            1,
            PciAddr::NULL,
            PciAddr::NULL,
        );
        assert_eq!(sqe.transfer_len(4096), 0);
        assert!(!IoOpcode::Flush.is_write());
        assert!(IoOpcode::Write.is_write());
    }

    #[test]
    #[should_panic(expected = "1..=65536")]
    fn zero_block_io_panics() {
        Sqe::io(
            IoOpcode::Read,
            Cid(0),
            nsid(1),
            Lba(0),
            0,
            PciAddr::NULL,
            PciAddr::NULL,
        );
    }

    #[test]
    fn cqe_round_trip_all_statuses() {
        for status in [
            Status::Success,
            Status::LbaOutOfRange,
            Status::Aborted,
            Status::FirmwareNeedsReset,
        ] {
            for phase in [false, true] {
                let cqe = Cqe {
                    result: 0x1234_5678,
                    sq_head: 42,
                    sq_id: QueueId(3),
                    cid: Cid(7),
                    phase,
                    status,
                };
                assert_eq!(Cqe::from_bytes(&cqe.to_bytes()), cqe, "{status} {phase}");
            }
        }
    }

    #[test]
    fn phase_bit_is_lsb_of_status_field() {
        let cqe = Cqe::success(Cid(1), QueueId(1), 0, true);
        let bytes = cqe.to_bytes();
        assert_eq!(bytes[14] & 1, 1);
        let cqe = Cqe::success(Cid(1), QueueId(1), 0, false);
        assert_eq!(cqe.to_bytes()[14] & 1, 0);
    }
}
