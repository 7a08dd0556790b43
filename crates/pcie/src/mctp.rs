//! MCTP over PCIe.
//!
//! The Management Component Transport Protocol is BM-Store's out-of-band
//! management carrier (§IV-A, §IV-D): a remote console reaches the
//! BMS-Controller through PCIe vendor-defined messages, bypassing the
//! host OS entirely. We implement baseline MCTP: 64-byte-payload packets
//! with SOM/EOM framing, 2-bit rolling sequence numbers, message tags,
//! and a reassembler that detects loss and reordering — the paper notes
//! (§VI-B) that MCTP stability required real engineering, so the error
//! paths here are first-class.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;

/// Baseline MCTP transmission unit: payload bytes per packet.
pub const BASELINE_MTU: usize = 64;

/// An MCTP endpoint id. EID 0 is the null destination, 0xff is broadcast;
/// normal endpoints use 8..=254 per DSP0236.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Eid(pub u8);

impl fmt::Display for Eid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "eid{}", self.0)
    }
}

/// MCTP message types we carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// MCTP control messages (discovery, EID assignment).
    Control,
    /// NVMe Management Interface messages (DSP0235 binding, type 0x04).
    NvmeMi,
    /// Vendor-defined (used by the hot-upgrade file transfer).
    VendorPci,
}

impl MessageType {
    /// The on-wire type byte.
    pub fn code(self) -> u8 {
        match self {
            MessageType::Control => 0x00,
            MessageType::NvmeMi => 0x04,
            MessageType::VendorPci => 0x7e,
        }
    }

    /// Parses the on-wire type byte.
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0x00 => Some(MessageType::Control),
            0x04 => Some(MessageType::NvmeMi),
            0x7e => Some(MessageType::VendorPci),
            _ => None,
        }
    }
}

/// One MCTP packet (transport header + up to [`BASELINE_MTU`] payload bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MctpPacket {
    /// Destination endpoint.
    pub dest: Eid,
    /// Source endpoint.
    pub src: Eid,
    /// Start-of-message flag.
    pub som: bool,
    /// End-of-message flag.
    pub eom: bool,
    /// 2-bit rolling packet sequence number.
    pub pkt_seq: u8,
    /// 3-bit message tag correlating packets of one message.
    pub tag: u8,
    /// Payload fragment.
    pub payload: Vec<u8>,
}

impl MctpPacket {
    /// Serializes to wire bytes (4-byte transport header + payload),
    /// suitable for embedding in a PCIe vendor message.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.payload.len());
        out.push(0x01); // header version
        out.push(self.dest.0);
        out.push(self.src.0);
        let mut flags = (self.tag & 0x7) | ((self.pkt_seq & 0x3) << 4);
        if self.som {
            flags |= 0x80;
        }
        if self.eom {
            flags |= 0x40;
        }
        out.push(flags);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses wire bytes produced by [`MctpPacket::to_wire`].
    ///
    /// # Errors
    ///
    /// Returns [`MctpError::Malformed`] on short input or bad version.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, MctpError> {
        if bytes.len() < 4 || bytes[0] != 0x01 {
            return Err(MctpError::Malformed);
        }
        let flags = bytes[3];
        Ok(MctpPacket {
            dest: Eid(bytes[1]),
            src: Eid(bytes[2]),
            som: flags & 0x80 != 0,
            eom: flags & 0x40 != 0,
            pkt_seq: (flags >> 4) & 0x3,
            tag: flags & 0x7,
            payload: bytes[4..].to_vec(),
        })
    }
}

/// A complete MCTP message (type byte + body), before packetization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MctpMessage {
    /// Message type.
    pub mtype: MessageType,
    /// Message body (e.g. an NVMe-MI request).
    pub body: Vec<u8>,
}

impl MctpMessage {
    /// Creates a message.
    pub fn new(mtype: MessageType, body: Vec<u8>) -> Self {
        MctpMessage { mtype, body }
    }

    /// Splits into MTU-sized packets from `src` to `dest` under `tag`.
    ///
    /// The first packet carries the message-type byte, per MCTP framing.
    pub fn packetize(&self, src: Eid, dest: Eid, tag: u8) -> Vec<MctpPacket> {
        let mut full = Vec::with_capacity(1 + self.body.len());
        full.push(self.mtype.code());
        full.extend_from_slice(&self.body);
        let chunks: Vec<&[u8]> = full.chunks(BASELINE_MTU).collect();
        let n = chunks.len();
        chunks
            .into_iter()
            .enumerate()
            .map(|(i, chunk)| MctpPacket {
                dest,
                src,
                som: i == 0,
                eom: i == n - 1,
                pkt_seq: (i % 4) as u8,
                tag: tag & 0x7,
                payload: chunk.to_vec(),
            })
            .collect()
    }
}

/// Errors surfaced by packet parsing and reassembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MctpError {
    /// Packet bytes were truncated or had a bad version.
    Malformed,
    /// A non-SOM packet arrived with no assembly in progress.
    UnexpectedFragment,
    /// The 2-bit sequence number skipped — a packet was lost.
    SequenceGap {
        /// Sequence number we expected.
        expected: u8,
        /// Sequence number that arrived.
        got: u8,
    },
    /// The reassembled message had an unknown type byte.
    UnknownType(u8),
    /// The message body was empty (no type byte).
    Empty,
}

impl fmt::Display for MctpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MctpError::Malformed => write!(f, "malformed MCTP packet"),
            MctpError::UnexpectedFragment => write!(f, "fragment without start-of-message"),
            MctpError::SequenceGap { expected, got } => {
                write!(f, "sequence gap: expected {expected}, got {got}")
            }
            MctpError::UnknownType(t) => write!(f, "unknown MCTP message type {t:#x}"),
            MctpError::Empty => write!(f, "empty MCTP message"),
        }
    }
}

impl std::error::Error for MctpError {}

/// Per-(source, tag) reassembly state machine.
///
/// # Examples
///
/// ```
/// use bm_pcie::mctp::{Assembler, Eid, MctpMessage, MessageType};
///
/// let msg = MctpMessage::new(MessageType::NvmeMi, vec![7u8; 200]);
/// let packets = msg.packetize(Eid(9), Eid(8), 1);
/// let mut asm = Assembler::new();
/// let mut done = None;
/// for p in packets {
///     if let Some(m) = asm.push(p).unwrap() {
///         done = Some(m);
///     }
/// }
/// assert_eq!(done.unwrap(), msg);
/// ```
#[derive(Debug, Default)]
pub struct Assembler {
    in_progress: BTreeMap<(Eid, u8), Partial>,
    completed: u64,
    errors: u64,
}

#[derive(Debug)]
struct Partial {
    next_seq: u8,
    data: Vec<u8>,
}

impl Assembler {
    /// Creates an idle assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one packet; returns a completed message when EOM arrives.
    ///
    /// # Errors
    ///
    /// Returns an error (and drops the partial assembly) on sequence
    /// gaps, orphan fragments, or unknown message types.
    pub fn push(&mut self, pkt: MctpPacket) -> Result<Option<MctpMessage>, MctpError> {
        let key = (pkt.src, pkt.tag);
        let entry = if pkt.som {
            self.in_progress.entry(key).insert_entry(Partial {
                next_seq: pkt.pkt_seq.wrapping_add(1) % 4,
                data: pkt.payload.clone(),
            })
        } else {
            let Entry::Occupied(mut entry) = self.in_progress.entry(key) else {
                self.errors += 1;
                return Err(MctpError::UnexpectedFragment);
            };
            let partial = entry.get_mut();
            if partial.next_seq != pkt.pkt_seq {
                let expected = partial.next_seq;
                entry.remove();
                self.errors += 1;
                return Err(MctpError::SequenceGap {
                    expected,
                    got: pkt.pkt_seq,
                });
            }
            partial.next_seq = pkt.pkt_seq.wrapping_add(1) % 4;
            partial.data.extend_from_slice(&pkt.payload);
            entry
        };
        if pkt.eom {
            let partial = entry.remove();
            if partial.data.is_empty() {
                self.errors += 1;
                return Err(MctpError::Empty);
            }
            let mtype = MessageType::from_code(partial.data[0]).ok_or_else(|| {
                self.errors += 1;
                MctpError::UnknownType(partial.data[0])
            })?;
            self.completed += 1;
            return Ok(Some(MctpMessage::new(mtype, partial.data[1..].to_vec())));
        }
        Ok(None)
    }

    /// Messages successfully reassembled.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Reassemblies currently in progress (SOM seen, EOM not yet) —
    /// the in-flight gauge the metrics sampler reads.
    pub fn in_progress(&self) -> usize {
        self.in_progress.len()
    }

    /// Reassembly errors observed.
    pub fn errors(&self) -> u64 {
        self.errors
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(body_len: usize) {
        let body: Vec<u8> = (0..body_len).map(|i| (i % 256) as u8).collect();
        let msg = MctpMessage::new(MessageType::NvmeMi, body);
        let packets = msg.packetize(Eid(10), Eid(20), 3);
        let mut asm = Assembler::new();
        let mut out = None;
        for (i, p) in packets.iter().enumerate() {
            // Exercise the wire encoding too.
            let p2 = MctpPacket::from_wire(&p.to_wire()).unwrap();
            assert_eq!(&p2, p);
            let res = asm.push(p2).unwrap();
            if i == packets.len() - 1 {
                out = res;
            } else {
                assert!(res.is_none());
            }
        }
        assert_eq!(out.unwrap(), msg);
    }

    #[test]
    fn roundtrip_various_sizes() {
        for len in [0, 1, 62, 63, 64, 65, 200, 1024, 5000] {
            roundtrip(len);
        }
    }

    #[test]
    fn packet_count_matches_mtu() {
        let msg = MctpMessage::new(MessageType::Control, vec![0; 200]);
        // 201 bytes with type byte → 4 packets of ≤64.
        assert_eq!(msg.packetize(Eid(1), Eid(2), 0).len(), 4);
    }

    #[test]
    fn sequence_gap_detected() {
        let msg = MctpMessage::new(MessageType::NvmeMi, vec![0; 300]);
        let mut packets = msg.packetize(Eid(1), Eid(2), 0);
        packets.remove(2); // lose a middle packet
        let mut asm = Assembler::new();
        let mut saw_gap = false;
        for p in packets {
            match asm.push(p) {
                Err(MctpError::SequenceGap { .. }) => saw_gap = true,
                Err(MctpError::UnexpectedFragment) if saw_gap => {}
                Err(e) => panic!("unexpected error {e}"),
                Ok(Some(_)) => panic!("message should not complete"),
                Ok(None) => {}
            }
        }
        assert!(saw_gap);
        assert!(asm.errors() >= 1);
        assert_eq!(asm.completed(), 0);
    }

    #[test]
    fn orphan_fragment_rejected() {
        let mut asm = Assembler::new();
        let pkt = MctpPacket {
            dest: Eid(2),
            src: Eid(1),
            som: false,
            eom: true,
            pkt_seq: 1,
            tag: 0,
            payload: vec![1, 2],
        };
        assert_eq!(asm.push(pkt), Err(MctpError::UnexpectedFragment));
    }

    #[test]
    fn unknown_type_rejected() {
        let pkt = MctpPacket {
            dest: Eid(2),
            src: Eid(1),
            som: true,
            eom: true,
            pkt_seq: 0,
            tag: 0,
            payload: vec![0x55, 1, 2],
        };
        let mut asm = Assembler::new();
        assert_eq!(asm.push(pkt), Err(MctpError::UnknownType(0x55)));
    }

    #[test]
    fn interleaved_tags_reassemble_independently() {
        let m1 = MctpMessage::new(MessageType::NvmeMi, vec![1; 150]);
        let m2 = MctpMessage::new(MessageType::Control, vec![2; 150]);
        let p1 = m1.packetize(Eid(1), Eid(9), 0);
        let p2 = m2.packetize(Eid(1), Eid(9), 1);
        let mut asm = Assembler::new();
        let mut done = Vec::new();
        for pair in p1.into_iter().zip(p2) {
            if let Some(m) = asm.push(pair.0).unwrap() {
                done.push(m);
            }
            if let Some(m) = asm.push(pair.1).unwrap() {
                done.push(m);
            }
        }
        assert_eq!(done, vec![m1, m2]);
        assert_eq!(asm.completed(), 2);
    }

    #[test]
    fn malformed_wire_rejected() {
        assert_eq!(MctpPacket::from_wire(&[0x01, 1]), Err(MctpError::Malformed));
        assert_eq!(
            MctpPacket::from_wire(&[0x02, 1, 2, 3, 4]),
            Err(MctpError::Malformed)
        );
    }
}
