//! Property tests: memory semantics and MCTP framing under arbitrary
//! inputs.

use bm_pcie::mctp::{Assembler, Eid, MctpMessage, MctpPacket, MessageType, BASELINE_MTU};
use bm_pcie::memory::PAGE_SIZE;
use bm_pcie::{HostMemory, PciAddr};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The page store `HostMemory` used before its page table: every
/// resident page in one ordered map. Kept as the oracle the table is
/// checked against.
struct MapMemory {
    size: u64,
    next_alloc: u64,
    pages: BTreeMap<u64, Box<[u8; PAGE_SIZE as usize]>>,
    bytes_written: u64,
    bytes_read: u64,
}

impl MapMemory {
    fn new(size: u64) -> Self {
        MapMemory {
            size,
            next_alloc: PAGE_SIZE,
            pages: BTreeMap::new(),
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    fn alloc(&mut self, len: u64) -> Option<PciAddr> {
        let len = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if self.next_alloc.checked_add(len)? > self.size {
            return None;
        }
        let addr = PciAddr::new(self.next_alloc);
        self.next_alloc += len;
        Some(addr)
    }

    fn write(&mut self, mut addr: u64, mut data: &[u8]) {
        self.bytes_written += data.len() as u64;
        while !data.is_empty() {
            let in_page = (addr % PAGE_SIZE) as usize;
            let n = data.len().min(PAGE_SIZE as usize - in_page);
            let page = self
                .pages
                .entry(addr / PAGE_SIZE)
                .or_insert_with(|| Box::new([0; PAGE_SIZE as usize]));
            page[in_page..in_page + n].copy_from_slice(&data[..n]);
            data = &data[n..];
            addr += n as u64;
        }
    }

    fn read(&mut self, mut addr: u64, len: u64) -> Vec<u8> {
        self.bytes_read += len;
        let mut out = vec![0; len as usize];
        let mut buf = &mut out[..];
        while !buf.is_empty() {
            let in_page = (addr % PAGE_SIZE) as usize;
            let n = buf.len().min(PAGE_SIZE as usize - in_page);
            if let Some(page) = self.pages.get(&(addr / PAGE_SIZE)) {
                buf[..n].copy_from_slice(&page[in_page..in_page + n]);
            }
            buf = &mut buf[n..];
            addr += n as u64;
        }
        out
    }
}

/// Size of the memories the op-sequence property runs on: 24 pages.
const OP_MEM: u64 = 24 * PAGE_SIZE;

proptest! {
    /// Read-after-write returns exactly what was written, for arbitrary
    /// (possibly page-straddling) ranges.
    #[test]
    fn memory_read_after_write(
        offset in 0u64..20_000,
        data in proptest::collection::vec(any::<u8>(), 1..10_000),
    ) {
        let mut mem = HostMemory::new(1 << 20);
        let base = mem.alloc(64 << 10).unwrap();
        let addr = base + offset;
        mem.write(addr, &data);
        prop_assert_eq!(mem.read_vec(addr, data.len() as u64), data);
    }

    /// Overlapping writes: the later write wins on the overlap.
    #[test]
    fn memory_overlapping_writes(
        a in proptest::collection::vec(any::<u8>(), 100..2_000),
        b in proptest::collection::vec(any::<u8>(), 100..2_000),
        overlap in 0u64..100,
    ) {
        let mut mem = HostMemory::new(1 << 20);
        let base = mem.alloc(16 << 10).unwrap();
        mem.write(base, &a);
        let b_addr = base + (a.len() as u64 - overlap);
        mem.write(b_addr, &b);
        let got = mem.read_vec(b_addr, b.len() as u64);
        prop_assert_eq!(got, b);
        // The prefix of `a` before the overlap is intact.
        let keep = a.len() as u64 - overlap;
        prop_assert_eq!(mem.read_vec(base, keep), a[..keep as usize].to_vec());
    }

    #[test]
    fn checksum_is_content_function(
        data in proptest::collection::vec(any::<u8>(), 1..4_096),
    ) {
        let mut m1 = HostMemory::new(1 << 20);
        let mut m2 = HostMemory::new(1 << 20);
        let a1 = m1.alloc(8 << 10).unwrap();
        let a2 = m2.alloc(8 << 10).unwrap();
        m1.write(a1, &data);
        m2.write(a2, &data);
        prop_assert_eq!(m1.checksum(a1, data.len() as u64), m2.checksum(a2, data.len() as u64));
    }

    /// Any message packetizes into ≤MTU fragments that reassemble to
    /// the identical message, and the wire encoding round-trips.
    #[test]
    fn mctp_round_trips(
        body in proptest::collection::vec(any::<u8>(), 0..4_096),
        src in 8u8..255,
        dest in 8u8..255,
        tag in 0u8..8,
    ) {
        let msg = MctpMessage::new(MessageType::NvmeMi, body);
        let packets = msg.packetize(Eid(src), Eid(dest), tag);
        prop_assert!(packets.iter().all(|p| p.payload.len() <= BASELINE_MTU));
        prop_assert!(packets[0].som);
        prop_assert!(packets.last().unwrap().eom);
        let mut asm = Assembler::new();
        let mut out = None;
        for p in packets {
            let wire = MctpPacket::from_wire(&p.to_wire()).unwrap();
            prop_assert_eq!(&wire, &p);
            if let Some(m) = asm.push(wire).unwrap() {
                out = Some(m);
            }
        }
        prop_assert_eq!(out.unwrap(), msg);
    }

    /// Dropping any single non-terminal packet of a multi-packet
    /// message never yields a (possibly corrupt) completed message.
    #[test]
    fn mctp_loss_never_completes_corrupt(
        body in proptest::collection::vec(any::<u8>(), 128..2_048),
        drop_idx in any::<prop::sample::Index>(),
    ) {
        let msg = MctpMessage::new(MessageType::NvmeMi, body);
        let mut packets = msg.packetize(Eid(9), Eid(8), 0);
        prop_assume!(packets.len() >= 3);
        let idx = drop_idx.index(packets.len() - 1); // never the EOM
        packets.remove(idx);
        let mut asm = Assembler::new();
        for p in packets {
            if let Ok(Some(m)) = asm.push(p) {
                prop_assert_eq!(m, msg.clone(), "only the true message may complete");
            }
        }
    }

    /// Random sequences of `alloc`, `write` and `read` on `HostMemory`
    /// and on the ordered-map store it replaced agree on every byte
    /// read, the resident page count and the traffic counters. Writes
    /// straddle pages and land above the allocator's high-water mark
    /// too, and later allocations raise the mark over those pages.
    #[test]
    fn memory_matches_the_ordered_map_store(
        ops in proptest::collection::vec(
            (0u8..5, 0u64..OP_MEM, 1u64..(2 * PAGE_SIZE + 100), any::<u8>()),
            1..60,
        ),
    ) {
        let mut mem = HostMemory::new(OP_MEM);
        let mut oracle = MapMemory::new(OP_MEM);
        for (kind, addr, len, fill) in ops {
            let len = len.min(OP_MEM - addr);
            match kind {
                0 => {
                    let pages = 1 + len / PAGE_SIZE;
                    prop_assert_eq!(mem.alloc(pages * PAGE_SIZE), oracle.alloc(pages * PAGE_SIZE));
                }
                1 | 2 => {
                    let data: Vec<u8> =
                        (0..len).map(|i| fill.wrapping_add(i as u8) | 1).collect();
                    mem.write(PciAddr::new(addr), &data);
                    oracle.write(addr, &data);
                }
                _ => {
                    let got = mem.read_vec(PciAddr::new(addr), len);
                    prop_assert_eq!(got, oracle.read(addr, len));
                }
            }
            prop_assert_eq!(mem.resident_pages(), oracle.pages.len());
            prop_assert_eq!(mem.bytes_written(), oracle.bytes_written);
            prop_assert_eq!(mem.bytes_read(), oracle.bytes_read);
        }
        let all = mem.read_vec(PciAddr::NULL, OP_MEM);
        prop_assert_eq!(all, oracle.read(0, OP_MEM));
    }

    /// Arbitrary packet sequences (any source, tag, sequence number and
    /// framing bits, in any order) never panic the reassembler: each
    /// push returns a message, nothing, or an error.
    #[test]
    fn arbitrary_packets_never_panic_the_assembler(
        packets in proptest::collection::vec(
            (0u8..3, any::<u8>(), any::<u8>(), 0u8..4, proptest::collection::vec(any::<u8>(), 0..80)),
            0..40,
        ),
    ) {
        let mut asm = Assembler::new();
        let (mut ok, mut err) = (0u64, 0u64);
        for (src, tag, seq, flags, payload) in packets {
            // Half the packets keep to the 3-bit tag and 2-bit sequence
            // number the wire carries, so fragments meet their partials.
            let (tag, seq) = if tag & 1 == 0 { (tag >> 6, seq & 3) } else { (tag, seq) };
            let pkt = MctpPacket {
                dest: Eid(8),
                src: Eid(9 + src),
                som: flags & 1 != 0,
                eom: flags & 2 != 0,
                pkt_seq: seq,
                tag,
                payload,
            };
            match asm.push(pkt) {
                Ok(Some(_)) => ok += 1,
                Ok(None) => {}
                Err(_) => err += 1,
            }
        }
        prop_assert_eq!(asm.completed(), ok);
        prop_assert_eq!(asm.errors(), err);
    }

    #[test]
    fn page_math_consistent(addr in any::<u64>()) {
        let a = PciAddr::new(addr & ((1 << 48) - 1));
        let base = a.page_base(4096);
        let off = a.page_offset(4096);
        prop_assert_eq!(base.raw() + off, a.raw());
        prop_assert_eq!(base.page_offset(4096), 0);
    }
}
