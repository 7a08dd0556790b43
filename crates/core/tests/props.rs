//! Property tests on the BMS-Engine's data structures: the mapping
//! equations, the global-PRP bit format, chunk allocation, QoS rate
//! conformance, the management command codec, and the data pointers of
//! split commands.

use bm_nvme::command::{IoOpcode, Sqe};
use bm_nvme::prp::PrpPair;
use bm_nvme::queue::DoorbellLayout;
use bm_nvme::types::{Cid, Lba, Nsid, QueueId};
use bm_nvme::SubmissionQueue;
use bm_pcie::memory::PAGE_SIZE;
use bm_pcie::{FunctionId, HostMemory, PciAddr};
use bm_sim::SimTime;
use bm_ssd::SsdId;
use bmstore_core::controller::commands::BmsCommand;
use bmstore_core::engine::dma_routing::{GlobalPrp, TAG_MASK};
use bmstore_core::engine::mapping::{
    ChunkAllocator, MapEntry, MappingTable, ENTRIES_PER_ROW, MAX_CHUNK_BASE, MAX_SSD_ID,
};
use bmstore_core::engine::qos::{Admission, NamespaceQos, QosLimit};
use bmstore_core::engine::{BmsEngine, EngineAction, EngineConfig, Placement};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Function 1, a VF: its tag is non-zero, so an untagged or mistagged
/// pointer cannot pass for a tagged one.
fn vf() -> FunctionId {
    FunctionId::new(1).unwrap()
}

/// An engine over 2 SSDs with a two-chunk round-robin namespace on
/// [`vf`] and a registered I/O queue pair; returns the host-side SQ.
fn striped_rig() -> (BmsEngine, HostMemory, SubmissionQueue) {
    let mut engine = BmsEngine::new(EngineConfig::paper_default(2));
    let mut host = HostMemory::new(1 << 30);
    engine
        .bind_namespace(vf(), 128 << 30, Placement::RoundRobin)
        .unwrap();
    engine.set_function_enabled(vf(), true);
    let sq_base = host.alloc(16 * 64).unwrap();
    let cq_base = host.alloc(16 * 16).unwrap();
    engine
        .function_mut(vf())
        .create_io_cq(QueueId(1), cq_base, 16);
    engine
        .function_mut(vf())
        .create_io_sq(QueueId(1), sq_base, 16);
    (engine, host, SubmissionQueue::new(QueueId(1), sq_base, 16))
}

proptest! {
    #[test]
    fn map_entry_byte_round_trips(base in 0u8..=MAX_CHUNK_BASE, ssd in 0u8..=MAX_SSD_ID) {
        let e = MapEntry::new(base, SsdId(ssd)).unwrap();
        let back = MapEntry::from_raw(e.raw());
        prop_assert_eq!(back.chunk_base(), base);
        prop_assert_eq!(back.ssd(), SsdId(ssd));
    }

    /// The paper's equations (1)–(4), checked against a direct
    /// reference model for arbitrary mappings and addresses.
    #[test]
    fn mapping_matches_reference_model(
        entries in proptest::collection::vec((0u8..=MAX_CHUNK_BASE, 0u8..=MAX_SSD_ID), 1..64),
        hl_frac in 0.0f64..1.0,
    ) {
        let mut mt = MappingTable::new(16, 4096);
        for (i, (base, ssd)) in entries.iter().enumerate() {
            mt.install(
                i / ENTRIES_PER_ROW,
                i % ENTRIES_PER_ROW,
                MapEntry::new(*base, SsdId(*ssd)).unwrap(),
            )
            .unwrap();
        }
        let cs = mt.chunk_blocks();
        let ns_blocks = entries.len() as u64 * cs;
        let hl = ((ns_blocks - 1) as f64 * hl_frac) as u64;
        let (ssd, pl) = mt.map(0, Lba(hl)).unwrap();
        // Reference: chunk index selects the entry; offset is preserved.
        let chunk = (hl / cs) as usize;
        let (want_base, want_ssd) = entries[chunk];
        prop_assert_eq!(ssd, SsdId(want_ssd));
        prop_assert_eq!(pl.raw(), want_base as u64 * cs + hl % cs);
    }

    #[test]
    fn global_prp_round_trips(
        addr in (0u64..(1 << 48)),
        func in 0u8..128,
        is_list in any::<bool>(),
    ) {
        let f = FunctionId::new(func).unwrap();
        let tagged = GlobalPrp::tag(PciAddr::new(addr), f, is_list);
        let (a, g, l) = GlobalPrp::untag(tagged);
        prop_assert_eq!(a.raw(), addr);
        prop_assert_eq!(g, f);
        prop_assert_eq!(l, is_list);
        // The tag never disturbs the address bits.
        prop_assert_eq!(tagged.raw() & !TAG_MASK, addr);
    }

    #[test]
    fn allocator_never_hands_out_duplicates(
        takes in proptest::collection::vec(1usize..8, 1..12),
    ) {
        let mut alloc = ChunkAllocator::new(4, 2_000_000_000_000);
        let mut seen = BTreeSet::new();
        for n in takes {
            if let Ok(entries) = alloc.alloc_round_robin(n) {
                for e in entries {
                    prop_assert!(
                        seen.insert((e.ssd(), e.chunk_base())),
                        "duplicate chunk handed out"
                    );
                }
            }
        }
    }

    /// Whatever the arrival pattern, QoS never releases faster than the
    /// configured rate (after the burst).
    #[test]
    fn qos_release_rate_bounded(
        rate in 100.0f64..100_000.0,
        arrivals in proptest::collection::vec(0u64..1_000_000u64, 10..200),
    ) {
        let mut q = NamespaceQos::new(QosLimit::iops(rate));
        let mut t = 0u64;
        let mut last_release = SimTime::ZERO;
        let mut count = 0u64;
        for gap in arrivals {
            t += gap;
            let now = SimTime::from_nanos(t);
            match q.admit(now, 4096) {
                Admission::Immediate => {
                    last_release = last_release.max(now);
                    count += 1;
                }
                Admission::Deferred(at) => {
                    prop_assert!(at >= now);
                    last_release = last_release.max(at);
                    count += 1;
                }
            }
        }
        let span = last_release.as_secs_f64();
        if span > 0.01 {
            let burst = (rate / 10.0).max(1.0);
            let observed = count as f64 / span;
            prop_assert!(
                observed <= rate + burst / span + rate * 0.01,
                "release rate {observed:.0} exceeds limit {rate:.0}"
            );
        }
    }

    #[test]
    fn management_commands_round_trip(
        func in 0u8..128,
        size in 1u64..(8u64 << 40),
        iops in any::<u32>(),
        mbps in any::<u32>(),
        image in proptest::collection::vec(any::<u8>(), 0..512),
        ssd in 0u8..4,
        slot in 0u8..4,
    ) {
        let f = FunctionId::new(func).unwrap();
        let cmds = vec![
            BmsCommand::CreateAndBind { func: f, size_bytes: size, single_ssd: None },
            BmsCommand::CreateAndBind { func: f, size_bytes: size, single_ssd: Some(SsdId(ssd)) },
            BmsCommand::Unbind { func: f },
            BmsCommand::SetQos { func: f, iops, mbps },
            BmsCommand::QueryStats { func: f },
            BmsCommand::HealthPoll { ssd: SsdId(ssd) },
            BmsCommand::FirmwareUpgrade { ssd: SsdId(ssd), slot, image },
            BmsCommand::HotPlugPrepare { ssd: SsdId(ssd) },
            BmsCommand::HotPlugComplete { old: SsdId(ssd), new: SsdId(3 - ssd) },
            BmsCommand::QueryVersion { ssd: SsdId(ssd) },
        ];
        for cmd in cmds {
            let back = BmsCommand::from_request(&cmd.to_request()).unwrap();
            prop_assert_eq!(back, cmd);
        }
    }

    /// Hot-plug retargeting is an involution on the targeted subset.
    #[test]
    fn retarget_round_trips(
        entries in proptest::collection::vec((0u8..=MAX_CHUNK_BASE, 0u8..=MAX_SSD_ID), 1..48),
    ) {
        let mut mt = MappingTable::new(8, 4096);
        for (i, (base, ssd)) in entries.iter().enumerate() {
            mt.install(
                i / ENTRIES_PER_ROW,
                i % ENTRIES_PER_ROW,
                MapEntry::new(*base, SsdId(*ssd)).unwrap(),
            )
            .unwrap();
        }
        let before: Vec<_> = (0..entries.len())
            .map(|i| mt.entry(i / ENTRIES_PER_ROW, i % ENTRIES_PER_ROW).unwrap())
            .collect();
        let n1 = mt.retarget_ssd(SsdId(1), SsdId(2));
        let _ = n1;
        // Retarget back: only safe when SSD 2 had no entries initially,
        // so restrict the check to that case.
        if !entries.iter().any(|(_, s)| *s == 2) {
            mt.retarget_ssd(SsdId(2), SsdId(1));
            let after: Vec<_> = (0..entries.len())
                .map(|i| mt.entry(i / ENTRIES_PER_ROW, i % ENTRIES_PER_ROW).unwrap())
                .collect();
            prop_assert_eq!(before, after);
        }
    }

    /// A command across a chunk boundary splits into two spans, the
    /// second starting at a non-zero block offset into the host buffer.
    /// Each forwarded SQE's PRP1, PRP2 and PRP list, read back through
    /// the DMA router, must name exactly its span's host pages as
    /// `PrpPair::segments` walks them, each tagged with the function.
    #[test]
    fn split_spans_carry_their_host_pages(
        blocks in 3u32..=256,
        split in any::<u32>(),
        stride in 0u64..256,
        start in 0u64..512,
    ) {
        let (mut engine, mut host, mut host_sq) = striped_rig();
        // Scatter the buffer over a 512-page region: an odd stride
        // visits distinct pages, so a wrong offset names a wrong page.
        let region = host.alloc(512 * PAGE_SIZE).unwrap();
        let page = |i: u64| {
            let slot = (start + i * (2 * stride + 1)) % 512;
            region + slot * PAGE_SIZE
        };
        let list = host.alloc(u64::from(blocks) * 8).unwrap();
        for i in 1..u64::from(blocks) {
            host.write_u64(list + (i - 1) * 8, page(i).raw());
        }
        let len = u64::from(blocks) * PAGE_SIZE;
        let buf = PrpPair { prp1: page(0), prp2: list, len };
        let host_pages: Vec<PciAddr> =
            buf.segments(&mut host).unwrap().into_iter().map(|(a, _)| a).collect();
        // `before` blocks land in chunk 0 and the rest in chunk 1.
        let before = split % (blocks - 1) + 1;
        let cs = engine.mapping().chunk_blocks();
        let slba = cs - u64::from(before);
        let sqe = Sqe::io(
            IoOpcode::Read,
            Cid(0),
            Nsid::ONE,
            Lba(slba),
            blocks,
            buf.prp1,
            buf.prp2,
        );
        host_sq.push(&mut host, &sqe).unwrap();
        let actions = engine.host_doorbell_write(
            SimTime::ZERO,
            vf(),
            DoorbellLayout::sq_tail_offset(QueueId(1)),
            1,
            &mut host,
        );
        // Fetch every forwarded SQE, per SSD in ring order.
        let mut fetched: BTreeMap<SsdId, VecDeque<Sqe>> = BTreeMap::new();
        for a in &actions {
            if let EngineAction::BackendDoorbell { ssd, tail, .. } = *a {
                let (mut ring, _) = engine.ssd_rings(ssd);
                ring.doorbell_tail(tail).unwrap();
                let mut router = engine.dma_router(&mut host);
                while let Some(fwd) = ring.fetch(&mut router).unwrap() {
                    fetched.entry(ssd).or_default().push_back(fwd);
                }
            }
        }
        let row_base = engine.function(vf()).binding().unwrap().row_base;
        for (off, n) in [(0, before), (before, blocks - before)] {
            let hl = Lba(slba + u64::from(off));
            let (ssd, pl) = engine.mapping().map(row_base, hl).unwrap();
            let fwd = fetched.get_mut(&ssd).and_then(|q| q.pop_front());
            prop_assert!(fwd.is_some(), "no span forwarded to {:?}", ssd);
            let fwd = fwd.unwrap();
            prop_assert_eq!(fwd.slba, pl);
            prop_assert_eq!(fwd.nlb_blocks(), n);
            let span = PrpPair {
                prp1: fwd.prp1,
                prp2: fwd.prp2,
                len: u64::from(n) * PAGE_SIZE,
            };
            let got: Vec<PciAddr> = span
                .segments(&mut engine.dma_router(&mut host))
                .unwrap()
                .into_iter()
                .map(|(a, _)| a)
                .collect();
            let (off, n) = (off as usize, n as usize);
            let want: Vec<PciAddr> = host_pages[off..off + n]
                .iter()
                .map(|&p| GlobalPrp::tag(p, vf(), false))
                .collect();
            prop_assert_eq!(got, want);
        }
        prop_assert!(fetched.values().all(VecDeque::is_empty), "extra forwarded SQEs");
    }
}
