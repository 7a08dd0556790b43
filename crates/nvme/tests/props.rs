//! Property tests: NVMe and NVMe-MI wire encodings survive arbitrary
//! field values, arbitrary entry, page and payload bytes never panic the
//! decoders, and PRP chains always cover transfers exactly.

use bm_nvme::command::{AdminOpcode, Cqe, IoOpcode, Sqe};
use bm_nvme::identify::{IdentifyController, IdentifyNamespace};
use bm_nvme::log_page::{
    TelemetryLogPage, TELEMETRY_LATENCY_BUCKETS, TELEMETRY_LOG_PAGE_ID, TELEMETRY_LOG_PAGE_LEN,
    TELEMETRY_LOG_VERSION,
};
use bm_nvme::mi::{HealthStatus, MiOpcode, MiRequest, MiResponse, MiStatus};
use bm_nvme::prp::PrpPair;
use bm_nvme::types::{Cid, Lba, Nsid, QueueId};
use bm_nvme::Status;
use bm_pcie::memory::{BLOCK_BYTES, PAGE_SIZE};
use bm_pcie::{HostMemory, PciAddr};
use proptest::prelude::*;

fn io_opcode() -> impl Strategy<Value = IoOpcode> {
    prop_oneof![
        Just(IoOpcode::Read),
        Just(IoOpcode::Write),
        Just(IoOpcode::Flush),
    ]
}

fn admin_opcode() -> impl Strategy<Value = AdminOpcode> {
    prop_oneof![
        Just(AdminOpcode::Identify),
        Just(AdminOpcode::CreateIoSq),
        Just(AdminOpcode::CreateIoCq),
        Just(AdminOpcode::DeleteIoSq),
        Just(AdminOpcode::DeleteIoCq),
        Just(AdminOpcode::SetFeatures),
        Just(AdminOpcode::GetFeatures),
        Just(AdminOpcode::GetLogPage),
        Just(AdminOpcode::FirmwareDownload),
        Just(AdminOpcode::FirmwareCommit),
    ]
}

fn status() -> impl Strategy<Value = Status> {
    prop_oneof![
        Just(Status::Success),
        Just(Status::InvalidOpcode),
        Just(Status::InvalidField),
        Just(Status::LbaOutOfRange),
        Just(Status::InvalidNamespace),
        Just(Status::NamespaceNotReady),
        Just(Status::InternalError),
        Just(Status::Aborted),
        Just(Status::FirmwareNeedsReset),
        Just(Status::InvalidFirmwareSlot),
        Just(Status::InvalidFirmwareImage),
    ]
}

/// Every MI opcode that round-trips. A `Vendor` code below 0xC0 is not a
/// vendor code on the wire: it decodes as a standard opcode or not at
/// all. Nothing builds one, since BM-Store's verbs start at 0xC0, so
/// vendor codes are drawn from 0xC0..=0xFF only.
fn mi_opcode() -> impl Strategy<Value = MiOpcode> {
    prop_oneof![
        Just(MiOpcode::ReadDataStructure),
        Just(MiOpcode::SubsystemHealthPoll),
        Just(MiOpcode::ControllerHealthPoll),
        Just(MiOpcode::ConfigSet),
        Just(MiOpcode::ConfigGet),
        Just(MiOpcode::VpdRead),
        (0xC0u8..=0xFF).prop_map(MiOpcode::Vendor),
    ]
}

fn mi_status() -> impl Strategy<Value = MiStatus> {
    prop_oneof![
        Just(MiStatus::Success),
        Just(MiStatus::InProgress),
        Just(MiStatus::InvalidParameter),
        Just(MiStatus::NotFound),
        Just(MiStatus::Busy),
        Just(MiStatus::InternalError),
    ]
}

proptest! {
    #[test]
    fn telemetry_log_page_round_trips(
        function in any::<u8>(),
        counters in proptest::collection::vec(any::<u64>(), 7),
        outstanding in any::<u32>(),
        peak_outstanding in any::<u32>(),
        buckets in proptest::collection::vec(any::<u64>(), TELEMETRY_LATENCY_BUCKETS),
    ) {
        let page = TelemetryLogPage {
            function,
            reads: counters[0],
            writes: counters[1],
            read_bytes: counters[2],
            write_bytes: counters[3],
            errors: counters[4],
            qos_deferred: counters[5],
            total_latency_ns: counters[6],
            outstanding,
            peak_outstanding,
            latency_buckets: buckets.try_into().unwrap(),
        };
        let bytes = page.to_bytes();
        prop_assert_eq!(bytes.len(), TELEMETRY_LOG_PAGE_LEN);
        prop_assert_eq!(TelemetryLogPage::from_bytes(&bytes), Ok(page));
    }

    #[test]
    fn health_status_round_trips(
        temperature_k in any::<u16>(),
        percent_used in any::<u8>(),
        available_spare in any::<u8>(),
        critical_warning in any::<u8>(),
    ) {
        let health = HealthStatus {
            temperature_k,
            percent_used,
            available_spare,
            critical_warning,
        };
        prop_assert_eq!(HealthStatus::from_bytes(&health.to_bytes()), Ok(health));
    }

    #[test]
    fn mi_frames_round_trip(
        opcode in mi_opcode(),
        status in mi_status(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let request = MiRequest { opcode, payload: payload.clone() };
        prop_assert_eq!(MiRequest::from_bytes(&request.to_bytes()), Ok(request));
        let response = MiResponse { status, payload };
        prop_assert_eq!(MiResponse::from_bytes(&response.to_bytes()), Ok(response));
    }

    #[test]
    fn io_sqe_round_trips(
        op in io_opcode(),
        cid in any::<u16>(),
        nsid in 1u32..0xFFFF_FFFE,
        slba in 0u64..(1 << 48),
        nblocks in 1u32..=65_536,
        prp1 in 0u64..(1 << 48),
        prp2 in 0u64..(1 << 48),
    ) {
        let sqe = Sqe::io(
            op,
            Cid(cid),
            Nsid::new(nsid).unwrap(),
            Lba(slba),
            nblocks,
            PciAddr::new(prp1),
            PciAddr::new(prp2),
        );
        let back = Sqe::from_bytes(&sqe.to_bytes()).unwrap();
        prop_assert_eq!(back, sqe);
        prop_assert_eq!(back.nlb_blocks(), nblocks);
    }

    #[test]
    fn admin_sqe_round_trips(
        op in admin_opcode(),
        cid in any::<u16>(),
        cdw10 in any::<u32>(),
        cdw11 in any::<u32>(),
        prp1 in 0u64..(1 << 48),
    ) {
        let mut sqe = Sqe::admin(op, Cid(cid), cdw10, PciAddr::new(prp1));
        sqe.cdw11 = cdw11;
        let back = Sqe::from_bytes_admin(&sqe.to_bytes()).unwrap();
        prop_assert_eq!(back, sqe);
    }

    #[test]
    fn cqe_round_trips(
        result in any::<u32>(),
        sq_head in any::<u16>(),
        sq_id in any::<u16>(),
        cid in any::<u16>(),
        phase in any::<bool>(),
        status in status(),
    ) {
        let cqe = Cqe {
            result,
            sq_head,
            sq_id: QueueId(sq_id),
            cid: Cid(cid),
            phase,
            status,
        };
        prop_assert_eq!(Cqe::from_bytes(&cqe.to_bytes()), cqe);
    }

    #[test]
    fn prp_segments_cover_transfer_exactly(
        offset in 0u64..PAGE_SIZE,
        len in 1u64..(1 << 20),
        blocks in 0u32..20,
    ) {
        let mut mem = HostMemory::new(8 << 20);
        // Blocks carved before the build put a short list at any offset
        // of its page.
        for _ in 0..blocks {
            mem.alloc_block().unwrap();
        }
        let base = mem.alloc(len + 2 * PAGE_SIZE).unwrap();
        let buf = base + offset;
        let prp = PrpPair::build(&mut mem, buf, len);
        let segs = prp.segments(&mut mem).unwrap();
        // Segments cover exactly [buf, buf + len), contiguously, with
        // every non-first segment page aligned.
        prop_assert_eq!(segs[0].0, buf);
        let total: u64 = segs.iter().map(|s| s.1).sum();
        prop_assert_eq!(total, len);
        let mut cursor = buf;
        for (i, (addr, n)) in segs.iter().enumerate() {
            prop_assert_eq!(*addr, cursor, "segment {} contiguity", i);
            if i > 0 {
                prop_assert_eq!(addr.page_offset(PAGE_SIZE), 0);
            }
            prop_assert!(*n <= PAGE_SIZE);
            cursor = *addr + *n;
        }
        prop_assert_eq!(prp.entry_count() as usize, segs.len());
        // A list never crosses a page: a short one sits in one block,
        // a long one starts a page of its own.
        if prp.uses_list() {
            let list_bytes = (segs.len() as u64 - 1) * 8;
            let last = prp.prp2 + (list_bytes - 1);
            if list_bytes <= BLOCK_BYTES {
                prop_assert_eq!(prp.prp2.page_base(PAGE_SIZE), last.page_base(PAGE_SIZE));
            } else {
                prop_assert_eq!(prp.prp2.page_offset(PAGE_SIZE), 0);
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_entry_decoders(
        sqe in proptest::collection::vec(any::<u8>(), 64),
        cqe in proptest::collection::vec(any::<u8>(), 16),
        page in proptest::collection::vec(any::<u8>(), 0..4200),
    ) {
        let sqe: [u8; 64] = sqe.try_into().unwrap();
        let cqe: [u8; 16] = cqe.try_into().unwrap();
        // Decoding is total: an entry either parses or is rejected with
        // a status, and every CQE decodes to some completion.
        let _ = Sqe::from_bytes(&sqe);
        let _ = Sqe::from_bytes_admin(&sqe);
        let _ = Cqe::from_bytes(&cqe);
        // Pages and payloads of any length either parse or are rejected.
        let _ = IdentifyController::from_page(&page);
        let _ = IdentifyNamespace::from_page(&page);
        let _ = HealthStatus::from_bytes(&page);
        let _ = TelemetryLogPage::from_bytes(&page);
        // With a valid header the telemetry page reaches its field reads.
        let mut log = page;
        if let [id, version, ..] = &mut log[..] {
            *id = TELEMETRY_LOG_PAGE_ID;
            *version = TELEMETRY_LOG_VERSION;
        }
        let _ = TelemetryLogPage::from_bytes(&log);
    }

    #[test]
    fn unknown_io_opcodes_always_rejected(op in 3u8..=255) {
        let mut bytes = [0u8; 64];
        bytes[0] = op;
        prop_assert_eq!(Sqe::from_bytes(&bytes), Err(Status::InvalidOpcode));
    }
}
