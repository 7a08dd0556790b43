//! End-to-end data integrity through every scheme.
//!
//! With `DataMode::Full`, payload bytes genuinely move: the client
//! writes a pattern into a host buffer, the write command carries it
//! through the scheme's whole path (for BM-Store: SQE fetch, LBA
//! mapping, global-PRP tagging, back-end rings in chip memory, and the
//! DMA router) into the SSD's block store, and a read brings it back
//! into a different buffer. Comparing buffers validates the zero-copy
//! machinery end to end.

use bmstore::nvme::types::Lba;
use bmstore::nvme::Status;
use bmstore::sim::SimTime;
use bmstore::ssd::DataMode;
use bmstore::testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, SchemeKind, Testbed,
    TestbedConfig, World,
};
use std::cell::RefCell;
use std::rc::Rc;

/// Writes from `wbuf`, then, if the write succeeded, reads the same
/// LBAs into `rbuf`. Logs each completion's status.
struct WriteThenRead {
    dev: DeviceId,
    lba: Lba,
    blocks: u32,
    wbuf: BufferId,
    rbuf: BufferId,
    statuses: Rc<RefCell<Vec<Status>>>,
}

impl Client for WriteThenRead {
    fn start(&mut self, _now: SimTime) -> ClientOutput {
        ClientOutput::submit(vec![IoRequest {
            dev: self.dev,
            op: IoOp::Write,
            lba: self.lba,
            blocks: self.blocks,
            buf: self.wbuf,
            tag: 1,
        }])
    }

    fn on_completion(&mut self, _now: SimTime, c: Completion) -> ClientOutput {
        self.statuses.borrow_mut().push(c.status);
        if c.tag == 1 && c.status.is_success() {
            ClientOutput::submit(vec![IoRequest {
                dev: self.dev,
                op: IoOp::Read,
                lba: self.lba,
                blocks: self.blocks,
                buf: self.rbuf,
                tag: 2,
            }])
        } else {
            ClientOutput::idle()
        }
    }
}

fn round_trip(scheme: SchemeKind, blocks: u32, lba: u64) {
    let cfg = match &scheme {
        SchemeKind::BmStore { in_vm: false } => TestbedConfig::bm_store_bare_metal(4),
        _ => TestbedConfig::single_vm(scheme.clone()),
    }
    .with_data_mode(DataMode::Full);
    let mut tb = Testbed::new(cfg);
    let bytes = blocks as u64 * 4096;
    let wbuf = tb.register_buffer(bytes);
    let rbuf = tb.register_buffer(bytes);
    let pattern: Vec<u8> = (0..bytes).map(|i| (i * 7 % 251) as u8).collect();
    tb.host_mem.write(tb.buffer_addr(wbuf), &pattern);

    let statuses = Rc::new(RefCell::new(Vec::new()));
    let client = WriteThenRead {
        dev: DeviceId(0),
        lba: Lba(lba),
        blocks,
        wbuf,
        rbuf,
        statuses: Rc::clone(&statuses),
    };
    let mut world = World::new(tb);
    world.add_client(Box::new(client));
    let mut world = world.run(None);
    assert_eq!(
        *statuses.borrow(),
        [Status::Success; 2],
        "both I/Os succeeded ({scheme:?})"
    );
    let got = world
        .tb
        .host_mem
        .read_vec(world.tb.buffer_addr(rbuf), bytes);
    assert_eq!(got, pattern, "data mismatch under {scheme:?}");
}

#[test]
fn native_round_trip() {
    round_trip(SchemeKind::Native, 8, 1000);
}

#[test]
fn vfio_round_trip() {
    round_trip(SchemeKind::Vfio, 8, 1000);
}

#[test]
fn bm_store_bare_metal_round_trip_small() {
    round_trip(SchemeKind::BmStore { in_vm: false }, 1, 0);
}

#[test]
fn bm_store_bare_metal_round_trip_two_pages() {
    round_trip(SchemeKind::BmStore { in_vm: false }, 2, 123_456);
}

#[test]
fn bm_store_round_trip_with_prp_list() {
    // 128 KiB: the engine must fetch and retag a PRP list.
    round_trip(SchemeKind::BmStore { in_vm: false }, 32, 999_999);
}

#[test]
fn bm_store_round_trip_with_a_full_short_prp_list() {
    // 33 pages: PRP1 plus 32 entries, which exactly fill the 256-byte
    // blocks the host list and the engine's chip slot are carved from.
    round_trip(SchemeKind::BmStore { in_vm: false }, 33, 4_242);
}

#[test]
fn bm_store_round_trip_with_the_shortest_page_prp_list() {
    // 34 pages: 33 entries, the first list too long for a block, so it
    // takes a host page and the command's 4 KiB chip slot.
    round_trip(SchemeKind::BmStore { in_vm: false }, 34, 77_777);
}

#[test]
fn bm_store_vm_round_trip() {
    round_trip(SchemeKind::BmStore { in_vm: true }, 16, 42);
}

#[test]
fn spdk_round_trip() {
    round_trip(SchemeKind::SpdkVhost { cores: 1 }, 8, 500);
}

#[test]
fn bm_store_round_trip_across_chunk_boundary() {
    // A 1536 GB binding has 64 GiB chunks; LBAs around the first chunk
    // boundary exercise the engine's command split + fan-out.
    let chunk_blocks = (64u64 << 30) / 4096;
    round_trip(SchemeKind::BmStore { in_vm: false }, 32, chunk_blocks - 16);
}

#[test]
fn bm_store_zero_copy_routes_bytes_through_router() {
    // The engine's routing statistics must show host-bound traffic and
    // zero engine-buffered payload (no copy path exists).
    let cfg = TestbedConfig::bm_store_bare_metal(1).with_data_mode(DataMode::Full);
    let mut tb = Testbed::new(cfg);
    let bytes = 8 * 4096u64;
    let wbuf = tb.register_buffer(bytes);
    let rbuf = tb.register_buffer(bytes);
    let pattern = vec![0xA7u8; bytes as usize];
    tb.host_mem.write(tb.buffer_addr(wbuf), &pattern);
    let statuses = Rc::new(RefCell::new(Vec::new()));
    let client = WriteThenRead {
        dev: DeviceId(0),
        lba: Lba(77),
        blocks: 8,
        wbuf,
        rbuf,
        statuses: Rc::clone(&statuses),
    };
    let mut world = World::new(tb);
    world.add_client(Box::new(client));
    let world = world.run(None);
    assert_eq!(
        *statuses.borrow(),
        [Status::Success; 2],
        "both I/Os succeeded"
    );
    let stats = world.tb.engine().expect("BM-Store scheme").routing_stats();
    assert_eq!(stats.bytes_from_host, bytes, "write payload routed");
    assert_eq!(stats.bytes_to_host, bytes, "read payload routed");
    assert_eq!(stats.dropped, 0);
}

/// Writes a distinct pattern of each size to one BM-Store SSD, all at
/// once (one client per write), and reads back each write that
/// succeeded. Returns, per write, its completion statuses and whether
/// its bytes came back intact.
fn concurrent_writes(sizes: &[u32]) -> Vec<(Vec<Status>, bool)> {
    let cfg = TestbedConfig::bm_store_bare_metal(1).with_data_mode(DataMode::Full);
    let mut tb = Testbed::new(cfg);
    let mut clients = Vec::new();
    let mut checks = Vec::new();
    let mut lba = 0;
    for (i, &blocks) in sizes.iter().enumerate() {
        let bytes = u64::from(blocks) * 4096;
        let (wbuf, rbuf) = (tb.register_buffer(bytes), tb.register_buffer(bytes));
        let pattern: Vec<u8> = (0..bytes)
            .map(|j| ((j * 7 + i as u64 * 101) % 251) as u8)
            .collect();
        tb.host_mem.write(tb.buffer_addr(wbuf), &pattern);
        let statuses = Rc::new(RefCell::new(Vec::new()));
        clients.push(WriteThenRead {
            dev: DeviceId(0),
            lba: Lba(lba),
            blocks,
            wbuf,
            rbuf,
            statuses: Rc::clone(&statuses),
        });
        checks.push((statuses, rbuf, pattern));
        lba += u64::from(blocks);
    }
    let mut world = World::new(tb);
    for client in clients {
        world.add_client(Box::new(client));
    }
    let mut world = world.run(None);
    checks
        .into_iter()
        .map(|(statuses, rbuf, pattern)| {
            let addr = world.tb.buffer_addr(rbuf);
            let intact = world.tb.host_mem.read_vec(addr, pattern.len() as u64) == pattern;
            (statuses.take(), intact)
        })
        .collect()
}

#[test]
fn bm_store_rejects_a_transfer_longer_than_its_prp_list_slot() {
    // Each forwarded command has a one-page PRP-list slot in chip
    // memory for lists too long for its 256-byte one: PRP1 plus 512
    // entries, 513 pages. A 600-page write must
    // fail instead of spilling its list into the concurrent write's
    // slot, and the concurrent write must still round-trip.
    let got = concurrent_writes(&[600, 3]);
    assert_eq!(got[0], (vec![Status::InvalidField], false));
    assert_eq!(got[1], (vec![Status::Success; 2], true));
}

#[test]
fn bm_store_keeps_lists_either_side_of_the_block_limit_apart() {
    // A 33-entry list beside a 32-entry one and a 2-entry one: each
    // list sits in a slot its length fits, so none spills into a
    // neighbour's block and all three round-trip.
    let got = concurrent_writes(&[34, 33, 3]);
    for (i, write) in got.iter().enumerate() {
        assert_eq!(*write, (vec![Status::Success; 2], true), "write {i}");
    }
}

#[test]
fn bm_store_round_trip_at_the_prp_list_slot_limit() {
    round_trip(SchemeKind::BmStore { in_vm: false }, 513, 0);
}
