//! Scheme equivalence: the same seeded workload pushed through every
//! [`Scheme`](bm_testbed::Scheme) implementation must
//!
//! * read back byte-identical data (payload integrity is a property of
//!   the pipeline, not of any one scheme),
//! * complete in a deterministic order — repeating a run with the same
//!   seed reproduces the exact completion sequence, and every scheme
//!   completes the same set of commands, and
//! * traverse all five observable pipeline stages exactly once per
//!   command (submit → translate → doorbell → backend → complete).

use bm_nvme::types::Lba;
use bm_sim::SimTime;
use bm_ssd::DataMode;
use bm_testbed::{
    BufferId, Client, ClientOutput, Completion, DeviceId, IoOp, IoRequest, PipelineStage,
    SchemeKind, Testbed, TestbedConfig, World,
};
use proptest::prelude::*;

const ALL_SCHEMES: [SchemeKind; 6] = [
    SchemeKind::Native,
    SchemeKind::Vfio,
    SchemeKind::BmStore { in_vm: false },
    SchemeKind::BmStore { in_vm: true },
    SchemeKind::SpdkVhost { cores: 1 },
    SchemeKind::ArmOffload,
];

/// Writes one distinct pattern per LBA, then (after all writes land)
/// reads every LBA back into its own buffer, recording completion
/// order by tag.
struct WriteAllReadAll {
    lbas: Vec<u64>,
    wbufs: Vec<BufferId>,
    rbufs: Vec<BufferId>,
    writes_done: usize,
    order: Vec<u64>,
}

impl WriteAllReadAll {
    fn io(&self, i: usize, read: bool) -> IoRequest {
        IoRequest {
            dev: DeviceId(0),
            op: if read { IoOp::Read } else { IoOp::Write },
            lba: Lba(self.lbas[i]),
            blocks: 1,
            buf: if read { self.rbufs[i] } else { self.wbufs[i] },
            tag: if read { self.lbas.len() + i } else { i } as u64,
        }
    }
}

impl Client for WriteAllReadAll {
    fn start(&mut self, _now: SimTime) -> ClientOutput {
        ClientOutput::submit((0..self.lbas.len()).map(|i| self.io(i, false)).collect())
    }

    fn on_completion(&mut self, _now: SimTime, c: Completion) -> ClientOutput {
        assert!(c.status.is_success(), "I/O failed: {}", c.status);
        self.order.push(c.tag);
        if c.is_write {
            self.writes_done += 1;
            if self.writes_done == self.lbas.len() {
                // Barrier reached: every write is durable; read all back.
                return ClientOutput::submit(
                    (0..self.lbas.len()).map(|i| self.io(i, true)).collect(),
                );
            }
        }
        ClientOutput::idle()
    }
}

/// One deterministic pattern per (seed, index) so mismatches identify
/// the command that corrupted data.
fn pattern(seed: u64, i: usize) -> Vec<u8> {
    (0..4096u64)
        .map(|b| {
            (seed
                .wrapping_mul(31)
                .wrapping_add(i as u64 * 131)
                .wrapping_add(b * 7)
                % 251) as u8
        })
        .collect()
}

struct RunResult {
    /// Completion order, as tags.
    order: Vec<u64>,
    /// Read-back bytes per LBA index.
    readback: Vec<Vec<u8>>,
    /// The world's counts for the five pipeline stages.
    stage_counts: [u64; 5],
}

fn run_workload(scheme: SchemeKind, seed: u64, lbas: &[u64]) -> RunResult {
    let cfg = match scheme {
        SchemeKind::Native => TestbedConfig::native(1),
        SchemeKind::BmStore { in_vm: false } => TestbedConfig::bm_store_bare_metal(1),
        other => TestbedConfig::single_vm(other),
    }
    .with_seed(seed)
    .with_data_mode(DataMode::Full);
    let mut tb = Testbed::new(cfg);
    let mut wbufs = Vec::new();
    let mut rbufs = Vec::new();
    for i in 0..lbas.len() {
        let wbuf = tb.register_buffer(4096);
        tb.host_mem.write(tb.buffer_addr(wbuf), &pattern(seed, i));
        wbufs.push(wbuf);
        rbufs.push(tb.register_buffer(4096));
    }
    let client = WriteAllReadAll {
        lbas: lbas.to_vec(),
        wbufs,
        rbufs: rbufs.clone(),
        writes_done: 0,
        order: Vec::new(),
    };
    let mut world = World::new(tb);
    let id = world.add_client(Box::new(client));
    let mut world = world.run(None);
    let readback = rbufs
        .iter()
        .map(|&buf| world.tb.host_mem.read_vec(world.tb.buffer_addr(buf), 4096))
        .collect();
    let stage_counts = PipelineStage::ALL.map(|stage| world.stage_count(stage));
    let order = world
        .client_as::<WriteAllReadAll>(id)
        .expect("the client is a WriteAllReadAll")
        .order
        .clone();
    RunResult {
        order,
        readback,
        stage_counts,
    }
}

fn check_equivalence(seed: u64, lbas: &[u64]) {
    let total = 2 * lbas.len() as u64;
    let expected_tags: Vec<u64> = (0..total).collect();
    for scheme in ALL_SCHEMES {
        let a = run_workload(scheme.clone(), seed, lbas);
        // (a) Byte-identical read-back on every scheme.
        for (i, got) in a.readback.iter().enumerate() {
            assert_eq!(
                got,
                &pattern(seed, i),
                "readback mismatch under {scheme:?} (lba {})",
                lbas[i]
            );
        }
        // (b) Every command completed, and a re-run with the same seed
        // reproduces the completion order exactly.
        let mut sorted = a.order.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted, expected_tags,
            "lost/duplicate completions under {scheme:?}"
        );
        let b = run_workload(scheme.clone(), seed, lbas);
        assert_eq!(
            a.order, b.order,
            "non-deterministic completion order under {scheme:?}"
        );
        // (c) Each command traversed every pipeline stage exactly once.
        assert_eq!(
            a.stage_counts, [total; 5],
            "pipeline stage traversal under {scheme:?}"
        );
    }
}

#[test]
fn all_schemes_equivalent_on_fixed_workload() {
    check_equivalence(7, &[0, 1, 97, 4096, 99_999]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Randomized seeds and LBA sets: every scheme round-trips the
    /// bytes, completes deterministically, and hits all five stages.
    #[test]
    fn equivalence_holds_for_random_workloads(
        seed in 1u64..10_000,
        raw in proptest::collection::vec(0u64..100_000, 1..8),
    ) {
        let mut lbas = raw.clone();
        lbas.sort_unstable();
        lbas.dedup();
        check_equivalence(seed, &lbas);
    }
}
