//! Standalone replays that time one layer's public API from outside,
//! with the (operation, blocks, queue depth) mix a workload's untraced
//! repetition recorded. Each replay drives the layer the way the
//! testbed does but without the event loop, so the time it reports
//! belongs to that layer alone.

use crate::Record;
use bm_nvme::command::{CQE_SIZE, SQE_SIZE};
use bm_nvme::prp::PrpPair;
use bm_nvme::{Cid, SubmissionQueue};
use bm_nvme::{CompletionQueue, Cqe, DoorbellLayout, IoOpcode, Lba, Nsid, QueueId, Sqe};
use bm_pcie::{FunctionId, HostMemory, PciAddr};
use bm_sim::{Scheduler, SimDuration, SimRng, SimTime, Simulation};
use bm_ssd::{Ssd, SsdConfig, SsdId};
use bmstore_core::engine::{BmsEngine, EngineAction, EngineConfig};
use bmstore_core::Placement;
use std::collections::VecDeque;
use std::time::Instant;

/// The host ring depth every replay uses (the testbed default).
const RING_ENTRIES: u16 = 2048;

/// A workload's recorded request mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    /// (opcode, blocks, requests seen).
    entries: Vec<(IoOpcode, u32, u64)>,
    total: u64,
    /// Commands submitted together: the deepest per-device queue the
    /// workload kept, capped by the host ring.
    pub depth: usize,
}

impl Mix {
    /// Reads the `mix.<op>.<blocks>` and `max_qd` entries of a record.
    pub fn from_record(r: &Record) -> Option<Mix> {
        let mut entries = Vec::new();
        for (k, &n) in r.range("mix.".to_string()..) {
            let Some(rest) = k.strip_prefix("mix.") else {
                break;
            };
            let (op, blocks) = rest.split_once('.')?;
            let op = match op {
                "r" => IoOpcode::Read,
                "w" => IoOpcode::Write,
                "f" => IoOpcode::Flush,
                _ => return None,
            };
            entries.push((op, blocks.parse().ok()?, n as u64));
        }
        let total = entries.iter().map(|e| e.2).sum();
        let qd = *r.get("max_qd")? as usize;
        (total > 0).then_some(Mix {
            entries,
            total,
            depth: qd.clamp(1, RING_ENTRIES as usize - 1),
        })
    }

    fn max_blocks(&self) -> u32 {
        self.entries.iter().map(|e| e.1).max().unwrap_or(1)
    }

    fn sample(&self, rng: &mut SimRng) -> (IoOpcode, u32) {
        let mut pick = rng.below(self.total);
        for &(op, blocks, n) in &self.entries {
            if pick < n {
                return (op, blocks);
            }
            pick -= n;
        }
        (IoOpcode::Read, 1)
    }
}

/// Per-slot data buffers with prebuilt PRPs, as the testbed registers
/// them.
fn buffers(mem: &mut HostMemory, slots: usize, blocks: u32) -> Vec<PrpPair> {
    let bytes = blocks as u64 * 4096;
    (0..slots)
        .map(|_| {
            let buf = mem.alloc(bytes).expect("replay buffer memory");
            PrpPair::build(mem, buf, bytes)
        })
        .collect()
}

/// One command for `slot`, at a random block-aligned LBA below `blocks_total`.
fn sqe(mix: &Mix, rng: &mut SimRng, slot: usize, prp: &PrpPair, blocks_total: u64) -> Sqe {
    let (op, blocks) = mix.sample(rng);
    let lba = rng.below(blocks_total / blocks as u64) * blocks as u64;
    let (prp1, prp2) = match op {
        IoOpcode::Flush => (PciAddr::NULL, PciAddr::NULL),
        _ => (prp.prp1, prp.prp2),
    };
    Sqe::io(
        op,
        Cid(slot as u16),
        Nsid::ONE,
        Lba(lba),
        blocks,
        prp1,
        prp2,
    )
}

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Fastest of `rounds` calls of `f`, each returning ns per unit.
fn best<const N: usize>(rounds: usize, mut f: impl FnMut() -> [f64; N]) -> [f64; N] {
    let mut best = [f64::INFINITY; N];
    for _ in 0..rounds {
        for (b, v) in best.iter_mut().zip(f()) {
            *b = b.min(v);
        }
    }
    best
}

/// Scheduler churn at a standing population of `population` events:
/// every event reschedules itself 1–64 µs ahead. Returns ns per event.
pub fn sched_ns_per_event(population: usize, seed: u64, events: u64) -> f64 {
    struct Churn {
        rng: SimRng,
    }
    fn fire(w: &mut Churn, s: &mut Scheduler<Churn>) {
        let delay = SimDuration::from_nanos(1_000 + w.rng.below(63_000));
        s.schedule_in(delay, fire);
    }
    best(3, || {
        let mut sim = Simulation::new(Churn {
            rng: SimRng::seed_from(seed),
        });
        for i in 0..population.max(1) as u64 {
            sim.schedule_at(SimTime::from_nanos(i), fire);
        }
        let t = Instant::now();
        for _ in 0..events {
            sim.step();
        }
        [ns_since(t) / events as f64]
    })[0]
}

/// NVMe ring protocol: host SQ push, device fetch, device CQ post and
/// host poll, a queue depth at a time. Returns ns per SQE.
pub fn nvme_ns_per_sqe(mix: &Mix, seed: u64, cmds: usize) -> f64 {
    best(3, || {
        let mut mem = HostMemory::new(64 << 20);
        let sq_base = mem.alloc(RING_ENTRIES as u64 * SQE_SIZE).expect("ring");
        let cq_base = mem.alloc(RING_ENTRIES as u64 * CQE_SIZE).expect("ring");
        let mut host_sq = SubmissionQueue::new(QueueId(1), sq_base, RING_ENTRIES);
        let mut dev_sq = SubmissionQueue::new(QueueId(1), sq_base, RING_ENTRIES);
        let mut dev_cq = CompletionQueue::new(QueueId(1), cq_base, RING_ENTRIES);
        let mut host_cq = CompletionQueue::new(QueueId(1), cq_base, RING_ENTRIES);
        let mut rng = SimRng::seed_from(seed);
        let prp = PrpPair {
            prp1: PciAddr::new(0x10_0000),
            prp2: PciAddr::NULL,
            len: 4096,
        };
        let sqes: Vec<Sqe> = (0..mix.depth)
            .map(|slot| sqe(mix, &mut rng, slot, &prp, 1 << 30))
            .collect();
        let mut done = 0;
        let t = Instant::now();
        while done < cmds {
            for s in &sqes {
                host_sq.push(&mut mem, s).expect("ring sized above depth");
            }
            dev_sq
                .doorbell_tail(host_sq.tail() as u32)
                .expect("tail in range");
            while let Ok(Some(s)) = dev_sq.fetch(&mut mem) {
                let cqe = Cqe::success(s.cid, QueueId(1), dev_sq.head(), false);
                dev_cq.post(&mut mem, cqe).expect("cq sized above depth");
            }
            while host_cq.poll(&mut mem).is_some() {
                host_sq.retire();
            }
            dev_cq
                .doorbell_head(host_cq.head() as u32)
                .expect("head in range");
            done += sqes.len();
        }
        [ns_since(t) / done as f64]
    })[0]
}

/// Host memory, one SSD and its attached rings, as the direct schemes
/// wire them.
struct SsdRig {
    mem: HostMemory,
    ssd: Ssd,
    host_sq: SubmissionQueue,
    host_cq: CompletionQueue,
}

fn ssd_rig() -> SsdRig {
    let mut mem = HostMemory::new(8 << 30);
    let mut ssd = Ssd::new(SsdConfig::p4510_2tb(SsdId(0)));
    let sq_base = mem.alloc(RING_ENTRIES as u64 * SQE_SIZE).expect("ring");
    let cq_base = mem.alloc(RING_ENTRIES as u64 * CQE_SIZE).expect("ring");
    ssd.attach_io_queues(
        SubmissionQueue::new(QueueId(1), sq_base, RING_ENTRIES),
        CompletionQueue::new(QueueId(1), cq_base, RING_ENTRIES),
    );
    SsdRig {
        mem,
        ssd,
        host_sq: SubmissionQueue::new(QueueId(1), sq_base, RING_ENTRIES),
        host_cq: CompletionQueue::new(QueueId(1), cq_base, RING_ENTRIES),
    }
}

/// SSD model: `ring_sq_doorbell`, `deliver_read_payload`,
/// `post_completion` and `ring_cq_doorbell`, a queue depth at a time.
/// Ring pushes and polls are not counted. Returns ns per I/O.
pub fn ssd_ns_per_io(mix: &Mix, seed: u64, cmds: usize) -> f64 {
    best(3, || {
        let mut rig = ssd_rig();
        let blocks_total = rig.ssd.namespace().blocks();
        let bufs = buffers(&mut rig.mem, mix.depth, mix.max_blocks());
        let mut rng = SimRng::seed_from(seed);
        let mut now = SimTime::ZERO;
        let (mut ns, mut done) = (0.0, 0);
        while done < cmds {
            for (slot, prp) in bufs.iter().enumerate() {
                let s = sqe(mix, &mut rng, slot, prp, blocks_total);
                rig.host_sq
                    .push(&mut rig.mem, &s)
                    .expect("ring sized above depth");
            }
            let tail = rig.host_sq.tail() as u32;
            let t = Instant::now();
            let ios = rig
                .ssd
                .ring_sq_doorbell(now, QueueId(1), tail, &mut rig.mem);
            for io in &ios {
                Ssd::deliver_read_payload(io, &mut rig.mem);
                rig.ssd
                    .post_completion(io, &mut rig.mem)
                    .expect("cq sized above depth");
            }
            ns += ns_since(t);
            while rig.host_cq.poll(&mut rig.mem).is_some() {
                rig.host_sq.retire();
            }
            let head = rig.host_cq.head() as u32;
            let t = Instant::now();
            rig.ssd.ring_cq_doorbell(QueueId(1), head);
            ns += ns_since(t);
            now = ios.iter().map(|io| io.at).max().unwrap_or(now);
            done += ios.len();
        }
        [ns / done as f64]
    })[0]
}

/// BMS-Engine wired to four real SSDs the way the BM-Store scheme
/// builds it, one function on a round-robin 256 GB namespace. Times
/// the host doorbell (fetch, map, forward), backend completion (drain,
/// fan-in) and host completion (CQE post plus CQ head doorbell) calls.
/// Returns ns per command for each, in that order.
pub fn engine_ns_per_cmd(mix: &Mix, seed: u64, cmds: usize) -> [f64; 3] {
    const SSDS: usize = 4;
    const NAMESPACE_BYTES: u64 = 256 << 30;
    best(3, || {
        let mut host = HostMemory::new(8 << 30);
        let mut engine = BmsEngine::new(EngineConfig::paper_default(SSDS));
        let mut ssds: Vec<Ssd> = (0..SSDS)
            .map(|i| {
                let mut ssd = Ssd::new(SsdConfig::p4510_2tb(SsdId(i as u8)));
                let (sq, cq) = engine.ssd_rings(SsdId(i as u8));
                ssd.attach_io_queues(sq, cq);
                ssd
            })
            .collect();
        let func = FunctionId::new(0).expect("function 0 exists");
        engine
            .bind_namespace(func, NAMESPACE_BYTES, Placement::RoundRobin)
            .expect("namespace fits the back-end");
        engine.set_function_enabled(func, true);
        let sq_base = host.alloc(RING_ENTRIES as u64 * SQE_SIZE).expect("ring");
        let cq_base = host.alloc(RING_ENTRIES as u64 * CQE_SIZE).expect("ring");
        let qid = QueueId(1);
        engine
            .function_mut(func)
            .create_io_cq(qid, cq_base, RING_ENTRIES);
        engine
            .function_mut(func)
            .create_io_sq(qid, sq_base, RING_ENTRIES);
        let mut host_sq = SubmissionQueue::new(qid, sq_base, RING_ENTRIES);
        let mut host_cq = CompletionQueue::new(qid, cq_base, RING_ENTRIES);
        let bufs = buffers(&mut host, mix.depth, mix.max_blocks());
        let mut rng = SimRng::seed_from(seed);
        let mut now = SimTime::ZERO;
        let mut ns = [0.0; 3];
        let mut done = 0;
        let mut queue = VecDeque::new();
        let mut completions = Vec::new();
        while done < cmds {
            let before = done;
            for (slot, prp) in bufs.iter().enumerate() {
                let s = sqe(mix, &mut rng, slot, prp, NAMESPACE_BYTES / 4096);
                host_sq.push(&mut host, &s).expect("ring sized above depth");
            }
            let tail = host_sq.tail() as u32;
            let t = Instant::now();
            queue.extend(engine.host_doorbell_write(
                now,
                func,
                DoorbellLayout::sq_tail_offset(qid),
                tail,
                &mut host,
            ));
            ns[0] += ns_since(t);
            while let Some(action) = queue.pop_front() {
                match action {
                    EngineAction::BackendDoorbell { ssd, tail, at } => {
                        now = now.max(at);
                        let dev = &mut ssds[ssd.0 as usize];
                        {
                            let mut router = engine.dma_router(&mut host);
                            let ios = dev.ring_sq_doorbell(now, QueueId(1), tail, &mut router);
                            for io in &ios {
                                Ssd::deliver_read_payload(io, &mut router);
                                dev.post_completion(io, &mut router)
                                    .expect("backend cq room");
                                now = now.max(io.at);
                            }
                        }
                        let t = Instant::now();
                        let (actions, head) = engine.on_backend_completion(now, ssd, &mut host);
                        ns[1] += ns_since(t);
                        dev.ring_cq_doorbell(QueueId(1), head);
                        queue.extend(actions);
                    }
                    // Host completions start nothing further; post them
                    // together below so one clock read covers them all.
                    EngineAction::HostCompletion {
                        func,
                        qid,
                        cid,
                        status,
                        at,
                    } => {
                        now = now.max(at);
                        completions.push((func, qid, cid, status));
                    }
                    EngineAction::QosWakeup { .. } | EngineAction::CommandDeadline { .. } => {}
                }
            }
            let t = Instant::now();
            for (func, qid, cid, status) in completions.drain(..) {
                let posted = engine.deliver_host_completion(func, qid, cid, status, &mut host);
                assert!(posted, "host cq sized above depth");
            }
            ns[2] += ns_since(t);
            while host_cq.poll(&mut host).is_some() {
                host_sq.retire();
                done += 1;
            }
            assert_eq!(done - before, bufs.len(), "engine completes every command");
            let head = host_cq.head() as u32;
            let t = Instant::now();
            let _ = engine.host_doorbell_write(
                now,
                func,
                DoorbellLayout::cq_head_offset(qid),
                head,
                &mut host,
            );
            ns[2] += ns_since(t);
        }
        ns.map(|v| v / done as f64)
    })
}
