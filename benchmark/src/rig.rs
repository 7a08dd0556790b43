//! The five workloads, the counting client wrapper that every workload
//! client runs inside, and one repetition of a workload.
//!
//! The benchmark builds every client itself through the workload
//! crate's public constructors, so `--seed` reaches each one, and wraps
//! it in `Counted`, which counts what the simulated host submits and
//! gets back without trusting the clients' own statistics.

use crate::Record;
use bm_sim::faults::{FaultKind, FaultPlan};
use bm_sim::slo::{SloConfig, SloSpec};
use bm_sim::stats::{IoStats, LatencyHistogram};
use bm_sim::{SimDuration, SimRng, SimTime};
use bm_testbed::{
    Client, ClientOutput, Completion, DeviceId, DeviceSpec, IoOp, SchemeKind, Testbed,
    TestbedConfig, World,
};
use bm_workloads::fio::{FioJob, FioSpec, RwMode};
use bm_workloads::kvstore::{KvClient, KvStats, LsmConfig};
use bm_workloads::oltp::{OltpClient, OltpSpec, OltpStats};
use bm_workloads::ycsb::YcsbSpec;
use bmstore_core::FailPolicy;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// One benchmark workload: a fixed testbed layout and client mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    layout: fn(seed: u64) -> Plan,
}

impl Workload {
    /// No fault is injected, so every command must succeed.
    pub fn fault_free(&self) -> bool {
        (self.layout)(0).cfg.fault_plan.is_empty()
    }
}

/// Every workload, in the order `run` starts its first round with.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bm-4k-randread",
        why: "BM-Store engine per-command path at the highest command rate: 4 VMs, 4K random reads, no fan-out, no PRP lists",
        layout: |_| Plan {
            cfg: TestbedConfig::multi_vm_bm_store(4),
            clients: Clients::Fio(fio(RwMode::RandRead, 4096, 128, 50, 300)),
        },
    },
    Workload {
        name: "bm-128k-seqread",
        why: "128K sequential reads on 4 bare-metal SSDs: 32-entry PRP lists and a 4096-deep event queue, the slowest figure case",
        layout: |_| Plan {
            cfg: TestbedConfig::bm_store_bare_metal(4),
            clients: Clients::Fio(fio(RwMode::SeqRead, 128 * 1024, 256, 400, 1_600)),
        },
    },
    Workload {
        name: "bm-oltp-kv-mixed",
        why: "Fig. 14 mix of Sysbench-over-MySQL and YCSB-A-over-RocksDB clients: writes, think-time timers, heavy client models",
        layout: |_| Plan {
            cfg: TestbedConfig {
                scheme: SchemeKind::BmStore { in_vm: true },
                devices: (0..4).map(DeviceSpec::vm_namespace_on).collect(),
                ..TestbedConfig::native(4)
            },
            clients: Clients::Mixed(
                OltpSpec::sysbench().scaled(1.0 / 3.0),
                YcsbSpec::paper_mixed().scaled(1.0 / 3.0),
            ),
        },
    },
    Workload {
        name: "spdk-4k-randwrite",
        why: "engine-free control: SPDK vhost 4K random writes through the mediated scheme; a BM-Store engine change must not move it",
        layout: |_| Plan {
            cfg: TestbedConfig::single_vm(SchemeKind::SpdkVhost { cores: 1 }),
            clients: Clients::Fio(fio(RwMode::RandWrite, 4096, 16, 50, 3_000)),
        },
    },
    Workload {
        name: "bm-4k-observed-faults",
        why: "bm-4k-randread with telemetry, metrics, an SLO, command timeouts and a fault plan: the observers and the recovery path",
        layout: |seed| Plan {
            cfg: with_observers(TestbedConfig::multi_vm_bm_store(4))
                .with_command_timeout(SimDuration::from_ms(5), FailPolicy::QuiesceReplay)
                .with_fault_plan(fault_plan(seed)),
            clients: Clients::Fio(fio(RwMode::RandRead, 4096, 128, 50, 200)),
        },
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one repetition is built; the default is an untraced benchmark
/// repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct RigOptions {
    /// Profiler on and client calls timed (the `trace` repetition).
    pub traced: bool,
    /// Flip the workload's observers (telemetry, metrics sampler, SLO)
    /// on or off, for `observe.overhead_ratio`.
    pub toggle_observers: bool,
}

/// The latency objective the observed workload watches on tenant 0.
const SLO_LATENCY: SimDuration = SimDuration::from_us(2_500);

fn fio(mode: RwMode, block_bytes: u64, iodepth: u32, ramp_ms: u64, run_ms: u64) -> FioSpec {
    FioSpec {
        mode,
        block_bytes,
        iodepth,
        numjobs: 4,
        ramp: SimDuration::from_ms(ramp_ms),
        runtime: SimDuration::from_ms(run_ms),
    }
}

/// The observed workload's fault plan, all inside its measured window
/// (50–250 ms): a latency spike on SSD 1, a 1% error burst on SSD 2,
/// eight swallowed commands on SSD 3 and an engine crash.
fn fault_plan(seed: u64) -> FaultPlan {
    let at = |ms: u64| SimTime::ZERO + SimDuration::from_ms(ms);
    FaultPlan::new(seed)
        .with(
            at(80),
            FaultKind::SsdLatencySpike {
                ssd: 1,
                extra: SimDuration::from_us(300),
                until: at(100),
            },
        )
        .with(
            at(120),
            FaultKind::SsdErrorBurst {
                ssd: 2,
                probability: 0.01,
                until: at(140),
            },
        )
        .with(at(160), FaultKind::SsdDropCommands { ssd: 3, count: 8 })
        .with(
            at(200),
            FaultKind::EngineCrash {
                restart_after: SimDuration::from_ms(2),
            },
        )
}

fn with_observers(cfg: TestbedConfig) -> TestbedConfig {
    cfg.with_telemetry()
        .with_metrics_interval(SimDuration::from_us(20))
        .with_slo(SloConfig::new().with_spec(SloSpec::latency(0, SLO_LATENCY)))
}

/// Switches telemetry, the metrics sampler and the SLO on if they are
/// off, and off if they are on.
fn toggle_observers(cfg: TestbedConfig) -> TestbedConfig {
    if cfg.telemetry {
        TestbedConfig {
            telemetry: false,
            metrics: false,
            slo: None,
            ..cfg
        }
    } else {
        with_observers(cfg)
    }
}

/// Testbed layout and clients of one workload, before anything is built.
struct Plan {
    cfg: TestbedConfig,
    clients: Clients,
}

enum Clients {
    /// `numjobs` fio jobs per device.
    Fio(FioSpec),
    /// OLTP clients on devices 0 and 1, KV clients on devices 2 and 3.
    Mixed(OltpSpec, YcsbSpec),
}

impl Clients {
    /// Warm-up and measured window.
    fn window(&self) -> (SimDuration, SimDuration) {
        match self {
            Clients::Fio(spec) => (spec.ramp, spec.runtime),
            Clients::Mixed(_, ycsb) => (ycsb.ramp, ycsb.runtime),
        }
    }
}

fn plan(w: &Workload, seed: u64, opts: &RigOptions) -> Plan {
    let Plan { mut cfg, clients } = (w.layout)(seed);
    cfg = cfg.with_seed(seed);
    if opts.toggle_observers {
        cfg = toggle_observers(cfg);
    }
    if opts.traced {
        cfg = cfg.with_profiler();
    }
    Plan { cfg, clients }
}

/// What the wrapper saw across all clients of one repetition.
#[derive(Debug, Default)]
struct Tally {
    /// Measured window: completions in `[start, end)` are sampled.
    window: (SimTime, SimTime),
    timed: bool,
    submitted: u64,
    ok: u64,
    failed: u64,
    callbacks: u64,
    client_ns: u64,
    /// Latencies of the completions inside the measured window.
    window_hist: LatencyHistogram,
    /// FNV-1a over every request's device, operation, LBA and length
    /// and every completion's device, status and latency, in the order
    /// they happened: equal digests mean identical I/O streams.
    digest: u64,
    /// Requests by (operation, blocks).
    mix: BTreeMap<(char, u32), u64>,
    outstanding: Vec<u64>,
    /// Deepest per-device queue the clients kept.
    max_qd: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

impl Tally {
    fn hash(&mut self, words: &[u64]) {
        for word in words {
            self.digest = (self.digest ^ word).wrapping_mul(FNV_PRIME);
        }
    }

    fn submitted(&mut self, out: &ClientOutput) {
        for req in &out.requests {
            self.submitted += 1;
            let op = match req.op {
                IoOp::Read => 'r',
                IoOp::Write => 'w',
                IoOp::Flush => 'f',
            };
            let blocks = req.blocks.max(1);
            *self.mix.entry((op, blocks)).or_default() += 1;
            let shape = (req.dev.0 as u64) << 40 | (op as u64) << 32 | u64::from(blocks);
            self.hash(&[shape, req.lba.0]);
            if self.outstanding.len() <= req.dev.0 {
                self.outstanding.resize(req.dev.0 + 1, 0);
            }
            self.outstanding[req.dev.0] += 1;
            self.max_qd = self.max_qd.max(self.outstanding[req.dev.0]);
        }
    }

    fn completed(&mut self, now: SimTime, c: &Completion) {
        let ok = c.status.is_success();
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
        if let Some(n) = self.outstanding.get_mut(c.dev.0) {
            *n = n.saturating_sub(1);
        }
        if now >= self.window.0 && now < self.window.1 {
            self.window_hist.record(c.latency());
        }
        self.hash(&[c.dev.0 as u64, ok as u64, c.latency().as_nanos()]);
    }
}

/// Runs a workload client and reports everything it does to a shared
/// [`Tally`].
struct Counted {
    inner: Box<dyn Client>,
    tally: Rc<RefCell<Tally>>,
}

impl Counted {
    fn call(&mut self, f: impl FnOnce(&mut dyn Client) -> ClientOutput) -> ClientOutput {
        let timed = self.tally.borrow().timed;
        let out = if timed {
            let t = Instant::now();
            let out = f(self.inner.as_mut());
            self.tally.borrow_mut().client_ns += t.elapsed().as_nanos() as u64;
            out
        } else {
            f(self.inner.as_mut())
        };
        let mut tally = self.tally.borrow_mut();
        tally.callbacks += 1;
        tally.submitted(&out);
        out
    }
}

impl Client for Counted {
    fn start(&mut self, now: SimTime) -> ClientOutput {
        self.call(|c| c.start(now))
    }

    fn on_completion(&mut self, now: SimTime, completion: Completion) -> ClientOutput {
        self.tally.borrow_mut().completed(now, &completion);
        self.call(|c| c.on_completion(now, completion))
    }

    fn on_timer(&mut self, now: SimTime) -> ClientOutput {
        self.call(|c| c.on_timer(now))
    }
}

/// A built workload, ready to run.
struct Rig {
    world: World,
    tally: Rc<RefCell<Tally>>,
}

/// Builds the testbed and every client of `w`. This is the set-up the
/// `setup_s` metric times.
fn build(w: &Workload, seed: u64, opts: &RigOptions) -> Rig {
    let mut seeds = SimRng::seed_from(seed);
    let Plan { cfg, clients } = plan(w, seed, opts);
    let mut tb = Testbed::new(cfg);
    let mut inners: Vec<Box<dyn Client>> = Vec::new();
    match &clients {
        Clients::Fio(spec) => {
            for d in 0..tb.device_count() {
                for j in 0..spec.numjobs {
                    let stats = Rc::new(RefCell::new(IoStats::new()));
                    let dev = DeviceId(d);
                    let job = FioJob::new(&mut tb, dev, *spec, j, seeds.next_u64(), stats, None);
                    inners.push(Box::new(job));
                }
            }
        }
        Clients::Mixed(oltp, ycsb) => {
            for d in 0..2 {
                let stats = Rc::new(RefCell::new(OltpStats::default()));
                let spec = oltp.clone();
                let c = OltpClient::new(&mut tb, DeviceId(d), spec, seeds.next_u64(), stats);
                inners.push(Box::new(c));
            }
            for d in 2..4 {
                let stats = Rc::new(RefCell::new(KvStats::default()));
                let lsm = LsmConfig::default();
                let c = KvClient::new(&mut tb, DeviceId(d), *ycsb, lsm, seeds.next_u64(), stats);
                inners.push(Box::new(c));
            }
        }
    }
    let window = clients.window();
    let start = SimTime::ZERO + window.0;
    let tally = Rc::new(RefCell::new(Tally {
        window: (start, start + window.1),
        timed: opts.traced,
        digest: FNV_OFFSET,
        ..Tally::default()
    }));
    let mut world = World::new(tb);
    for inner in inners {
        world.add_client(Box::new(Counted {
            inner,
            tally: Rc::clone(&tally),
        }));
    }
    Rig { world, tally }
}

/// Whether a profiler scope segment belongs to a group.
pub type ScopeMatch = fn(&str) -> bool;

/// The per-layer metric each group of the profiler's dispatch paths
/// feeds, matched on a scope's innermost segment. Scopes in no group
/// (client calls, SSD doorbells, faults) still count toward
/// `testbed.run_ns_per_io`.
pub const PROF_GROUPS: [(&str, ScopeMatch); 6] = [
    ("testbed.engine_stage_ns_per_io", |s| {
        s.starts_with("stage:Engine")
    }),
    ("testbed.scheme_stage_ns_per_io", |s| {
        matches!(
            s,
            "stage:Doorbell" | "stage:Forward" | "stage:BackendComplete" | "stage:GuestComplete"
        )
    }),
    ("testbed.effects_ns_per_io", |s| s.starts_with("fx:")),
    ("testbed.submit_ns_per_io", |s| s == "submit"),
    ("testbed.deliver_ns_per_io", |s| {
        matches!(s, "deliver" | "notify")
    }),
    ("testbed.sampler_ns_per_io", |s| s == "sampler"),
];

/// Builds and runs one repetition of `w`, returning its record (host
/// times, the simulated results the output checks compare, and the
/// counts the per-layer metrics divide) and, when traced, the
/// profiler's folded stacks for flamegraph.pl. `peak_rss_mb` is added
/// by the caller, which owns the process.
pub fn run_rep(w: &Workload, seed: u64, opts: &RigOptions) -> (Record, Option<String>) {
    let t0 = Instant::now();
    let rig = build(w, seed, opts);
    let setup_s = t0.elapsed().as_secs_f64();
    let allocs0 = bm_prof::alloc::events();
    let t1 = Instant::now();
    let world = rig.world.run(None);
    let run_s = t1.elapsed().as_secs_f64();
    let allocs = bm_prof::alloc::events() - allocs0;

    let tally = rig.tally.borrow();
    let tb = &world.tb;
    let backend_cmds: u64 = (0..tb.config().ssds).map(|i| tb.ssd(i).fetched()).sum();
    let resilience = tb
        .engine()
        .map(|e| e.resilience_stats())
        .unwrap_or_default();
    let hist = &tally.window_hist;
    let mut r = Record::new();
    let mut put = |k: &str, v: f64| {
        r.insert(k.to_string(), v);
    };
    put("setup_s", setup_s);
    put("observed", f64::from(u8::from(tb.config().telemetry)));
    put("run_s", run_s);
    put("events", world.events_fired as f64);
    put("peak_event_queue", world.peak_event_queue as f64);
    put("submitted", tally.submitted as f64);
    put("ok", tally.ok as f64);
    put("failed", tally.failed as f64);
    put("callbacks", tally.callbacks as f64);
    put("window_ios", hist.count() as f64);
    let (start, end) = tally.window;
    put("window_s", end.saturating_since(start).as_secs_f64());
    put("p50_us", hist.percentile(0.50).as_micros_f64());
    put("p99_us", hist.percentile(0.99).as_micros_f64());
    // 53 bits: the digest must survive the trip through a JSON number.
    put("digest", (tally.digest >> 11) as f64);
    put("backend_cmds", backend_cmds as f64);
    put("timeouts", resilience.timeouts as f64);
    put("retries", resilience.retries as f64);
    put("recoveries", resilience.recoveries as f64);
    put("max_qd", tally.max_qd as f64);
    for (&(op, blocks), &n) in &tally.mix {
        put(&format!("mix.{op}.{blocks}"), n as f64);
    }
    let snap = tb.profiler().snapshot();
    if let Some(snap) = &snap {
        put("allocs", allocs as f64);
        put("client_ns", tally.client_ns as f64);
        put("prof.run_ns", snap.total_run_ns as f64);
        for (metric, member) in PROF_GROUPS {
            let ns: u64 = snap
                .scopes
                .iter()
                .filter(|s| s.path.last().is_some_and(|seg| member(seg)))
                .map(|s| s.self_ns)
                .sum();
            put(&format!("prof.{metric}"), ns as f64);
        }
    }
    (r, snap.map(|s| bm_prof::report::folded(&s)))
}
