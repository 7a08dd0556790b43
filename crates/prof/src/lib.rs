//! `bm-prof`: wall-clock self-profiler for the simulator process.
//!
//! Every other observability layer in the workspace (telemetry spans,
//! metrics, SLO/blame) measures *simulated* time. This crate measures
//! where *host* time goes while the event loop runs: scoped timers
//! keyed by a hierarchical path (event kind → stage handler → scheme
//! effect) accumulating count/total-ns/max-ns per key, allocation
//! count/bytes attributed to the active scope (via [`alloc`]), and a
//! periodic wall-clock sampler producing an events-per-second and
//! arena-occupancy time series. [`report`] renders the result as a
//! folded stack (flamegraph.pl-compatible), a stable-schema JSON
//! report, or a top-k text table.
//!
//! # Determinism
//!
//! The profiler only ever *reads* the monotonic clock; nothing it
//! observes feeds back into scheduling, event ordering, or any model
//! state. A run with the profiler enabled therefore produces
//! byte-identical figures to a run without it — the property
//! `tests/prof.rs` asserts. `clippy.toml` disallows
//! `Instant::now` in the workspace; [`monotonic_ns`] is its one
//! sanctioned read, so everything else reaches the host clock through
//! it or not at all.
//!
//! # Cost model
//!
//! Reading the clock costs ~20 ns, which is the same order as a whole
//! simulator event, so timing every scope boundary of every event
//! would roughly double the run. Instead the profiler times every
//! `timing_stride`-th event dispatch at full scope resolution (scope
//! *counts* and allocation attribution stay exact on every event) and
//! scales the sampled nanoseconds to the exactly-measured run total at
//! export time, so the per-key ns in a report still sum to the
//! measured dispatch wall time. `max_ns` is the observed per-occurrence
//! maximum among timed dispatches and is reported unscaled.

#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr))]

pub mod alloc;
pub mod report;

use std::sync::OnceLock;
use std::time::Instant;

/// Every `DEFAULT_TIMING_STRIDE`-th event dispatch is timed at full
/// scope resolution; the rest only bump counts and allocation tallies.
pub const DEFAULT_TIMING_STRIDE: u64 = 8;

/// Default wall-clock interval between sampler points (10 ms).
pub const DEFAULT_SAMPLE_INTERVAL_NS: u64 = 10_000_000;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first call in this process.
///
/// The sanctioned wall-clock read for harness code that must measure
/// host time (e.g. the profiler's own overhead test).
#[expect(
    clippy::disallowed_methods,
    reason = "the profiler measures host time; its readings never feed back into the simulation"
)]
pub fn monotonic_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

const NONE: u32 = u32::MAX;
const ROOT: u32 = 0;

#[derive(Debug, Clone)]
struct Node {
    seg: &'static str,
    first_child: u32,
    next_sibling: u32,
    count: u64,
    timed_count: u64,
    self_ns: u64,
    total_ns: u64,
    max_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
}

impl Node {
    fn new(seg: &'static str) -> Node {
        Node {
            seg,
            first_child: NONE,
            next_sibling: NONE,
            count: 0,
            timed_count: 0,
            self_ns: 0,
            total_ns: 0,
            max_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    node: u32,
    parent: u32,
    enter_ns: u64,
}

/// Slots in the profiler's `(parent, segment) → child` cache: a power
/// of two well above the distinct scope paths of one run (about 20 in
/// a BM-Store fio case).
const MEMO_SLOTS: usize = 64;

/// One cached child lookup. The segment is keyed by address and
/// length, so the same `&'static str` hits; an equal string elsewhere
/// misses and the sibling scan, which compares contents, finds the
/// same node.
#[derive(Debug, Clone, Copy)]
struct Memo {
    parent: u32,
    seg_addr: usize,
    seg_len: usize,
    child: u32,
}

/// One sampler point: wall time since `run_begin`, cumulative events
/// retired by the scheduler, and its arena occupancy at that instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Nanoseconds since the current run began.
    pub wall_ns: u64,
    /// Cumulative scheduler events fired at sample time.
    pub events_fired: u64,
    /// Scheduler arena slots allocated at sample time.
    pub arena_slots: usize,
}

/// Aggregated statistics for one scope path, scaled for reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScopeStat {
    /// Scope path segments, outermost first.
    pub path: Vec<String>,
    /// Times the scope was entered (exact; counted on every event).
    pub count: u64,
    /// Times the scope was entered during a timed dispatch.
    pub timed_count: u64,
    /// Self nanoseconds, scaled so all scopes sum to `total_run_ns`.
    pub self_ns: u64,
    /// Inclusive nanoseconds (self + children), same scaling.
    pub total_ns: u64,
    /// Largest single inclusive occurrence among timed dispatches (raw).
    pub max_ns: u64,
    /// Allocation events while this scope was innermost (exact).
    pub allocs: u64,
    /// Bytes requested while this scope was innermost (exact).
    pub alloc_bytes: u64,
}

impl ScopeStat {
    /// The folded-stack key: escaped segments joined with `;`.
    pub fn key(&self) -> String {
        let segs: Vec<String> = self.path.iter().map(|s| report::escape_seg(s)).collect();
        segs.join(";")
    }
}

/// An immutable end-of-run view of the profile, ready for [`report`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Total measured dispatch wall time (`run_begin` → `run_end`),
    /// summed over runs.
    pub total_run_ns: u64,
    /// Raw self-ns observed inside timed dispatches (pre-scaling).
    pub timed_self_ns: u64,
    /// The stride used: 1 = every dispatch timed.
    pub timing_stride: u64,
    /// Events retired by the scheduler, as last reported.
    pub events: u64,
    /// Scope statistics in deterministic (path-sorted) order.
    pub scopes: Vec<ScopeStat>,
    /// Sampler time series in chronological order.
    pub samples: Vec<Sample>,
}

/// The profiler: an interned scope tree plus the sampler state.
///
/// The simulator owns one inside its observer and brackets every
/// dispatch with [`Profiler::enter`]/[`Profiler::exit`].
#[derive(Debug)]
pub struct Profiler {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    memo: [Memo; MEMO_SLOTS],
    cursor: u32,
    timed: bool,
    dispatch_ix: u64,
    stride: u64,
    last_ns: u64,
    /// Whether this thread counted allocations when the run began. If
    /// not, the counters cannot move, so scope boundaries skip them.
    count_allocs: bool,
    last_allocs: u64,
    last_bytes: u64,
    run_begin_ns: u64,
    total_run_ns: u64,
    events: u64,
    sample_interval_ns: u64,
    next_sample_ns: u64,
    samples: Vec<Sample>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// A profiler with the default stride and sampler interval.
    pub fn new() -> Profiler {
        Profiler::with_params(DEFAULT_TIMING_STRIDE, DEFAULT_SAMPLE_INTERVAL_NS)
    }

    /// A profiler timing every `stride`-th dispatch (min 1) and
    /// sampling the time series every `sample_interval_ns`.
    pub fn with_params(stride: u64, sample_interval_ns: u64) -> Profiler {
        Profiler {
            nodes: vec![Node::new("run")],
            stack: Vec::new(),
            memo: [Memo {
                parent: NONE,
                seg_addr: 0,
                seg_len: 0,
                child: NONE,
            }; MEMO_SLOTS],
            cursor: ROOT,
            timed: false,
            dispatch_ix: 0,
            stride: stride.max(1),
            last_ns: 0,
            count_allocs: false,
            last_allocs: 0,
            last_bytes: 0,
            run_begin_ns: 0,
            total_run_ns: 0,
            events: 0,
            sample_interval_ns: sample_interval_ns.max(1),
            next_sample_ns: u64::MAX,
            samples: Vec::new(),
        }
    }

    /// Attribute allocation counters accumulated since the previous
    /// boundary to the currently-innermost scope. Free when counting
    /// is off; one thread-local read when nothing was allocated.
    fn flush_allocs(&mut self) {
        if !self.count_allocs {
            return;
        }
        let events = alloc::events();
        if events == self.last_allocs {
            return;
        }
        let bytes = alloc::bytes();
        let node = &mut self.nodes[self.cursor as usize];
        node.allocs += events - self.last_allocs;
        node.alloc_bytes += bytes - self.last_bytes;
        self.last_allocs = events;
        self.last_bytes = bytes;
    }

    /// The child of `parent` named `seg`, created on first use. Repeat
    /// lookups hit the memo instead of walking the sibling list.
    fn intern_child(&mut self, parent: u32, seg: &'static str) -> u32 {
        let seg_addr = seg.as_ptr() as usize;
        let slot = ((seg_addr >> 3) ^ parent as usize) % MEMO_SLOTS;
        let memo = self.memo[slot];
        if memo.parent == parent && memo.seg_addr == seg_addr && memo.seg_len == seg.len() {
            return memo.child;
        }
        let child = self.scan_child(parent, seg);
        self.memo[slot] = Memo {
            parent,
            seg_addr,
            seg_len: seg.len(),
            child,
        };
        child
    }

    fn scan_child(&mut self, parent: u32, seg: &'static str) -> u32 {
        let mut cur = self.nodes[parent as usize].first_child;
        let mut prev = NONE;
        while cur != NONE {
            let n = &self.nodes[cur as usize];
            if n.seg == seg {
                return cur;
            }
            prev = cur;
            cur = n.next_sibling;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node::new(seg));
        if prev == NONE {
            self.nodes[parent as usize].first_child = id;
        } else {
            self.nodes[prev as usize].next_sibling = id;
        }
        id
    }

    /// Enters a scope. A depth-0 enter marks the start of one event
    /// dispatch and decides whether this dispatch is timed.
    pub fn enter(&mut self, seg: &'static str) {
        self.flush_allocs();
        if self.stack.is_empty() {
            self.timed = self.dispatch_ix.is_multiple_of(self.stride);
            self.dispatch_ix += 1;
            if self.timed {
                // The gap since the previous boundary is scheduler-pop
                // and untimed-dispatch time; it is deliberately left
                // unattributed (export scaling spreads it).
                self.last_ns = monotonic_ns();
            }
        } else if self.timed {
            let now = monotonic_ns();
            self.nodes[self.cursor as usize].self_ns += now - self.last_ns;
            self.last_ns = now;
        }
        let child = self.intern_child(self.cursor, seg);
        self.nodes[child as usize].count += 1;
        self.stack.push(Frame {
            node: child,
            parent: self.cursor,
            enter_ns: self.last_ns,
        });
        self.cursor = child;
    }

    /// Exits the innermost scope. Unbalanced exits are ignored.
    pub fn exit(&mut self) {
        self.flush_allocs();
        let Some(frame) = self.stack.pop() else {
            return;
        };
        if self.timed {
            let now = monotonic_ns();
            let node = &mut self.nodes[frame.node as usize];
            node.self_ns += now - self.last_ns;
            self.last_ns = now;
            let inclusive = now - frame.enter_ns;
            node.timed_count += 1;
            node.total_ns += inclusive;
            node.max_ns = node.max_ns.max(inclusive);
        }
        self.cursor = frame.parent;
    }

    /// Marks the start of an event-loop run: stamps the run origin and
    /// arms the sampler.
    pub fn run_begin(&mut self) {
        self.run_begin_ns = monotonic_ns();
        self.last_ns = self.run_begin_ns;
        self.count_allocs = alloc::is_armed();
        self.last_allocs = alloc::events();
        self.last_bytes = alloc::bytes();
        self.next_sample_ns = self.run_begin_ns + self.sample_interval_ns;
    }

    /// Marks the end of an event-loop run; accumulates the measured
    /// dispatch wall time.
    pub fn run_end(&mut self) {
        self.total_run_ns += monotonic_ns() - self.run_begin_ns;
        self.next_sample_ns = u64::MAX;
    }

    /// Called once per retired event with the scheduler's cumulative
    /// event count and arena occupancy. Pushes a sampler point when the
    /// sampling interval has elapsed; free on untimed dispatches (the
    /// clock value is reused from the dispatch's last boundary).
    pub fn on_event_retired(&mut self, events_fired: u64, arena_slots: usize) {
        self.events = events_fired;
        if self.timed && self.last_ns >= self.next_sample_ns {
            self.samples.push(Sample {
                wall_ns: self.last_ns - self.run_begin_ns,
                events_fired,
                arena_slots,
            });
            self.next_sample_ns = self.last_ns + self.sample_interval_ns;
        }
    }

    /// Events-per-second over the run, from the exact totals.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_run_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.total_run_ns as f64 / 1e9)
    }

    /// Builds the deterministic end-of-run view: scopes path-sorted,
    /// sampled nanoseconds scaled so self-ns sums to `total_run_ns`.
    pub fn snapshot(&self) -> Snapshot {
        let mut raw: Vec<(Vec<String>, &Node)> = Vec::new();
        let mut walk: Vec<(u32, Vec<String>)> = Vec::new();
        let mut child = self.nodes[ROOT as usize].first_child;
        while child != NONE {
            walk.push((child, vec![self.nodes[child as usize].seg.to_string()]));
            child = self.nodes[child as usize].next_sibling;
        }
        while let Some((id, path)) = walk.pop() {
            let node = &self.nodes[id as usize];
            let mut c = node.first_child;
            while c != NONE {
                let mut p = path.clone();
                p.push(self.nodes[c as usize].seg.to_string());
                walk.push((c, p));
                c = self.nodes[c as usize].next_sibling;
            }
            raw.push((path, node));
        }
        let timed_self_ns: u64 = raw.iter().map(|(_, n)| n.self_ns).sum();
        let scale = if timed_self_ns > 0 {
            self.total_run_ns as f64 / timed_self_ns as f64
        } else {
            1.0
        };
        let mut scopes: Vec<ScopeStat> = raw
            .into_iter()
            .map(|(path, n)| ScopeStat {
                path,
                count: n.count,
                timed_count: n.timed_count,
                self_ns: (n.self_ns as f64 * scale).round() as u64,
                total_ns: (n.total_ns as f64 * scale).round() as u64,
                max_ns: n.max_ns,
                allocs: n.allocs,
                alloc_bytes: n.alloc_bytes,
            })
            .collect();
        scopes.sort_by(|a, b| a.path.cmp(&b.path));
        Snapshot {
            total_run_ns: self.total_run_ns,
            timed_self_ns,
            timing_stride: self.stride,
            events: self.events,
            scopes,
            samples: self.samples.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = monotonic_ns();
        while monotonic_ns() - start < ns {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn scope_tree_interns_paths_and_counts_exactly() {
        // Stride 1: every dispatch timed.
        let mut p = Profiler::with_params(1, u64::MAX / 4);
        p.run_begin();
        for i in 0..10u64 {
            p.enter("stage");
            p.enter(if i % 2 == 0 { "Doorbell" } else { "Forward" });
            p.enter("ScheduleAt");
            spin(2_000);
            p.exit();
            p.exit();
            p.exit();
        }
        p.run_end();
        let snap = p.snapshot();
        let keys: Vec<String> = snap.scopes.iter().map(ScopeStat::key).collect();
        assert_eq!(
            keys,
            vec![
                "stage".to_string(),
                "stage;Doorbell".to_string(),
                "stage;Doorbell;ScheduleAt".to_string(),
                "stage;Forward".to_string(),
                "stage;Forward;ScheduleAt".to_string(),
            ],
            "deterministic path-sorted order"
        );
        let stage = &snap.scopes[0];
        assert_eq!(stage.count, 10);
        assert_eq!(stage.timed_count, 10);
        let doorbell = &snap.scopes[1];
        assert_eq!(doorbell.count, 5);
        // Inclusive time nests: stage >= Doorbell >= Doorbell;ScheduleAt.
        assert!(stage.total_ns >= doorbell.total_ns);
        assert!(doorbell.total_ns >= snap.scopes[2].total_ns);
        assert!(doorbell.max_ns > 0);
    }

    #[test]
    fn memo_collisions_still_find_the_right_scope() {
        // Segments 512 bytes apart share a memo slot under one parent,
        // and so do parents 64 node ids apart under one segment; a
        // prefix shares its string's address. Each is its own scope,
        // while an equal string at another address is the same one.
        let leak = |s: String| -> &'static str { Box::leak(s.into_boxed_str()) };
        let buf = leak(format!("{:<512}{:<512}", "abcd", "wxyz"));
        let (abcd, wxyz, abc) = (&buf[..4], &buf[512..516], &buf[..3]);
        let names: Vec<&'static str> = (0..70).map(|i| leak(format!("n{i}"))).collect();
        let mut p = Profiler::new();
        p.run_begin();
        for seg in names
            .iter()
            .copied()
            .chain([abcd, abc, wxyz, leak("abcd".into())])
        {
            p.enter(seg);
            p.exit();
        }
        for i in 0..6 {
            for parent in [names[i], names[i + 64]] {
                p.enter(parent);
                p.enter(abcd);
                p.exit();
                p.exit();
            }
        }
        p.run_end();
        let snap = p.snapshot();
        let counts = |key: &str| -> Vec<u64> {
            let found = snap.scopes.iter().filter(|s| s.key() == key);
            found.map(|s| s.count).collect()
        };
        assert_eq!(counts("abcd"), [2]);
        assert_eq!(counts("wxyz"), [1]);
        assert_eq!(counts("abc"), [1]);
        for i in (0..6).chain(64..70) {
            assert_eq!(counts(&format!("n{i};abcd")), [1], "n{i};abcd");
        }
    }

    #[test]
    fn scaled_self_ns_sums_to_total_run_ns() {
        let mut p = Profiler::with_params(3, u64::MAX / 4);
        p.run_begin();
        for _ in 0..30u64 {
            p.enter("stage");
            p.enter("effect");
            spin(1_000);
            p.exit();
            p.exit();
        }
        p.run_end();
        let snap = p.snapshot();
        assert!(snap.total_run_ns > 0);
        assert!(snap.timed_self_ns > 0);
        let sum: u64 = snap.scopes.iter().map(|s| s.self_ns).sum();
        let total = snap.total_run_ns;
        // Rounding error only: one ns per scope at most.
        let slack = snap.scopes.len() as u64 + 1;
        assert!(
            sum.abs_diff(total) <= slack,
            "scaled self-ns {sum} vs run total {total}"
        );
    }

    #[test]
    fn untimed_dispatches_still_count() {
        let mut p = Profiler::with_params(1000, u64::MAX / 4);
        p.run_begin();
        for _ in 0..10u64 {
            p.enter("stage");
            p.exit();
        }
        p.run_end();
        let snap = p.snapshot();
        assert_eq!(snap.scopes[0].count, 10);
        assert_eq!(snap.scopes[0].timed_count, 1, "only dispatch 0 timed");
    }

    #[test]
    fn sampler_emits_monotonic_points() {
        // 1 ns interval: every timed dispatch emits a point.
        let mut p = Profiler::with_params(1, 1);
        p.run_begin();
        for i in 0..5u64 {
            p.enter("stage");
            spin(500);
            p.exit();
            p.on_event_retired(i + 1, 4 + i as usize);
        }
        p.run_end();
        let snap = p.snapshot();
        assert!(!snap.samples.is_empty());
        for w in snap.samples.windows(2) {
            assert!(w[0].wall_ns <= w[1].wall_ns);
            assert!(w[0].events_fired <= w[1].events_fired);
        }
        assert_eq!(snap.events, 5);
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut p = Profiler::new();
        p.exit();
        p.enter("stage");
        p.exit();
        p.exit();
        let snap = p.snapshot();
        assert_eq!(snap.scopes.len(), 1);
        assert_eq!(snap.scopes[0].count, 1);
    }
}
