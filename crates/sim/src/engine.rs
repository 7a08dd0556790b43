//! The event loop.
//!
//! A [`Simulation`] owns a *world* (the mutable state of every modeled
//! component) and a [`Scheduler`] (the pending-event queue). An event is
//! a payload that implements [`Event`]: firing it hands it `&mut W` and
//! `&mut Scheduler<W, E>` so it can mutate state and schedule follow-up
//! events. The default payload, [`Action`], is a boxed closure, so
//! `Simulation<W>` takes any `FnOnce(&mut W, &mut Scheduler<W>)`. A
//! world with a hot event loop names its own payload type instead
//! (`Simulation<W, E>`, built with [`Simulation::typed`]); the scheduler
//! stores payloads inline in its arena, so scheduling a typed event
//! allocates nothing. Ties on the timestamp are broken by insertion
//! order, which makes runs with the same seed bit-for-bit reproducible.
//!
//! # Implementation: hierarchical timer wheel
//!
//! The queue is a hierarchical timer wheel (8 levels × 64 slots covering
//! 48 bits of nanosecond ticks) backed by a slab arena with an intrusive
//! free list, so steady-state scheduling performs no per-event heap
//! allocation: popped slots are recycled. The arena keeps each slot's
//! ordering header (`at`, `seq`, next link) in one array and its payload
//! in a parallel one, so cascades and batch sorts walk dense 24-byte
//! headers whatever the payload size. Events beyond the 2⁴⁸ ns horizon
//! overflow into a `BTreeMap` and migrate into the wheel when it drains;
//! events scheduled between `now` and a cursor that peeking
//! fast-forwarded land in a small spill map that always pops first.
//! Same-tick events are drained as one batch and sorted by sequence
//! number, so pop order is exactly the `(at, seq)` order the previous
//! `BinaryHeap` implementation produced — see DESIGN.md "Simulator core
//! & hot path".

use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// A scheduled event payload, fired once with the world and the
/// scheduler that held it.
pub trait Event<W>: Sized {
    /// Runs the event: it may mutate `world` and schedule follow-ups.
    fn fire(self, world: &mut W, sched: &mut Scheduler<W, Self>);
}

/// The default event payload: a boxed closure. Boxing a closure that
/// captures nothing is allocation-free; one that captures state costs
/// one allocation per scheduled event.
pub struct Action<W>(Box<ActionFn<W>>);

/// The closure type an [`Action`] boxes.
type ActionFn<W> = dyn FnOnce(&mut W, &mut Scheduler<W>);

impl<W> Action<W> {
    /// Boxes `f` as an event.
    fn new(f: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) -> Self {
        Action(Box::new(f))
    }
}

impl<W> Event<W> for Action<W> {
    fn fire(self, world: &mut W, sched: &mut Scheduler<W>) {
        (self.0)(world, sched)
    }
}

/// Sentinel for "no node" in the intrusive lists.
const NIL: u32 = u32::MAX;
/// Wheel geometry: 8 levels of 64 slots, 6 bits per level.
const LEVELS: usize = 8;
const SLOTS: usize = 64;
const LEVEL_BITS: u32 = 6;
/// Total bits the wheel spans; ticks differing only above this go to
/// the overflow map.
const WHEEL_BITS: u32 = LEVELS as u32 * LEVEL_BITS;

/// The ordering header of one arena slot. Its payload lives at the same
/// index of the payload array.
#[derive(Clone, Copy)]
struct Node {
    /// Absolute fire tick in nanoseconds.
    at: u64,
    /// Insertion order, breaks same-tick ties.
    seq: u64,
    /// Next node in the slot list (or the free list once recycled).
    next: u32,
}

/// Where [`Scheduler::prepare_front`] found the next event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FrontSlot {
    /// In the spill map (scheduled behind a fast-forwarded cursor).
    Spill,
    /// In the current-tick batch.
    Batch,
}

/// The pending-event queue, passed to every event so it can schedule more.
///
/// `E` is the event payload; the default, [`Action`], takes closures
/// through [`Scheduler::schedule_at`] and friends. A typed payload is
/// scheduled with [`Scheduler::schedule_event_at`].
///
/// # Examples
///
/// ```
/// use bm_sim::{Simulation, SimDuration};
/// let mut sim = Simulation::new(0u32);
/// sim.schedule_in(SimDuration::from_us(1), |w: &mut u32, sched| {
///     *w += 1;
///     // chain a follow-up event
///     sched.schedule_in(SimDuration::from_us(1), |w: &mut u32, _| *w += 10);
/// });
/// sim.run_until_idle();
/// assert_eq!(*sim.world(), 11);
/// ```
pub struct Scheduler<W, E = Action<W>> {
    now: SimTime,
    next_seq: u64,
    /// Total pending events across wheel, batch, spill and overflow.
    len: usize,
    /// Cumulative events fired since construction.
    fired: u64,
    /// High-water mark of `len`.
    peak_pending: usize,
    /// How many `schedule_at` calls were clamped from the past to `now`.
    clamped_past: u64,
    /// The wheel's read position. Invariant: every tick stored in the
    /// wheel or overflow is `>= cursor`; ticks below it live in `spill`.
    cursor: u64,
    /// Slab arena headers; freed slots are chained through `free_head`.
    nodes: Vec<Node>,
    /// Slab arena payloads, parallel to `nodes`: `Some` while pending.
    payloads: Vec<Option<E>>,
    free_head: u32,
    /// `LEVELS * SLOTS` list heads into the arena.
    slots: Vec<u32>,
    /// Per-level bitmap of non-empty slots.
    occupied: [u64; LEVELS],
    /// Current-tick nodes, sorted by `seq`, drained via `batch_pos`.
    batch: Vec<u32>,
    batch_pos: usize,
    /// Events beyond the wheel horizon, keyed by `(at, seq)`.
    overflow: BTreeMap<(u64, u64), u32>,
    /// Events below `cursor` (but `>= now`), keyed by `(at, seq)`.
    spill: BTreeMap<(u64, u64), u32>,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E> Default for Scheduler<W, E> {
    fn default() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            len: 0,
            fired: 0,
            peak_pending: 0,
            clamped_past: 0,
            cursor: 0,
            nodes: Vec::new(),
            payloads: Vec::new(),
            free_head: NIL,
            slots: vec![NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            batch: Vec::new(),
            batch_pos: 0,
            overflow: BTreeMap::new(),
            spill: BTreeMap::new(),
            _world: PhantomData,
        }
    }
}

impl<W> Scheduler<W> {
    /// Creates an empty closure scheduler with the clock at zero (a
    /// typed one is `Scheduler::default()`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `action` to fire at absolute time `at`.
    ///
    /// A target earlier than the current clock is clamped to `now` (and
    /// counted in [`Scheduler::clamped_past`]).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.schedule_event_at(at, Action::new(action));
    }

    /// Schedules `action` to fire `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.schedule_at(self.now + delay, action);
    }
}

impl<W, E> Scheduler<W, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.len
    }

    /// Cumulative number of events fired since construction.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// High-water mark of the pending-event count.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// How many `schedule_at` calls asked for a time in the past and
    /// were clamped to `now`.
    pub fn clamped_past(&self) -> u64 {
        self.clamped_past
    }

    /// Number of arena node slots ever created. Stable under
    /// steady-state load: popped nodes are recycled through the free
    /// list instead of allocating.
    pub fn arena_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Schedules the payload `event` to fire at absolute time `at`. A
    /// target earlier than the current clock is clamped to `now`, as
    /// for [`Scheduler::schedule_at`].
    pub fn schedule_event_at(&mut self, at: SimTime, event: E) {
        let at = if at < self.now {
            self.clamped_past += 1;
            self.now
        } else {
            at
        };
        self.push_event(at, event);
    }

    fn push_event(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let idx = self.alloc(at.as_nanos(), seq, event);
        self.insert(idx);
        self.len += 1;
        if self.len > self.peak_pending {
            self.peak_pending = self.len;
        }
    }

    /// Takes a slot from the free list, or grows the arena.
    fn alloc(&mut self, at: u64, seq: u64, event: E) -> u32 {
        let node = Node { at, seq, next: NIL };
        if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            self.payloads[idx as usize] = Some(event);
            idx
        } else {
            debug_assert!(self.nodes.len() < NIL as usize);
            let idx = self.nodes.len() as u32;
            self.nodes.push(node);
            self.payloads.push(Some(event));
            idx
        }
    }

    /// Returns a popped slot to the free list.
    fn free(&mut self, idx: u32) {
        debug_assert!(self.payloads[idx as usize].is_none());
        self.nodes[idx as usize].next = self.free_head;
        self.free_head = idx;
    }

    /// Routes a node to the spill map, overflow map, or a wheel slot.
    fn insert(&mut self, idx: u32) {
        let tick = self.nodes[idx as usize].at;
        if tick < self.cursor {
            // Possible only after a peek fast-forwarded the cursor past
            // `now`; spill entries always pop before wheel content.
            let seq = self.nodes[idx as usize].seq;
            self.spill.insert((tick, seq), idx);
        } else {
            self.place(idx);
        }
    }

    /// Places a node (with tick `>= cursor`) into the wheel or overflow.
    fn place(&mut self, idx: u32) {
        let (tick, seq) = {
            let node = &self.nodes[idx as usize];
            (node.at, node.seq)
        };
        debug_assert!(tick >= self.cursor);
        let diff = tick ^ self.cursor;
        if diff >> WHEEL_BITS != 0 {
            self.overflow.insert((tick, seq), idx);
            return;
        }
        // Level = highest 6-bit group where the tick differs from the
        // cursor; same-tick events land in level 0 at the cursor slot.
        let level = if diff == 0 {
            0
        } else {
            (63 - diff.leading_zeros()) as usize / LEVEL_BITS as usize
        };
        let slot = ((tick >> (level as u32 * LEVEL_BITS)) & 63) as usize;
        let pos = level * SLOTS + slot;
        self.nodes[idx as usize].next = self.slots[pos];
        self.slots[pos] = idx;
        self.occupied[level] |= 1u64 << slot;
    }

    /// Drains the level-0 slot at the cursor into `batch`, sorted by
    /// `seq`. Every node in the slot shares the cursor's tick.
    fn collect_batch(&mut self, slot: usize) {
        debug_assert!(self.batch_pos >= self.batch.len());
        self.batch.clear();
        self.batch_pos = 0;
        let head = std::mem::replace(&mut self.slots[slot], NIL);
        self.occupied[0] &= !(1u64 << slot);
        let mut idx = head;
        while idx != NIL {
            debug_assert_eq!(self.nodes[idx as usize].at, self.cursor);
            self.batch.push(idx);
            idx = self.nodes[idx as usize].next;
        }
        let (batch, nodes) = (&mut self.batch, &self.nodes);
        batch.sort_unstable_by_key(|&i| nodes[i as usize].seq);
    }

    /// Advances the cursor to the next occupied higher-level slot and
    /// redistributes its nodes into lower levels. Returns whether a
    /// slot was cascaded.
    fn cascade_next(&mut self) -> bool {
        debug_assert_eq!(self.occupied[0] & (!0u64 << (self.cursor & 63)), 0);
        for level in 1..LEVELS {
            let shift = level as u32 * LEVEL_BITS;
            let group = ((self.cursor >> shift) & 63) as u32;
            // Slots at or before the cursor's own group are spent; the
            // cursor's group itself only ever held ticks that differ
            // from the cursor below this level, which live lower down.
            let mask = if group >= 63 {
                0
            } else {
                self.occupied[level] & (!0u64 << (group + 1))
            };
            if mask != 0 {
                let slot = u64::from(mask.trailing_zeros());
                let keep = self.cursor & (!0u64 << (shift + LEVEL_BITS));
                self.cursor = keep | (slot << shift);
                let head = std::mem::replace(&mut self.slots[level * SLOTS + slot as usize], NIL);
                self.occupied[level] &= !(1u64 << slot);
                let mut idx = head;
                while idx != NIL {
                    let next = self.nodes[idx as usize].next;
                    self.place(idx);
                    idx = next;
                }
                return true;
            }
        }
        false
    }

    /// Ensures the front event (if any) is exposed in the spill map or
    /// the current batch, advancing the cursor as needed, and returns
    /// where it lives and when it fires. Shared by peek and pop.
    fn prepare_front(&mut self) -> Option<(FrontSlot, SimTime)> {
        loop {
            // Spill ticks are all < cursor, and wheel/batch ticks are
            // all >= cursor, so the spill map always goes first.
            if let Some((&(at, _), _)) = self.spill.first_key_value() {
                return Some((FrontSlot::Spill, SimTime::from_nanos(at)));
            }
            if let Some(&idx) = self.batch.get(self.batch_pos) {
                let at = self.nodes[idx as usize].at;
                return Some((FrontSlot::Batch, SimTime::from_nanos(at)));
            }
            if self.len == 0 {
                return None;
            }
            // Scan level 0 from the cursor's slot within its window.
            let from = (self.cursor & 63) as u32;
            let mask = self.occupied[0] & (!0u64 << from);
            if mask != 0 {
                let slot = u64::from(mask.trailing_zeros());
                self.cursor = (self.cursor & !63) | slot;
                self.collect_batch(slot as usize);
                continue;
            }
            if self.cascade_next() {
                continue;
            }
            // Wheel drained: migrate the earliest overflow horizon in.
            if let Some((&(at, _), _)) = self.overflow.first_key_value() {
                self.cursor = at;
                let horizon = at >> WHEEL_BITS;
                while let Some(entry) = self.overflow.first_entry() {
                    if entry.key().0 >> WHEEL_BITS != horizon {
                        break;
                    }
                    let (_, idx) = entry.remove_entry();
                    self.place(idx);
                }
                continue;
            }
            debug_assert_eq!(self.len, 0);
            return None;
        }
    }

    /// Earliest pending fire time, advancing the wheel cursor (but not
    /// the clock) to find it.
    fn peek_next_at(&mut self) -> Option<SimTime> {
        self.prepare_front().map(|(_, at)| at)
    }

    fn pop_due(&mut self) -> Option<(SimTime, E)> {
        let (front, at) = self.prepare_front()?;
        let idx = match front {
            FrontSlot::Spill => match self.spill.pop_first() {
                Some((_, idx)) => idx,
                None => return None,
            },
            FrontSlot::Batch => {
                let idx = self.batch[self.batch_pos];
                self.batch_pos += 1;
                idx
            }
        };
        debug_assert!(at >= self.now);
        self.now = at;
        self.len -= 1;
        self.fired += 1;
        let event = self.payloads[idx as usize].take();
        self.free(idx);
        event.map(|e| (at, e))
    }
}

/// A complete simulation: a world plus its scheduler.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Simulation<W, E = Action<W>> {
    world: W,
    sched: Scheduler<W, E>,
}

impl<W> Simulation<W> {
    /// Creates a closure-driven simulation over `world` with the clock
    /// at zero.
    pub fn new(world: W) -> Self {
        Self::typed(world)
    }

    /// Schedules an event at an absolute time. Past times clamp to
    /// `now`; see [`Scheduler::schedule_at`].
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.sched.schedule_at(at, action);
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_in(
        &mut self,
        delay: SimDuration,
        action: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.sched.schedule_in(delay, action);
    }
}

impl<W, E> Simulation<W, E> {
    /// Creates a simulation over `world` whose events are `E` payloads,
    /// stored inline in the scheduler's arena, with the clock at zero.
    pub fn typed(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::default(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world (e.g. to inspect or reconfigure
    /// between phases of an experiment).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Exclusive access to the scheduler.
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W, E> {
        &mut self.sched
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

impl<W, E: Event<W>> Simulation<W, E> {
    /// Fires the next pending event, if any. Returns whether one fired.
    pub fn step(&mut self) -> bool {
        match self.sched.pop_due() {
            Some((_, event)) => {
                event.fire(&mut self.world, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until the queue is empty. Returns the number of events fired.
    pub fn run_until_idle(&mut self) -> u64 {
        let mut fired = 0;
        while self.step() {
            fired += 1;
        }
        fired
    }

    /// Runs until the clock would pass `deadline` (events at exactly
    /// `deadline` still fire) or the queue empties. The clock is advanced
    /// to `deadline` if it ends earlier. Returns the number of events fired.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut fired = 0;
        while self.step_until(deadline) {
            fired += 1;
        }
        fired
    }

    /// Fires the next event if it is due at or before `deadline`;
    /// returns whether one fired. Once the queue holds nothing due, the
    /// clock is advanced to `deadline`. [`Simulation::run_until`] is
    /// this in a loop; callers that observe each event, e.g. a
    /// profiling harness, loop on it themselves.
    pub fn step_until(&mut self, deadline: SimTime) -> bool {
        if self.sched.peek_next_at().is_some_and(|at| at <= deadline) {
            if let Some((_, event)) = self.sched.pop_due() {
                event.fire(&mut self.world, &mut self.sched);
                return true;
            }
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
        false
    }
}

impl<W: std::fmt::Debug, E> std::fmt::Debug for Simulation<W, E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.sched.now)
            .field("pending", &self.sched.pending())
            .field("world", &self.world)
            .finish()
    }
}

/// The pre-wheel `BinaryHeap` scheduler, kept as a test oracle for the
/// equivalence property test: pop order must match `(at, seq)` exactly,
/// including same-tick tie-breaks.
#[cfg(test)]
mod classic {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry {
        at: u64,
        seq: u64,
        id: u32,
    }

    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.at == other.at && self.seq == other.seq
        }
    }
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            // BinaryHeap is a max-heap; invert so the earliest pops first.
            (other.at, other.seq).cmp(&(self.at, self.seq))
        }
    }

    /// Minimal stand-in for the old scheduler: same clamp semantics,
    /// same `(at, seq)` ordering, payload reduced to an id.
    pub struct ClassicQueue {
        now: u64,
        next_seq: u64,
        heap: BinaryHeap<Entry>,
    }

    impl ClassicQueue {
        pub fn new() -> Self {
            ClassicQueue {
                now: 0,
                next_seq: 0,
                heap: BinaryHeap::new(),
            }
        }

        pub fn schedule(&mut self, at: u64, id: u32) {
            let at = at.max(self.now);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry { at, seq, id });
        }

        pub fn pop(&mut self) -> Option<(u64, u32)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            Some((entry.at, entry.id))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_in(SimDuration::from_us(3), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_in(SimDuration::from_us(1), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_in(SimDuration::from_us(2), |w: &mut Vec<u32>, _| w.push(2));
        sim.run_until_idle();
        assert_eq!(sim.world(), &[1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        let t = SimTime::from_nanos(10);
        for i in 0..100 {
            sim.schedule_at(t, move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run_until_idle();
        assert_eq!(sim.world().len(), 100);
        assert!(sim.world().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(0u64);
        fn tick(w: &mut u64, sched: &mut Scheduler<u64>) {
            *w += 1;
            if *w < 5 {
                sched.schedule_in(SimDuration::from_us(10), tick);
            }
        }
        sim.schedule_in(SimDuration::from_us(10), tick);
        sim.run_until_idle();
        assert_eq!(*sim.world(), 5);
        assert_eq!(sim.now(), SimTime::from_nanos(50_000));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(SimDuration::from_us(1), |w: &mut u32, _| *w += 1);
        sim.schedule_in(SimDuration::from_us(10), |w: &mut u32, _| *w += 1);
        let fired = sim.run_until(SimTime::from_nanos(5_000));
        assert_eq!(fired, 1);
        assert_eq!(*sim.world(), 1);
        assert_eq!(sim.now(), SimTime::from_nanos(5_000));
        // The later event is still pending and fires on the next run.
        sim.run_until_idle();
        assert_eq!(*sim.world(), 2);
    }

    #[test]
    fn run_until_fires_events_at_exact_deadline() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_in(SimDuration::from_us(5), |w: &mut u32, _| *w += 1);
        sim.run_until(SimTime::from_nanos(5_000));
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn step_until_decomposes_run_until_exactly() {
        // Same schedule driven by run_until vs a step_until loop must
        // agree on events fired, world state, and final clock.
        let build = || {
            let mut sim = Simulation::new(Vec::<u32>::new());
            for i in [1u32, 3, 5, 9] {
                sim.schedule_in(
                    SimDuration::from_us(i as u64),
                    move |w: &mut Vec<u32>, _| w.push(i),
                );
            }
            sim
        };
        let deadline = SimTime::from_nanos(5_000);
        let mut whole = build();
        let fired = whole.run_until(deadline);
        let mut stepped = build();
        let mut count = 0u64;
        while stepped.step_until(deadline) {
            count += 1;
        }
        assert_eq!(count, fired);
        assert_eq!(stepped.world(), whole.world());
        assert_eq!(stepped.now(), whole.now());
        assert_eq!(stepped.now(), deadline, "clock clamps to the deadline");
        // Events past the deadline stay pending, exactly as run_until.
        stepped.run_until_idle();
        whole.run_until_idle();
        assert_eq!(stepped.world(), whole.world());
        assert_eq!(stepped.world(), &[1, 3, 5, 9]);
    }

    #[test]
    fn scheduling_into_past_clamps_to_now() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        sim.schedule_in(SimDuration::from_us(1), |_, sched| {
            sched.schedule_at(SimTime::ZERO, |w: &mut Vec<u64>, s| {
                w.push(s.now().as_nanos());
            });
        });
        sim.run_until_idle();
        // The past-targeted event fired at the clamp time, not at zero.
        assert_eq!(sim.world(), &[1_000]);
        assert_eq!(sim.scheduler_mut().clamped_past(), 1);
    }

    #[test]
    fn far_future_events_cross_wheel_levels() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        // One event per wheel level, plus two beyond the 2^48 horizon.
        let mut times: Vec<u64> = (0..LEVELS)
            .map(|l| 3u64 << (l as u32 * LEVEL_BITS))
            .collect();
        times.push(1u64 << WHEEL_BITS);
        times.push((1u64 << WHEEL_BITS) + 5);
        times.push(u64::MAX);
        for &t in times.iter().rev() {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _| {
                w.push(t);
            });
        }
        sim.run_until_idle();
        assert_eq!(sim.world(), &times);
        assert_eq!(sim.now(), SimTime::MAX);
    }

    #[test]
    fn events_behind_a_peeked_cursor_still_fire_in_order() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        for t in [10_000u64, 20_000] {
            sim.schedule_at(SimTime::from_nanos(t), move |w: &mut Vec<u64>, _| w.push(t));
        }
        // Peeking for the deadline check fast-forwards the wheel cursor
        // to the 20 µs event while the clock stops at 15 µs.
        sim.run_until(SimTime::from_nanos(15_000));
        assert_eq!(sim.now(), SimTime::from_nanos(15_000));
        // An event between the clock and the cursor must still precede
        // the 20 µs event (it lands in the spill map).
        sim.schedule_at(SimTime::from_nanos(17_000), |w: &mut Vec<u64>, _| {
            w.push(17_000);
        });
        sim.run_until_idle();
        assert_eq!(sim.world(), &[10_000, 17_000, 20_000]);
    }

    #[test]
    fn arena_recycles_nodes_in_steady_state() {
        let mut sim = Simulation::new(0u64);
        fn tick(w: &mut u64, sched: &mut Scheduler<u64>) {
            *w += 1;
            if *w < 10_000 {
                sched.schedule_in(SimDuration::from_nanos(137), tick);
                sched.schedule_in(SimDuration::from_nanos(61), |_, _| {});
            }
        }
        sim.schedule_in(SimDuration::from_nanos(1), tick);
        for _ in 0..100 {
            sim.step();
        }
        let warm = sim.scheduler_mut().arena_slots();
        sim.run_until_idle();
        assert_eq!(sim.scheduler_mut().arena_slots(), warm);
        assert_eq!(sim.scheduler_mut().events_fired(), 19_999);
        assert!(sim.scheduler_mut().peak_pending() <= 2);
    }

    /// A typed payload: stored inline, so steady-state scheduling never
    /// boxes, and fired in the same `(at, seq)` order as closures.
    enum Tick {
        Push(u64),
        Chain,
    }

    impl Event<Vec<u64>> for Tick {
        fn fire(self, w: &mut Vec<u64>, sched: &mut Scheduler<Vec<u64>, Tick>) {
            match self {
                Tick::Push(v) => w.push(v),
                Tick::Chain => {
                    w.push(sched.now().as_nanos());
                    if w.len() < 3 {
                        sched.schedule_event_at(
                            sched.now() + SimDuration::from_nanos(5),
                            Tick::Chain,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn typed_events_fire_in_time_then_insertion_order() {
        let mut sim: Simulation<Vec<u64>, Tick> = Simulation::typed(Vec::new());
        let sched = sim.scheduler_mut();
        sched.schedule_event_at(SimTime::from_nanos(20), Tick::Push(7));
        sched.schedule_event_at(SimTime::from_nanos(10), Tick::Chain);
        sched.schedule_event_at(SimTime::from_nanos(20), Tick::Push(8));
        assert_eq!(sim.run_until_idle(), 5);
        // The chain's third event was scheduled last, so it fires last at 20.
        assert_eq!(sim.world(), &[10, 15, 7, 8, 20]);
        assert_eq!(sim.scheduler_mut().peak_pending(), 3);
    }

    #[test]
    fn pending_counts_all_tiers() {
        let mut sched: Scheduler<u32> = Scheduler::new();
        sched.schedule_at(SimTime::from_nanos(1), |_, _| {});
        sched.schedule_at(SimTime::from_nanos(1 << 20), |_, _| {});
        sched.schedule_at(SimTime::MAX, |_, _| {});
        assert_eq!(sched.pending(), 3);
        assert_eq!(sched.peak_pending(), 3);
    }

    /// Replays one op sequence on the wheel and the classic heap,
    /// asserting identical pop order (time and identity).
    fn check_equivalence(ops: &[(u64, u8)]) {
        let mut wheel: Scheduler<Vec<(u64, u32)>> = Scheduler::new();
        let mut world: Vec<(u64, u32)> = Vec::new();
        let mut oracle = classic::ClassicQueue::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let pop_both = |wheel: &mut Scheduler<Vec<(u64, u32)>>,
                        world: &mut Vec<(u64, u32)>,
                        oracle: &mut classic::ClassicQueue,
                        expected: &mut Vec<(u64, u32)>| {
            if let Some((at, action)) = wheel.pop_due() {
                action.fire(world, wheel);
                let (oat, oid) = oracle.pop().expect("oracle has an event too");
                assert_eq!(at.as_nanos(), oat);
                expected.push((oat, oid));
            } else {
                assert!(oracle.pop().is_none());
            }
        };
        for (id, &(at, pops)) in ops.iter().enumerate() {
            let t = SimTime::from_nanos(at);
            let this_id = id as u32;
            wheel.schedule_at(t, move |w: &mut Vec<(u64, u32)>, s| {
                w.push((s.now().as_nanos(), this_id));
            });
            oracle.schedule(at, this_id);
            for _ in 0..pops {
                pop_both(&mut wheel, &mut world, &mut oracle, &mut expected);
            }
        }
        loop {
            let before = world.len();
            pop_both(&mut wheel, &mut world, &mut oracle, &mut expected);
            if world.len() == before {
                break;
            }
        }
        assert_eq!(world, expected);
    }

    proptest! {
        /// Random schedules (clustered ticks for ties, far-future and
        /// past-clamped times, interleaved pops) produce exactly the
        /// classic BinaryHeap's pop order on the wheel.
        #[test]
        fn wheel_matches_classic_heap(
            ops in proptest::collection::vec(
                (
                    prop_oneof![
                        0u64..50,
                        0u64..5_000,
                        1u64 << 20..(1u64 << 20) + 100,
                        (1u64 << WHEEL_BITS) - 50..(1u64 << WHEEL_BITS) + 50,
                        any::<u64>(),
                    ],
                    0u8..3,
                ),
                1..120,
            )
        ) {
            check_equivalence(&ops);
        }
    }

    #[test]
    fn wheel_matches_classic_heap_on_dense_ties() {
        // Deterministic worst case: many ties on few ticks with pops
        // interleaved so spill and batch refill paths are exercised.
        let mut ops = Vec::new();
        for i in 0..400u64 {
            ops.push((i % 7 * 64, (i % 3) as u8));
        }
        check_equivalence(&ops);
    }
}
