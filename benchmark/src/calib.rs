//! Host-speed calibration.
//!
//! On a shared machine the simulator's wall-clock speed drifts by tens
//! of percent over minutes as neighbours come and go, which no number
//! of repetitions inside one run can average away. The benchmark
//! therefore times a fixed kernel of its own right after every
//! repetition and scales that repetition's host times to a reference
//! host on which the kernel takes [`REFERENCE_S`]. The kernel is the
//! benchmark's code, not the simulator's, so a change to the simulator
//! moves the scaled numbers exactly as it moves the raw ones.
//!
//! The kernel does what an event-driven simulator does: pops and pushes
//! a 4096-entry binary-heap event queue, inserts into and removes from
//! an ordered map, and touches a 4 MiB table at random.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the reference host, in seconds (about what an idle
/// 2-vCPU Intel Xeon VM takes).
pub const REFERENCE_S: f64 = 0.25;

/// Kernel iterations: about [`REFERENCE_S`] on the reference host.
const ROUNDS: u64 = 3_000_000;

/// Runs the kernel once and returns its wall time in seconds.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(ROUNDS)));
    start.elapsed().as_secs_f64()
}

fn kernel(rounds: u64) -> u64 {
    let mut queue: BinaryHeap<Reverse<(u64, u32)>> =
        (0..4096u32).map(|i| Reverse((u64::from(i), i))).collect();
    let mut inflight: BTreeMap<u64, u64> = BTreeMap::new();
    let mut table = vec![0u64; 1 << 19];
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for n in 0..rounds {
        let Some(Reverse((t, id))) = queue.pop() else {
            break;
        };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = x as usize & mask;
        table[slot] = table[slot].wrapping_add(t ^ n);
        acc = acc.wrapping_add(table[(x >> 32) as usize & mask]);
        if n % 2 == 0 {
            inflight.insert(n, t);
        } else {
            inflight.pop_first();
        }
        queue.push(Reverse((t + 1 + x % 5000, id)));
    }
    acc ^ inflight.len() as u64
}
