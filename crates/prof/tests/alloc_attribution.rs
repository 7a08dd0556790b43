//! The profiler charges each allocation to the scope that is innermost
//! when it happens, while this thread's counting is armed.

use bm_prof::alloc::{self, CountingAlloc};
use bm_prof::Profiler;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One dispatch that allocates once inside `outer;inner`.
fn dispatch(p: &mut Profiler) {
    p.enter("outer");
    p.enter("inner");
    std::hint::black_box(vec![0u8; 64]);
    p.exit();
    p.exit();
}

fn allocs_per_scope(armed: bool) -> Vec<(String, u64)> {
    let mut p = Profiler::new();
    // Warm up so the profiler's own node and stack vectors are grown
    // before the measured dispatch.
    dispatch(&mut p);
    if armed {
        alloc::arm();
    }
    p.run_begin();
    dispatch(&mut p);
    p.run_end();
    alloc::disarm();
    let snap = p.snapshot();
    snap.scopes.iter().map(|s| (s.key(), s.allocs)).collect()
}

#[test]
fn allocations_go_to_the_innermost_scope_while_armed() {
    let scopes = |inner: u64| vec![("outer".to_string(), 0), ("outer;inner".to_string(), inner)];
    assert_eq!(allocs_per_scope(true), scopes(1));
    assert_eq!(allocs_per_scope(false), scopes(0));
}
