//! Shared steady-state allocation harness for the per-algorithm
//! zero-alloc tests (`alloc_steady_state*.rs`).
//!
//! Each integration-test binary that includes this module gets a
//! counting global allocator: warm-up iterations size every reusable
//! buffer uncounted, then the same work runs again with counting
//! enabled and [`assert_steady_state_zero_alloc`] asserts not a single
//! byte was requested. Each file must hold exactly one `#[test]` so no
//! concurrent test thread can pollute the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator, counting every allocation (and
/// reallocation) that happens while `ENABLED` is set.
struct CountingAlloc;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

fn record(size: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        CALLS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `step(i)` for `warmup` uncounted iterations (sizing every
/// scratch buffer), then for `counted` more with the counting allocator
/// armed, and asserts the counted phase allocated **zero** bytes.
/// Finishes with a probe allocation proving the counter itself works.
///
/// Also forces the sequential, inline-executor path
/// (`lazydp::exec::set_global_threads(1)`) regardless of the CI
/// matrix's `LAZYDP_THREADS` leg: the zero-allocation contract is for
/// the single-width executor (scoped worker threads are born and die
/// per parallel region, so any multi-thread run allocates thread state
/// by construction).
/// Also pins `lazydp::obs` to counters mode (the default): the
/// zero-allocation contract explicitly *includes* live metric counters
/// and clocked phase spans (plain atomics and clock reads).
pub fn assert_steady_state_zero_alloc(
    algo: &str,
    warmup: usize,
    counted: usize,
    mut step: impl FnMut(usize),
) {
    lazydp::exec::set_global_threads(1);
    lazydp::obs::set_mode(lazydp::obs::ObsMode::Counters);

    for i in 0..warmup {
        step(i);
    }

    BYTES.store(0, Ordering::SeqCst);
    CALLS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    for i in warmup..warmup + counted {
        step(i);
    }
    ENABLED.store(false, Ordering::SeqCst);

    let bytes = BYTES.load(Ordering::SeqCst);
    let calls = CALLS.load(Ordering::SeqCst);
    assert_eq!(
        bytes, 0,
        "steady-state {algo} steps must not allocate: \
         {bytes} bytes over {calls} allocations"
    );

    // Sanity: the counter itself works (a fresh Vec must register).
    ENABLED.store(true, Ordering::SeqCst);
    let probe: Vec<u8> = Vec::with_capacity(4096);
    ENABLED.store(false, Ordering::SeqCst);
    drop(probe);
    assert!(
        BYTES.load(Ordering::SeqCst) >= 4096,
        "counting allocator must observe allocations"
    );
}
