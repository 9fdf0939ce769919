//! A counting global allocator for allocation-budget measurements.
//!
//! [`CountingAlloc`] wraps the system allocator and keeps process-wide
//! tallies of allocation calls and bytes requested. The `hotpath` binary
//! and the allocation-budget tests install it with `#[global_allocator]`
//! and read deltas around the region under measurement — a cheap,
//! dependency-free way to (a) publish allocs/iteration in
//! `BENCH_hotpath.json` and (b) assert that steady-state aggregation
//! loops stay allocation-free.
//!
//! The process-wide counters ([`allocations`], [`allocated_bytes`]) are
//! monotonically increasing atomics; concurrent allocations from other
//! threads during a measured region show up in their deltas, so `hotpath`
//! measures single-threaded. [`count_allocs`] instead reads a per-thread
//! counter: an assertion of *zero* allocations must not depend on what
//! the test harness's other threads happen to allocate meanwhile.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator neither allocates nor registers anything.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// System-allocator wrapper that counts every allocation.
pub struct CountingAlloc;

// SAFETY: pure passthrough to `System`; the only extra work is two
// relaxed atomic increments and a thread-local `Cell` bump, none of which
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still reserves new capacity: count it.
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Total allocation calls since process start (monotonic).
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Total bytes requested since process start (monotonic; not live bytes).
pub fn allocated_bytes() -> u64 {
    BYTES.load(Ordering::Relaxed)
}

/// Runs `f` and returns `(result, allocation calls `f` made on this
/// thread)`. Only meaningful when [`CountingAlloc`] is installed as the
/// global allocator; what other threads allocate meanwhile is not counted.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = THREAD_ALLOCS.with(Cell::get);
    let out = f();
    (out, THREAD_ALLOCS.with(Cell::get) - before)
}
