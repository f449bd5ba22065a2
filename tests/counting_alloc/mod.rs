//! A counting global allocator for the budget tests (`boot_budget.rs`,
//! `mac_alloc_budget.rs`): a deterministic gate, no clock.
//!
//! The counters are process-wide, so a test binary that includes this
//! module holds one `#[test]` only; counting is switched on for the
//! measuring thread alone, so the harness's own threads stay out of the
//! numbers (a `run_one` coroutine runs on its caller's thread).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    fn note(bytes: usize) {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            CALLS.fetch_add(1, Relaxed);
            BYTES.fetch_add(bytes as u64, Relaxed);
        }
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only atomics and a
// const-initialized thread-local `Cell`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown buffer is charged in full: the budget is an upper bound.
        Self::note(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` on this thread and returns its result with the allocation
/// calls and bytes it requested.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, u64, u64) {
    let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    COUNTING.set(true);
    let out = f();
    COUNTING.set(false);
    let after = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    (out, after.0 - before.0, after.1 - before.1)
}
