//! Booting a machine costs what the machine's *structure* holds —
//! disks, cylinder groups, pools — never what its disks, memory or swap
//! could hold.
//!
//! Every grid cell of the scenario matrix and the covert lab boots (and
//! drops) its own `Sim`, so boot is on the path of every score the
//! repository publishes. When free blocks, i-numbers and swap slots were
//! sets of individual integers, `Sim::new(SimConfig::paper())` made
//! 1.29 M allocations totalling 366 MB and `SimConfig::small()` 52 k
//! totalling 14.8 MB; as extents both are a few thousand small ones.
//! This test pins that with a counting allocator — a deterministic gate,
//! no clock: a regression here means something is again being sized by
//! capacity instead of use.
//!
//! One `#[test]` only: the counters are process-wide, and counting is
//! switched on for the booting thread alone so the harness's own threads
//! stay out of the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use simos::{Sim, SimConfig};

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

/// (allocation calls, bytes requested) of booting one machine.
fn boot_cost(cfg: SimConfig) -> (u64, u64) {
    let before = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    COUNTING.set(true);
    let sim = Sim::new(cfg);
    COUNTING.set(false);
    let after = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    drop(sim);
    (after.0 - before.0, after.1 - before.1)
}

#[test]
fn boot_allocates_by_structure_not_by_capacity() {
    let (calls, bytes) = boot_cost(SimConfig::small());
    println!("SimConfig::small(): {calls} allocations, {bytes} bytes");
    assert!(
        calls < 2_000 && bytes < 256 << 10,
        "small boot: {calls} calls, {bytes} B"
    );

    let (calls, bytes) = boot_cost(SimConfig::paper());
    println!("SimConfig::paper(): {calls} allocations, {bytes} bytes");
    assert!(
        calls < 20_000 && bytes < 4 << 20,
        "paper boot: {calls} calls, {bytes} B"
    );
}
