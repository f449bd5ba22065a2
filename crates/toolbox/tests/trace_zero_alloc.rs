//! The disabled tracer's and profiler's overhead budget, enforced: an
//! emission site or charge hook whose sink is off must cost one branch —
//! in particular it must never build the event or the attribution path,
//! so it must never allocate. A counting global allocator makes "never
//! allocates" a hard assertion instead of a code-review promise. (The
//! toolbox lib forbids `unsafe`; a `#[global_allocator]` needs it, which
//! is why this lives in an integration test — its own crate — rather
//! than in `src/trace.rs`.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Counting is switched on for the measuring thread alone: the test
    // harness's main thread allocates on its own schedule.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the allocator also runs while a thread's locals
        // are being torn down.
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_emission_and_spans_allocate_nothing() {
    use gray_toolbox::profile;
    use gray_toolbox::trace::{self, TraceEvent, Verdict};

    assert!(
        !trace::enabled() && !profile::enabled(),
        "tracing and profiling must start disabled on a fresh thread"
    );
    // Warm up any lazily initialized thread-local machinery outside the
    // measured window.
    trace::emit_with(|| TraceEvent::ProbePlanned {
        target: String::new(),
        probes: 0,
    });

    COUNTING.set(true);
    for i in 0..100_000u64 {
        trace::emit_with(|| TraceEvent::ProbePlanned {
            target: format!("file{i}"),
            probes: i,
        });
        trace::emit_with(|| TraceEvent::Classified {
            unit: format!("unit{i}"),
            verdict: Verdict::Cached,
        });
        let _span = trace::span("plan", || format!("p{i}"));
        let _op = profile::op_scope("sys_read");
        profile::charge(i, "cpu", i);
    }
    COUNTING.set(false);
    assert_eq!(
        ALLOCATIONS.load(Ordering::Relaxed),
        0,
        "disabled emit_with/span/op_scope/charge must not run closures or allocate"
    );
}
