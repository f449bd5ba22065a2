//! Spawning a simulated process allocates once: its entry closure.
//!
//! `Sim::try_run` turns every workload into a coroutine. Each coroutine's
//! saved stack pointers, start context and stack handle live in one
//! per-run table, so the one allocation a process makes of its own is
//! the type-erased closure the coroutine starts in. This pins it the way
//! `mac_alloc_budget.rs` pins a MAC estimate: a counting allocator, no
//! clock. With a `Box` each for the saved stack pointers and the start
//! context, 1 024 processes cost 3 126 allocations; with the table, 1 068.
//!
//! One `#[test]` only (see `counting_alloc`).

mod counting_alloc;

use counting_alloc::counted;
use gray_toolbox::GrayDuration;
use graybox::os::GrayBoxOs;
use simos::exec::Workload;
use simos::{Sim, SimConfig, SimProc};

const PROCS: u64 = 1_024;

/// Everything a run allocates that is not one process's entry closure:
/// the per-run vectors (names, pids, result slots, trace contexts, the
/// coroutine table, the run queue, the results), the doublings of the
/// kernel's per-pid vectors and of the stack pool's free list.
const FIXED: u64 = 64;

#[test]
fn a_process_spawn_allocates_once() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let workloads: Vec<(String, Workload<'static, ()>)> = (0..PROCS)
        .map(|i| {
            let body: Workload<'static, ()> =
                Box::new(|os: &SimProc| os.compute(GrayDuration::from_micros(1)));
            (format!("p{i}"), body)
        })
        .collect();
    let (results, calls, _bytes) = counted(|| sim.try_run(workloads));
    assert_eq!(results.expect("no process panics").len(), PROCS as usize);
    println!("{calls} allocations for {PROCS} processes");
    assert!(
        calls <= PROCS + FIXED,
        "{calls} allocations for {PROCS} processes: more than one each"
    );
}
