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
//! One `#[test]` only (see `counting_alloc`).

mod counting_alloc;

use counting_alloc::counted;
use simos::{Sim, SimConfig};

/// (allocation calls, bytes requested) of booting one machine.
fn boot_cost(cfg: SimConfig) -> (u64, u64) {
    let (sim, calls, bytes) = counted(|| Sim::new(cfg));
    drop(sim);
    (calls, bytes)
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
