//! A path syscall allocates nothing on the host.
//!
//! `stat` and `open` split the mount prefix off the path
//! (`Kernel::mount_of`) and walk the rest (`Fs::resolve`). Both borrow the
//! caller's path: the file system's part is a slice of it, and the walk
//! splits it in place. An owned copy of that part, a `String` of the
//! mount's digits and a `Vec` of the components cost up to three
//! allocations a call: 2 001 for 1 000 `stat`s of `/a/b/f` and 3 000 for
//! 1 000 of `/d1/a/f` (2 000 and 3 000 for open/close pairs). This pins it
//! the way `write_alloc_budget.rs` pins a written page: a counting
//! allocator, no clock.
//!
//! One `#[test]` only (see `counting_alloc`).

mod counting_alloc;

use counting_alloc::counted;
use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig};

/// Syscalls (or open/close pairs) in one measured loop.
const CALLS: u64 = 1_000;

/// What one loop may allocate: the growth of a table the calls touch
/// (the page cache's, the descriptor table's), never one per call.
const BUDGET: u64 = 16;

#[test]
fn a_path_syscall_allocates_nothing() {
    // Two disks: `/d1/...` names the second.
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let counts = sim.run_one(|os| {
        for dir in ["/a", "/a/b", "/d1/a"] {
            os.mkdir(dir).expect("directory is made");
        }
        let mut counts = Vec::new();
        for path in ["/a/b/f", "/d1/a/f"] {
            os.close(os.create(path).expect("file is created")).unwrap();
            let ((), stats, _) = counted(|| {
                for _ in 0..CALLS {
                    os.stat(path).expect("file is found");
                }
            });
            let ((), opens, _) = counted(|| {
                for _ in 0..CALLS {
                    os.close(os.open(path).expect("file opens")).unwrap();
                }
            });
            counts.push((path, stats, opens));
        }
        counts
    });
    for &(path, stats, opens) in &counts {
        println!(
            "{path}: {stats} allocations for {CALLS} stats, {opens} for {CALLS} open/close pairs"
        );
    }
    for (path, stats, opens) in counts {
        assert!(
            stats <= BUDGET && opens <= BUDGET,
            "{path}: {stats} allocations for {CALLS} stats and {opens} for {CALLS} open/close \
             pairs: a path syscall allocates"
        );
    }
}
