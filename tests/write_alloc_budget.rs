//! A written page allocates nothing on the host.
//!
//! `sys_write` maps each page to a disk block (`Fs::ensure_block`), charges
//! the metadata the mapping dirtied (`Kernel::charge_meta`), and inserts the
//! page into the cache. The block list grows in place, and the metadata log
//! goes back to its file system emptied, so its buffers are reused. A
//! fresh `Vec` of new blocks per call, and a log dropped per charge, cost
//! two allocations a page: 2 074 for the 1 024 pages below. This pins it
//! the way `exec_alloc_budget.rs` pins a spawn: a counting allocator, no
//! clock.
//!
//! What the cache keeps per resident page is pinned here too, in bytes:
//! the frame slab is most of what the write requests, so a frame that
//! grows past 32 bytes overruns [`BYTES_BUDGET`]. The write requested
//! 152 864 bytes in 25 allocations with 32-byte frames, and 250 976 bytes
//! in 25 allocations with the 56-byte frames that also carried a
//! `PageId` and the owner's page list.
//!
//! One `#[test]` only (see `counting_alloc`).

mod counting_alloc;

use counting_alloc::counted;
use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig};

const BYTES: u64 = 4 << 20;

/// What the whole write may allocate: the doublings of the file's block
/// list and of the metadata log's buffers, the cache's frame slab and the
/// page tables its owners grow.
const BUDGET: u64 = 64;

/// What the whole write may request, in bytes: the frame slab's doublings
/// up to 2 048 frames of 32 bytes (4 092 frames' worth), and 32 KB for the
/// block list, the metadata log's buffers and the page-table chunks
/// (measured at 22 KB together).
const BYTES_BUDGET: u64 = 4092 * 32 + (32 << 10);

#[test]
fn a_written_page_allocates_nothing() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let (calls, bytes) = sim.run_one(|os| {
        let fd = os.create("/out").expect("file is created");
        let (written, calls, bytes) = counted(|| os.write_fill(fd, 0, BYTES));
        assert_eq!(written.expect("the write succeeds"), BYTES);
        (calls, bytes)
    });
    println!(
        "{calls} allocations, {bytes} bytes to write {} pages",
        BYTES / 4096
    );
    assert!(
        calls <= BUDGET,
        "{calls} allocations to write {BYTES} bytes: the write path allocates per page"
    );
    assert!(
        bytes <= BYTES_BUDGET,
        "{bytes} bytes requested to write {BYTES} bytes: a resident page costs more than 32 bytes"
    );
}
