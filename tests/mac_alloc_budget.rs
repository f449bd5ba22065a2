//! One MAC estimate allocates per sub-batch *answer*, not per sub-batch
//! *question*.
//!
//! `Mac::available_estimate` issues its two-loop page touches in sub-batches
//! of `SUB_BATCH_PAGES`: about 3 900 `mem_probe_batch` calls for one estimate
//! on `SimConfig::small()` with the scenario matrix's 1 MB / 4 MB increments.
//! Each call returns its samples in a fresh vector — the one allocation a
//! sub-batch is entitled to. Each used to `collect()` its page numbers into a
//! second, thrown away on return; the plan is now one buffer per `Mac`,
//! refilled. This pins it the way `boot_budget.rs` pins boot: a counting
//! allocator, no clock.
//!
//! Each estimate also frees its scratch regions. Freeing hands every
//! resident frame back in one walk of the region's page table and builds
//! no list of them, so freeing a probed region allocates nothing.
//!
//! One `#[test]` only (see `counting_alloc`).

mod counting_alloc;

use counting_alloc::counted;
use graybox::mac::{Mac, MacParams, SUB_BATCH_PAGES};
use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig, PAGE_SIZE};

/// Pages of the region freed under the counter: 16 MB, resident in full
/// on `SimConfig::small()`.
const FREED_PAGES: u64 = 4096;

/// Everything one estimate allocates that is not a sub-batch's samples:
/// threshold calibration, two scratch regions with their
/// touched-bit and swap-slot tables, the page-table chunks of each (one per
/// 512 pages), the frame slab's doublings, and the short sub-batch that ends
/// each loop (the bound below divides pages, not calls). Measured at 170;
/// with a plan collected per sub-batch the total was 8 025, not 4 097.
const FIXED: u64 = 256;

#[test]
fn an_estimate_allocates_one_vector_per_sub_batch() {
    let params = MacParams {
        initial_increment: 1 << 20,
        max_increment: 4 << 20,
    };
    let mut sim = Sim::new(SimConfig::small());
    let (calls, pages, freed) = sim.run_one(move |os| {
        let mac = Mac::new(os, params);
        let (fit, calls, _bytes) = counted(|| mac.available_estimate(128 << 20));
        assert!(fit.expect("estimate succeeds") > 0);
        let region = os.mem_alloc(FREED_PAGES * PAGE_SIZE).unwrap();
        let pages: Vec<u64> = (0..FREED_PAGES).collect();
        assert!(os.mem_probe_batch(region, &pages).iter().all(|s| s.ok));
        let (freed, free_calls, free_bytes) = counted(|| os.mem_free(region));
        freed.expect("the region was live");
        (
            calls,
            mac.take_stats().pages_probed,
            (free_calls, free_bytes),
        )
    });
    let sub_batches = pages.div_ceil(SUB_BATCH_PAGES);
    println!("{calls} allocations for {pages} probed pages, {sub_batches} full sub-batches");
    assert!(sub_batches > 3_000, "the estimate got short: {pages} pages");
    assert!(
        calls <= sub_batches + FIXED,
        "{calls} allocations for {sub_batches} sub-batches: more than one each"
    );
    assert_eq!(
        freed,
        (0, 0),
        "(allocations, bytes) freeing {FREED_PAGES} resident pages"
    );
}
