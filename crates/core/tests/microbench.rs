//! The configuration microbenchmarks on the simulated OS.
//!
//! Memory is set per test. File and anonymous pages share it (the Linux
//! personality's unified cache), so "a file larger than the cache" means
//! a file larger than the machine's memory.

use gray_toolbox::repository::keys;
use gray_toolbox::{GrayDuration, ParamRepository};
use graybox::microbench::{Microbench, SAMPLES};
use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig};

const PAGE: u64 = 4096;

/// A machine with `pages` usable pages of physical memory.
fn machine(pages: u64) -> Sim {
    let mut cfg = SimConfig::small();
    cfg.mem_bytes = cfg.kernel_reserve_bytes + pages * PAGE;
    Sim::new(cfg)
}

#[test]
fn page_costs_orders_touch_below_zero() {
    let costs = Sim::new(SimConfig::small())
        .run_one(|os| Microbench::new(os).page_costs())
        .unwrap();
    assert!(costs.touch < costs.zero, "{costs:?}");
    assert!(costs.touch >= GrayDuration::from_nanos(1));
}

/// Each cold single-page read also fetches the 4-page initial readahead
/// window, so the [`SAMPLES`] re-read offsets stay resident only in a
/// cache of more than `SAMPLES` × 4 pages: twice that in memory, and a
/// file four times the memory so that the first reads still miss.
#[test]
fn disk_profile_separates_hit_from_miss() {
    let pages = 2 * 4 * SAMPLES as u64;
    machine(pages).run_one(|os| {
        let profile = Microbench::new(os)
            .disk_profile("/scratch", 4 * pages * PAGE)
            .unwrap();
        assert!(
            profile.random_page_read > profile.page_hit * 10,
            "{profile:?}"
        );
        // Scratch file must be gone.
        assert!(os.stat("/scratch").is_err());
    });
}

#[test]
fn disk_profile_rejects_tiny_files() {
    machine(32).run_one(|os| assert!(Microbench::new(os).disk_profile("/s", PAGE).is_err()));
}

#[test]
fn access_unit_picks_a_candidate_within_bounds() {
    machine(64).run_one(|os| {
        let unit = Microbench::new(os)
            .access_unit("/scratch", 16 << 20)
            .unwrap();
        // Candidates are powers of two megabytes; the file allows up to
        // 4 MB (needs 4x headroom).
        assert!(unit.is_power_of_two());
        assert!((1 << 20..=4 << 20).contains(&unit), "unit {unit}");
        assert!(os.stat("/scratch").is_err(), "scratch must be removed");
    });
}

#[test]
fn access_unit_rejects_files_too_small_to_sweep() {
    machine(64).run_one(|os| assert!(Microbench::new(os).access_unit("/s", 1 << 20).is_err()));
}

#[test]
fn run_all_populates_the_repository() {
    let mut repo = ParamRepository::in_memory();
    machine(256).run_one(|os| {
        Microbench::new(os)
            .run_all("/", 8 << 20, &mut repo)
            .unwrap()
    });
    for key in [
        keys::PAGE_TOUCH_NS,
        keys::PAGE_ALLOC_ZERO_NS,
        keys::PAGE_UNCACHED_READ_NS,
        keys::PAGE_CACHED_READ_NS,
        keys::DISK_BANDWIDTH_BPS,
        keys::DISK_SEEK_NS,
        keys::ACCESS_UNIT_BYTES,
        keys::PAGE_SIZE_BYTES,
    ] {
        assert!(repo.contains(key), "missing {key}");
    }
}
