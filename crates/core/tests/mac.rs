//! MAC on the simulated OS: estimates and grants checked against a
//! machine of known size.
//!
//! Each machine is a quiet `SimConfig::small()` with its memory cut to a
//! few hundred pages, so a probe sweep runs into the page daemon in
//! milliseconds. File and anonymous pages share that memory (the Linux
//! personality's unified cache), and no file is created here. Quiet,
//! because with interrupt spikes on, one spike inside a verification
//! pass of fewer than 50 pages (where the 2 % slow tolerance allows
//! none) reads as paging and collapses an estimate.

use gray_toolbox::repository::keys;
use gray_toolbox::{GrayDuration, ParamRepository};
use graybox::mac::{Mac, MacParams, MacStats, CALIBRATION_PAGES};
use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig};

const PAGE: u64 = 4096;

/// A quiet machine with `pages` usable pages of physical memory.
fn machine(pages: u64) -> Sim {
    let mut cfg = SimConfig::small().without_noise();
    cfg.mem_bytes = cfg.kernel_reserve_bytes + pages * PAGE;
    Sim::new(cfg)
}

fn small_params() -> MacParams {
    MacParams {
        initial_increment: 4 * PAGE,
        max_increment: 64 * PAGE,
    }
}

#[test]
fn estimates_available_memory_within_one_increment() {
    // 256 pages of memory, nothing else running.
    let est_pages = machine(256).run_one(|os| {
        Mac::new(os, small_params())
            .available_estimate(512 * PAGE)
            .unwrap()
            / PAGE
    });
    assert!(
        (200..=256).contains(&est_pages),
        "estimate {est_pages} pages of 256"
    );
}

#[test]
fn estimate_respects_competitor_usage() {
    let est = machine(256).run_one(|os| {
        // A competitor holds 100 pages resident.
        let competitor = os.mem_alloc(100 * PAGE).unwrap();
        for p in 0..100 {
            os.mem_touch_write(competitor, p).unwrap();
        }
        Mac::new(os, small_params())
            .available_estimate(512 * PAGE)
            .unwrap()
            / PAGE
    });
    // The competitor is *idle*, so under the unified LRU its pages are
    // legitimately reclaimable: the estimate must cover at least the 156
    // free pages, and never exceed physical memory. (An active competitor
    // is `mac_admission_prevents_thrashing_under_competition`'s, in the
    // workspace's `tests/icl_end_to_end.rs`.)
    assert!(
        (156..=256).contains(&est),
        "estimate {est} pages with 156 free of 256"
    );
}

#[test]
fn gb_alloc_returns_multiple_and_fits() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        let alloc = mac
            .gb_alloc(10 * PAGE, 100 * PAGE, 3 * PAGE)
            .unwrap()
            .expect("plenty of memory");
        assert_eq!(alloc.bytes % (3 * PAGE), 0);
        assert!(alloc.bytes >= 10 * PAGE);
        assert!(alloc.bytes <= 100 * PAGE);
        mac.gb_free(alloc).unwrap();
    });
}

#[test]
fn gb_alloc_denies_impossible_minimum() {
    let alloc = machine(64).run_one(|os| {
        Mac::new(os, small_params())
            .gb_alloc(1 << 30, 1 << 30, PAGE)
            .unwrap()
    });
    assert!(alloc.is_none(), "1 GiB cannot fit in 64 pages");
}

#[test]
fn gb_alloc_min_equal_max_is_all_or_nothing() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        let alloc = mac.gb_alloc(64 * PAGE, 64 * PAGE, PAGE).unwrap().unwrap();
        assert_eq!(alloc.bytes, 64 * PAGE);
        mac.gb_free(alloc).unwrap();
    });
}

#[test]
fn zero_max_yields_none() {
    machine(256).run_one(|os| {
        assert!(Mac::new(os, small_params())
            .gb_alloc(0, 0, PAGE)
            .unwrap()
            .is_none());
    });
}

#[test]
#[should_panic(expected = "min exceeds max")]
fn min_above_max_panics() {
    machine(256).run_one(|os| {
        let _ = Mac::new(os, small_params()).gb_alloc(2 * PAGE, PAGE, PAGE);
    });
}

#[test]
fn stats_accumulate_and_reset() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        let _ = mac.available_estimate(64 * PAGE).unwrap();
        let stats = mac.take_stats();
        assert!(stats.pages_probed > 0);
        assert!(stats.probe_time > GrayDuration::ZERO);
        assert_eq!(mac.take_stats(), MacStats::default());
    });
}

/// With both costs in the repository, MAC never builds its calibration
/// region: an estimate takes exactly [`CALIBRATION_PAGES`] fewer
/// demand-zero faults than the same estimate self-calibrated.
#[test]
fn repository_thresholds_skip_calibration() {
    let mut repo = ParamRepository::in_memory();
    repo.set_duration(keys::PAGE_TOUCH_NS, GrayDuration::from_nanos(300));
    repo.set_duration(keys::PAGE_ALLOC_ZERO_NS, GrayDuration::from_micros(4));
    let estimate = |repo: Option<&ParamRepository>| {
        let mut sim = machine(256);
        let oracle = sim.oracle();
        let est = sim.run_one(|os| {
            let mac = match repo {
                Some(repo) => Mac::with_repository(os, small_params(), repo),
                None => Mac::new(os, small_params()),
            };
            mac.available_estimate(64 * PAGE).unwrap()
        });
        (est, oracle.stats().zero_faults)
    };
    let (est, faults) = estimate(Some(&repo));
    let (_, calibrated_faults) = estimate(None);
    assert!(est > 0);
    assert_eq!(calibrated_faults - faults, CALIBRATION_PAGES);
}

#[test]
fn allocation_is_resident_after_admission() {
    let mut sim = machine(256);
    let oracle = sim.oracle();
    sim.run_one(|os| {
        let mac = Mac::new(os, small_params());
        let before = oracle.resident_pages();
        let alloc = mac.gb_alloc(32 * PAGE, 32 * PAGE, PAGE).unwrap().unwrap();
        assert!(
            oracle.resident_pages() >= before + 32,
            "admitted pages must be resident"
        );
        mac.gb_free(alloc).unwrap();
    });
}

#[test]
fn fair_alloc_divides_by_peers() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        let solo = mac.gb_alloc(PAGE, 256 * PAGE, PAGE).unwrap().unwrap();
        let solo_bytes = solo.bytes;
        mac.gb_free(solo).unwrap();
        let shared = mac
            .gb_alloc_fair(PAGE, 256 * PAGE, PAGE, 4)
            .unwrap()
            .unwrap();
        assert!(
            shared.bytes <= solo_bytes / 2,
            "a fair 1-of-4 share must be much less than the solo grab: {} vs {}",
            shared.bytes,
            solo_bytes
        );
        assert!(shared.bytes >= PAGE);
        mac.gb_free(shared).unwrap();
    });
}

#[test]
fn fair_alloc_still_honors_minimum() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        // Fair share of 1/200 would be below the minimum; the minimum
        // wins if it fits at all.
        let a = mac
            .gb_alloc_fair(32 * PAGE, 256 * PAGE, PAGE, 200)
            .unwrap()
            .unwrap();
        assert!(a.bytes >= 32 * PAGE);
        mac.gb_free(a).unwrap();
    });
}
