//! Property-based tests for the admission controller on the simulated
//! OS, on the in-tree deterministic harness (`gray_toolbox::prop`).
//!
//! Machines are quiet, as in `tests/mac.rs`: an interrupt spike in a
//! small verification pass reads as paging.

use gray_toolbox::prop::{check, Gen};
use graybox::mac::{Mac, MacParams};
use simos::{Sim, SimConfig};

const PAGE: u64 = 4096;

/// A quiet machine with `pages` usable pages of physical memory.
fn machine(pages: u64) -> Sim {
    let mut cfg = SimConfig::small().without_noise();
    cfg.mem_bytes = cfg.kernel_reserve_bytes + pages * PAGE;
    Sim::new(cfg)
}

fn params() -> MacParams {
    MacParams {
        initial_increment: 2 * PAGE,
        max_increment: 32 * PAGE,
    }
}

/// On an otherwise-idle machine of arbitrary size, the estimate lands
/// within a sane band of the true capacity and never exceeds it by
/// more than one increment.
#[test]
fn estimate_tracks_capacity() {
    check("estimate_tracks_capacity", 24, |g: &mut Gen| {
        let capacity_pages = g.u64(48..512);
        let est_pages = machine(capacity_pages).run_one(|os| {
            Mac::new(os, params())
                .available_estimate(capacity_pages * 4 * PAGE)
                .unwrap()
                / PAGE
        });
        assert!(
            est_pages <= capacity_pages,
            "estimate {est_pages} exceeds capacity {capacity_pages}"
        );
        assert!(
            est_pages * 2 >= capacity_pages,
            "estimate {est_pages} below half of capacity {capacity_pages}"
        );
    });
}

/// `gb_alloc` honors its contract for arbitrary (min, max, multiple):
/// the result is a multiple in [min', max'] or a clean None — never a
/// panic, never a stray allocation left behind.
#[test]
fn gb_alloc_contract() {
    check("gb_alloc_contract", 24, |g: &mut Gen| {
        let min_pages = g.u64(0..64);
        let extra_pages = g.u64(0..64);
        let multiple_pages = g.u64(1..8);
        let min = min_pages * PAGE;
        let max = (min_pages + extra_pages) * PAGE;
        let multiple = multiple_pages * PAGE;
        let mut sim = machine(128);
        let oracle = sim.oracle();
        sim.run_one(|os| {
            let mac = Mac::new(os, params());
            let before = oracle.resident_pages();
            if let Some(alloc) = mac.gb_alloc(min, max, multiple).unwrap() {
                assert_eq!(alloc.bytes % multiple, 0);
                assert!(alloc.bytes >= min.max(multiple));
                assert!(alloc.bytes <= max.max(multiple));
                mac.gb_free(alloc).unwrap();
            }
            assert_eq!(
                oracle.resident_pages(),
                before,
                "no residual allocation may survive"
            );
        });
    });
}

/// Fair allocation never returns more than the plain allocation would
/// and still respects the floor.
#[test]
fn fair_alloc_is_bounded_by_plain() {
    check("fair_alloc_is_bounded_by_plain", 24, |g: &mut Gen| {
        let peers = g.range(1u32..8);
        machine(256).run_one(|os| {
            let mac = Mac::new(os, params());
            let plain = mac.gb_alloc(PAGE, 256 * PAGE, PAGE).unwrap().unwrap();
            let plain_bytes = plain.bytes;
            mac.gb_free(plain).unwrap();
            let fair = mac
                .gb_alloc_fair(PAGE, 256 * PAGE, PAGE, peers)
                .unwrap()
                .unwrap();
            assert!(fair.bytes <= plain_bytes + 32 * PAGE);
            if peers > 1 {
                assert!(
                    fair.bytes <= plain_bytes / (peers as u64) + 48 * PAGE,
                    "fair share too large: {} of {} for {} peers",
                    fair.bytes,
                    plain_bytes,
                    peers
                );
            }
            mac.gb_free(fair).unwrap();
        });
    });
}
