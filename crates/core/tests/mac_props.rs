//! Property-based tests for the admission controller on the simulated
//! OS, on the in-tree deterministic harness (`gray_toolbox::prop`).
//!
//! Machines are quiet, as in `tests/mac.rs`: an interrupt spike in a
//! small verification pass reads as paging.

use gray_toolbox::prop::{check, Gen};
use graybox::mac::{AdmissionRequest, GbAlloc, Mac, MacParams};
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

/// An arbitrary byte-granular request: `min` below 64 pages, `max` up to
/// 64 pages above it, `multiple` anywhere from one byte to eight pages;
/// none of them page-aligned unless drawn so.
fn request(g: &mut Gen) -> AdmissionRequest {
    let min = g.u64(0..64 * PAGE);
    AdmissionRequest {
        min,
        max: min + g.u64(0..64 * PAGE),
        multiple: g.u64(1..8 * PAGE),
    }
}

/// The smallest and largest grant `req` accepts: `min` and `max` cut to
/// the request's `multiple` (at least one `multiple`).
fn grant_bounds(req: &AdmissionRequest) -> (u64, u64) {
    let lo = req.min.max(req.multiple).next_multiple_of(req.multiple);
    (lo, req.max / req.multiple * req.multiple)
}

/// Requests that together fit in this many bytes are granted in full on
/// an idle 128-page machine.
const SURELY_FITS: u64 = 32 * PAGE;

/// Every slot of `grants` answers its request: a multiple of its
/// `multiple` within `[min', max']`, and — when the requests' `max'` sum
/// to at most [`SURELY_FITS`] on an idle machine — exactly `max'`.
fn assert_contract(requests: &[AdmissionRequest], grants: &[Option<GbAlloc>]) {
    assert_eq!(grants.len(), requests.len(), "one slot per request");
    let grantable: Vec<(u64, u64)> = requests.iter().map(grant_bounds).collect();
    let demand: u64 = grantable
        .iter()
        .filter(|(lo, hi)| lo <= hi)
        .map(|b| b.1)
        .sum();
    for ((req, &(lo, hi)), grant) in requests.iter().zip(&grantable).zip(grants) {
        if let Some(alloc) = grant {
            assert_eq!(alloc.bytes % req.multiple, 0, "{req:?}: {}", alloc.bytes);
            assert!(
                (lo..=hi).contains(&alloc.bytes),
                "{req:?}: granted {} outside [{lo}, {hi}]",
                alloc.bytes
            );
        }
        if lo <= hi && demand <= SURELY_FITS {
            assert_eq!(grant.as_ref().map(|a| a.bytes), Some(hi), "{req:?}");
        }
    }
}

/// `gb_alloc` honors its contract for arbitrary byte-granular (min, max,
/// multiple): the result is a multiple in [min', max'] or a clean None —
/// never a panic, never a grant past `max`, never a stray allocation left
/// behind.
#[test]
fn gb_alloc_contract() {
    check("gb_alloc_contract", 24, |g: &mut Gen| {
        let req = request(g);
        let mut sim = machine(128);
        let oracle = sim.oracle();
        sim.run_one(|os| {
            let mac = Mac::new(os, params());
            let before = oracle.resident_pages();
            let grant = mac.gb_alloc(req.min, req.max, req.multiple).unwrap();
            let grants = [grant];
            assert_contract(&[req], &grants);
            for alloc in grants.into_iter().flatten() {
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

/// The same contract through `admit_all`, for one to three pooled
/// requests: every slot answers its own request, and nothing stays
/// resident once the grants are freed.
#[test]
fn admit_all_contract() {
    check("admit_all_contract", 24, |g: &mut Gen| {
        let requests = g.vec(1..4, request);
        let mut sim = machine(128);
        let oracle = sim.oracle();
        sim.run_one(|os| {
            let mac = Mac::new(os, params());
            let before = oracle.resident_pages();
            let grants = mac.admit_all(&requests).unwrap();
            assert_contract(&requests, &grants);
            for alloc in grants.into_iter().flatten() {
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
