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

mod common;

use common::FailingOs;
use gray_toolbox::repository::keys;
use gray_toolbox::{GrayDuration, ParamRepository};
use graybox::mac::{AdmissionRequest, Mac, MacParams, MacStats, CALIBRATION_PAGES};
use graybox::microbench::Microbench;
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

/// A grant never exceeds its request's `max`, even when `max` is not a
/// whole number of pages: the probe covers whole pages, and its answer is
/// cut back to the bound it was asked under.
#[test]
fn gb_alloc_never_grants_past_max() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        let alloc = mac
            .gb_alloc(100, 12_300, 100)
            .unwrap()
            .expect("plenty of memory");
        assert!(alloc.bytes <= 12_300, "granted {} bytes", alloc.bytes);
        assert!(alloc.bytes >= 100 && alloc.bytes.is_multiple_of(100));
        mac.gb_free(alloc).unwrap();
    });
}

/// An exact request that is not a whole number of pages (a sort's last
/// pass) is granted in full on an idle machine, not denied on every
/// retry.
#[test]
fn admit_all_grants_an_exact_unaligned_request() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        let exact = AdmissionRequest {
            min: 12_300,
            max: 12_300,
            multiple: 100,
        };
        let grants = mac.admit_all(&[exact]).unwrap();
        let sizes: Vec<Option<u64>> = grants.iter().map(|g| g.as_ref().map(|g| g.bytes)).collect();
        assert_eq!(sizes, [Some(12_300)]);
        for alloc in grants.into_iter().flatten() {
            mac.gb_free(alloc).unwrap();
        }
    });
}

/// Pooled requests are answered slot for slot, in request order: the one
/// that cannot fit is denied in its own slot while the requests around it
/// are granted.
#[test]
fn admit_all_answers_each_request_in_order() {
    machine(256).run_one(|os| {
        let mac = Mac::new(os, small_params());
        assert!(mac.admit_all(&[]).unwrap().is_empty());
        let request = |min, max| AdmissionRequest {
            min: min * PAGE,
            max: max * PAGE,
            multiple: PAGE,
        };
        let grants = mac
            .admit_all(&[request(4, 8), request(300, 300), request(2, 2)])
            .unwrap();
        let sizes: Vec<Option<u64>> = grants.iter().map(|g| g.as_ref().map(|g| g.bytes)).collect();
        assert_eq!(sizes, [Some(8 * PAGE), None, Some(2 * PAGE)]);
        assert_eq!(mac.take_stats().attempts, 3, "one attempt per request");
        for alloc in grants.into_iter().flatten() {
            mac.gb_free(alloc).unwrap();
        }
    });
}

/// The scratch file the microbenchmarks create and must delete.
const SCRATCH: &str = "/scratch";

/// Every MAC entry point and every microbenchmark once, in order, freeing
/// whatever was granted.
fn every_entry_point(os: &FailingOs<'_>) {
    let mac = Mac::new(os, small_params());
    let _ = mac.available_estimate(64 * PAGE);
    if let Ok(Some(alloc)) = mac.gb_alloc(8 * PAGE, 48 * PAGE, PAGE) {
        mac.gb_free(alloc).unwrap();
    }
    let requests = [AdmissionRequest {
        min: 4 * PAGE,
        max: 16 * PAGE,
        multiple: PAGE,
    }; 3];
    if let Ok(grants) = mac.admit_all(&requests) {
        for alloc in grants.into_iter().flatten() {
            mac.gb_free(alloc).unwrap();
        }
    }
    let bench = Microbench::new(os);
    let _ = bench.page_costs();
    let _ = bench.disk_profile(SCRATCH, 16 * PAGE);
    let _ = bench.access_unit(SCRATCH, 4 << 20);
}

/// Simulated memory is global, not per process: whatever a failed probe
/// path does not give back stays resident for the machine's life (under
/// gbd, the daemon's shared machine), and so does a scratch file nobody
/// deletes. Fail each touch and each read of the whole sequence in turn,
/// each on a fresh quiet machine of 256 pages; no scratch file may be
/// left, and once the file cache is dropped (the file system's metadata
/// pages stay cached after a file is deleted) no page may stay resident.
#[test]
fn a_failed_touch_leaves_no_memory_resident() {
    // Returns (touches and reads issued, pages resident after the
    // sequence, whether the scratch file is left).
    let run = |fail_at| {
        let mut sim = machine(256);
        let oracle = sim.oracle();
        let (ops, left) = sim.run_one(|os| {
            let failing = FailingOs::new(os, fail_at);
            every_entry_point(&failing);
            (failing.ops(), os.stat(SCRATCH).is_ok())
        });
        sim.flush_file_cache();
        (ops, oracle.resident_pages(), left)
    };
    let (ops, resident, left) = run(0);
    assert_eq!((resident, left), (0, false));
    assert!(ops > 1000, "{ops} touches and reads");
    for k in 1..=ops {
        let (issued, resident, left) = run(k);
        assert!(issued >= k, "operation {k} was never issued");
        assert_eq!(resident, 0, "failing operation {k} of {ops} leaked memory");
        assert!(
            !left,
            "failing operation {k} of {ops} left the scratch file"
        );
    }
}
