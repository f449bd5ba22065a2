//! Frozen golden for the page cache and VM under memory pressure.
//!
//! The frame-table cache and the dense VM maps replaced tree- and
//! SipHash-based structures on the promise that nothing but host time
//! moved. This test pins that promise from outside the two modules: one
//! script per platform personality — warm half the machine with a dirty
//! file and an anonymous region, run a MAC estimate over it, then stream
//! a file twice the size of memory through the cache — and compares the
//! final virtual clock, the kernel's paging counters, the MAC estimate
//! and an eviction-order hash (the oracle's per-page presence bitmaps of
//! every file, folded after each step, so *which* pages left and *when*
//! both count) against values captured by running this very file in a
//! `git clone` of the parent commit (908a133, `BTreeMap` LRU order,
//! `HashMap` entries, `BTreeSet` of free swap slots).
//!
//! A mismatch prints every observed row; paste them over the golden
//! only when a change is *meant* to alter replacement or paging.

use graybox::mac::{Mac, MacParams};
use graybox::os::GrayBoxOs;
use simos::{Oracle, Platform, Sim, SimConfig};

const PAGE: u64 = 4096;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds which pages of each file are resident right now.
fn fold_presence(h: &mut u64, oracle: &Oracle, paths: &[&str]) {
    for path in paths {
        let Ok(bitmap) = oracle.file_presence(path) else {
            fnv(h, u64::MAX);
            continue;
        };
        fnv(h, bitmap.len() as u64);
        for (page, _) in bitmap.iter().enumerate().filter(|(_, &b)| b) {
            fnv(h, page as u64);
        }
    }
    fnv(h, oracle.resident_pages() as u64);
    fnv(h, oracle.swap_slots_in_use());
}

/// (final clock ns, MAC estimate bytes, zero_faults, swap_ins, swap_outs,
/// file_page_reads, file_page_writes, eviction-order hash).
type Row = (u64, u64, u64, u64, u64, u64, u64, u64);

fn run_script(platform: Platform) -> Row {
    let mut cfg = SimConfig::small().without_noise().with_platform(platform);
    cfg.mem_bytes = 24 << 20;
    cfg.kernel_reserve_bytes = 4 << 20;
    let mut sim = Sim::new(cfg);
    let oracle = sim.oracle();
    let usable = oracle.total_pages();
    let paths = ["/warm", "/stream"];
    let mut h = 0xcbf2_9ce4_8422_2325u64;

    // Half-warm machine: a quarter of memory in dirty file pages, a
    // quarter in a written anonymous region that stays alive throughout.
    let region = sim.run_one(|os| {
        let fd = os.create("/warm").unwrap();
        os.write_fill(fd, 0, usable / 4 * PAGE).unwrap();
        os.close(fd).unwrap();
        let region = os.mem_alloc(usable / 4 * PAGE).unwrap();
        for p in 0..usable / 4 {
            os.mem_touch_write(region, p).unwrap();
        }
        let fd = os.create("/stream").unwrap();
        os.write_fill(fd, 0, 2 * usable * PAGE).unwrap();
        os.close(fd).unwrap();
        region
    });
    fold_presence(&mut h, &oracle, &paths);

    // MAC's two-loop write probe walks past the free-memory knee, pushing
    // the warm file out and the anonymous region to swap.
    let estimate = sim.run_one(|os| {
        let params = MacParams {
            initial_increment: 1 << 20,
            max_increment: 4 << 20,
        };
        Mac::new(os, params)
            .available_estimate(2 * usable * PAGE)
            .unwrap()
    });
    fold_presence(&mut h, &oracle, &paths);

    // A sequential read of twice the cache, sampled sixteen times, with
    // the anonymous region re-touched (swap-ins) half-way through.
    let chunk = 2 * usable * PAGE / 16;
    for step in 0..16u64 {
        sim.run_one(|os| {
            let fd = os.open("/stream").unwrap();
            os.read_discard(fd, step * chunk, chunk).unwrap();
            os.close(fd).unwrap();
            if step == 8 {
                for p in (0..usable / 4).step_by(3) {
                    os.mem_touch_read(region, p).unwrap();
                }
                for p in (0..usable / 4).step_by(7) {
                    os.mem_touch_write(region, p).unwrap();
                }
            }
        });
        fold_presence(&mut h, &oracle, &paths);
    }
    sim.run_one(|os| {
        os.mem_free(region).unwrap();
        os.sync().unwrap();
        os.unlink("/warm").unwrap();
    });
    fold_presence(&mut h, &oracle, &paths);

    let s = oracle.stats();
    (
        sim.now().as_nanos(),
        estimate,
        s.zero_faults,
        s.swap_ins,
        s.swap_outs,
        s.file_page_reads,
        s.file_page_writes,
        h,
    )
}

const GOLDEN: [(Platform, Row); 3] = [
    (
        Platform::LinuxLike,
        (
            10_991_322_948,
            19_922_944,
            12_864,
            805,
            2_816,
            10_240,
            11_522,
            15_979_768_296_979_050_444,
        ),
    ),
    (
        Platform::NetBsdLike,
        (
            5_106_592_800,
            13_946_880,
            8_205,
            23,
            54,
            10_240,
            11_523,
            15_468_973_616_982_767_224,
        ),
    ),
    // Re-captured when MAC's calibration learned to retry on fewer pages:
    // on this full sticky cache the calibration region recycles its own
    // frames, so its re-touches are swap-ins at 64 pages and at the 32, 16
    // and 8 it retries on. The estimate did not move; the clock and the
    // paging counters carry the three extra passes.
    (
        Platform::SolarisLike,
        (
            787_562_609_756,
            41_943_040,
            11_640,
            64_616,
            74_972,
            7_997,
            11_522,
            3_128_290_692_823_162_018,
        ),
    ),
];

#[test]
fn memory_pressure_script_matches_the_parent_commit() {
    let got = GOLDEN.map(|(platform, _)| (platform, run_script(platform)));
    assert_eq!(
        got, GOLDEN,
        "a platform left its golden (clock ns, MAC estimate, zero_faults, swap_ins, \
         swap_outs, file_page_reads, file_page_writes, eviction-order hash)"
    );
}
