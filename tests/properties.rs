//! Property-based tests over the core data structures and the invariants
//! DESIGN.md calls out, on the in-tree deterministic harness
//! (`gray_toolbox::prop`): fixed case counts, seeded generators, and a
//! printed reproduction seed on failure (see DESIGN.md "Determinism and
//! the hermetic build").

use gray_toolbox::prop::{check, Gen};
use gray_toolbox::rng::StdRng;
use gray_toolbox::{
    discard_outliers, split_fast_slow, two_means, OnlineStats, OutlierPolicy, Summary,
};
use graybox_icl::graybox::os::{GrayBoxOs, GrayBoxOsExt};
use graybox_icl::simos::{CacheArch, Sim, SimConfig};

// --- Toolbox ---------------------------------------------------------

#[test]
fn online_stats_matches_batch() {
    check("online_stats_matches_batch", 64, |g: &mut Gen| {
        let xs = g.vec(1..200, |g| g.f64(-1e6..1e6));
        let online = OnlineStats::from_slice(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((online.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((online.variance() - var).abs() < 1e-4 * (1.0 + var.abs()));
    });
}

#[test]
fn online_merge_equals_concatenation() {
    check("online_merge_equals_concatenation", 64, |g: &mut Gen| {
        let a = g.vec(0..60, |g| g.f64(-1e5..1e5));
        let b = g.vec(0..60, |g| g.f64(-1e5..1e5));
        let mut merged = OnlineStats::from_slice(&a);
        merged.merge(&OnlineStats::from_slice(&b));
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        let whole = OnlineStats::from_slice(&all);
        assert_eq!(merged.count(), whole.count());
        if !all.is_empty() {
            assert!((merged.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        }
    });
}

#[test]
fn summary_percentiles_are_monotone() {
    check("summary_percentiles_are_monotone", 64, |g: &mut Gen| {
        let xs = g.vec(1..100, |g| g.f64(-1e6..1e6));
        let s = Summary::new(&xs);
        let mut last = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0] {
            let v = s.percentile(p);
            assert!(v >= last, "percentile({p}) = {v} < {last}");
            last = v;
        }
        assert_eq!(s.percentile(0.0), s.min());
        assert_eq!(s.percentile(100.0), s.max());
    });
}

#[test]
fn two_means_is_permutation_invariant() {
    check("two_means_is_permutation_invariant", 64, |g: &mut Gen| {
        let xs = g.vec(2..60, |g| g.f64(0.0..1e6));
        let seed = g.u64(0..1000);
        let c1 = two_means(&xs);
        let mut shuffled = xs.clone();
        StdRng::seed_from_u64(seed).shuffle(&mut shuffled);
        let c2 = two_means(&shuffled);
        assert!((c1.within_ss - c2.within_ss).abs() < 1e-6 * (1.0 + c1.within_ss));
        let mut s1 = c1.sizes.clone();
        let mut s2 = c2.sizes.clone();
        s1.sort_unstable();
        s2.sort_unstable();
        assert_eq!(s1, s2);
    });
}

#[test]
fn split_fast_slow_is_permutation_invariant() {
    check(
        "split_fast_slow_is_permutation_invariant",
        64,
        |g: &mut Gen| {
            // Hits near 2 µs, misses 1–8 ms, either population possibly empty.
            let mut xs = g.vec(0..30, |g| g.f64(1.5e3..3e3));
            xs.extend(g.vec(0..30, |g| g.f64(1e6..8e6)));
            let seed = g.u64(0..1000);
            let mut order: Vec<usize> = (0..xs.len()).collect();
            StdRng::seed_from_u64(seed).shuffle(&mut order);
            let shuffled: Vec<f64> = order.iter().map(|&i| xs[i]).collect();
            let a = split_fast_slow(&xs);
            let b = split_fast_slow(&shuffled);
            assert!((a.separation - b.separation).abs() < 1e-9);
            for (pos, &i) in order.iter().enumerate() {
                assert_eq!(a.fast[i], b.fast[pos], "verdict for {} moved", xs[i]);
            }
        },
    );
}

/// Two clusters never fit worse than one: the split's within-cluster sum
/// of squares is at most the data's total sum of squares (the one-cluster
/// within-SS), so its separation lies in [0, 1].
#[test]
fn kmeans_within_ss_decreases_with_k() {
    check("kmeans_within_ss_decreases_with_k", 64, |g: &mut Gen| {
        let xs = g.vec(4..40, |g| g.f64(0.0..1e4));
        let c = two_means(&xs);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let total_ss: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum();
        assert!(c.within_ss <= total_ss + 1e-9 * (1.0 + total_ss));
        let separation = c.separation(&xs);
        assert!((0.0..=1.0).contains(&separation), "{separation}");
    });
}

#[test]
fn outlier_filter_is_idempotent_under_iqr() {
    check(
        "outlier_filter_is_idempotent_under_iqr",
        64,
        |g: &mut Gen| {
            let xs = g.vec(3..80, |g| g.f64(0.0..1e3));
            let policy = OutlierPolicy::Iqr { k: 1.5 };
            let once = discard_outliers(&xs, policy);
            let twice = discard_outliers(&once, policy);
            // Filtering can only shrink, and survivors of the second pass are
            // a subset of the first.
            assert!(twice.len() <= once.len());
            assert!(twice.iter().all(|x| once.contains(x)));
        },
    );
}

// --- Simulated OS ------------------------------------------------------

#[test]
fn fs_contents_survive_arbitrary_write_read_sequences() {
    check(
        "fs_contents_survive_arbitrary_write_read_sequences",
        64,
        |g: &mut Gen| {
            let ops = g.vec(1..25, |g| {
                (g.range(0u8..4), g.usize(0..6), g.range(0u16..2048))
            });
            // Model-based test: simos file contents vs a Vec<u8> model.
            let mut sim = Sim::new(SimConfig::small().without_noise());
            sim.run_one(move |os| {
                let mut model: Vec<Vec<u8>> = vec![Vec::new(); 6];
                let mut exists = [false; 6];
                for (op, slot, len) in ops {
                    let path = format!("/m{slot}");
                    match op {
                        0 => {
                            // Write (create if needed) at a pseudo-random offset.
                            let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                            let off = (len as usize * 7) % 4000;
                            if !exists[slot] {
                                let fd = os.create(&path).unwrap();
                                os.close(fd).unwrap();
                                exists[slot] = true;
                                model[slot].clear();
                            }
                            let fd = os.open(&path).unwrap();
                            os.write_at(fd, off as u64, &data).unwrap();
                            os.close(fd).unwrap();
                            if model[slot].len() < off + data.len() {
                                model[slot].resize(off + data.len(), 0);
                            }
                            model[slot][off..off + data.len()].copy_from_slice(&data);
                        }
                        1 => {
                            // Full read-back and compare.
                            if exists[slot] {
                                let got = os.read_to_vec(&path).unwrap();
                                assert_eq!(got, model[slot], "content mismatch on {path}");
                            }
                        }
                        2 => {
                            // Unlink.
                            if exists[slot] {
                                os.unlink(&path).unwrap();
                                exists[slot] = false;
                                model[slot].clear();
                            }
                        }
                        _ => {
                            // Rename to a sibling slot if free.
                            let dst_slot = (slot + 1) % 6;
                            let dst = format!("/m{dst_slot}");
                            if exists[slot] && !exists[dst_slot] {
                                os.rename(&path, &dst).unwrap();
                                exists[slot] = false;
                                exists[dst_slot] = true;
                                model[dst_slot] = std::mem::take(&mut model[slot]);
                            }
                        }
                    }
                }
                // Final sweep.
                for slot in 0..6 {
                    if exists[slot] {
                        let got = os.read_to_vec(&format!("/m{slot}")).unwrap();
                        assert_eq!(got, model[slot]);
                    }
                }
            });
        },
    );
}

#[test]
fn cache_never_exceeds_capacity() {
    check("cache_never_exceeds_capacity", 64, |g: &mut Gen| {
        let accesses = g.vec(1..300, |g| (g.u64(0..4), g.u64(0..64), g.bool()));
        let capacity = g.u64(4..64);
        let mut cache = graybox_icl::simos::cache::PageCache::new(CacheArch::Unified, capacity);
        for (ino, page, dirty) in accesses {
            let id = graybox_icl::simos::cache::PageId {
                owner: graybox_icl::simos::cache::Owner::File { dev: 0, ino },
                page,
            };
            if !cache.lookup_touch(id) {
                cache.insert(id, dirty);
            }
            assert!(cache.resident_pages() as u64 <= capacity);
        }
    });
}

#[test]
fn sticky_cache_never_exceeds_capacity_either() {
    check(
        "sticky_cache_never_exceeds_capacity_either",
        64,
        |g: &mut Gen| {
            let accesses = g.vec(1..300, |g| (g.u64(0..4), g.u64(0..64)));
            let capacity = g.u64(4..64);
            let mut cache =
                graybox_icl::simos::cache::PageCache::new(CacheArch::UnifiedSticky, capacity);
            for (ino, page) in accesses {
                let id = graybox_icl::simos::cache::PageId {
                    owner: graybox_icl::simos::cache::Owner::File { dev: 0, ino },
                    page,
                };
                if !cache.lookup_touch(id) {
                    cache.insert(id, false);
                }
                assert!(cache.resident_pages() as u64 <= capacity);
            }
        },
    );
}

#[test]
fn memory_round_trips_through_swap() {
    check("memory_round_trips_through_swap", 16, |g: &mut Gen| {
        let extra_pages = g.u64(1..64);
        // Write-touch more pages than memory holds, then read back: every
        // page must come back (value plumbing is modelled; what matters is
        // no lost pages, no panics, monotone time).
        let mut cfg = SimConfig::small().without_noise();
        cfg.mem_bytes = 16 << 20;
        cfg.kernel_reserve_bytes = 2 << 20;
        let mut sim = Sim::new(cfg);
        sim.run_one(move |os| {
            let pages = (14u64 << 20) / 4096 + extra_pages;
            let r = os.mem_alloc(pages * 4096).unwrap();
            let mut last = os.now();
            for p in 0..pages {
                os.mem_touch_write(r, p).unwrap();
                let now = os.now();
                assert!(now >= last, "virtual time must be monotone");
                last = now;
            }
            for p in 0..pages {
                os.mem_touch_read(r, p).unwrap();
            }
            os.mem_free(r).unwrap();
        });
    });
}

// Determinism deserves exact (non-randomized) treatment: full trace equality.
#[test]
fn simulation_replays_identically() {
    let run = || {
        let mut sim = Sim::new(SimConfig::small().with_seed(1234));
        let t = sim.run_one(|os| {
            os.mkdir("/d").unwrap();
            for i in 0..20 {
                os.write_file(&format!("/d/f{i}"), &vec![i as u8; 3000])
                    .unwrap();
            }
            let fldc = graybox_icl::graybox::fldc::Fldc::new(os);
            let ranks = fldc.order_directory("/d").unwrap();
            let fd = os.open(&ranks[0].path).unwrap();
            os.read_discard(fd, 0, 3000).unwrap();
            os.close(fd).unwrap();
            os.now()
        });
        (t, sim.oracle().stats())
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "same seed must replay the same trace");
}
