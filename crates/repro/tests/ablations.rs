//! Accuracy ablations for the design choices DESIGN.md calls out. These
//! are regression tests for behaviors the paper motivates qualitatively.

use gray_apps::workload::make_file;
use gray_toolbox::GrayDuration;
use graybox::fccd::{Fccd, FccdParams, FileProbeReport, UnitProbe};
use graybox::fldc::{Fldc, RefreshOrder};
use graybox::mac::{Mac, MacParams};
use graybox::os::GrayBoxOs;
use simos::{Sim, SimConfig};

/// Paper §4.1.2: "the method for choosing a probe point within a
/// prediction unit is important. One approach is to select bytes at
/// predetermined offsets; however, if a process terminates after the probe
/// phase but before the access phase, or if two processes probe the
/// file-cache for the same file at nearly the same time, then the second
/// set of probes will return bad information, indicating that all pages
/// are likely in the file cache."
///
/// We reproduce that exactly: over a *cold* file, process A probes and
/// terminates; process B then probes. With fixed offsets B hits only A's
/// footprints and declares the cold file cached; with random offsets B
/// stays accurate.
#[test]
fn ablation_fixed_probe_offsets_are_self_confounding() {
    let cold_units_detected = |fixed: bool| -> usize {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let size = 32u64 << 20;
        sim.run_one(|os| make_file(os, "/abl", size).unwrap());
        sim.flush_file_cache();
        let unit = 2u64 << 20;
        let probe = move |os: &simos::SimProc| -> Vec<bool> {
            let params = FccdParams {
                access_unit: unit,
                prediction_unit: unit,
                seed: 0x5eed,
                ..FccdParams::default()
            };
            let fccd = if fixed {
                Fccd::with_fixed_seed(os, params)
            } else {
                Fccd::new(os, params)
            };
            let fd = os.open("/abl").unwrap();
            let report = fccd.probe_file(fd, size);
            os.close(fd).unwrap();
            report
                .units
                .iter()
                .map(|u| u.probe_time > gray_toolbox::GrayDuration::from_millis(1))
                .collect()
        };
        // Process A probes and terminates without accessing anything.
        sim.run_one(move |os| {
            probe(os);
        });
        // Process B probes the still-cold file.
        let cold_seen: Vec<bool> = sim.run_one(move |os| probe(os));
        cold_seen.iter().filter(|&&cold| cold).count()
    };

    let units = 16;
    let with_random = cold_units_detected(false);
    let with_fixed = cold_units_detected(true);
    assert!(
        with_random >= units - 1,
        "random offsets must see the cold file: {with_random}/{units} units cold"
    );
    assert!(
        with_fixed <= units / 4,
        "fixed offsets must be fooled by the previous probes: {with_fixed}/{units} units \
         reported cold (paper: 'all pages are likely in the file cache')"
    );
}

/// Figure 1's premise as a direct ablation: prediction units larger than
/// the access unit predict worse than matched ones.
#[test]
fn ablation_prediction_unit_must_not_exceed_access_unit() {
    use repro::Scale;
    let fig = repro::fig1::run(Scale::Small);
    // Series 0 is the smallest access unit. Compare matched vs oversized
    // prediction units.
    let series = &fig.cells[0];
    let matched = series[0].mean;
    let oversized = series.last().unwrap().mean;
    assert!(
        matched - oversized > 0.15,
        "oversized prediction units must lose signal: matched {matched:.2} vs oversized {oversized:.2}"
    );
}

/// MAC's doubling increment probes far fewer pages than a fixed small
/// increment for an equivalent estimate (paper §4.3.2's compromise).
#[test]
fn ablation_mac_doubling_probes_fewer_pages_than_fixed() {
    let run_policy = |max_increment: u64| -> (u64, u64) {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(move |os| {
            let mac = Mac::new(
                os,
                MacParams {
                    initial_increment: 1 << 20,
                    max_increment,
                },
            );
            let est = mac.available_estimate(128 << 20).unwrap();
            (est, mac.take_stats().pages_probed)
        })
    };
    let (est_fixed, probed_fixed) = run_policy(1 << 20); // Never grows.
    let (est_doubling, probed_doubling) = run_policy(32 << 20);
    // Same ballpark answer...
    let ratio = est_doubling as f64 / est_fixed.max(1) as f64;
    assert!(
        (0.5..=2.0).contains(&ratio),
        "estimates should agree: fixed {est_fixed} vs doubling {est_doubling}"
    );
    // ...for much less probing.
    assert!(
        probed_doubling * 2 < probed_fixed,
        "doubling must probe fewer pages: {probed_doubling} vs {probed_fixed}"
    );
}

/// FLDC refresh ordering: writing small files first keeps the i-number /
/// layout correlation tight; putting the large file first pushes every
/// small file's blocks behind it while the i-numbers interleave by size
/// ordering on the *next* refresh.
#[test]
fn ablation_refresh_small_files_first_beats_directory_order() {
    use gray_toolbox::rng::StdRng;

    let layout_spread = |order: RefreshOrder| -> u64 {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| {
            os.mkdir("/mix").unwrap();
            // A directory with one big file created in the middle of many
            // small ones, then churned.
            for i in 0..20 {
                let bytes = if i == 10 { 2 << 20 } else { 8 << 10 };
                make_file(os, &format!("/mix/f{i:02}"), bytes).unwrap();
            }
        });
        let mut rng = StdRng::seed_from_u64(5);
        sim.run_one(|os| {
            gray_apps::workload::age_epoch(os, "/mix", 4, 8 << 10, 1, &mut rng).unwrap();
        });
        sim.run_one(move |os| {
            Fldc::new(os).refresh_directory("/mix", order).unwrap();
        });
        // Spread = sum over adjacent (by i-number) small files of the
        // block distance; big jumps mean seeks.
        let ordered: Vec<String> = sim.run_one(|os| {
            let ranks = Fldc::new(os).order_directory("/mix").unwrap();
            ranks
                .into_iter()
                .filter(|r| r.stat.size < 1 << 20)
                .map(|r| r.path)
                .collect()
        });
        let oracle = sim.oracle();
        let firsts: Vec<u64> = ordered
            .iter()
            .map(|p| oracle.file_blocks(p).unwrap()[0])
            .collect();
        firsts.windows(2).map(|w| w[0].abs_diff(w[1])).sum()
    };

    let small_first = layout_spread(RefreshOrder::SmallestFirst);
    let dir_order = layout_spread(RefreshOrder::DirectoryOrder);
    assert!(
        small_first <= dir_order,
        "small-files-first must not scatter small files more: {small_first} vs {dir_order}"
    );
}

/// The sort-by-time design needs no thresholds; verify it still ranks a
/// three-level hierarchy correctly when one is synthesized (memory, disk,
/// and a "tape-slow" region modelled by a queue-saturated disk).
#[test]
fn ablation_sorting_handles_multilevel_latencies() {
    // Synthetic: three probe-time populations, one access unit each;
    // `plan()` must order them memory < disk < tape without knowing any
    // thresholds.
    let times_ns = [
        3_000,      // memory ~3us
        5_000_000,  // disk ~5ms
        2_500,      // memory
        80_000_000, // tape ~80ms
        6_000_000,  // disk
        2_800,      // memory
    ];
    let unit = 1 << 20;
    let report = FileProbeReport {
        units: (0..)
            .zip(times_ns)
            .map(|(i, ns)| UnitProbe {
                offset: i * unit,
                len: unit,
                probe_time: GrayDuration::from_nanos(ns),
                probes: 1,
            })
            .collect(),
    };
    let order: Vec<u64> = report.plan().iter().map(|e| e.offset / unit).collect();
    assert_eq!(order, vec![2, 5, 0, 1, 4, 3]);
}

/// Timer resolution (paper §5: "we often time operations that complete
/// very quickly; thus, timer resolution is an issue"). FCCD's
/// microsecond-scale hit probes survive a 1 µs gettimeofday-style timer
/// (hits quantize to ~0 but misses are milliseconds), yet a 10 ms-tick
/// timer destroys the signal.
#[test]
fn ablation_timer_resolution_bounds_fccd() {
    let cold_units_detected = |quantum_ns: u64| -> usize {
        let mut cfg = SimConfig::small();
        cfg.noise.timer_quantum_ns = quantum_ns;
        let mut sim = Sim::new(cfg);
        let size = 16u64 << 20;
        sim.run_one(|os| make_file(os, "/tq", size).unwrap());
        sim.flush_file_cache();
        // Warm the first half.
        sim.run_one(move |os| {
            let fd = os.open("/tq").unwrap();
            os.read_discard(fd, 0, size / 2).unwrap();
            os.close(fd).unwrap();
        });
        let report = sim.run_one(move |os| {
            let params = FccdParams {
                access_unit: 2 << 20,
                prediction_unit: 1 << 20,
                ..FccdParams::default()
            };
            let fccd = Fccd::new(os, params);
            let fd = os.open("/tq").unwrap();
            let r = fccd.probe_file(fd, size);
            os.close(fd).unwrap();
            r
        });
        report
            .units
            .iter()
            .map(|u| u.probe_time > gray_toolbox::GrayDuration::from_millis(1))
            .filter(|&cold| cold)
            .count()
    };
    // 4 of 8 access units are cold.
    let rdtsc = cold_units_detected(1);
    let gettimeofday = cold_units_detected(1_000);
    let coarse = cold_units_detected(20_000_000);
    assert_eq!(rdtsc, 4, "rdtsc-grade timer must be exact");
    assert_eq!(
        gettimeofday, 4,
        "microsecond timers still separate µs hits from ms misses"
    );
    assert!(
        coarse < 4,
        "a 20 ms-tick timer must lose the signal: saw {coarse} cold units"
    );
}

/// MAC under a microsecond timer: self-calibration can no longer
/// distinguish a 250 ns resident touch from a 4 µs zero-fill, but the
/// estimate still works because the decisive signal (millisecond swap
/// activity) dwarfs the quantum.
#[test]
fn ablation_mac_survives_microsecond_timer() {
    let mut cfg = SimConfig::small().without_noise();
    cfg.noise.timer_quantum_ns = 1_000;
    let mut sim = Sim::new(cfg);
    let est = sim.run_one(|os| {
        let mac = Mac::new(
            os,
            MacParams {
                initial_increment: 1 << 20,
                max_increment: 16 << 20,
            },
        );
        mac.available_estimate(128 << 20).unwrap()
    });
    let usable = 56u64 << 20;
    assert!(
        est > usable / 2 && est <= usable,
        "estimate {} MB of {} MB usable",
        est >> 20,
        usable >> 20
    );
}
