//! Equivalence properties for the probe scheduler (`gray-sched`).
//!
//! A scheduler at concurrency 1 must be invisible: submitting FCCD's
//! per-file probe plans to a one-worker [`Scheduler`] and dispatching
//! them through an executor must issue the same syscalls in the same
//! order as the inline `Fccd` path, and therefore rank and classify any
//! cache state bit-identically. The scheduled path is the one gbd runs:
//! a fixed-seed `Fccd`'s planner ([`Fccd::into_planner`]),
//! [`FccdPlanner::draw_plans`], submit, dispatch, take,
//! [`FccdPlanner::rank_results`]. On simos this holds with timing noise
//! and readahead on. Through an [`InlineExecutor`] the plans run inside
//! the process that built the planner, so both paths are one process
//! issuing one syscall sequence. Through a [`SimExecutor`] each plan is a
//! process of its own that starts at the latest virtual time the previous
//! one reached, exactly where the inline path's single process would have
//! been, so the charge sequence, the CPU-bank bookings and the noise
//! stream all align.
//!
//! Above concurrency 1 the scheduler must earn its keep, in virtual time:
//! `concurrent_waves_overlap_disk_service` pins that one wave over four
//! disks beats four serial waves by at least 1.5x, and
//! `half_warm_fleet_keeps_wave_width_and_verdicts` that waves stay that
//! wide on half-warm traffic without moving a verdict.
//!
//! The last test covers the other pooled path gbd runs beside the
//! scheduler's waves: pooling `gb_alloc` requests behind one
//! [`Mac::admit_all`] probe pass must not blind MAC's paging detection —
//! with a memory hog running concurrently, the shared probe still sees
//! the daemon wake up and the pooled grants shrink accordingly.
//!
//! Replay recipes — the harness prints the failing case's seed in a
//! banner; rerun it (or widen the sweep) with:
//!
//! ```text
//! PROP_SEED=0x<seed> cargo test -q sched_and_direct_classify_identically_inline
//! PROP_SEED=0x<seed> cargo test -q sched_and_direct_classify_identically_under_simos
//! PROP_SEED=0x<seed> cargo test -q serial_dispatch_trace_is_deterministic
//! PROP_CASES=100 cargo test -q --test sched_equivalence
//! ```

use std::collections::BTreeSet;

use graybox_icl::apps::workload::make_file;
use graybox_icl::graybox::fccd::{classify_ranks, Fccd, FccdParams, FccdPlanner, FileRank};
use graybox_icl::graybox::mac::{AdmissionRequest, Mac, MacParams};
use graybox_icl::graybox::os::GrayBoxOs;
use graybox_icl::sched::{InlineExecutor, PlanExecutor, SchedConfig, Scheduler, SimExecutor};
use graybox_icl::simos::exec::Workload;
use graybox_icl::simos::{scenario, DiskParams, Sim, SimConfig, SimProc, PAGE_SIZE};
use graybox_icl::toolbox::prop::{check, Gen};
use graybox_icl::toolbox::GrayDuration;

/// A one-worker scheduler: waves of one plan, dispatched in submission
/// order — the configuration the equivalence claim is about.
fn serial_scheduler() -> Scheduler {
    Scheduler::new(SchedConfig {
        concurrency: 1,
        ..SchedConfig::default()
    })
}

/// Ranks `files` through `sched` the way gbd does: the planner draws one
/// plan per file (at most `sub_batch` specs a batch), the scheduler
/// dispatches them through `exec`, and the planner folds the results.
fn order_files<E: PlanExecutor>(
    planner: &FccdPlanner,
    sched: &mut Scheduler,
    exec: &mut E,
    files: &[(String, u64)],
    sub_batch: usize,
) -> Vec<FileRank> {
    let handles: Vec<_> = planner
        .draw_plans(files, PAGE_SIZE, sub_batch)
        .into_iter()
        .map(|probe| sched.submit(probe))
        .collect();
    sched.dispatch(exec);
    let results = handles
        .into_iter()
        .map(|handle| sched.take(handle).expect("dispatched"))
        .collect();
    planner.rank_results(files, PAGE_SIZE, results)
}

/// A fresh `SimConfig::small()` machine holding `files`, flushed, then
/// with units `warm[i]` (each `unit` bytes) of file `i` read back in one
/// process. Machines built from the same arguments are identical up to
/// the moment a detector is built on them.
fn machine_with(files: &[(String, u64)], warm: &[Vec<u64>], unit: u64) -> Sim {
    let mut sim = Sim::new(SimConfig::small());
    sim.run_one(|os| {
        for (path, size) in files {
            make_file(os, path, *size).unwrap();
        }
    });
    sim.flush_file_cache();
    sim.run_one(|os| {
        for ((path, _), units) in files.iter().zip(warm) {
            let fd = os.open(path).unwrap();
            for &u in units {
                os.read_discard(fd, u * unit, unit).unwrap();
            }
            os.close(fd).unwrap();
        }
    });
    sim
}

/// Random file set with ragged tails, random warm pages, page-sized
/// units: inside one simulated process, ranking through a concurrency-1
/// scheduler and an [`InlineExecutor`] must be bit-identical to inline
/// `Fccd`.
#[test]
fn sched_and_direct_classify_identically_inline() {
    check(
        "sched_and_direct_classify_identically_inline",
        32,
        |g: &mut Gen| {
            let page = 4096u64;
            let access_unit = g.u64(1..5) * page;
            let params = FccdParams {
                access_unit,
                prediction_unit: page,
                seed: g.u64(1..u64::MAX),
                ..FccdParams::default()
            };
            let nfiles = g.range(2usize..5);
            // Ragged tails exercise the final short access unit per file.
            let files: Vec<(String, u64)> = (0..nfiles)
                .map(|i| {
                    let size = g.u64(1..8) * access_unit + g.u64(0..access_unit);
                    (format!("/f{i}"), size)
                })
                .collect();
            let warm: Vec<Vec<u64>> = files
                .iter()
                .map(|(_, size)| (0..size.div_ceil(page)).filter(|_| g.bool()).collect())
                .collect();

            let direct = {
                let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
                machine_with(&files, &warm, page)
                    .run_one(|os| Fccd::with_fixed_seed(os, params.clone()).order_files(&paths))
            };
            let sched = machine_with(&files, &warm, page).run_one(|os| {
                // sub_batch 0: one probe_batch per file, exactly like the
                // inline path's single vectored call.
                let planner = Fccd::with_fixed_seed(os, params.clone()).into_planner();
                let mut exec = InlineExecutor::new(os);
                order_files(&planner, &mut serial_scheduler(), &mut exec, &files, 0)
            });
            assert_eq!(direct, sched, "concurrency-1 scheduler ranks diverge");
            // Classification is a pure function of the ranks, so equal
            // ranks force equal splits; assert it anyway as the headline.
            let (d, s) = (classify_ranks(direct), classify_ranks(sched));
            assert_eq!(d.cached, s.cached, "cached split diverges");
            assert_eq!(d.uncached, s.uncached, "uncached split diverges");
        },
    );
}

/// The same property with one simulated process per plan: the inline
/// path probes all files from one process; the scheduler path builds the
/// planner in one process and then runs one process per plan. Each plan
/// process starts at the latest virtual time reached — exactly where the
/// inline process would have opened that file — so every charge lands at
/// the same absolute time, the noise stream stays in step, and the ranks
/// are bit-identical.
#[test]
fn sched_and_direct_classify_identically_under_simos() {
    check(
        "sched_and_direct_classify_identically_under_simos",
        8,
        |g: &mut Gen| {
            let access_unit = 1u64 << 20;
            let params = FccdParams {
                access_unit,
                prediction_unit: 256 << 10,
                seed: g.u64(1..u64::MAX),
                ..FccdParams::default()
            };
            let nfiles = g.range(2usize..4);
            let files: Vec<(String, u64)> = (0..nfiles)
                .map(|i| (format!("/f{i}"), g.u64(1..4) * access_unit))
                .collect();
            // Warm a random subset of each file's access units.
            let warm: Vec<Vec<u64>> = files
                .iter()
                .map(|(_, size)| (0..size / access_unit).filter(|_| g.bool()).collect())
                .collect();

            let direct = {
                let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
                let params = params.clone();
                machine_with(&files, &warm, access_unit)
                    .run_one(move |os| Fccd::with_fixed_seed(os, params).order_files(&paths))
            };
            let sched = {
                let mut sim = machine_with(&files, &warm, access_unit);
                let params = params.clone();
                let planner =
                    sim.run_one(move |os| Fccd::with_fixed_seed(os, params).into_planner());
                let mut sched = serial_scheduler();
                let mut exec = SimExecutor::new(&mut sim);
                order_files(&planner, &mut sched, &mut exec, &files, 0)
            };
            assert_eq!(direct, sched, "concurrency-1 scheduler ranks diverge");
            let (d, s) = (classify_ranks(direct), classify_ranks(sched));
            assert_eq!(d.cached, s.cached, "cached split diverges");
            assert_eq!(d.uncached, s.uncached, "uncached split diverges");
        },
    );
}

/// The trace a concurrency-1 dispatch emits is a pure function of the
/// case seed: two identical runs produce identical `(ts, wave, span,
/// event)` streams, timestamps being virtual time. Lanes are drawn from
/// a process-wide counter and are excluded. (`run_one` plus
/// [`InlineExecutor`] keeps every event of the dispatch, the kernel's
/// probe events included, on the test thread and so in its capture.)
#[test]
fn serial_dispatch_trace_is_deterministic() {
    use graybox_icl::toolbox::trace;
    check(
        "serial_dispatch_trace_is_deterministic",
        8,
        |g: &mut Gen| {
            let page = 4096u64;
            let params = FccdParams {
                access_unit: 2 * page,
                prediction_unit: page,
                seed: g.u64(1..u64::MAX),
                ..FccdParams::default()
            };
            let files: Vec<(String, u64)> = (0..g.range(2usize..5))
                .map(|i| (format!("/f{i}"), g.u64(1..6) * page))
                .collect();
            let warm: Vec<Vec<u64>> = files
                .iter()
                .map(|(_, size)| (0..size.div_ceil(page)).filter(|_| g.bool()).collect())
                .collect();
            let run = || {
                let _cap = trace::capture();
                machine_with(&files, &warm, page).run_one(|os| {
                    let planner = Fccd::with_fixed_seed(os, params.clone()).into_planner();
                    let mut exec = InlineExecutor::new(os);
                    let ranks =
                        order_files(&planner, &mut serial_scheduler(), &mut exec, &files, 0);
                    let _ = classify_ranks(ranks);
                });
                trace::drain()
                    .into_iter()
                    .map(|r| (r.seq, r.ts, r.wave, r.span, r.event))
                    .collect::<Vec<_>>()
            };
            let a = run();
            let b = run();
            assert!(!a.is_empty(), "instrumented dispatch must emit events");
            assert_eq!(
                a, b,
                "concurrency-1 event stream must be seed-deterministic"
            );
        },
    );
}

const MB: u64 = 1 << 20;

/// Files (and disks) in the serial-vs-concurrent wave comparison.
const FLEET_FILES: usize = 4;

/// A four-disk machine with `per_disk` cold 2 MB probe files on each
/// disk, listed round-robin over the disks so that four consecutive files
/// are on four different disks.
fn sched_sim(per_disk: usize) -> (Sim, Vec<(String, u64)>) {
    let mut cfg = SimConfig::small().without_noise();
    cfg.disks = vec![DiskParams::small(); FLEET_FILES];
    cfg.swap_disk = 1;
    // Two CPUs per worker so the comparison isolates *disk* overlap: the
    // shared CPU bank books each tiny syscall/timer charge on the
    // earliest-free slot, so at exactly one slot per worker the bookings
    // cross-couple the workers and cap the overlap (~1.8x); with slack
    // slots the makespan drops to the slowest single file (~3.4x).
    cfg.cpus = 2 * FLEET_FILES as u32;
    let mut sim = Sim::new(cfg);
    let files: Vec<(String, u64)> = (0..per_disk * FLEET_FILES)
        .map(|i| {
            let path = match i % FLEET_FILES {
                0 => format!("/probe{i}"),
                disk => format!("/d{disk}/probe{i}"),
            };
            (path, 2 * MB)
        })
        .collect();
    sim.run_one(|os| {
        for (path, bytes) in &files {
            make_file(os, path, *bytes).unwrap();
        }
    });
    sim.flush_file_cache();
    (sim, files)
}

fn fleet_params() -> FccdParams {
    FccdParams {
        access_unit: MB,
        prediction_unit: 256 << 10,
        ..FccdParams::default()
    }
}

/// Classifies the fleet's files at the given concurrency and returns
/// the summed virtual span of all dispatched waves, in nanoseconds.
fn run_fleet(concurrency: usize) -> u64 {
    let (mut sim, files) = sched_sim(1);
    let params = fleet_params();
    // Sub-batch of 1: each probe is its own scheduling point, so the
    // simulator interleaves the workers' probes in causal order and
    // their disk waits genuinely overlap. (A whole-plan batch is one
    // kernel entry, which serializes the wave — the batch bound is the
    // concurrency granularity, not just dispatch amortization.)
    let planner = sim.run_one(|os| Fccd::with_fixed_seed(os, params).into_planner());
    let mut sched = Scheduler::new(SchedConfig {
        concurrency,
        ..SchedConfig::default()
    });
    let mut exec = SimExecutor::new(&mut sim);
    let ranks = order_files(&planner, &mut sched, &mut exec, &files, 1);
    assert_eq!(ranks.len(), FLEET_FILES);
    sched
        .waves()
        .iter()
        .map(|w| w.span.expect("sim executor reports spans").as_nanos())
        .sum()
}

/// The scheduler's reason to exist, in virtual time: four cold files on
/// four disks probed as one concurrency-4 wave finish in roughly the span
/// of the slowest file, not the sum of all four (one wave per file at
/// concurrency 1). Identical fixed-seed plans on identical fresh machines.
#[test]
fn concurrent_waves_overlap_disk_service() {
    let serial_ns = run_fleet(1);
    let concurrent_ns = run_fleet(FLEET_FILES);
    assert!(
        serial_ns as f64 >= 1.5 * concurrent_ns as f64,
        "concurrent multi-file probing must overlap disk service: \
         serial {serial_ns} ns vs concurrent {concurrent_ns} ns ({:.2}x)",
        serial_ns as f64 / concurrent_ns.max(1) as f64
    );
}

/// Interference as an outcome, not a heuristic. Twelve files, every other
/// one warm: each wave of four holds two hits (µs) and two misses (ms), the
/// dispersion a self-interference rule keyed on probe times would read as
/// contention — and it is the signal. Waves keep their width, and pooling
/// four plans a wave changes no verdict: concurrency 4 and concurrency 1,
/// on identical fresh machines, call exactly the warm files cached.
#[test]
fn half_warm_fleet_keeps_wave_width_and_verdicts() {
    let classify = |concurrency: usize| {
        let (mut sim, files) = sched_sim(3);
        let warm: Vec<_> = files.iter().step_by(2).cloned().collect();
        scenario::warm(&mut sim, &warm);
        let planner = sim.run_one(|os| Fccd::with_fixed_seed(os, fleet_params()).into_planner());
        let mut sched = Scheduler::new(SchedConfig {
            concurrency,
            ..SchedConfig::default()
        });
        let mut exec = SimExecutor::new(&mut sim);
        let split = classify_ranks(order_files(&planner, &mut sched, &mut exec, &files, 1));
        let widths: Vec<usize> = sched.waves().iter().map(|w| w.plans).collect();
        let paths = |ranks: &[FileRank]| -> BTreeSet<String> {
            ranks.iter().map(|r| r.path.clone()).collect()
        };
        let warm: BTreeSet<String> = warm.into_iter().map(|(path, _)| path).collect();
        assert_eq!(paths(&split.cached), warm, "at concurrency {concurrency}");
        (widths, paths(&split.uncached))
    };
    let (wide, wide_uncached) = classify(FLEET_FILES);
    let (narrow, narrow_uncached) = classify(1);
    assert_eq!(wide, [FLEET_FILES; 3]);
    assert_eq!(narrow, [1; 12]);
    assert_eq!(wide_uncached, narrow_uncached);
    assert_eq!(wide_uncached.len(), 6);
}

/// Total bytes granted to two pooled `gb_alloc` requests, optionally with
/// a memory hog running concurrently in the same simulation.
fn pooled_grant_total(contended: bool) -> u64 {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let requests = [AdmissionRequest {
        min: 2 * MB,
        max: 24 * MB,
        multiple: MB,
    }; 2];
    let admit = move |os: &SimProc| -> u64 {
        // Give the hog time to establish residency before probing, so the
        // shared probe pass measures a genuinely contended machine.
        os.sleep(GrayDuration::from_millis(100));
        let grants = Mac::new(os, MacParams::default())
            .admit_all(&requests)
            .unwrap();
        grants.iter().flatten().map(|g| g.bytes).sum()
    };
    if !contended {
        return sim.run_one(admit);
    }
    let hog = |os: &SimProc| -> u64 {
        let bytes = 28 * MB;
        let region = os.mem_alloc(bytes).unwrap();
        let pages = bytes / os.page_size();
        // Sweep the working set repeatedly so it stays hot across the
        // admission pass instead of aging into easy eviction fodder.
        for _ in 0..3 {
            for p in 0..pages {
                os.mem_touch_write(region, p).unwrap();
            }
            os.sleep(GrayDuration::from_millis(50));
        }
        0
    };
    let workloads: Vec<(String, Workload<'_, u64>)> = vec![
        ("hog".to_string(), Box::new(hog)),
        ("admit".to_string(), Box::new(admit)),
    ];
    sim.run(workloads).pop().expect("admission result")
}

/// Pooling requests behind one shared probe pass must not blind MAC's
/// paging detection: with a hog holding (and re-touching) half of memory,
/// the shared estimate sees the page daemon wake up and the pooled grants
/// come back much smaller than on an idle machine — instead of
/// overcommitting and swapping the competitor out.
#[test]
fn mac_admission_queue_detects_competition() {
    let idle = pooled_grant_total(false);
    let contended = pooled_grant_total(true);
    assert!(
        idle >= 32 * MB,
        "idle machine should admit most of the pooled ceiling, got {} MB",
        idle / MB
    );
    assert!(
        contended + 8 * MB <= idle,
        "competition must shrink pooled grants: idle {} MB vs contended {} MB",
        idle / MB,
        contended / MB
    );
    // The grants plus the hog's hot set must still fit in physical
    // memory — the pooled pass backed off rather than overcommitting.
    assert!(
        contended + 28 * MB <= 64 * MB,
        "pooled grants overcommit a contended machine: {} MB granted",
        contended / MB
    );
}
