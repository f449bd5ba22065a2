//! The ladder: each layer timed alone through its public API.
//!
//! A rung calls one public function of one layer in a loop and reports
//! host nanoseconds per unit of work, with the real layers below it (the
//! `_self` rungs swap the simulator for `graybox::mock::MockOs`, which
//! leaves the ICL and the toolbox). A traced run measures the rungs of
//! the layers its workload exercises, and `ladder.modelled_s` multiplies
//! them by the workload's own counts to see how much of the measured time
//! the rungs explain.
//!
//! Rungs are short (tens of milliseconds, median of three) because a
//! traced run has the same time budget as any other run; they locate a
//! change, they do not prove one. The end-to-end metrics do that.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use covert::CovertGridConfig;
use gbd::cache::{CacheEntry, InferenceCache, TtlOnly};
use gbd::{Gbd, GbdConfig, Query, Reply};
use gray_apps::fastsort::{FastSort, PassPolicy, SortConfig};
use gray_apps::grep::{Grep, GrepMode, GrepOptions, Needle};
use gray_apps::workload::make_file;
use gray_sched::{
    PlanExecutor, PlanResult, ProbePlan, SchedConfig, Scheduler, SimExecutor, WaveOutcome,
};
use gray_toolbox::mailbox::Mailbox;
use gray_toolbox::pool::Pool;
use gray_toolbox::{two_means, GrayDuration, Nanos, Summary};
use graybox::fccd::{Fccd, FccdParams};
use graybox::fldc::Fldc;
use graybox::mac::{Mac, MacParams};
use graybox::mock::MockOs;
use graybox::os::{GrayBoxOs, ProbeSpec};
use graybox::wbd::{Wbd, WbdParams};
use simos::exec::Workload as Proc;
use simos::scenario::matrix::MatrixConfig;
use simos::scenario::{daemon_machine, fleet_machine, spread_corpus, warm};
use simos::{ExecBackend, Platform, Sim, SimProc};

use crate::stat::{median, splitmix};

/// One rung: its metric name, the workloads whose traced run measures it,
/// and the measurement.
pub struct Rung {
    pub name: &'static str,
    pub workloads: &'static [&'static str],
    measure: fn(&Budget) -> f64,
}

/// How long a rung may loop.
pub struct Budget {
    /// Minimum host seconds of one repetition of a looping rung.
    pub min_s: f64,
    /// Repetitions; the rung reports their median.
    pub reps: usize,
    /// Scales fixed-size rungs down for a smoke run.
    pub smoke: bool,
}

impl Budget {
    /// Host nanoseconds per unit: calls `f`, which does `units` units of
    /// work, until `min_s` have passed; median over the repetitions.
    fn per_unit(&self, units: u64, mut f: impl FnMut()) -> f64 {
        f(); // untimed: first-call allocation and cache misses
        let reps: Vec<f64> = (0..self.reps)
            .map(|_| {
                let t0 = Instant::now();
                let mut calls = 0u64;
                while calls == 0 || t0.elapsed().as_secs_f64() < self.min_s {
                    f();
                    calls += 1;
                }
                t0.elapsed().as_nanos() as f64 / (calls * units) as f64
            })
            .collect();
        median(&reps)
    }

    /// Host nanoseconds per unit of a rung too costly to loop: `f` runs
    /// once per repetition and returns the units it did.
    fn once(&self, mut f: impl FnMut() -> u64) -> f64 {
        let reps: Vec<f64> = (0..self.reps)
            .map(|_| {
                let t0 = Instant::now();
                let units = f();
                t0.elapsed().as_nanos() as f64 / units.max(1) as f64
            })
            .collect();
        median(&reps)
    }

    fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

const GBD: &[&str] = &["gbd_hot", "gbd_miss"];
const MISS: &[&str] = &["gbd_miss"];
const FLEET: &[&str] = &["fleet_probe"];
const APPS: &[&str] = &["apps_bulk"];
const COVERT: &[&str] = &["covert_grid"];
const GRIDS: &[&str] = &["matrix_grid", "covert_grid"];
const PROBING: &[&str] = &["gbd_miss", "fleet_probe", "matrix_grid"];
const EXEC: &[&str] = &["fleet_probe", "covert_grid"];

pub const RUNGS: &[Rung] = &[
    Rung {
        name: "toolbox.two_means_ns",
        workloads: MISS,
        measure: two_means_ns,
    },
    Rung {
        name: "toolbox.summary_median_ns",
        workloads: MISS,
        measure: summary_median_ns,
    },
    Rung {
        name: "toolbox.mailbox_roundtrip_ns",
        workloads: GBD,
        measure: mailbox_roundtrip_ns,
    },
    Rung {
        name: "toolbox.pool_speedup_2w",
        workloads: GRIDS,
        measure: pool_speedup_2w,
    },
    Rung {
        name: "simos.exec.switch_ns",
        workloads: EXEC,
        measure: switch_ns,
    },
    Rung {
        name: "simos.exec.spawn_ns_p512",
        workloads: &["fleet_probe", "matrix_grid"],
        measure: spawn_ns_p512,
    },
    Rung {
        name: "simos.exec.spawn_ns_p16384",
        workloads: FLEET,
        measure: spawn_ns_p16384,
    },
    Rung {
        name: "simos.kernel.syscall_ns",
        workloads: &["gbd_miss", "fleet_probe", "covert_grid"],
        measure: syscall_ns,
    },
    Rung {
        name: "simos.kernel.probe_ns",
        workloads: PROBING,
        measure: probe_ns,
    },
    Rung {
        name: "simos.kernel.probe_batched_ns",
        workloads: PROBING,
        measure: probe_batched_ns,
    },
    Rung {
        name: "simos.kernel.sleep_wakeup_ns",
        workloads: COVERT,
        measure: sleep_wakeup_ns,
    },
    Rung {
        name: "simos.fs.read_page_warm_ns",
        workloads: APPS,
        measure: read_page_warm_ns,
    },
    Rung {
        name: "simos.fs.read_page_cold_ns",
        workloads: APPS,
        measure: read_page_cold_ns,
    },
    Rung {
        name: "simos.fs.create_unlink_ns",
        workloads: APPS,
        measure: create_unlink_ns,
    },
    Rung {
        name: "simos.vm.touch_page_ns",
        workloads: &["matrix_grid", "apps_bulk"],
        measure: touch_page_ns,
    },
    Rung {
        name: "simos.boot_ns",
        workloads: &["gbd_hot", "gbd_miss", "fleet_probe", "matrix_grid"],
        measure: boot_ns,
    },
    Rung {
        name: "core.fccd.probe_file_ns",
        workloads: PROBING,
        measure: fccd_probe_file_ns,
    },
    Rung {
        name: "core.fccd.classify_ns",
        workloads: &["gbd_miss", "matrix_grid"],
        measure: fccd_classify_ns,
    },
    Rung {
        name: "core.fccd.classify_self_ns",
        workloads: &["gbd_miss", "matrix_grid"],
        measure: fccd_classify_self_ns,
    },
    Rung {
        name: "core.mac.estimate_ns",
        workloads: &["gbd_miss", "matrix_grid", "apps_bulk"],
        measure: mac_estimate_ns,
    },
    Rung {
        name: "core.mac.estimate_self_ns",
        workloads: &["gbd_miss", "matrix_grid", "apps_bulk"],
        measure: mac_estimate_self_ns,
    },
    Rung {
        name: "core.fldc.order_ns",
        workloads: MISS,
        measure: fldc_order_ns,
    },
    Rung {
        name: "core.wbd.estimate_ns",
        workloads: &["gbd_miss", "covert_grid"],
        measure: wbd_estimate_ns,
    },
    Rung {
        name: "sched.self_ns_per_plan",
        workloads: MISS,
        measure: sched_self_ns_per_plan,
    },
    Rung {
        name: "sched.wave_ns",
        workloads: MISS,
        measure: sched_wave_ns,
    },
    Rung {
        name: "gbd.serve_hit_ns",
        workloads: GBD,
        measure: gbd_serve_hit_ns,
    },
    Rung {
        name: "gbd.serve_miss_ns",
        workloads: GBD,
        measure: gbd_serve_miss_ns,
    },
    Rung {
        name: "gbd.cache.lookup_ns",
        workloads: GBD,
        measure: cache_lookup_ns,
    },
    Rung {
        name: "gbd.cache.insert_evict_ns",
        workloads: MISS,
        measure: cache_insert_evict_ns,
    },
    Rung {
        name: "apps.grep_file_ns",
        workloads: APPS,
        measure: grep_file_ns,
    },
    Rung {
        name: "apps.fastsort_pass_ns",
        workloads: APPS,
        measure: fastsort_pass_ns,
    },
    Rung {
        name: "covert.cell_ns",
        workloads: COVERT,
        measure: covert_cell_ns,
    },
];

/// Measures every rung that `workload` exercises.
pub fn measure(workload: &str, budget: &Budget) -> BTreeMap<&'static str, f64> {
    RUNGS
        .iter()
        .filter(|r| r.workloads.contains(&workload))
        .map(|r| (r.name, (r.measure)(budget)))
        .collect()
}

/// Host seconds the rungs predict for `ops` operations of `workload`, from
/// the counts in `m` that its traced run measured. Each model is the plain
/// sum of count times rung cost along the path the workload takes.
pub fn modelled_s(workload: &str, ops: u64, m: &BTreeMap<&'static str, f64>) -> f64 {
    let at = |name: &str| m.get(name).copied().unwrap_or(0.0);
    let ops = ops as f64;
    let pool = at("toolbox.pool_speedup_2w").max(1.0);
    let ns = match workload {
        "gbd_hot" | "gbd_miss" => {
            // Coalesced queries ride on another's execution: they cost a
            // reply, which the hit rung is closest to.
            let served = at("gbd.queries") - at("gbd.executed");
            served * at("gbd.serve_hit_ns") + at("gbd.executed") * at("gbd.serve_miss_ns")
        }
        "fleet_probe" => ops * (at("simos.exec.spawn_ns_p16384") + at("core.fccd.probe_file_ns")),
        // A cell boots a machine, runs a fleet of eight on average,
        // classifies its corpus and estimates free memory.
        "matrix_grid" => {
            let fleet = 8.0 * (at("simos.exec.spawn_ns_p512") + at("core.fccd.probe_file_ns"));
            let cell = at("simos.boot_ns")
                + fleet
                + at("core.fccd.classify_ns")
                + at("core.mac.estimate_ns");
            ops * cell / pool
        }
        // Pages grep read from disk and pages it found cached; the sorts'
        // memory traffic has no rung of its own and shows in the residual.
        "apps_bulk" => {
            let cold = at("simos.file_page_reads");
            let ratio = at("simos.cache_hit_ratio").min(0.999);
            let warm = cold * ratio / (1.0 - ratio);
            cold * at("simos.fs.read_page_cold_ns") + warm * at("simos.fs.read_page_warm_ns")
        }
        "covert_grid" => ops * at("covert.cell_ns") / pool,
        _ => 0.0,
    };
    ns / 1e9
}

// ---- toolbox ---------------------------------------------------------

fn seeded_points(n: usize) -> Vec<f64> {
    let mut s = 0x7074_7321u64;
    (0..n)
        .map(|i| {
            let base = if i % 2 == 0 { 2_000.0 } else { 6_000_000.0 };
            base + (splitmix(&mut s) % 1000) as f64
        })
        .collect()
}

fn two_means_ns(b: &Budget) -> f64 {
    let xs = seeded_points(256);
    b.per_unit(1, || {
        black_box(two_means(black_box(&xs)));
    })
}

fn summary_median_ns(b: &Budget) -> f64 {
    let xs = seeded_points(256);
    b.per_unit(1, || {
        black_box(Summary::new(black_box(&xs)).median());
    })
}

fn mailbox_roundtrip_ns(b: &Budget) -> f64 {
    let mailbox: Mailbox<u64, u64> = Mailbox::new();
    let client = mailbox.client();
    b.per_unit(64, || {
        let tickets: Vec<_> = (0..64).map(|i| client.send(i)).collect();
        for env in mailbox.drain() {
            mailbox.reply(env.ticket, env.req);
        }
        for t in tickets {
            black_box(client.try_take(t));
        }
    })
}

/// Wall time of a small grid on one worker over its wall time on two.
fn pool_speedup_2w(b: &Budget) -> f64 {
    let cfg = MatrixConfig {
        platforms: vec![Platform::LinuxLike],
        aging: vec![false],
        noise_amps: if b.smoke { vec![0.0] } else { vec![0.0, 0.1] },
        fleet_sizes: vec![4, 4],
        ..MatrixConfig::smoke()
    };
    let wall = |workers: usize| {
        let pool = Pool::with_workers(workers);
        b.once(|| {
            black_box(pool.map(cfg.expand(), |_, spec| spec.run()));
            1
        })
    };
    wall(1) / wall(2)
}

// ---- simos -----------------------------------------------------------

fn quiet_sim() -> Sim {
    fleet_machine(2, 4, ExecBackend::Events)
}

fn fleet_of<'a>(
    procs: usize,
    body: impl Fn(&SimProc) + Send + Sync + Copy + 'a,
) -> Vec<(String, Proc<'a, ()>)> {
    (0..procs)
        .map(|i| {
            let w: Proc<'a, ()> = Box::new(move |os: &SimProc| body(os));
            (format!("p{i}"), w)
        })
        .collect()
}

fn switch_ns(b: &Budget) -> f64 {
    let yields = b.size(2000, 50) as u64;
    b.once(|| {
        let mut sim = quiet_sim();
        sim.run(fleet_of(64, move |os| {
            for _ in 0..yields {
                os.yield_now();
            }
        }));
        64 * yields
    })
}

fn spawn_ns(b: &Budget, procs: usize) -> f64 {
    b.once(|| {
        let mut sim = quiet_sim();
        sim.run(fleet_of(procs, |_| {}));
        procs as u64
    })
}

fn spawn_ns_p512(b: &Budget) -> f64 {
    spawn_ns(b, 512)
}

fn spawn_ns_p16384(b: &Budget) -> f64 {
    spawn_ns(b, b.size(16_384, 1024))
}

/// A quiet machine with one warm 256 KB file, for single-process rungs.
fn sim_with_file() -> (Sim, String) {
    let mut sim = quiet_sim();
    let files = spread_corpus(&mut sim, 1, 1, 256 << 10);
    warm(&mut sim, &files);
    (sim, files[0].0.clone())
}

fn syscall_ns(b: &Budget) -> f64 {
    let (mut sim, path) = sim_with_file();
    b.per_unit(256, || {
        sim.run_one(|os| {
            for _ in 0..256 {
                black_box(os.stat(&path).is_ok());
            }
        })
    })
}

fn probe_ns(b: &Budget) -> f64 {
    let (mut sim, path) = sim_with_file();
    b.per_unit(256, || {
        sim.run_one(|os| {
            let fd = os.open(&path).expect("file opens");
            for i in 0..256u64 {
                black_box(os.read_byte(fd, (i % 64) * 4096).is_ok());
            }
            os.close(fd).expect("file closes");
        })
    })
}

fn probe_batched_ns(b: &Budget) -> f64 {
    let (mut sim, path) = sim_with_file();
    let specs: Vec<ProbeSpec> = (0..64).map(|i| ProbeSpec { offset: i * 4096 }).collect();
    b.per_unit(256, || {
        sim.run_one(|os| {
            let fd = os.open(&path).expect("file opens");
            for _ in 0..4 {
                black_box(os.probe_batch(fd, &specs));
            }
            os.close(fd).expect("file closes");
        })
    })
}

fn sleep_wakeup_ns(b: &Budget) -> f64 {
    let sleeps = b.size(500, 20) as u64;
    b.once(|| {
        let mut sim = quiet_sim();
        sim.run(fleet_of(64, move |os| {
            for _ in 0..sleeps {
                os.sleep(GrayDuration::from_millis(1));
            }
        }));
        64 * sleeps
    })
}

const PAGES: u64 = 1024;

fn read_page_warm_ns(b: &Budget) -> f64 {
    let mut sim = quiet_sim();
    let files = spread_corpus(&mut sim, 1, 1, PAGES * 4096);
    warm(&mut sim, &files);
    let path = &files[0].0;
    b.per_unit(PAGES, || {
        sim.run_one(|os| {
            let fd = os.open(path).expect("file opens");
            os.read_discard(fd, 0, PAGES * 4096).expect("file reads");
            os.close(fd).expect("file closes");
        })
    })
}

fn read_page_cold_ns(b: &Budget) -> f64 {
    let mut sim = quiet_sim();
    let files = spread_corpus(&mut sim, 1, 1, PAGES * 4096);
    let path = &files[0].0;
    // The flush is part of the loop; it is a few percent of reading a
    // thousand pages from the simulated disk.
    b.per_unit(PAGES, || {
        sim.flush_file_cache();
        sim.run_one(|os| {
            let fd = os.open(path).expect("file opens");
            os.read_discard(fd, 0, PAGES * 4096).expect("file reads");
            os.close(fd).expect("file closes");
        })
    })
}

fn create_unlink_ns(b: &Budget) -> f64 {
    let mut sim = quiet_sim();
    b.per_unit(64, || {
        sim.run_one(|os| {
            for i in 0..64 {
                let path = format!("/cu{i}");
                let fd = os.create(&path).expect("file is created");
                os.close(fd).expect("file closes");
                os.unlink(&path).expect("file is removed");
            }
        })
    })
}

/// Writes to every page of a region twice the machine's memory, so half
/// the touches reclaim a page.
fn touch_page_ns(b: &Budget) -> f64 {
    let pages = 2 * (64 << 20) / 4096u64;
    b.once(|| {
        let mut sim = quiet_sim();
        sim.run_one(|os| {
            let region = os.mem_alloc(pages * 4096).expect("region is allocated");
            for p in 0..pages {
                os.mem_touch_write(region, p).expect("page is touched");
            }
            os.mem_free(region).expect("region is freed");
        });
        pages
    })
}

fn boot_ns(b: &Budget) -> f64 {
    b.once(|| {
        let mut sim = daemon_machine(4, 4);
        let files = spread_corpus(&mut sim, 4, 4, 256 << 10);
        warm(&mut sim, &files[..8]);
        black_box(&sim);
        1
    })
}

// ---- core ------------------------------------------------------------

fn small_fccd() -> FccdParams {
    FccdParams {
        access_unit: 1 << 20,
        prediction_unit: 256 << 10,
        ..FccdParams::default()
    }
}

fn small_mac() -> MacParams {
    MacParams {
        initial_increment: 1 << 20,
        max_increment: 4 << 20,
        ..MacParams::default()
    }
}

/// The daemon machine with twelve 512 KB files, every other one warm.
fn corpus_sim() -> (Sim, Vec<(String, u64)>) {
    corpus_sim_of(3)
}

fn corpus_sim_of(files_per_disk: usize) -> (Sim, Vec<(String, u64)>) {
    let mut sim = daemon_machine(4, 4);
    let files = spread_corpus(&mut sim, 4, files_per_disk, 512 << 10);
    let warm_set: Vec<_> = files.iter().step_by(2).cloned().collect();
    warm(&mut sim, &warm_set);
    (sim, files)
}

fn fccd_probe_file_ns(b: &Budget) -> f64 {
    let (mut sim, files) = corpus_sim();
    let (path, bytes) = &files[0];
    b.per_unit(1, || {
        sim.run_one(|os| {
            let fd = os.open(path).expect("file opens");
            black_box(Fccd::with_fixed_seed(os, small_fccd()).probe_file(fd, *bytes));
            os.close(fd).expect("file closes");
        })
    })
}

fn fccd_classify_ns(b: &Budget) -> f64 {
    let (mut sim, files) = corpus_sim();
    let paths: Vec<String> = files.into_iter().map(|(p, _)| p).collect();
    b.per_unit(1, || {
        sim.run_one(|os| {
            black_box(Fccd::with_fixed_seed(os, small_fccd()).classify_files(&paths));
        })
    })
}

fn fccd_classify_self_ns(b: &Budget) -> f64 {
    let os = MockOs::new(4096, 4096);
    let paths: Vec<String> = (0..12).map(|i| format!("/m{i:02}")).collect();
    for (i, path) in paths.iter().enumerate() {
        make_file(&os, path, 512 << 10).expect("mock file is created");
        if i % 2 == 1 {
            os.flush_cache();
        }
    }
    os.flush_cache();
    for path in paths.iter().step_by(2) {
        os.warm(path, 0..128);
    }
    b.per_unit(1, || {
        black_box(Fccd::with_fixed_seed(&os, small_fccd()).classify_files(&paths));
    })
}

fn mac_estimate_ns(b: &Budget) -> f64 {
    b.once(|| {
        let mut sim = daemon_machine(2, 2);
        sim.run_one(|os| {
            black_box(Mac::new(os, small_mac()).available_estimate(128 << 20))
                .expect("estimate succeeds");
        });
        1
    })
}

fn mac_estimate_self_ns(b: &Budget) -> f64 {
    let pages = (56usize << 20) / 4096;
    b.once(|| {
        let os = MockOs::new(16, pages);
        black_box(Mac::new(&os, small_mac()).available_estimate(128 << 20))
            .expect("estimate succeeds");
        1
    })
}

fn fldc_order_ns(b: &Budget) -> f64 {
    let (mut sim, _) = corpus_sim();
    b.per_unit(1, || {
        sim.run_one(|os| {
            black_box(Fldc::new(os).order_directory("/")).expect("directory orders");
        })
    })
}

fn wbd_estimate_ns(b: &Budget) -> f64 {
    let (mut sim, _) = corpus_sim();
    b.per_unit(1, || {
        sim.run_one(|os| {
            let wbd = Wbd::new(
                os,
                WbdParams {
                    calib_pages: 8,
                    ..WbdParams::default()
                },
            );
            let observed = wbd.sync_cost().expect("sync is timed");
            let cal = wbd.calibrate().expect("calibration runs");
            black_box(cal.estimate_pages(observed));
        })
    })
}

// ---- sched -----------------------------------------------------------

/// An executor that answers every plan at once: what is left is the
/// scheduler's own bookkeeping.
struct NoOp;

impl PlanExecutor for NoOp {
    fn run_wave(&mut self, wave: &[ProbePlan]) -> WaveOutcome {
        WaveOutcome {
            results: wave
                .iter()
                .map(|p| PlanResult {
                    path: p.path.clone(),
                    size: 0,
                    samples: Vec::new(),
                    error: None,
                })
                .collect(),
            span: None,
        }
    }
}

fn plans(files: &[(String, u64)]) -> Vec<ProbePlan> {
    files
        .iter()
        .map(|(path, _)| ProbePlan {
            path: path.clone(),
            specs: vec![ProbeSpec { offset: 0 }, ProbeSpec { offset: 256 << 10 }],
            sub_batch: 1,
        })
        .collect()
}

fn sched_self_ns_per_plan(b: &Budget) -> f64 {
    let files: Vec<(String, u64)> = (0..16).map(|i| (format!("/f{i}"), 0)).collect();
    let mut sched = Scheduler::new(SchedConfig::default());
    b.per_unit(16, || {
        let handles: Vec<_> = plans(&files).into_iter().map(|p| sched.submit(p)).collect();
        sched.dispatch(&mut NoOp);
        for h in handles {
            black_box(sched.take(h));
        }
        black_box(sched.take_waves());
    })
}

fn sched_wave_ns(b: &Budget) -> f64 {
    let (mut sim, files) = corpus_sim();
    let mut sched = Scheduler::new(SchedConfig::default());
    b.per_unit(1, || {
        let handles: Vec<_> = plans(&files[..4])
            .into_iter()
            .map(|p| sched.submit(p))
            .collect();
        sched.dispatch(&mut SimExecutor::new(&mut sim));
        for h in handles {
            black_box(sched.take(h));
        }
        black_box(sched.take_waves());
    })
}

// ---- gbd -------------------------------------------------------------

/// A daemon with one tenant and the corpus and query pool of `gbd_hot`
/// (twelve files, 18 shapes) or of `gbd_miss` (64 files, 72 shapes).
fn daemon(cache_capacity: usize, wide: bool) -> (Sim, Gbd, gbd::GbdClient, Vec<Query>) {
    let files_per_disk = if wide { 16 } else { 3 };
    let (sim, files) = corpus_sim_of(files_per_disk);
    let cfg = GbdConfig {
        cache_ttl: GrayDuration::from_secs(3600),
        cache_capacity,
        admission_budget: 64,
        fccd: small_fccd(),
        sched: SchedConfig {
            concurrency: 4,
            sub_batch: 1,
            ..SchedConfig::default()
        },
        ..GbdConfig::default()
    };
    let policy = cfg.ttl_policy();
    let mut gbd = Gbd::new(cfg, Box::new(policy));
    let client = gbd.register_tenant("rung").expect("one tenant fits");
    let queries = crate::workloads::gbd::query_pool(&files, files_per_disk, wide);
    (sim, gbd, client, queries)
}

/// Per query of a tick that asks every shape of the pool once.
fn gbd_serve_ns(b: &Budget, cache_capacity: usize, wide: bool) -> f64 {
    let (mut sim, mut gbd, client, queries) = daemon(cache_capacity, wide);
    b.per_unit(queries.len() as u64, || {
        let tickets: Vec<_> = queries.iter().map(|q| client.submit(q.clone())).collect();
        gbd.serve(&mut sim);
        for t in tickets {
            black_box(client.take(t));
        }
    })
}

fn gbd_serve_hit_ns(b: &Budget) -> f64 {
    gbd_serve_ns(b, 4096, false)
}

/// With room for one entry and every shape asked once a tick, no query
/// finds its entry: each is inferred again, the memory estimate, the
/// allocation and the dirty-residue estimate included.
fn gbd_serve_miss_ns(b: &Budget) -> f64 {
    gbd_serve_ns(b, 1, true)
}

fn cache_entry(i: u64) -> (String, CacheEntry) {
    let query = Query::MacAvailable { ceiling: i };
    let key = query.fingerprint();
    let entry = CacheEntry {
        query,
        reply: Reply::Available { bytes: i },
        stored_at: Nanos(i),
        verdicts: BTreeMap::new(),
    };
    (key, entry)
}

fn cache_lookup_ns(b: &Budget) -> f64 {
    let mut cache = InferenceCache::with_capacity(4096);
    let keys: Vec<String> = (0..18)
        .map(|i| {
            let (key, entry) = cache_entry(i);
            cache.insert(key.clone(), entry);
            key
        })
        .collect();
    let policy = TtlOnly {
        ttl: GrayDuration::from_secs(3600),
    };
    b.per_unit(keys.len() as u64, || {
        for key in &keys {
            black_box(cache.lookup(key, Nanos(100), &policy));
        }
    })
}

fn cache_insert_evict_ns(b: &Budget) -> f64 {
    let mut cache = InferenceCache::with_capacity(8);
    let mut next = 0u64;
    b.per_unit(64, || {
        for _ in 0..64 {
            next += 1;
            let (key, entry) = cache_entry(next);
            black_box(cache.insert(key, entry));
        }
    })
}

// ---- apps, covert ----------------------------------------------------

fn grep_file_ns(b: &Budget) -> f64 {
    let mut sim = quiet_sim();
    let files = spread_corpus(&mut sim, 1, 1, 4 << 20);
    let paths = vec![files[0].0.clone()];
    b.per_unit(1, || {
        sim.run_one(|os| {
            black_box(
                Grep::new(os, GrepOptions::default())
                    .run(&paths, &Needle::SyntheticIn(None), &GrepMode::Unmodified)
                    .expect("grep runs"),
            );
        })
    })
}

fn fastsort_pass_ns(b: &Budget) -> f64 {
    let mut sim = quiet_sim();
    let bytes = (8u64 << 20) / 100 * 100;
    sim.run_one(|os| make_file(os, "/sortin", bytes).expect("sort input is created"));
    b.per_unit(1, || {
        sim.run_one(|os| {
            let cfg = SortConfig::new("/sortin", "/sortout", PassPolicy::Static(bytes));
            black_box(
                FastSort::new(os, cfg)
                    .run_modelled()
                    .expect("fastsort runs"),
            );
            os.unlink("/sortout.run0").expect("run file is removed");
        })
    })
}

fn covert_cell_ns(b: &Budget) -> f64 {
    let specs = CovertGridConfig::smoke().expand();
    b.per_unit(specs.len() as u64, || {
        for spec in &specs {
            black_box(spec.run());
        }
    })
}
