//! `apps_bulk`: the paper's own applications, unmodified against gray-box.
//!
//! One process at a time does bulk page-loop I/O on the paper's machine
//! (896 MB, noise on): `grep` over a hundred 10 MB files in command-line
//! order against `gb-grep`, which reads the files FCCD predicts cached
//! first; and the first pass of `fastsort` with a statically configured
//! pass size, too big for memory, against `gb-fastsort`, whose passes are
//! sized by MAC. This is the paper's end-to-end claim (Figures 3 and 7),
//! and it uses the simulator the other way round from `fleet_probe`: few
//! processes, long reads through `fs`, `cache`, `disk` and `vm`, with the
//! probes a small share of the work.

use std::time::Instant;

use gray_apps::fastsort::{FastSort, PassPolicy, SortConfig};
use gray_apps::grep::{Grep, GrepMode, GrepOptions, Needle};
use gray_apps::workload::{make_file, make_files};
use graybox::fccd::FccdParams;
use graybox::mac::MacParams;
use graybox::os::GrayBoxOs;
use simos::{ExecBackend, Sim, SimConfig};

use super::{Ctx, Run, Workload};
use crate::span;
use crate::stat::{fnv, FNV_START};

pub const APPS_BULK: Workload = Workload {
    name: "apps_bulk",
    why: "grep and fastsort, unmodified against gray-box, on the paper's 896 MB machine: one process doing bulk page-loop I/O through fs, cache, disk and vm, with probes a small share of the work",
    op: "app trial",
    run,
};

/// The four trials of a slice, in the order they run.
const TRIALS: [&str; 4] = ["grep", "gb-grep", "fastsort", "gb-fastsort"];
const SETUP_REPEATS: usize = 3;

struct Sizes {
    files: usize,
    file_bytes: u64,
    sort_bytes: u64,
    /// The unmodified sort's configured pass: five percent more than the
    /// sort machine has, which is past the cliff where it starts to page.
    static_pass: u64,
    mac: MacParams,
    mac_min: u64,
}

/// The machines of one set-up: the paper's for `grep`, and for `fastsort`
/// the same machine with an eighth of the memory, so that a pass that does
/// not fit costs a quarter of a host second and not two.
struct Machines {
    grep: Sim,
    paths: Vec<String>,
    sort: Sim,
}

fn boot(ctx: &Ctx, sizes: &Sizes) -> Machines {
    let cfg = ctx
        .size(SimConfig::paper(), SimConfig::small())
        .with_seed(SimConfig::paper().seed ^ ctx.seed)
        .with_exec(ExecBackend::Events);
    let mut sort_cfg = cfg.clone();
    sort_cfg.mem_bytes /= 8;
    sort_cfg.kernel_reserve_bytes /= 8;
    let mut grep = Sim::new(cfg);
    let (files, file_bytes, sort_bytes) = (sizes.files, sizes.file_bytes, sizes.sort_bytes);
    let paths = grep.run_one(move |os| {
        make_files(os, "/corpus", files, file_bytes).expect("corpus is created")
    });
    grep.flush_file_cache();
    let mut sort = Sim::new(sort_cfg);
    sort.run_one(move |os| make_file(os, "/sortin", sort_bytes).expect("sort input is created"));
    sort.flush_file_cache();
    Machines { grep, paths, sort }
}

/// Runs one application trial and returns its virtual run time in
/// nanoseconds and a digest of what it reported.
fn trial(m: &mut Machines, sizes: &Sizes, which: usize, op_id: u64) -> (u64, u64) {
    let paths = &m.paths;
    let fccd = FccdParams::default();
    match TRIALS[which] {
        app @ ("grep" | "gb-grep") => {
            let mode = if app == "grep" {
                GrepMode::Unmodified
            } else {
                GrepMode::GrayBox(fccd)
            };
            let _s = span::enter("apps.grep.run", op_id);
            let report = m.grep.run_one(|os| {
                Grep::new(os, GrepOptions::default())
                    .run(paths, &Needle::SyntheticIn(None), &mode)
                    .expect("grep runs")
            });
            let digest = fnv(fnv(FNV_START, report.bytes), report.files_scanned as u64);
            (report.elapsed.as_nanos(), digest)
        }
        app => {
            let policy = if app == "fastsort" {
                PassPolicy::Static(sizes.static_pass)
            } else {
                PassPolicy::GrayBox {
                    mac: sizes.mac.clone(),
                    min: sizes.mac_min,
                }
            };
            let _s = span::enter("apps.fastsort.run", op_id);
            let report = m.sort.run_one(|os| {
                let report = FastSort::new(os, SortConfig::new("/sortin", "/sortout", policy))
                    .run_modelled()
                    .expect("fastsort runs");
                for k in 0..report.passes.len() {
                    os.unlink(&format!("/sortout.run{k}"))
                        .expect("run file is removed");
                }
                report
            });
            let digest = report.passes.iter().fold(FNV_START, |h, &p| fnv(h, p));
            (report.total.as_nanos(), digest)
        }
    }
}

fn run(ctx: &Ctx) -> Run {
    let mb = 1u64 << 20;
    let sizes = ctx.size(
        Sizes {
            files: 100,
            file_bytes: 10 * mb,
            sort_bytes: 160 * mb / 100 * 100,
            static_pass: 109 * mb,
            mac: MacParams {
                initial_increment: 2 * mb,
                max_increment: 16 * mb,
                ..MacParams::default()
            },
            mac_min: 8 * mb,
        },
        Sizes {
            files: 20,
            file_bytes: mb,
            sort_bytes: 24 * mb / 100 * 100,
            static_pass: 80 * mb,
            mac: MacParams {
                initial_increment: mb,
                max_increment: 8 * mb,
                ..MacParams::default()
            },
            mac_min: 4 * mb,
        },
    );
    let mut run = Run::default();

    // Set-up, several times over: the machines, the corpus, the sort input
    // and one untimed grep of each kind, which leaves the file cache as a
    // previous run would. Equal set-ups must replay identically.
    let mut warm_digests = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let (machine, digest) = run.setup(|| {
            let mut m = boot(ctx, &sizes);
            let digest = (0..2).fold(FNV_START, |h, which| {
                let (ns, d) = trial(&mut m, &sizes, which, 0);
                fnv(fnv(h, ns), d)
            });
            (m, digest)
        });
        warm_digests.push(digest);
        built = Some(machine);
    }
    let mut m = built.expect("SETUP_REPEATS is at least one");
    run.check(warm_digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("apps: equal set-ups replayed to different digests {warm_digests:x?}")
    });

    let kernel0 = m.grep.oracle().stats();
    let mut virtual_ns = [0u64; TRIALS.len()];
    run.digest = FNV_START;
    let slices = ctx.slices(0.8, 2);
    for slice in 0..slices {
        let mut host_s = 0.0;
        run.begin_slice();
        for (which, total_ns) in virtual_ns.iter_mut().enumerate() {
            let t0 = Instant::now();
            let (ns, digest) = trial(&mut m, &sizes, which, (slice * TRIALS.len() + which) as u64);
            host_s += t0.elapsed().as_secs_f64();
            *total_ns += ns;
            run.latencies_ns.push(ns);
            run.digest = fnv(fnv(run.digest, ns), digest);
        }
        run.slice(TRIALS.len() as u64, host_s);
    }
    run.kernel_delta(&m.grep.oracle().stats(), &kernel0);

    let grep = virtual_ns[0] as f64 / virtual_ns[1].max(1) as f64;
    let sort = virtual_ns[2] as f64 / virtual_ns[3].max(1) as f64;
    run.quality = (grep * sort).sqrt();
    run.layer.insert("apps.speedup", run.quality);
    run.layer.insert("apps.grep_speedup", grep);
    run.layer.insert("apps.fastsort_speedup", sort);
    run
}
