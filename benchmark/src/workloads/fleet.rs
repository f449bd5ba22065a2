//! `fleet_probe`: sixteen thousand one-shot probe processes through the
//! event executor.
//!
//! Each round boots a quiet four-disk, eight-CPU machine with sixteen
//! files (every other one warm) and runs 16 384 processes through
//! `Sim::run`; each opens one file, probes it once with FCCD and exits.
//! The probes are tiny, so host time is the executor: coroutine spawn,
//! context switch, run queue and syscall entry. No daemon, no MAC. The
//! machine is rebuilt for every round, which makes building it the
//! set-up, measured once per round.

use std::time::Instant;

use gray_toolbox::GrayDuration;
use graybox::fccd::{Fccd, FccdParams};
use graybox::os::GrayBoxOs;
use simos::exec::Workload as Proc;
use simos::scenario::{fleet_machine, spread_corpus, warm};
use simos::score::score_fccd_verdicts;
use simos::{ExecBackend, Sim, SimProc};

use super::{Ctx, Run, Workload};
use crate::span;
use crate::stat::{fnv, splitmix, FNV_START};

pub const FLEET_PROBE: Workload = Workload {
    name: "fleet_probe",
    why: "16 384 one-shot FCCD probe processes per round: host time is coroutine spawn, switch, run queue and tiny syscalls in simos::exec, with no daemon and no MAC",
    op: "process",
    run,
};

const DISKS: usize = 4;
const CPUS: u32 = 8;
const FILES_PER_DISK: usize = 4;
const FILE_BYTES: u64 = 256 << 10;

/// What one probe process reports: when it finished, what it concluded
/// and a digest of what it observed.
struct Probed {
    finished_ns: u64,
    /// Mean probe time per probe, the number FCCD ranks files by.
    mean_probe_ns: u64,
    digest: u64,
}

/// Boots the machine with every other file warm. Which files are warm is
/// not seeded: with sixteen files the share of warm ones, and with it the
/// precision, would swing by a quarter from seed to seed.
fn boot() -> (Sim, Vec<(String, u64)>) {
    let mut sim = fleet_machine(DISKS, CPUS, ExecBackend::Events);
    let files = spread_corpus(&mut sim, DISKS, FILES_PER_DISK, FILE_BYTES);
    let warm_set: Vec<_> = files.iter().skip(1).step_by(2).cloned().collect();
    warm(&mut sim, &warm_set);
    (sim, files)
}

/// The fleet's processes. Process `i` probes file `i` and, before it
/// exits, computes for a seeded fraction of a microsecond: the seed moves
/// when processes finish, and little else. Jitter before the probe was
/// tried: even a microsecond of it reorders who reaches which disk first,
/// and the mean wait then jumped between 33, 35 and 38 ms from seed to
/// seed; so did `peak_rss_mb`, by way of the order stacks are freed in.
fn fleet<'a>(
    files: &'a [(String, u64)],
    procs: usize,
    seed: u64,
) -> Vec<(String, Proc<'a, Probed>)> {
    let mut rng = seed ^ 0x0066_6c65_6574;
    (0..procs)
        .map(|i| {
            let (path, bytes) = &files[i % files.len()];
            let jitter = GrayDuration::from_nanos(splitmix(&mut rng) % 1000);
            let body: Proc<'a, Probed> = Box::new(move |os: &SimProc| {
                let fd = os.open(path).expect("corpus file opens");
                let fccd = Fccd::with_fixed_seed(
                    os,
                    FccdParams {
                        access_unit: 1 << 20,
                        prediction_unit: 256 << 10,
                        ..FccdParams::default()
                    },
                );
                let report = fccd.probe_file(fd, *bytes);
                os.close(fd).expect("corpus file closes");
                os.compute(jitter);
                let mut digest = FNV_START;
                let mut total = 0u64;
                for u in &report.units {
                    total += u.probe_time.as_nanos();
                    for v in [u.offset, u.probe_time.as_nanos(), u.probes as u64] {
                        digest = fnv(digest, v);
                    }
                }
                Probed {
                    finished_ns: os.now().as_nanos(),
                    mean_probe_ns: total / report.total_probes().max(1),
                    digest,
                }
            });
            (format!("probe{i}"), body)
        })
        .collect()
}

fn run(ctx: &Ctx) -> Run {
    let procs = ctx.size(16_384, 256);
    // One untimed round first, so that allocator and page faults of the
    // first fleet are not in the first slice; its set-up is not counted.
    let rounds = 1 + ctx.slices(3.0, 2);
    let mut run = Run::default();
    let mut first_digest = None;

    for round in 0..rounds {
        crate::release_freed_memory();
        let warm_up = round == 0;
        let (mut sim, files) = if warm_up { boot() } else { run.setup(boot) };
        let kernel0 = sim.oracle().stats();
        let began = sim.now().as_nanos();
        let bodies = fleet(&files, procs, ctx.seed);

        run.begin_slice();
        let t0 = Instant::now();
        let outcome = {
            let _s = span::enter("simos.run", round as u64);
            sim.try_run(bodies)
        };
        let host_s = t0.elapsed().as_secs_f64();
        if warm_up {
            continue;
        }
        run.slice(procs as u64, host_s);

        let probed = match outcome {
            Ok(p) => p,
            Err(panic) => {
                run.failed += procs as u64;
                run.check(false, || format!("fleet: {panic}"));
                continue;
            }
        };
        let digest = probed
            .iter()
            .fold(FNV_START, |h, p| fnv(fnv(h, p.digest), p.finished_ns));
        match first_digest {
            None => {
                // Every round replays the first one, so the first one is
                // scored and the rest are only compared with it.
                first_digest = Some(digest);
                run.digest = digest;
                run.latencies_ns = probed.iter().map(|p| p.finished_ns - began).collect();
                // One probe cannot be split into clusters; the verdict a
                // caller would draw is "faster than the midpoint between
                // the fastest and the slowest file".
                let lo = probed.iter().map(|p| p.mean_probe_ns).min().unwrap_or(0);
                let hi = probed.iter().map(|p| p.mean_probe_ns).max().unwrap_or(0);
                let verdicts = probed.iter().enumerate().map(|(i, p)| {
                    let path = files[i % files.len()].0.as_str();
                    (path, p.mean_probe_ns < lo + (hi - lo) / 2)
                });
                let score = score_fccd_verdicts(&sim.oracle(), verdicts);
                run.quality = score.precision();
                run.layer.insert("core.fccd.precision", score.precision());
                run.layer.insert("core.fccd.recall", score.recall());
                run.kernel_delta(&sim.oracle().stats(), &kernel0);
            }
            Some(first) => run.check(digest == first, || {
                format!("fleet: round {round} digest {digest:x} differs from the first {first:x}")
            }),
        }
    }
    run
}
