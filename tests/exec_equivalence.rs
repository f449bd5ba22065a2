//! The executor against its references.
//!
//! `simos::exec` multiplexes coroutines on one driver loop; its whole
//! correctness claim is that the kernel sees the *same call sequence* it
//! would see if the minimum-(virtual time, pid) process simply took the
//! next step — every charged duration, every noise draw, every
//! file-cache transition and every final clock **bit for bit**. Three
//! levels pin that claim, with timing noise on:
//!
//! 1. raw syscall soup: random multi-process programs over shared files
//!    run through the executor and through a flat interpreter that steps
//!    the same call lists directly on a bare `Kernel` under
//!    `Kernel::next_runnable` — no coroutines, nothing suspended
//!    mid-call — compared by per-process observation digests and final
//!    clocks;
//! 2. the paper's FCCD fleet path through `gray-sched` waves: ranks,
//!    cached/uncached split, separation score and final clock against
//!    golden values;
//! 3. panic propagation: the structured [`ProcPanic`] (pid, name,
//!    message) and the clock it leaves, against golden values.
//!
//! The golden values of (2) and (3) were produced by the
//! thread-per-process executor (one OS thread per process and a condvar
//! baton) at the last commit that had it, over the case seeds
//! `prop::check` derives from the test names; that executor is gone and
//! these constants are what is left of it as a reference.
//!
//! Replay a failing soup case from the harness banner:
//!
//! ```text
//! PROP_SEED=0x<seed> cargo test -q --test exec_equivalence random_syscall_soup
//! PROP_CASES=50 cargo test -q --test exec_equivalence random_syscall_soup
//! ```
//!
//! [`ProcPanic`]: graybox_icl::simos::ProcPanic

use graybox_icl::apps::workload::make_file;
use graybox_icl::graybox::fccd::{classify_ranks, Fccd, FccdParams, FileRank};
use graybox_icl::graybox::os::{Fd, GrayBoxOs, ProbeSample, ProbeSpec};
use graybox_icl::sched::{SchedConfig, Scheduler, SimExecutor};
use graybox_icl::simos::exec::Workload;
use graybox_icl::simos::kernel::Kernel;
use graybox_icl::simos::{Sim, SimConfig, SimProc, PAGE_SIZE};
use graybox_icl::toolbox::profile;
use graybox_icl::toolbox::prop::{check, Gen};
use graybox_icl::toolbox::GrayDuration;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x100_0000_01b3);
}

/// One primitive call of a soup process: exactly one `SimProc` method,
/// which is exactly one `Kernel::sys_*` call.
#[derive(Debug, Clone)]
enum Op {
    Open(usize),
    Close(usize),
    Compute(u64),
    Sleep(u64),
    Write { f: usize, off: u64, len: u64 },
    Read { f: usize, off: u64, len: u64 },
    Probe { f: usize, offs: Vec<u64> },
    Stat(usize),
    Yield,
    Now,
}

const SOUP_FILES: usize = 4;
const SOUP_FILE_BYTES: u64 = 256 << 10;

fn soup_path(f: usize) -> String {
    format!("/s{f}")
}

fn draw_program(g: &mut Gen) -> Vec<Op> {
    g.vec(4..14, |g| match g.usize(0..7) {
        0 => Op::Compute(g.u64(10..500)),
        1 => Op::Sleep(g.u64(10..800)),
        2 => Op::Write {
            f: g.usize(0..SOUP_FILES),
            off: g.u64(0..SOUP_FILE_BYTES - 4096),
            len: g.u64(1..16) * 4096,
        },
        3 => Op::Read {
            f: g.usize(0..SOUP_FILES),
            off: g.u64(0..SOUP_FILE_BYTES - 4096),
            len: g.u64(1..16) * 4096,
        },
        4 => Op::Probe {
            f: g.usize(0..SOUP_FILES),
            offs: g.vec(1..6, |g| g.u64(0..SOUP_FILE_BYTES)),
        },
        5 => Op::Stat(g.usize(0..SOUP_FILES)),
        _ => Op::Yield,
    })
}

/// The full call list of one process: open every file, run the drawn
/// program reading the clock after each step, close every file.
fn lower(program: &[Op]) -> Vec<Op> {
    let mut calls: Vec<Op> = (0..SOUP_FILES).map(Op::Open).collect();
    for op in program {
        calls.push(match *op {
            Op::Write { f, off, len } => Op::Write {
                f,
                off,
                len: len.min(SOUP_FILE_BYTES - off),
            },
            Op::Read { f, off, len } => Op::Read {
                f,
                off,
                len: len.min(SOUP_FILE_BYTES - off),
            },
            ref other => other.clone(),
        });
        calls.push(Op::Now);
    }
    calls.extend((0..SOUP_FILES).map(Op::Close));
    calls
}

fn probe_specs(offs: &[u64]) -> Vec<ProbeSpec> {
    offs.iter().map(|&offset| ProbeSpec { offset }).collect()
}

fn fold_samples(h: &mut u64, samples: &[ProbeSample]) {
    for s in samples {
        fnv(h, s.elapsed.as_nanos());
        fnv(h, s.ok as u64);
    }
}

/// Issues one call through the executor, folding what the process
/// observes (clock reads, probe timings, byte counts) into its digest.
/// Any scheduling difference perturbs some process's clock and shows up
/// here.
fn issue_os(os: &SimProc, fds: &mut Vec<Fd>, h: &mut u64, op: &Op) {
    match op {
        Op::Open(f) => fds.push(os.open(&soup_path(*f)).unwrap()),
        Op::Close(f) => os.close(fds[*f]).unwrap(),
        Op::Compute(us) => os.compute(GrayDuration::from_micros(*us)),
        Op::Sleep(us) => os.sleep(GrayDuration::from_micros(*us)),
        Op::Write { f, off, len } => fnv(h, os.write_fill(fds[*f], *off, *len).unwrap()),
        Op::Read { f, off, len } => fnv(h, os.read_discard(fds[*f], *off, *len).unwrap()),
        Op::Probe { f, offs } => fold_samples(h, &os.probe_batch(fds[*f], &probe_specs(offs))),
        Op::Stat(f) => {
            let st = os.stat(&soup_path(*f)).unwrap();
            fnv(h, st.size);
            fnv(h, st.atime.as_nanos());
        }
        Op::Yield => os.yield_now(),
        Op::Now => fnv(h, os.now().as_nanos()),
    }
}

/// The same call, straight on the kernel as process `pid`.
fn issue_kernel(k: &mut Kernel, pid: usize, fds: &mut Vec<Fd>, h: &mut u64, op: &Op) {
    match op {
        Op::Open(f) => fds.push(k.sys_open(pid, &soup_path(*f)).unwrap()),
        Op::Close(f) => k.sys_close(pid, fds[*f]).unwrap(),
        Op::Compute(us) => k.sys_compute(pid, GrayDuration::from_micros(*us)),
        Op::Sleep(us) => k.sys_sleep(pid, GrayDuration::from_micros(*us)),
        Op::Write { f, off, len } => fnv(h, k.sys_write(pid, fds[*f], *off, *len, None).unwrap()),
        Op::Read { f, off, len } => fnv(h, k.sys_read(pid, fds[*f], *off, *len, None).unwrap()),
        Op::Probe { f, offs } => {
            fold_samples(h, &k.sys_probe_batch(pid, fds[*f], &probe_specs(offs)))
        }
        Op::Stat(f) => {
            let st = k.sys_stat(pid, &soup_path(*f)).unwrap();
            fnv(h, st.size);
            fnv(h, st.atime.as_nanos());
        }
        Op::Yield => {}
        Op::Now => fnv(h, k.sys_now(pid).as_nanos()),
    }
}

/// The soup through `Sim`: per-process digests and the final clock.
fn run_executor(seed: u64, programs: &[Vec<Op>]) -> (Vec<u64>, u64) {
    // Noise stays ON: the noise stream is part of the kernel call
    // sequence, so it must stay in step too.
    let mut sim = Sim::new(SimConfig::small().with_seed(seed));
    sim.run_one(|os| {
        for f in 0..SOUP_FILES {
            make_file(os, &soup_path(f), SOUP_FILE_BYTES).unwrap();
        }
    });
    sim.flush_file_cache();
    let workloads: Vec<(String, Workload<'_, u64>)> = programs
        .iter()
        .enumerate()
        .map(|(i, program)| {
            let w: Workload<'_, u64> = Box::new(move |os: &SimProc| {
                let (mut fds, mut h) = (Vec::new(), FNV_OFFSET);
                for op in program {
                    issue_os(os, &mut fds, &mut h, op);
                }
                h
            });
            (format!("p{i}"), w)
        })
        .collect();
    let digests = sim.run(workloads);
    (digests, sim.now().as_nanos())
}

/// The reference: the same soup with no executor at all. Each process is
/// a program counter into its call list; whichever process
/// `Kernel::next_runnable` names — the O(n) scan that *defines* the
/// resume rule — issues its next call, and a process whose list is
/// exhausted exits when it is next named, as a returning closure would.
fn run_flat(seed: u64, programs: &[Vec<Op>]) -> (Vec<u64>, u64) {
    let mut k = Kernel::new(SimConfig::small().with_seed(seed));
    // What `run_one` + `make_file` issue for files of one write chunk.
    let setup = k.add_proc(k.max_time());
    for f in 0..SOUP_FILES {
        let fd = k.sys_create(setup, &soup_path(f)).unwrap();
        k.sys_write(setup, fd, 0, SOUP_FILE_BYTES, None).unwrap();
        k.sys_close(setup, fd).unwrap();
    }
    k.finish_proc(setup);
    k.flush_file_cache();

    let start = k.max_time();
    let pids: Vec<usize> = programs.iter().map(|_| k.add_proc(start)).collect();
    let mut procs: Vec<(usize, Vec<Fd>, u64)> = programs
        .iter()
        .map(|_| (0, Vec::new(), FNV_OFFSET))
        .collect();
    while let Some(pid) = k.next_runnable(&pids) {
        let i = pid - pids[0];
        let (pc, fds, h) = &mut procs[i];
        match programs[i].get(*pc) {
            Some(op) => {
                issue_kernel(&mut k, pid, fds, h, op);
                *pc += 1;
            }
            None => k.finish_proc(pid),
        }
    }
    let digests = procs.into_iter().map(|(_, _, h)| h).collect();
    (digests, k.max_time().as_nanos())
}

#[test]
fn random_syscall_soup_is_bit_identical_across_backends() {
    check(
        "random_syscall_soup_is_bit_identical_across_backends",
        10,
        |g: &mut Gen| {
            let seed = g.u64(1..u64::MAX);
            let programs: Vec<Vec<Op>> = (0..g.usize(3..9))
                .map(|_| lower(&draw_program(g)))
                .collect();
            let executor = run_executor(seed, &programs);
            let flat = run_flat(seed, &programs);
            assert_eq!(
                executor.0, flat.0,
                "per-process observation digests diverge"
            );
            assert_eq!(executor.1, flat.1, "final virtual clocks diverge");
        },
    );
}

fn fold_rank(h: &mut u64, r: &FileRank) {
    r.path.bytes().for_each(|b| fnv(h, b as u64));
    fnv(h, r.mean_probe.as_nanos());
    fnv(h, r.total_probe.as_nanos());
    fnv(h, r.size);
}

/// Per case: `prop::check` case seed, final clock (ns), files classified
/// cached, separation score bits, and an FNV fold of every rank (path,
/// mean and total probe time, size) in order followed by the cached and
/// the uncached split. Captured at the commit before `FccdParams` lost
/// its rounds knob, with only the generator's rounds draw removed there
/// (one probe per prediction unit; every later draw shifted, so every
/// case moved); the fold without the knob reproduces them bit for bit.
const FLEET_GOLDEN: [(u64, u64, usize, u64, u64); 6] = [
    (
        0x32a587a53ce245db,
        137845676,
        2,
        0x3fe957bd543e67b5,
        0xb084c66228436392,
    ),
    (
        0xd0dd015ebc2cc1f0,
        271629929,
        2,
        0x3fefd31e5a65ec97,
        0xd697a76ce38f1c28,
    ),
    (
        0x6f147b183b773e05,
        183419176,
        1,
        0x3feffce26c562237,
        0xe2e63a08a0ec3f22,
    ),
    (
        0x0d4bf4d1bac1ba1a,
        358065823,
        1,
        0x3fef6d4c8e2bd950,
        0x4f74313524597d02,
    ),
    (
        0xab836e8b3a0c362f,
        218284759,
        1,
        0x3fefdbbb0dbaa58a,
        0xce472c92b8a3a8b6,
    ),
    (
        0x49bae844b956b244,
        324972083,
        1,
        0x3fed950c5557be5e,
        0x77200b5799e82943,
    ),
];

fn assert_fleet_goldens() {
    for golden in FLEET_GOLDEN {
        let g = &mut Gen::from_seed(golden.0);
        let access_unit = 1u64 << 20;
        let params = FccdParams {
            access_unit,
            prediction_unit: 256 << 10,
            seed: g.u64(1..u64::MAX),
            ..FccdParams::default()
        };
        let nfiles = g.range(3usize..6);
        let files: Vec<(String, u64)> = (0..nfiles)
            .map(|i| (format!("/f{i}"), g.u64(1..4) * access_unit))
            .collect();
        let warm: Vec<(String, Vec<u64>)> = files
            .iter()
            .map(|(path, size)| {
                let units = (0..size / access_unit).filter(|_| g.bool()).collect();
                (path.clone(), units)
            })
            .collect();
        // Concurrency > 1 so plan processes genuinely interleave — that
        // is exactly the regime the coroutine driver must get right.
        let concurrency = g.range(2usize..5);

        let mut sim = Sim::new(SimConfig::small());
        sim.run_one(|os| {
            for (path, size) in &files {
                make_file(os, path, *size).unwrap();
            }
        });
        sim.flush_file_cache();
        sim.run_one(|os| {
            for (path, units) in &warm {
                let fd = os.open(path).unwrap();
                for &u in units {
                    os.read_discard(fd, u * access_unit, access_unit).unwrap();
                }
                os.close(fd).unwrap();
            }
        });
        let planner = sim.run_one(|os| Fccd::with_fixed_seed(os, params).into_planner());
        let mut sched = Scheduler::new(SchedConfig {
            concurrency,
            ..SchedConfig::default()
        });
        let handles: Vec<_> = planner
            .draw_plans(&files, PAGE_SIZE, 0)
            .into_iter()
            .map(|probe| sched.submit(probe))
            .collect();
        sched.dispatch(&mut SimExecutor::new(&mut sim));
        let results = handles
            .into_iter()
            .map(|handle| sched.take(handle).expect("dispatched"))
            .collect();
        let ranks = planner.rank_results(&files, PAGE_SIZE, results);
        let clock = sim.now().as_nanos();

        let split = classify_ranks(ranks.clone());
        let mut fold = FNV_OFFSET;
        ranks.iter().for_each(|r| fold_rank(&mut fold, r));
        fnv(&mut fold, split.cached.len() as u64);
        split.cached.iter().for_each(|r| fold_rank(&mut fold, r));
        fnv(&mut fold, split.uncached.len() as u64);
        split.uncached.iter().for_each(|r| fold_rank(&mut fold, r));
        let got = (
            golden.0,
            clock,
            split.cached.len(),
            split.separation.to_bits(),
            fold,
        );
        assert_eq!(
            got, golden,
            "fleet case left its golden (seed, clock, cached, separation bits, fold)\n\
             ranks: {ranks:#?}\ncached: {:#?}\nuncached: {:#?}\nseparation: {}",
            split.cached, split.uncached, split.separation
        );
    }
}

#[test]
fn fccd_fleet_classifies_bit_identically_across_backends() {
    assert_fleet_goldens();
    // Once more under the virtual-time profiler: attribution only observes
    // charges the kernel already computed, so it may move no clock, no
    // rank and no separation bit — and it must have attributed the run,
    // every path rooted at `sim` and down to a charge-kind leaf.
    let _profiler = profile::capture();
    assert_fleet_goldens();
    let snap = profile::snapshot();
    assert!(snap.total_ns > 0, "no charges recorded");
    assert!(
        snap.nodes.keys().all(|p| p.starts_with("sim;")),
        "every path hangs off the root"
    );
    assert!(
        snap.nodes
            .keys()
            .any(|p| p.ends_with(";cpu") || p.ends_with(";disk")),
        "kind leaves missing: {:?}",
        snap.nodes.keys().take(5).collect::<Vec<_>>()
    );
}

/// Per case: `prop::check` case seed, then the blamed pid, its workload
/// name, the panic message, and the final clock (ns). Produced by the
/// thread-per-process executor.
const PANIC_GOLDEN: [(u64, usize, &str, &str, u64); 8] = [
    (0x5581d24bc546804c, 1, "p1", "victim 1 went down", 5086984),
    (0xf3b94c054490fc61, 3, "p3", "victim 3 went down", 4888571),
    (0x91f0c5bec3db7876, 0, "p0", "victim 0 went down", 5277298),
    (0x30283f784325f48b, 4, "p4", "victim 4 went down", 5753673),
    (0xce5fb931c27070a0, 1, "p1", "victim 1 went down", 5373273),
    (0x6c9732eb41baecb5, 1, "p1", "victim 1 went down", 4719727),
    (0x0aceaca4c10568ca, 3, "p3", "victim 3 went down", 3728519),
    (0xa906265e404fe4df, 2, "p2", "victim 2 went down", 4653969),
];

#[test]
fn panic_propagation_is_equivalent_across_backends() {
    for golden in PANIC_GOLDEN {
        let g = &mut Gen::from_seed(golden.0);
        let seed = g.u64(1..u64::MAX);
        let n = g.usize(2..6);
        let victim = g.usize(0..n);
        let victim_work = g.u64(1..2_000);

        let mut sim = Sim::new(SimConfig::small().with_seed(seed));
        let workloads: Vec<(String, Workload<'_, u64>)> = (0..n)
            .map(|i| {
                let w: Workload<'_, u64> = Box::new(move |os: &SimProc| {
                    os.compute(GrayDuration::from_micros(500));
                    if i == victim {
                        os.compute(GrayDuration::from_micros(victim_work));
                        panic!("victim {i} went down");
                    }
                    os.compute(GrayDuration::from_micros(500));
                    os.now().as_nanos()
                });
                (format!("p{i}"), w)
            })
            .collect();
        let err = sim.try_run(workloads).unwrap_err();
        let got = (
            golden.0,
            err.pid,
            &*err.name,
            &*err.message,
            sim.now().as_nanos(),
        );
        assert_eq!(
            got, golden,
            "panic case left its golden (seed, pid, name, message, clock)"
        );
        assert_eq!(err.name, format!("p{victim}"));
    }
}
