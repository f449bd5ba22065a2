//! The executor's coroutine stacks, from outside the crate.
//!
//! `simos::coro` hands every simulated process a stack from a per-thread
//! pool of guard-paged mappings. What that promises a caller of
//! [`Sim::run`]:
//!
//! - a process that outgrows its stack kills the host process at the
//!   faulting store instead of writing over its neighbours (a);
//! - a stack comes back from a process that panicked as good as from one
//!   that returned (b);
//! - a thread's fleets run on the stacks its first fleet mapped (c), and
//!   the mappings go when the thread does (d) — `toolbox::pool` starts
//!   fresh worker threads on every call.
//!
//! (c) and (d) count lines of `/proc/self/maps`, which is the process's
//! and not the test's: the three in-process cases run one at a time,
//! each on a thread that is gone before the next starts, and the
//! comparisons leave [`SLACK`] lines for what libtest's own threads map
//! meanwhile. One leaked fleet is two lines per process, 4 000 here.

use std::os::unix::process::ExitStatusExt;
use std::process::Command;
use std::sync::Mutex;

use graybox_icl::graybox::os::{GrayBoxOs, GrayBoxOsExt};
use graybox_icl::simos::exec::Workload;
use graybox_icl::simos::{Sim, SimConfig, SimProc};
use graybox_icl::toolbox::GrayDuration;

/// Serialises the cases that map stacks in this process.
static MAPPINGS: Mutex<()> = Mutex::new(());

/// Mappings other threads of the test binary may add or drop while a
/// case counts its own: thread stacks, malloc arenas.
const SLACK: usize = 32;

const FLEET: usize = 2_000;

/// Runs `case` under the lock and on a thread of its own, joined before
/// the lock is released: a test's thread exits, and only then unmaps its
/// stacks, after the test function has returned.
fn isolated(case: impl FnOnce() + Send) {
    // A failed sibling case poisons the lock but leaves nothing behind
    // that this one reads.
    let _held = MAPPINGS.lock().unwrap_or_else(|e| e.into_inner());
    if let Err(panic) = std::thread::scope(|s| s.spawn(case).join()) {
        std::panic::resume_unwind(panic);
    }
}

/// Lines of `/proc/self/maps`; 0 where there is no such file, which
/// turns the count comparisons into no-ops and leaves the fleets.
fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps").map_or(0, |maps| maps.lines().count())
}

fn machine() -> Sim {
    let mut sim = Sim::new(SimConfig::small());
    sim.run_one(|os| os.write_file("/shared", &[5u8; 64 << 10]).unwrap());
    sim.flush_file_cache();
    sim
}

/// Runs `n` processes that contend for one file on a fresh machine and
/// folds everything they observed into one digest.
fn fleet_digest(n: usize) -> u64 {
    let mut sim = machine();
    let workloads: Vec<(String, Workload<'static, u64>)> = (0..n)
        .map(|i| {
            let body: Workload<'static, u64> = Box::new(move |os: &SimProc| {
                let fd = os.open("/shared").unwrap();
                let read = os.read_discard(fd, (i as u64 % 16) * 4096, 4096).unwrap();
                os.compute(GrayDuration::from_nanos(100 + i as u64 % 7));
                os.close(fd).unwrap();
                os.now().as_nanos() ^ read
            });
            (format!("p{i}"), body)
        })
        .collect();
    sim.run(workloads)
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v).wrapping_mul(0x100_0000_01b3)
        })
}

/// Descends until the stack ends. The only way out other than a fault is
/// having written 8 MiB below the first frame, sixteen stacks' worth,
/// which means nothing stopped it.
#[inline(never)]
#[allow(unconditional_recursion)]
fn descend(first_frame: usize) -> u64 {
    let frame = std::hint::black_box([first_frame as u64; 128]);
    if first_frame - (frame.as_ptr() as usize) > 8 << 20 {
        std::process::exit(0);
    }
    descend(first_frame) + frame[0]
}

/// Child half of (a); see `runaway_recursion_dies_at_the_guard`.
#[test]
#[ignore = "kills its process: run by runaway_recursion_dies_at_the_guard in a child"]
fn runaway_recursion_child() {
    let mut sim = machine();
    // The runaway is mapped first, so the other processes' stacks are
    // the memory below it.
    let mut workloads: Vec<(String, Workload<'static, u64>)> = vec![(
        "runaway".to_string(),
        Box::new(|_os: &SimProc| {
            let here = 0u8;
            descend(std::ptr::addr_of!(here) as usize)
        }),
    )];
    for i in 0..32 {
        workloads.push((
            format!("bystander{i}"),
            Box::new(|os: &SimProc| os.now().as_nanos()),
        ));
    }
    sim.run(workloads);
}

#[test]
fn runaway_recursion_dies_at_the_guard() {
    let status = Command::new(std::env::current_exe().expect("test binary path"))
        .args(["--exact", "runaway_recursion_child", "--ignored"])
        .output()
        .expect("re-exec the test binary")
        .status;
    const SIGSEGV: i32 = 11;
    // SIGBUS is 7 on Linux and 10 on macOS and the BSDs, which report a
    // protection fault on a mapped page that way.
    let sigbus = if cfg!(any(target_os = "linux", target_os = "android")) {
        7
    } else {
        10
    };
    assert!(
        status.signal() == Some(SIGSEGV) || status.signal() == Some(sigbus),
        "a process that outgrew its stack must fault at the guard, got {status:?}"
    );
}

#[test]
fn stack_of_a_panicked_process_is_reused_cleanly() {
    isolated(|| {
        // A thread of its own is a pool of its own: stacks no process
        // has panicked on.
        let reference = std::thread::spawn(|| fleet_digest(64))
            .join()
            .expect("reference fleet");

        let mut sim = machine();
        let doomed: Vec<(String, Workload<'static, u64>)> = (0..64)
            .map(|i| {
                let body: Workload<'static, u64> = Box::new(move |os: &SimProc| {
                    os.compute(GrayDuration::from_nanos(50));
                    if i % 2 == 1 {
                        panic!("process {i} gives up with {} in hand", os.now().as_nanos());
                    }
                    i
                });
                (format!("p{i}"), body)
            })
            .collect();
        let err = sim.try_run(doomed).expect_err("every other process panics");
        assert_eq!(err.name, "p1");
        assert_eq!(
            fleet_digest(64),
            reference,
            "on the stacks the panics unwound"
        );
    });
}

#[test]
fn consecutive_fleets_on_one_thread_map_stacks_once() {
    isolated(|| {
        let first = fleet_digest(FLEET);
        let after_first = mappings();
        for _ in 0..2 {
            assert_eq!(fleet_digest(FLEET), first);
            let now = mappings();
            assert!(
                now <= after_first + SLACK,
                "a later fleet mapped stacks of its own: {after_first} mappings after the first, {now} now"
            );
        }
    });
}

#[test]
fn a_thread_takes_its_stacks_with_it() {
    isolated(|| {
        let before = mappings();
        let (during, digest) = std::thread::spawn(|| {
            let digest = fleet_digest(FLEET);
            (mappings(), digest)
        })
        .join()
        .expect("fleet thread");
        let after = mappings();
        assert_ne!(digest, 0);
        if before > 0 {
            assert!(
                during + SLACK >= before + 2 * FLEET,
                "{FLEET} live stacks are two mappings each: {before} before, {during} during"
            );
        }
        assert!(
            after <= before + SLACK,
            "the thread's pool outlived it: {before} mappings before, {after} after the join"
        );
    });
}
