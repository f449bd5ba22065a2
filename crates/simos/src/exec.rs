//! The deterministic process executor.
//!
//! Exactly one simulated process runs at a time: every syscall atomically
//! (a) mutates kernel state at the process's local virtual time and (b)
//! yields if some other runnable process now has the *smallest* local
//! time. Running the minimum-time process first makes state mutations
//! apply in causal order — a conservative sequential discrete-event
//! simulation in which workload code is ordinary imperative Rust.
//!
//! Every process spawned by [`Sim::run`] is a stackful coroutine
//! (`crate::coro`) and one driver loop on the calling thread resumes the
//! minimum-time runnable one, so fleets of thousands of processes cost
//! one context switch per handoff. A run's coroutines sit in one table
//! built per run, so a spawn allocates only the process's entry closure,
//! and before each resume the driver prefetches the saved frame of the
//! process most likely to run after it. The simulation state lives in one
//! `Rc<RefCell<State>>` shared by the [`Sim`], its [`SimProc`] handles and
//! its [`Oracle`]s: each syscall borrows it for exactly one kernel
//! operation and releases it before the coroutine can suspend, so no
//! borrow is ever held across a context switch and no lock is needed.
//!
//! [`Kernel::next_runnable`] is the semantic definition of the resume
//! rule. The driver answers it from an exact `RunQueue` (one heap entry
//! per live process, the running one on top) that is
//! debug-asserted against the kernel's scan at every decision, and
//! `tests/exec_equivalence.rs` replays random syscall programs through a
//! coroutine-free interpreter over a bare `Kernel` to pin that the
//! executor issues the same kernel call sequence **bit for bit**.
//!
//! Determinism: scheduling decisions depend only on virtual times and
//! pids, never on host timing, so a simulation with a fixed seed replays
//! identically.

use std::any::Any;
use std::cell::{Cell, RefCell, RefMut};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use gray_toolbox::pool::panic_message;
use gray_toolbox::trace;
use gray_toolbox::{GrayDuration, Nanos};
use graybox::os::{Fd, GrayBoxOs, MemRegion, OsResult, ProbeSample, ProbeSpec, Stat};

use crate::config::{SimConfig, PAGE_SIZE};
use crate::coro;
use crate::kernel::Kernel;
use crate::oracle::Oracle;

/// A workload closure run as one simulated process.
pub type Workload<'env, R> = Box<dyn FnOnce(&SimProc) -> R + 'env>;

/// What a finished process left behind: its result, or the payload of
/// the panic that killed it.
type Outcome<R> = Result<R, Box<dyn Any + Send + 'static>>;

/// A simulated process died by panic. Carries enough to name the culprit
/// — the old behavior was a second, uninformative `expect` panic on the
/// empty result slot.
#[derive(Debug)]
pub struct ProcPanic {
    /// Pid of the panicking process. When several processes panic in one
    /// run, the smallest pid is reported.
    pub pid: usize,
    /// The workload name passed to [`Sim::run`].
    pub name: String,
    /// The panic payload rendered to text (`&str`/`String` payloads
    /// verbatim, anything else a placeholder).
    pub message: String,
}

impl std::fmt::Display for ProcPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulated process {} (\"{}\") panicked: {}",
            self.pid, self.name, self.message
        )
    }
}

impl std::error::Error for ProcPanic {}

/// Incremental view of [`Kernel::next_runnable`]: a `(time, pid)` binary
/// min-heap with exactly one entry per live process of the current run.
///
/// The kernel's scan is the *semantic definition* of the resume rule —
/// the minimum `(local time, pid)` over live active processes — but it
/// is O(n) per context switch, which made the events driver O(n²) for
/// the 2048-process fleet. The process that is running is always the
/// top of the heap: it was the minimum when the driver resumed it, and
/// only its own clock moves during its syscall. So:
///
/// - [`RunQueue::touch`] rewrites the top's time in place (and writes
///   nothing when a zero-cost syscall like `yield_now` left it alone);
/// - [`RunQueue::retire`] pops the top;
/// - [`RunQueue::min`] is the top, and [`RunQueue::runner_up`] the
///   smaller of its two children: the process that runs next unless the
///   running one still holds the minimum after its syscall.
///
/// Equivalence with the scan is enforced by a `debug_assert` on every
/// scheduling decision (all tests run with it) and by a dedicated
/// property test below.
#[derive(Debug, Default)]
struct RunQueue {
    heap: BinaryHeap<Reverse<(Nanos, usize)>>,
}

impl RunQueue {
    /// Rebuilds the queue for a fresh run over `pids`.
    fn install(&mut self, pids: &[usize], kernel: &Kernel) {
        self.heap.clear();
        self.heap.extend(
            pids.iter()
                .map(|&pid| Reverse((kernel.proc_time(pid), pid))),
        );
    }

    /// Records that the running process `pid`, the top, is now at `now`.
    fn touch(&mut self, pid: usize, now: Nanos) {
        let mut top = self.heap.peek_mut().expect("the running process is queued");
        debug_assert_eq!(top.0 .1, pid, "touched a process that is not running");
        // Only a write through `PeekMut` sifts, so an unchanged clock
        // costs one compare.
        if top.0 .0 != now {
            top.0 .0 = now;
        }
    }

    /// Removes the running process `pid`, the top, from scheduling.
    fn retire(&mut self, pid: usize) {
        let top = self.heap.pop();
        debug_assert_eq!(
            top.map(|e| e.0 .1),
            Some(pid),
            "retired a process that is not running"
        );
    }

    /// The schedulable pid with the smallest `(time, pid)`.
    fn min(&self) -> Option<usize> {
        self.heap.peek().map(|e| e.0 .1)
    }

    /// The smaller of the top's two children: the second-smallest entry.
    fn runner_up(&self) -> Option<usize> {
        let children = self.heap.as_slice().get(1..)?;
        children.iter().take(2).max().map(|e| e.0 .1)
    }
}

#[derive(Debug)]
struct Sched {
    /// The pid the driver last resumed (or `run_one`'s lone process).
    running: usize,
    /// Pids of the current `run` call; finished ones stay listed and are
    /// skipped by liveness.
    active: Vec<usize>,
    /// Incremental min-(time, pid) structure over the live `active` pids.
    runq: RunQueue,
}

struct State {
    kernel: Kernel,
    sched: Sched,
}

/// The simulation state as shared (on the one driver thread) between a
/// [`Sim`], its [`SimProc`]s and its [`Oracle`]s.
pub(crate) struct SharedHandle(RefCell<State>);

impl SharedHandle {
    /// Borrows the state for one operation. Every borrow ends before
    /// control can reach another holder — a coroutine releases its borrow
    /// before it suspends, and unwinding drops it — so this never finds
    /// the state already borrowed.
    fn state(&self) -> RefMut<'_, State> {
        self.0.borrow_mut()
    }

    pub(crate) fn with_kernel<R>(&self, f: impl FnOnce(&mut Kernel) -> R) -> R {
        f(&mut self.state().kernel)
    }
}

/// A simulation instance: one kernel plus the machinery to run processes
/// against it. Construct with [`Sim::new`], run workloads with
/// [`Sim::run_one`] (single process, zero scheduling overhead) or
/// [`Sim::run`]/[`Sim::try_run`] (multiprogramming), and inspect ground
/// truth with [`Sim::oracle`].
///
/// Kernel state (caches, file systems, clocks) **persists across runs**, so
/// warm-cache experiments are expressed as consecutive `run_one` calls.
pub struct Sim {
    shared: Rc<SharedHandle>,
}

impl Sim {
    /// Boots a simulation from a configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Sim {
            shared: Rc::new(SharedHandle(RefCell::new(State {
                kernel: Kernel::new(cfg),
                sched: Sched {
                    running: usize::MAX,
                    active: Vec::new(),
                    runq: RunQueue::default(),
                },
            }))),
        }
    }

    /// Runs a single process directly on the calling stack (no
    /// coroutine, no run queue: it has nobody to yield to) and returns
    /// its result. The process starts at the latest virtual time any
    /// previous process reached, and that instant is its first trace
    /// reading.
    pub fn run_one<R>(&mut self, f: impl FnOnce(&SimProc) -> R) -> R {
        let pid = {
            let mut st = self.shared.state();
            let start = st.kernel.max_time();
            let pid = st.kernel.add_proc(start);
            st.sched.running = pid;
            trace::set_now(start);
            pid
        };
        let proc_handle = SimProc {
            shared: Rc::clone(&self.shared),
            pid,
            yielder: None,
        };
        let r = f(&proc_handle);
        let mut st = self.shared.state();
        st.kernel.finish_proc(pid);
        trace::set_now(st.kernel.max_time());
        r
    }

    /// Runs a set of processes concurrently (in virtual time) and returns
    /// their results in input order. All processes start at the same
    /// instant.
    ///
    /// # Limits
    ///
    /// Each process runs on a coroutine stack of fixed size (256 KiB)
    /// with a guard below it: a workload that recurses past that kills
    /// the host process with `SIGSEGV` at the guard. A stack is two host
    /// memory mappings and stays mapped, for the thread's later runs,
    /// until the thread exits; Linux allows a process `vm.max_map_count`
    /// mappings, 65 530 by default, so about 32 000 processes can be live
    /// in one host process at once.
    ///
    /// # Panics
    ///
    /// If any process panics, panics with the [`ProcPanic`] rendering
    /// (pid, workload name, original message) after every sibling has
    /// run to completion. Use [`Sim::try_run`] to handle it as a value.
    ///
    /// If the host refuses to map another stack, with a message naming
    /// the number already mapped and `vm.max_map_count`.
    pub fn run<'env, R: 'env>(&mut self, workloads: Vec<(String, Workload<'env, R>)>) -> Vec<R> {
        match self.try_run(workloads) {
            Ok(results) => results,
            Err(p) => panic!("{p}"),
        }
    }

    /// Like [`Sim::run`], but a panicking process becomes a structured
    /// [`ProcPanic`] error instead of a panic. Surviving siblings still
    /// run to completion (their results are discarded on error); kernel
    /// state remains consistent and the `Sim` stays usable.
    pub fn try_run<'env, R: 'env>(
        &mut self,
        workloads: Vec<(String, Workload<'env, R>)>,
    ) -> Result<Vec<R>, ProcPanic> {
        if workloads.is_empty() {
            return Ok(Vec::new());
        }
        let (names, workloads): (Vec<String>, Vec<Workload<'env, R>>) =
            workloads.into_iter().unzip();
        let (pids, outcomes) = self.run_events(workloads);
        let mut results = Vec::with_capacity(outcomes.len());
        for ((outcome, &pid), name) in outcomes.into_iter().zip(&pids).zip(names) {
            match outcome {
                Ok(r) => results.push(r),
                // Pids ascend in input order, so the first error is the
                // smallest panicking pid.
                Err(payload) => {
                    return Err(ProcPanic {
                        pid,
                        name,
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        }
        Ok(results)
    }

    /// Registers one kernel process per workload, all starting at the
    /// current maximum virtual time, and installs them as the active set.
    /// Returns the pids and their start instant.
    fn register_procs(&mut self, n: usize) -> (Vec<usize>, Nanos) {
        let mut st = self.shared.state();
        let start = st.kernel.max_time();
        let pids: Vec<usize> = (0..n).map(|_| st.kernel.add_proc(start)).collect();
        let State { kernel, sched } = &mut *st;
        sched.runq.install(&pids, kernel);
        sched.active = pids.clone();
        (pids, start)
    }

    /// Every process is a coroutine; this loop always resumes the
    /// minimum-virtual-time runnable one until none is left.
    fn run_events<'env, R: 'env>(
        &mut self,
        workloads: Vec<Workload<'env, R>>,
    ) -> (Vec<usize>, Vec<Outcome<R>>) {
        let (pids, start) = self.register_procs(workloads.len());
        let base = pids[0];
        let slots: Vec<Cell<Option<Outcome<R>>>> =
            workloads.iter().map(|_| Cell::new(None)).collect();
        {
            // Each process gets its own trace identity (open spans, lane,
            // and clock reading from its start instant), swapped in around
            // every resume: all coroutines share this one driver thread,
            // and without the swap one process's would leak into the next.
            let mut trace_ctxs: Vec<trace::TraceCtx> = workloads
                .iter()
                .map(|_| trace::TraceCtx::new(start))
                .collect();
            let mut coros =
                coro::Coros::new(workloads.into_iter().zip(pids.iter().zip(&slots)).map(
                    |(workload, (&pid, slot))| {
                        let shared = Rc::clone(&self.shared);
                        move |core| {
                            let proc_handle = SimProc {
                                shared: Rc::clone(&shared),
                                pid,
                                yielder: Some(core),
                            };
                            let outcome = catch_unwind(AssertUnwindSafe(|| workload(&proc_handle)));
                            slot.set(Some(outcome));
                            // Retire the process so the driver's next
                            // decision moves past it, panic or no panic.
                            let mut st = shared.state();
                            st.kernel.finish_proc(pid);
                            st.sched.runq.retire(pid);
                        }
                    },
                ));

            loop {
                let (next, then) = {
                    let mut st = self.shared.state();
                    match choose_next(&st) {
                        Some(pid) => {
                            st.sched.running = pid;
                            (pid, st.sched.runq.runner_up())
                        }
                        None => break,
                    }
                };
                // Pids from add_proc are dense and consecutive.
                if let Some(then) = then {
                    coros.prefetch(then - base);
                }
                let idx = next - base;
                trace::swap_ctx(&mut trace_ctxs[idx]);
                coros.resume(idx);
                trace::swap_ctx(&mut trace_ctxs[idx]);
            }
            let mut st = self.shared.state();
            st.sched.running = usize::MAX;
            st.sched.active.clear();
            trace::set_now(st.kernel.max_time());
        }

        let outcomes = slots
            .into_iter()
            .map(|slot| slot.into_inner().expect("process ran to completion"))
            .collect();
        (pids, outcomes)
    }

    /// Ground-truth inspection (never available to ICL code).
    pub fn oracle(&self) -> Oracle {
        Oracle::new(Rc::clone(&self.shared))
    }

    /// Drops all file pages from the cache — the between-runs experimental
    /// flush.
    pub fn flush_file_cache(&mut self) {
        self.shared.state().kernel.flush_file_cache();
    }

    /// The latest virtual time any process reached: a clock reading of
    /// the driver, and the stamp of its next trace records.
    pub fn now(&self) -> Nanos {
        let now = self.shared.state().kernel.max_time();
        trace::set_now(now);
        now
    }
}

/// The runnable process with the smallest (local time, pid). Answered in
/// O(log n) by the incremental [`RunQueue`]; the kernel's O(n) scan
/// remains the semantic definition and cross-checks every decision in
/// debug builds.
fn choose_next(st: &State) -> Option<usize> {
    let State { kernel, sched } = st;
    let next = sched.runq.min();
    debug_assert_eq!(
        next,
        kernel.next_runnable(&sched.active),
        "incremental run queue diverged from the kernel scan"
    );
    next
}

/// A process's handle to the simulated kernel; implements the full
/// [`GrayBoxOs`] black-box surface.
pub struct SimProc {
    shared: Rc<SharedHandle>,
    pid: usize,
    /// The coroutine to suspend when this process must wait; `None`
    /// under `run_one`, whose lone process never waits.
    yielder: Option<*mut coro::YieldCore>,
}

impl SimProc {
    /// The process id (for diagnostics).
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// Runs one kernel operation, then suspends this coroutine if another
    /// process now has the smallest local time.
    fn call<R>(&self, f: impl FnOnce(&mut Kernel, usize) -> R) -> R {
        let mut st = self.shared.state();
        debug_assert_eq!(
            st.sched.running, self.pid,
            "process ran without being the one the driver resumed"
        );
        let r = f(&mut st.kernel, self.pid);
        let Some(core) = self.yielder else {
            return r;
        };
        // Only the running process's clock can change inside `f`, so one
        // touch keeps the run queue exact.
        let now = st.kernel.proc_time(self.pid);
        st.sched.runq.touch(self.pid, now);
        if choose_next(&st) != Some(self.pid) {
            // The driver loop and the process it resumes next borrow the
            // state again, so this borrow must end before switching.
            drop(st);
            // SAFETY: `core` is this process's own coroutine state; the
            // driver that resumed us is suspended in `resume` awaiting
            // exactly this switch.
            unsafe { coro::yield_to_driver(core) };
        }
        r
    }
}

impl GrayBoxOs for SimProc {
    fn now(&self) -> Nanos {
        self.call(|k, pid| k.sys_now(pid))
    }

    fn page_size(&self) -> u64 {
        PAGE_SIZE
    }

    fn open(&self, path: &str) -> OsResult<Fd> {
        self.call(|k, pid| k.sys_open(pid, path))
    }

    fn create(&self, path: &str) -> OsResult<Fd> {
        self.call(|k, pid| k.sys_create(pid, path))
    }

    fn close(&self, fd: Fd) -> OsResult<()> {
        self.call(|k, pid| k.sys_close(pid, fd))
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize> {
        let len = buf.len() as u64;
        self.call(|k, pid| k.sys_read(pid, fd, offset, len, Some(buf)))
            .map(|n| n as usize)
    }

    fn read_discard(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        self.call(|k, pid| k.sys_read(pid, fd, offset, len, None))
    }

    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> OsResult<usize> {
        self.call(|k, pid| k.sys_write(pid, fd, offset, data.len() as u64, Some(data)))
            .map(|n| n as usize)
    }

    fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        self.call(|k, pid| k.sys_write(pid, fd, offset, len, None))
    }

    fn file_size(&self, fd: Fd) -> OsResult<u64> {
        self.call(|k, pid| k.sys_file_size(pid, fd))
    }

    fn sync(&self) -> OsResult<()> {
        self.call(|k, pid| k.sys_sync(pid))
    }

    fn stat(&self, path: &str) -> OsResult<Stat> {
        self.call(|k, pid| k.sys_stat(pid, path))
    }

    fn list_dir(&self, path: &str) -> OsResult<Vec<String>> {
        self.call(|k, pid| k.sys_list_dir(pid, path))
    }

    fn mkdir(&self, path: &str) -> OsResult<()> {
        self.call(|k, pid| k.sys_mkdir(pid, path))
    }

    fn rmdir(&self, path: &str) -> OsResult<()> {
        self.call(|k, pid| k.sys_rmdir(pid, path))
    }

    fn unlink(&self, path: &str) -> OsResult<()> {
        self.call(|k, pid| k.sys_unlink(pid, path))
    }

    fn rename(&self, from: &str, to: &str) -> OsResult<()> {
        self.call(|k, pid| k.sys_rename(pid, from, to))
    }

    fn set_times(&self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()> {
        self.call(|k, pid| k.sys_set_times(pid, path, atime, mtime))
    }

    fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion> {
        self.call(|k, pid| k.sys_mem_alloc(pid, bytes))
            .map(MemRegion)
    }

    fn mem_free(&self, region: MemRegion) -> OsResult<()> {
        self.call(|k, pid| k.sys_mem_free(pid, region.0))
    }

    fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()> {
        self.call(|k, pid| k.sys_mem_touch_write(pid, region.0, page))
    }

    fn mem_touch_read(&self, region: MemRegion, page: u64) -> OsResult<u8> {
        self.call(|k, pid| k.sys_mem_touch_read(pid, region.0, page))
    }

    /// The whole batch runs under one borrow of the kernel, and the
    /// scheduler is consulted for a yield once per batch (at the end of
    /// `call`) rather than three times per probe. Virtual time is
    /// unaffected — the kernel's batch is the scalar `sys_now` / `sys_read`
    /// / `sys_now` loop — so only host-side dispatch overhead is saved.
    fn probe_batch(&self, fd: Fd, specs: &[ProbeSpec]) -> Vec<ProbeSample> {
        self.call(|k, pid| k.sys_probe_batch(pid, fd, specs))
    }

    fn mem_probe_batch(&self, region: MemRegion, pages: &[u64]) -> Vec<ProbeSample> {
        self.call(|k, pid| k.sys_mem_probe_batch(pid, region.0, pages))
    }

    fn compute(&self, work: GrayDuration) {
        self.call(|k, pid| k.sys_compute(pid, work));
    }

    fn sleep(&self, d: GrayDuration) {
        self.call(|k, pid| k.sys_sleep(pid, d));
    }

    fn yield_now(&self) {
        self.call(|_k, _pid| ());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graybox::os::GrayBoxOsExt;

    #[test]
    fn run_one_executes_and_time_advances() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let elapsed = sim.run_one(|os| {
            let t0 = os.now();
            os.compute(GrayDuration::from_millis(3));
            os.now().since(t0)
        });
        assert!(elapsed >= GrayDuration::from_millis(3));
    }

    #[test]
    fn state_persists_across_runs() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        sim.run_one(|os| os.write_file("/f", b"persist").unwrap());
        let data = sim.run_one(|os| os.read_to_vec("/f").unwrap());
        assert_eq!(data, b"persist");
    }

    #[test]
    fn virtual_time_is_monotone_across_runs() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let t1 = sim.run_one(|os| {
            os.compute(GrayDuration::from_secs(1));
            os.now()
        });
        let t2 = sim.run_one(|os| os.now());
        assert!(t2 >= t1);
    }

    #[test]
    fn two_processes_share_one_cpu() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        // Two CPU-bound processes on one CPU: total elapsed ≈ 2x each.
        let results = sim.run::<Nanos>(vec![
            (
                "a".to_string(),
                Box::new(|os: &SimProc| {
                    for _ in 0..10 {
                        os.compute(GrayDuration::from_millis(10));
                    }
                    os.now()
                }),
            ),
            (
                "b".to_string(),
                Box::new(|os: &SimProc| {
                    for _ in 0..10 {
                        os.compute(GrayDuration::from_millis(10));
                    }
                    os.now()
                }),
            ),
        ]);
        let end = results.iter().max().unwrap();
        assert!(
            end.as_secs_f64() >= 0.19,
            "one CPU must serialize 200ms of work: ended at {end}"
        );
    }

    #[test]
    fn multi_process_runs_are_deterministic() {
        let run = || {
            let mut sim = Sim::new(SimConfig::small());
            sim.run::<u64>(vec![
                (
                    "w1".to_string(),
                    Box::new(|os: &SimProc| {
                        os.write_file("/a", &[1u8; 10_000]).unwrap();
                        os.now().as_nanos()
                    }),
                ),
                (
                    "w2".to_string(),
                    Box::new(|os: &SimProc| {
                        os.write_file("/b", &[2u8; 10_000]).unwrap();
                        os.now().as_nanos()
                    }),
                ),
            ])
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disk_contention_slows_sharers() {
        let cfg = SimConfig::small().without_noise();
        // Alone:
        let mut sim = Sim::new(cfg.clone());
        let alone = sim.run_one(|os| {
            let fd = os.create("/solo").unwrap();
            let t0 = os.now();
            os.write_fill(fd, 0, 8 << 20).unwrap();
            os.now().since(t0)
        });
        // Two writers on the same disk:
        let mut sim = Sim::new(cfg);
        let make = |path: &'static str| -> Workload<'static, GrayDuration> {
            Box::new(move |os: &SimProc| {
                let fd = os.create(path).unwrap();
                let t0 = os.now();
                os.write_fill(fd, 0, 8 << 20).unwrap();
                os.now().since(t0)
            })
        };
        let both = Sim::run(
            &mut sim,
            vec![("a".to_string(), make("/a")), ("b".to_string(), make("/b"))],
        );
        let slowest = both.iter().max().unwrap();
        assert!(
            *slowest > alone,
            "sharing a disk must be slower: alone {alone}, shared {slowest}"
        );
    }

    #[test]
    fn results_return_in_input_order() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let r = sim.run::<usize>(vec![
            ("x".to_string(), Box::new(|_os: &SimProc| 1usize)),
            ("y".to_string(), Box::new(|_os: &SimProc| 2usize)),
            ("z".to_string(), Box::new(|_os: &SimProc| 3usize)),
        ]);
        assert_eq!(r, vec![1, 2, 3]);
    }

    fn contention_workloads() -> Vec<(String, Workload<'static, u64>)> {
        ["a", "b", "c"]
            .iter()
            .map(|name| {
                let path = format!("/{name}");
                let wl: Workload<'static, u64> = Box::new(move |os: &SimProc| {
                    os.write_file(&path, &[7u8; 20_000]).unwrap();
                    os.compute(GrayDuration::from_micros(300));
                    os.read_to_vec(&path).unwrap();
                    os.now().as_nanos()
                });
                (name.to_string(), wl)
            })
            .collect()
    }

    #[test]
    fn contention_clocks_match_the_thread_executor_golden() {
        // Frozen from the thread-per-process executor at the commit that
        // deleted it: noise-on clocks must still match bit for bit.
        let mut sim = Sim::new(SimConfig::small());
        let r = sim.run(contention_workloads());
        assert_eq!(r, [1_233_716, 1_233_755, 1_233_795]);
        assert_eq!(sim.now().as_nanos(), 1_233_795);
    }

    #[test]
    fn runs_hundreds_of_processes() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let workloads: Vec<(String, Workload<'static, usize>)> = (0..300)
            .map(|i| {
                let wl: Workload<'static, usize> = Box::new(move |os: &SimProc| {
                    os.compute(GrayDuration::from_micros(50));
                    os.yield_now();
                    os.compute(GrayDuration::from_micros(50));
                    i
                });
                (format!("p{i}"), wl)
            })
            .collect();
        let r = sim.run(workloads);
        assert_eq!(r, (0..300).collect::<Vec<_>>());
    }

    #[test]
    fn try_run_reports_pid_name_and_message() {
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let err = sim
            .try_run::<u64>(vec![
                (
                    "survivor".to_string(),
                    Box::new(|os: &SimProc| {
                        os.compute(GrayDuration::from_millis(1));
                        7
                    }),
                ),
                (
                    "victim".to_string(),
                    Box::new(|_os: &SimProc| panic!("boom {}", 42)),
                ),
            ])
            .unwrap_err();
        assert_eq!(err.name, "victim");
        assert!(err.message.contains("boom 42"), "{}", err.message);
        assert!(err.to_string().contains(&format!("process {}", err.pid)));
        // The sim survives and runs follow-on work.
        let n = sim.run_one(|os| {
            os.compute(GrayDuration::from_micros(10));
            os.now()
        });
        assert!(n > Nanos::ZERO);
    }

    /// Runs `body` as the only process of a fresh machine, on a
    /// thread of its own so that its stack is newly mapped, and returns
    /// how much of that stack it wrote.
    fn stack_high_water(body: fn(&SimProc)) -> usize {
        std::thread::spawn(move || {
            let mut sim = Sim::new(SimConfig::small().without_noise());
            sim.run_one(|os| os.write_file("/probed", &[3u8; 256 << 10]).unwrap());
            let workload: Workload<'static, ()> = Box::new(body);
            let _ = sim.try_run(vec![("measured".to_string(), workload)]);
            coro::last_freed_high_water()
        })
        .join()
        .expect("measuring thread")
    }

    /// The measurement `coro::STACK_BYTES` is sized from; run with
    /// `--nocapture` (debug and `--release`) for EXPERIMENTS.md's rows.
    #[test]
    fn stack_high_water_marks_leave_headroom() {
        use graybox::fccd::{Fccd, FccdParams};
        use graybox::mac::{Mac, MacParams};
        let marks = [
            (
                "fccd probe_file",
                stack_high_water(|os| {
                    let fd = os.open("/probed").unwrap();
                    let params = FccdParams {
                        access_unit: 1 << 20,
                        prediction_unit: 256 << 10,
                        ..FccdParams::default()
                    };
                    Fccd::with_fixed_seed(os, params).probe_file(fd, 256 << 10);
                    os.close(fd).unwrap();
                }),
            ),
            (
                "mac available_estimate",
                stack_high_water(|os| {
                    Mac::new(os, MacParams::default())
                        .available_estimate(32 << 20)
                        .unwrap();
                }),
            ),
            (
                "panic with a formatted message",
                stack_high_water(|os| panic!("pid {} down", os.pid())),
            ),
        ];
        for (what, bytes) in marks {
            println!("stack high-water, {what}: {bytes} bytes");
            assert!(bytes > 0, "{what} ran on a coroutine stack");
            assert!(
                bytes <= coro::STACK_BYTES / 4,
                "{what} wrote {bytes} of {} stack bytes: less than 4x headroom",
                coro::STACK_BYTES
            );
        }
    }

    #[test]
    fn run_queue_matches_kernel_scan_under_random_ops() {
        // Drive the kernel directly with the same op mix the executor
        // issues — clock advances on the scheduled minimum, zero-cost
        // touches, and retirements of the scheduled minimum — and assert
        // the incremental queue answers every scheduling question exactly
        // like the O(n) scan, holding one entry per live process.
        gray_toolbox::prop::check("run_queue_matches_scan", 40, |g| {
            let mut kernel = Kernel::new(SimConfig::small().with_seed(g.u64(0..u64::MAX)));
            let n = g.usize(1..12);
            let active: Vec<usize> = (0..n).map(|_| kernel.add_proc(kernel.max_time())).collect();
            let mut rq = RunQueue::default();
            rq.install(&active, &kernel);
            let live = |kernel: &Kernel| active.iter().filter(|&&p| kernel.proc_live(p)).count();
            assert_eq!(rq.heap.len(), n, "one entry per installed process");
            for _ in 0..g.usize(5..80) {
                let scan = kernel.next_runnable(&active);
                assert_eq!(rq.min(), scan, "queue and scan disagree");
                let Some(pid) = scan else { break };
                match g.usize(0..10) {
                    0 => {
                        // Retirement (process finished).
                        kernel.finish_proc(pid);
                        rq.retire(pid);
                    }
                    1 => {
                        // Zero-cost syscall: the clock does not move.
                        rq.touch(pid, kernel.proc_time(pid));
                    }
                    _ => {
                        // Time-advancing syscall on the scheduled pid —
                        // the only process whose clock may change.
                        kernel.sys_compute(pid, GrayDuration::from_nanos(g.u64(0..5_000)));
                        rq.touch(pid, kernel.proc_time(pid));
                    }
                }
                assert_eq!(rq.heap.len(), live(&kernel), "an entry per live process");
                let mut order: Vec<_> = active.iter().filter(|&&p| kernel.proc_live(p)).collect();
                order.sort_by_key(|&&p| (kernel.proc_time(p), p));
                assert_eq!(
                    rq.runner_up(),
                    order.get(1).map(|&&p| p),
                    "runner-up is the second minimum"
                );
                let latest = (0..n).map(|pid| kernel.proc_time(pid)).max();
                assert_eq!(Some(kernel.max_time()), latest, "high-water mark drifted");
            }
            // Drain: retire the minimum until the queue is empty, as the
            // executor does when every process runs to its end.
            while let Some(pid) = kernel.next_runnable(&active) {
                assert_eq!(rq.min(), Some(pid), "queue and scan disagree");
                kernel.finish_proc(pid);
                rq.retire(pid);
                assert_eq!(rq.heap.len(), live(&kernel), "an entry per live process");
            }
            assert_eq!(rq.min(), None);
        });
    }

    #[test]
    fn panic_pid_selection_is_deterministic() {
        // Several panicking processes: the smallest pid is blamed, even
        // though it is the last to die in virtual time.
        let mut sim = Sim::new(SimConfig::small().without_noise());
        let workloads: Vec<(String, Workload<'static, ()>)> = (0..4)
            .map(|i| {
                let wl: Workload<'static, ()> = Box::new(move |os: &SimProc| {
                    os.compute(GrayDuration::from_micros(100 * (4 - i as u64)));
                    panic!("p{i} down");
                });
                (format!("p{i}"), wl)
            })
            .collect();
        let err = sim.try_run(workloads).unwrap_err();
        assert_eq!((err.pid, &*err.name, &*err.message), (0, "p0", "p0 down"));
    }
}
