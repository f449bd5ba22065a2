//! gray-sched: a shared probe-scheduler runtime for gray-box ICLs.
//!
//! ICLs learn about the OS by *probing* it, and an ICL on its own
//! dispatches its probes inline, serially. This crate centralises the
//! dispatch of file probes (FCCD's timed reads): clients describe
//! probes as inert [`ProbePlan`]s, submit them to a [`Scheduler`], and the
//! scheduler fans waves of plans out across processes (one simulated
//! process per plan under `simos`, or inline on a borrowed backend) through
//! a [`PlanExecutor`].
//! Results come back through completion handles.
//!
//! Two properties matter more than raw throughput:
//!
//! 1. **Equivalence at concurrency 1.** A scheduler with one worker issues
//!    the same syscalls in the same order as direct dispatch, so every
//!    classification an ICL makes through the scheduler is bit-identical
//!    to the PR 3 inline path (`tests/sched_equivalence.rs` pins this).
//! 2. **Overlap where the bottleneck allows it.** Plans probing files on
//!    different disks overlap their disk service; gbd's multi-file FCCD
//!    queries exploit this.
//!
//! Waves are fixed-width ([`SchedConfig::concurrency`]). Dispatch does not
//! judge its own probes: a cached file beside an uncached one is the
//! signal, not interference, so whether probe times can be trusted is
//! the fold's call, in `graybox`.
//!
//! The crate schedules probes and nothing else: the plans, what runs
//! them in a worker ([`execute_plan`]) and what an ICL concludes from
//! them stay in `graybox` — FCCD's planning and folding, and MAC's
//! pooling of allocation requests (`Mac::admit_all`).
//!
//! Every tunable is a field of [`SchedConfig`].

use std::collections::{BTreeMap, VecDeque};

use gray_toolbox::trace;
use gray_toolbox::GrayDuration;

pub mod exec;

pub use exec::{InlineExecutor, PlanExecutor, SimExecutor, WaveOutcome};
// The plan types are FCCD's (`graybox::fccd`); graybench names them
// through this crate.
pub use graybox::fccd::{execute_plan, PlanResult, ProbePlan};

/// Completion handle for a submitted plan; redeem with [`Scheduler::take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanHandle(u64);

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Wave width: plans per dispatched wave (the last may be short).
    pub concurrency: usize,
    /// The sub-batch bound plan builders take by default: the scheduler
    /// leaves each plan's own `ProbePlan::sub_batch` alone, and gbd stamps
    /// this value on the FCCD plans it draws.
    pub sub_batch: usize,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            concurrency: 4,
            sub_batch: 64,
        }
    }
}

/// What one dispatched wave looked like, for observability and benchmarks.
#[derive(Debug, Clone)]
pub struct WaveStat {
    /// Number of plans in the wave.
    pub plans: usize,
    /// Backend-time span of the wave (virtual under simos); `None` for
    /// executors without an out-of-band clock.
    pub span: Option<GrayDuration>,
}

/// The probe scheduler: a work queue of plans, dispatched in waves.
///
/// Submission and dispatch are decoupled so unrelated clients can pool
/// their probes into shared waves: submit any number of plans, then call
/// [`dispatch`](Scheduler::dispatch) with an executor; redeem each
/// [`PlanHandle`] with [`take`](Scheduler::take).
pub struct Scheduler {
    cfg: SchedConfig,
    queue: VecDeque<(u64, ProbePlan)>,
    done: BTreeMap<u64, PlanResult>,
    next_handle: u64,
    /// Trace stamp of the next wave. [`take_waves`](Scheduler::take_waves)
    /// does not reset it: no two waves of one scheduler share a stamp.
    next_wave: u64,
    waves: Vec<WaveStat>,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: SchedConfig) -> Self {
        assert!(cfg.concurrency >= 1, "concurrency must be >= 1");
        Scheduler {
            cfg,
            queue: VecDeque::new(),
            done: BTreeMap::new(),
            next_handle: 0,
            next_wave: 0,
            waves: Vec::new(),
        }
    }

    /// Enqueues a plan; the handle redeems its result after dispatch.
    pub fn submit(&mut self, plan: ProbePlan) -> PlanHandle {
        let id = self.next_handle;
        self.next_handle += 1;
        self.queue.push_back((id, plan));
        PlanHandle(id)
    }

    /// Drains the queue through `exec` in submission order, in waves of
    /// exactly `cfg.concurrency` plans; the last wave takes what is left.
    pub fn dispatch<E: PlanExecutor>(&mut self, exec: &mut E) {
        while !self.queue.is_empty() {
            let n = self.cfg.concurrency.min(self.queue.len());
            let (ids, wave): (Vec<u64>, Vec<ProbePlan>) = self.queue.drain(..n).unzip();
            trace::set_wave(self.next_wave);
            self.next_wave += 1;
            let outcome = exec.run_wave(&wave);
            assert_eq!(
                outcome.results.len(),
                wave.len(),
                "executor must return one result per plan"
            );
            self.waves.push(WaveStat {
                plans: wave.len(),
                span: outcome.span,
            });
            for (id, result) in ids.into_iter().zip(outcome.results) {
                self.done.insert(id, result);
            }
        }
        trace::clear_wave();
    }

    /// Removes and returns the result for `handle`, or `None` if the plan
    /// has not been dispatched (or was already taken).
    pub fn take(&mut self, handle: PlanHandle) -> Option<PlanResult> {
        self.done.remove(&handle.0)
    }

    /// Per-wave statistics for every wave dispatched so far.
    pub fn waves(&self) -> &[WaveStat] {
        &self.waves
    }

    /// Removes and returns the wave statistics accumulated since the last
    /// call (or since construction): a long-running client (`gbd`, once a
    /// tick) keeps the vector from growing for the scheduler's life.
    pub fn take_waves(&mut self) -> Vec<WaveStat> {
        std::mem::take(&mut self.waves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Answers every plan with an empty result: dispatch bookkeeping is
    /// testable without an OS backend.
    struct NoProbes;

    impl PlanExecutor for NoProbes {
        fn run_wave(&mut self, wave: &[ProbePlan]) -> WaveOutcome {
            let results = wave
                .iter()
                .map(|p| PlanResult {
                    path: p.path.clone(),
                    size: 4096,
                    samples: Vec::new(),
                    error: None,
                })
                .collect();
            WaveOutcome {
                results,
                span: None,
            }
        }
    }

    fn plan(path: &str) -> ProbePlan {
        ProbePlan {
            path: path.to_string(),
            specs: Vec::new(),
            sub_batch: 0,
        }
    }

    #[test]
    fn handles_redeem_in_submit_order_across_waves() {
        let mut sched = Scheduler::new(SchedConfig {
            concurrency: 2,
            ..SchedConfig::default()
        });
        let handles: Vec<_> = (0..5)
            .map(|i| sched.submit(plan(&format!("/f{i}"))))
            .collect();
        sched.dispatch(&mut NoProbes);
        for (i, h) in handles.into_iter().enumerate() {
            let r = sched.take(h).expect("result present");
            assert_eq!(r.path, format!("/f{i}"));
            assert!(sched.take(h).is_none(), "take is consuming");
        }
        let sizes: Vec<usize> = sched.waves().iter().map(|w| w.plans).collect();
        assert_eq!(sizes, [2, 2, 1]);
    }

    /// Stamps count every wave of the scheduler's life: draining the
    /// statistics between two dispatches (gbd does, every tick) must not
    /// hand the second dispatch the first one's indices again. Each plan
    /// runs as its own simulated process, and its probes carry the stamp.
    #[test]
    fn sim_executor_wave_stamps_survive_take_waves() {
        use gray_toolbox::trace::TraceEvent;
        use graybox::os::{GrayBoxOsExt, ProbeSpec};
        use simos::{Sim, SimConfig};
        let mut sim = Sim::new(SimConfig::small());
        let mut sched = Scheduler::new(SchedConfig {
            concurrency: 2,
            ..SchedConfig::default()
        });
        let ticks = [&["/wave-a", "/wave-b", "/wave-c"][..], &["/wave-d"]];
        sim.run_one(|os| {
            for path in ticks.concat() {
                os.write_file(path, &[7u8; 8192]).unwrap();
            }
        });
        let mut exec = SimExecutor::new(&mut sim);
        let _capture = trace::capture();
        for tick in ticks {
            for path in tick {
                sched.submit(ProbePlan {
                    specs: vec![ProbeSpec { offset: 4096 }],
                    ..plan(path)
                });
            }
            sched.dispatch(&mut exec);
            sched.take_waves();
        }
        let mut stamps: Vec<(String, Option<u64>)> = trace::drain()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::ProbeIssued { .. }))
            .map(|r| (r.span, r.wave))
            .collect();
        stamps.sort();
        let expect = [("a", 0), ("b", 0), ("c", 1), ("d", 2)]
            .map(|(f, w)| (format!("plan:/wave-{f}"), Some(w)));
        assert_eq!(stamps, expect);
    }
}
