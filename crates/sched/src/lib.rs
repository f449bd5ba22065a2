//! gray-sched: a shared probe-scheduler runtime for gray-box ICLs.
//!
//! ICLs learn about the OS by *probing* it — timed reads (FCCD), page
//! touches (MAC) — and until now every ICL dispatched its own probes
//! inline, serially. This crate centralises dispatch: clients describe
//! probes as inert [`ProbePlan`]s, submit them to a [`Scheduler`], and the
//! scheduler fans waves of plans out across processes (simulated processes
//! under `simos`, real threads under `hostos`) through a [`PlanExecutor`].
//! Results come back through completion handles.
//!
//! Three properties matter more than raw throughput:
//!
//! 1. **Equivalence at concurrency 1.** A scheduler with one worker issues
//!    the same syscalls in the same order as direct dispatch, so every
//!    classification an ICL makes through the scheduler is bit-identical
//!    to the PR 3 inline path (`tests/sched_equivalence.rs` pins this).
//! 2. **Overlap where the bottleneck allows it.** Plans probing files on
//!    different disks overlap their disk service; the FCCD fleet path
//!    ([`fccd::FccdFleet`]) exploits this for multi-file classification.
//! 3. **Self-restraint.** Probes measure the system; concurrent probes can
//!    measure *each other*. The scheduler watches the dispersion of
//!    per-plan probe times within each wave and backs concurrency off
//!    (multiplicatively, AIMD-style — the same shape MAC uses for memory)
//!    when plans start interfering.
//!
//! Every tunable is a field of [`SchedConfig`].

use std::collections::{BTreeMap, VecDeque};

use gray_toolbox::trace::{self, TraceEvent};
use gray_toolbox::GrayDuration;

pub mod admission;
pub mod exec;
pub mod fccd;
pub mod plan;

pub use admission::{AdmissionRequest, AdmissionTicket, MacAdmissionQueue};
pub use exec::{HostExecutor, InlineExecutor, PlanExecutor, SimExecutor, WaveOutcome};
pub use fccd::{FccdFleet, PendingFiles};
pub use plan::{execute_plan, PlanResult, ProbePlan};

/// Completion handle for a submitted plan; redeem with [`Scheduler::take`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanHandle(u64);

/// Self-interference guard tuning.
#[derive(Debug, Clone, Copy)]
pub struct GuardParams {
    /// Coefficient of variation (stddev / mean) of per-plan mean probe
    /// times above which a wave is judged self-interfering. Cached-vs-
    /// uncached timing differences within a *single* plan do not trip
    /// this: the guard compares plan-level means, and genuinely
    /// independent plans (distinct disks) land close together while
    /// contending plans spread out as queueing delays pile onto some of
    /// them.
    pub cv_threshold: f64,
    /// Concurrency never drops below this (1 = always make progress).
    pub min_concurrency: usize,
}

impl Default for GuardParams {
    fn default() -> Self {
        GuardParams {
            cv_threshold: 0.5,
            min_concurrency: 1,
        }
    }
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Concurrency cap: the most plans ever dispatched in one wave.
    pub concurrency: usize,
    /// Sub-batch bound stamped onto dispatched plans that ask for one
    /// (`ProbePlan.sub_batch` is left alone; this is the default used by
    /// plan builders such as [`FccdFleet`]).
    pub sub_batch: usize,
    /// Self-interference guard tuning.
    pub guard: GuardParams,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            concurrency: 4,
            sub_batch: 64,
            guard: GuardParams::default(),
        }
    }
}

/// What one dispatched wave looked like, for observability and benchmarks.
#[derive(Debug, Clone)]
pub struct WaveStat {
    /// Number of plans in the wave.
    pub plans: usize,
    /// Concurrency level the wave ran at (== `plans` unless the queue ran
    /// short).
    pub concurrency: usize,
    /// Backend-time span of the wave (virtual under simos); `None` for
    /// executors without an out-of-band clock.
    pub span: Option<GrayDuration>,
    /// Coefficient of variation of per-plan mean probe times (0.0 for
    /// waves with fewer than two measurable plans).
    pub cv: f64,
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
    /// Live concurrency level: starts at the cap, moves with the guard.
    concurrency: usize,
    waves: Vec<WaveStat>,
}

impl Scheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: SchedConfig) -> Self {
        assert!(cfg.concurrency >= 1, "concurrency cap must be >= 1");
        assert!(
            cfg.guard.min_concurrency >= 1,
            "min concurrency must be >= 1"
        );
        let concurrency = cfg.concurrency;
        Scheduler {
            cfg,
            queue: VecDeque::new(),
            done: BTreeMap::new(),
            next_handle: 0,
            concurrency,
            waves: Vec::new(),
        }
    }

    /// The configured default sub-batch bound for plan builders.
    pub fn sub_batch(&self) -> usize {
        self.cfg.sub_batch
    }

    /// Enqueues a plan; the handle redeems its result after dispatch.
    pub fn submit(&mut self, plan: ProbePlan) -> PlanHandle {
        let id = self.next_handle;
        self.next_handle += 1;
        self.queue.push_back((id, plan));
        PlanHandle(id)
    }

    /// Number of plans waiting for dispatch.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Drains the queue through `exec` in waves of at most the current
    /// concurrency level, adjusting concurrency between waves via the
    /// self-interference guard.
    ///
    /// Guard rule (AIMD, echoing MAC's memory ramp): after each wave of
    /// two or more measurable plans, compute the coefficient of variation
    /// of per-plan mean probe times. Above the threshold, halve
    /// concurrency (floored at the guard minimum) — the plans were timing
    /// each other, not the OS. Otherwise recover additively, one worker
    /// per clean wave, up to the configured cap.
    pub fn dispatch<E: PlanExecutor>(&mut self, exec: &mut E) {
        while !self.queue.is_empty() {
            let n = self.concurrency.min(self.queue.len());
            let mut ids = Vec::with_capacity(n);
            let mut wave = Vec::with_capacity(n);
            for _ in 0..n {
                let (id, plan) = self.queue.pop_front().expect("non-empty queue");
                ids.push(id);
                wave.push(plan);
            }
            let concurrency = self.concurrency;
            trace::set_wave(self.waves.len() as u64);
            let outcome = exec.run_wave(&wave);
            assert_eq!(
                outcome.results.len(),
                wave.len(),
                "executor must return one result per plan"
            );
            let cv = wave_cv(&outcome.results);
            self.waves.push(WaveStat {
                plans: wave.len(),
                concurrency,
                span: outcome.span,
                cv,
            });
            for (id, result) in ids.into_iter().zip(outcome.results) {
                self.done.insert(id, result);
            }
            if wave.len() >= 2 {
                if cv > self.cfg.guard.cv_threshold {
                    self.concurrency = (self.concurrency / 2).max(self.cfg.guard.min_concurrency);
                } else if self.concurrency < self.cfg.concurrency {
                    self.concurrency += 1;
                }
            }
            // One transition per wave, even when the count holds, so the
            // worker level over time reconstructs from the trace alone.
            let workers = self.concurrency;
            trace::emit_with(|| TraceEvent::GuardTransition {
                cv,
                workers_before: concurrency,
                workers,
            });
        }
        trace::clear_wave();
    }

    /// Removes and returns the result for `handle`, or `None` if the plan
    /// has not been dispatched (or was already taken).
    pub fn take(&mut self, handle: PlanHandle) -> Option<PlanResult> {
        self.done.remove(&handle.0)
    }

    /// The live concurrency level (cap minus guard backoff).
    pub fn current_concurrency(&self) -> usize {
        self.concurrency
    }

    /// Per-wave statistics for every wave dispatched so far.
    pub fn waves(&self) -> &[WaveStat] {
        &self.waves
    }

    /// Removes and returns the wave statistics accumulated since the last
    /// call (or since construction). Long-running clients — the `gbd`
    /// daemon couples its query-admission AIMD to the guard's verdicts —
    /// read each wave exactly once this way without the stat vector
    /// growing for the life of the scheduler.
    pub fn take_waves(&mut self) -> Vec<WaveStat> {
        std::mem::take(&mut self.waves)
    }
}

/// Coefficient of variation of per-plan mean probe times across a wave.
/// Returns 0.0 when fewer than two plans produced measurable probes.
fn wave_cv(results: &[PlanResult]) -> f64 {
    let means: Vec<f64> = results.iter().filter_map(|r| r.mean_probe_ns()).collect();
    if means.len() < 2 {
        return 0.0;
    }
    let n = means.len() as f64;
    let mean = means.iter().sum::<f64>() / n;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / n;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;
    use gray_toolbox::GrayDuration;
    use graybox::os::ProbeSample;

    fn result(path: &str, probe_ns: &[u64]) -> PlanResult {
        PlanResult {
            path: path.to_string(),
            size: 4096,
            samples: probe_ns
                .iter()
                .map(|&ns| ProbeSample {
                    offset: 0,
                    elapsed: GrayDuration::from_nanos(ns),
                    ok: true,
                })
                .collect(),
            error: None,
        }
    }

    /// An executor that fabricates results with scripted probe times, so
    /// guard behaviour is testable without an OS backend.
    struct ScriptedExecutor {
        /// Per-wave per-plan probe time; the last row repeats once waves
        /// outnumber rows.
        rows: Vec<Vec<u64>>,
        next: usize,
    }

    impl PlanExecutor for ScriptedExecutor {
        fn run_wave(&mut self, wave: &[ProbePlan]) -> WaveOutcome {
            let row = self.rows[self.next.min(self.rows.len() - 1)].clone();
            self.next += 1;
            let results = wave
                .iter()
                .enumerate()
                .map(|(i, p)| result(&p.path, &[row[i % row.len()]]))
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
        let mut exec = ScriptedExecutor {
            rows: vec![vec![100, 100]],
            next: 0,
        };
        sched.dispatch(&mut exec);
        assert_eq!(sched.pending(), 0);
        for (i, h) in handles.into_iter().enumerate() {
            let r = sched.take(h).expect("result present");
            assert_eq!(r.path, format!("/f{i}"));
            assert!(sched.take(h).is_none(), "take is consuming");
        }
        assert_eq!(sched.waves().len(), 3); // 2 + 2 + 1
    }

    /// `HostExecutor` is the one executor whose probes leave the
    /// dispatcher's thread; its workers must still carry the wave stamp.
    #[cfg(unix)]
    #[test]
    fn host_executor_workers_carry_the_wave_stamp() {
        use graybox::os::{GrayBoxOsExt, ProbeSpec};
        let dir = std::env::temp_dir().join(format!("gray-sched-wave-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let root = hostos::HostOs::new(&dir).unwrap();
        let mut sched = Scheduler::new(SchedConfig {
            concurrency: 2,
            ..SchedConfig::default()
        });
        for path in ["/wave-a", "/wave-b", "/wave-c"] {
            root.write_file(path, &[7u8; 8192]).unwrap();
            sched.submit(ProbePlan {
                specs: vec![ProbeSpec { offset: 4096 }],
                ..plan(path)
            });
        }
        let _capture = trace::capture();
        sched.dispatch(&mut HostExecutor::new(root));
        let mut stamps: Vec<(String, Option<u64>)> = trace::drain()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::ProbeIssued { .. }))
            .filter(|r| r.span.starts_with("plan:/wave-"))
            .map(|r| (r.span, r.wave))
            .collect();
        stamps.sort();
        let _ = std::fs::remove_dir_all(&dir);
        let expect =
            [("a", 0), ("b", 0), ("c", 1)].map(|(f, w)| (format!("plan:/wave-{f}"), Some(w)));
        assert_eq!(stamps, expect);
    }

    #[test]
    fn guard_halves_on_high_dispersion_and_recovers_additively() {
        let mut sched = Scheduler::new(SchedConfig {
            concurrency: 4,
            ..SchedConfig::default()
        });
        for i in 0..12 {
            sched.submit(plan(&format!("/f{i}")));
        }
        // Wave 1: wildly dispersed (CV >> 0.5) -> halve 4 -> 2.
        // Waves 2..: uniform -> +1 per wave back toward the cap.
        let mut exec = ScriptedExecutor {
            rows: vec![vec![100, 10_000, 100, 10_000], vec![100, 100, 100, 100]],
            next: 0,
        };
        let capture = trace::capture();
        sched.dispatch(&mut exec);
        let sizes: Vec<usize> = sched.waves().iter().map(|w| w.plans).collect();
        assert_eq!(sizes, vec![4, 2, 3, 3]);
        assert!(sched.waves()[0].cv > 0.5);
        assert_eq!(sched.current_concurrency(), 4);
        // One transition per `WaveStat`, holds included: the event stream
        // is the only record of the worker level over time.
        let levels: Vec<(usize, usize)> = trace::drain()
            .into_iter()
            .filter(|r| r.lane == capture.lane())
            .filter_map(|r| match r.event {
                TraceEvent::GuardTransition {
                    workers_before,
                    workers,
                    ..
                } => Some((workers_before, workers)),
                _ => None,
            })
            .collect();
        assert_eq!(levels, vec![(4, 2), (2, 3), (3, 4), (4, 4)]);
    }

    #[test]
    fn guard_never_drops_below_minimum() {
        let mut sched = Scheduler::new(SchedConfig {
            concurrency: 2,
            ..SchedConfig::default()
        });
        for i in 0..8 {
            sched.submit(plan(&format!("/f{i}")));
        }
        // Every wave dispersed: 2 -> 1, then stays at 1 (single-plan waves
        // never trip the guard, and CV of one plan is 0).
        let mut exec = ScriptedExecutor {
            rows: vec![vec![10, 100_000]],
            next: 0,
        };
        sched.dispatch(&mut exec);
        assert!(sched.current_concurrency() >= 1);
        assert!(sched.waves().iter().all(|w| w.plans >= 1));
    }

    #[test]
    fn wave_cv_ignores_unmeasurable_plans() {
        let rs = vec![
            result("/a", &[100]),
            result("/b", &[]),
            result("/c", &[100]),
        ];
        assert_eq!(wave_cv(&rs), 0.0);
        let rs = vec![result("/a", &[100]), result("/b", &[300])];
        assert!(wave_cv(&rs) > 0.4);
    }
}
