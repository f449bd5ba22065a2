//! Plan executors: how a wave of plans becomes running probes.
//!
//! The scheduler is backend-agnostic; an executor maps one *wave* (a set
//! of plans meant to run concurrently) onto a backend's notion of
//! concurrency:
//!
//! - [`InlineExecutor`] runs plans sequentially on a borrowed backend —
//!   the degenerate executor, and the reference for the concurrency-1
//!   equivalence tests;
//! - [`SimExecutor`] turns each plan into one `simos` process and runs the
//!   wave through [`Sim::run`], so probe latency overlaps disk service in
//!   virtual time.

use gray_toolbox::GrayDuration;
use graybox::fccd::{execute_plan, PlanResult, ProbePlan};
use graybox::os::GrayBoxOs;
use simos::exec::Workload;
use simos::{Sim, SimProc};

/// The result of running one wave.
#[derive(Debug)]
pub struct WaveOutcome {
    /// One result per plan, in wave order.
    pub results: Vec<PlanResult>,
    /// Span of the wave in the backend's virtual time, measured from
    /// *outside* the worker processes so it adds no syscalls to them.
    /// `None` when the executor has no out-of-band clock (inline).
    pub span: Option<GrayDuration>,
}

/// Turns waves of plans into executed probes.
pub trait PlanExecutor {
    /// Runs every plan of `wave` (concurrently, if the backend can) and
    /// returns their results in wave order.
    fn run_wave(&mut self, wave: &[ProbePlan]) -> WaveOutcome;
}

/// Runs plans one after another on a borrowed backend.
///
/// No concurrency, no extra processes, no extra syscalls: a wave of N
/// plans issues exactly the syscalls of N direct dispatches. Use it where
/// the probing must happen inside an existing process, such as a
/// `run_one` workload under simos (the concurrency-1 equivalence tests).
pub struct InlineExecutor<'a, O: GrayBoxOs> {
    os: &'a O,
}

impl<'a, O: GrayBoxOs> InlineExecutor<'a, O> {
    /// Creates an executor over the borrowed backend.
    pub fn new(os: &'a O) -> Self {
        InlineExecutor { os }
    }
}

impl<O: GrayBoxOs> PlanExecutor for InlineExecutor<'_, O> {
    fn run_wave(&mut self, wave: &[ProbePlan]) -> WaveOutcome {
        let results = wave.iter().map(|p| execute_plan(self.os, p)).collect();
        WaveOutcome {
            results,
            span: None,
        }
    }
}

/// Runs each plan of a wave as one simulated process via [`Sim::run`].
///
/// All processes of a wave start at the same virtual instant; the
/// simulator's conservative discrete-event executor then interleaves them
/// by virtual time, so plans probing files on different disks genuinely
/// overlap their disk service. The wave span is measured from the kernel
/// clock outside any process (no syscalls are added to the workers).
pub struct SimExecutor<'a> {
    sim: &'a mut Sim,
}

impl<'a> SimExecutor<'a> {
    /// Creates an executor over the simulation.
    pub fn new(sim: &'a mut Sim) -> Self {
        SimExecutor { sim }
    }
}

impl PlanExecutor for SimExecutor<'_> {
    fn run_wave(&mut self, wave: &[ProbePlan]) -> WaveOutcome {
        let t0 = self.sim.now();
        let workloads: Vec<(String, Workload<'_, PlanResult>)> = wave
            .iter()
            .map(|plan| {
                let plan = plan.clone();
                let name = plan.path.clone();
                let w: Workload<'_, PlanResult> =
                    Box::new(move |os: &SimProc| execute_plan(os, &plan));
                (name, w)
            })
            .collect();
        // A dead plan process is a bug in the plan or the ICL under it;
        // surface pid + plan path instead of a bare unwrap.
        let results = self
            .sim
            .try_run(workloads)
            .unwrap_or_else(|p| panic!("probe plan process died: {p}"));
        let span = self.sim.now().since(t0);
        WaveOutcome {
            results,
            span: Some(span),
        }
    }
}
