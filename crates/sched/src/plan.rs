//! Probe plans and their results — the unit of work the scheduler moves.

use graybox::os::{Fd, GrayBoxOs, OsError, ProbeSample, ProbeSpec};

/// One file's worth of probes, ready for dispatch to a worker process.
///
/// A plan is inert data: the client (an ICL) draws every offset up front
/// — FCCD via `FccdPlanner::draw_plan` — and the worker merely executes
/// them. This is what lets probing leave the client's process: the RNG,
/// the parameters, and the fold all stay client-side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbePlan {
    /// The file to open in the worker.
    pub path: String,
    /// Probe offsets in issue order.
    pub specs: Vec<ProbeSpec>,
    /// Upper bound on specs per `probe_batch` syscall; `0` means the
    /// whole plan goes down as one batch. Bounded sub-batches keep each
    /// batch one *scheduling point* rather than an atomic sweep, which is
    /// what preserves multi-process interleaving (and, for MAC, prompt
    /// page-daemon detection). Chosen by the plan's builder;
    /// `SchedConfig::sub_batch` is the default they take.
    pub sub_batch: usize,
}

/// What came back from executing one [`ProbePlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanResult {
    /// The plan's file path (so results are interpretable standalone).
    pub path: String,
    /// File size observed by the worker (0 if the open failed).
    pub size: u64,
    /// One sample per spec, in spec order. Empty if the open failed.
    pub samples: Vec<ProbeSample>,
    /// Why the plan could not run (open failure); `None` on success.
    pub error: Option<OsError>,
}

/// Executes one plan against a backend: open, size, probe in sub-batches,
/// close.
///
/// The syscall sequence is exactly what FCCD's direct `rank_one` path
/// issues — open, `file_size`, one `probe_batch` (or bounded sub-batches,
/// which backends service with per-probe timing identical to one batch),
/// close — so a concurrency-1 scheduler run is syscall-for-syscall the
/// same as direct dispatch. The equivalence tests pin this.
pub fn execute_plan<O: GrayBoxOs>(os: &O, plan: &ProbePlan) -> PlanResult {
    // Runs on the worker (one simulated process per plan under simos), so
    // the span names the plan on every backend-emitted probe event.
    let _span = gray_toolbox::trace::span("plan", || plan.path.clone());
    let fd: Fd = match os.open(&plan.path) {
        Ok(fd) => fd,
        Err(e) => {
            return PlanResult {
                path: plan.path.clone(),
                size: 0,
                samples: Vec::new(),
                error: Some(e),
            }
        }
    };
    let size = os.file_size(fd).unwrap_or(0);
    let mut samples = Vec::with_capacity(plan.specs.len());
    if !plan.specs.is_empty() {
        if plan.sub_batch == 0 {
            samples = os.probe_batch(fd, &plan.specs);
        } else {
            for chunk in plan.specs.chunks(plan.sub_batch) {
                samples.extend(os.probe_batch(fd, chunk));
            }
        }
    }
    let _ = os.close(fd);
    PlanResult {
        path: plan.path.clone(),
        size,
        samples,
        error: None,
    }
}
