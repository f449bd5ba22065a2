//! FCCD over the scheduler: multi-file cache-content detection whose
//! probes run concurrently instead of file-after-file.
//!
//! [`FccdFleet`] is the scheduler-side twin of `graybox::Fccd`: the same
//! OS-free `FccdPlanner` draws the probe offsets and folds the samples,
//! but dispatch goes through a [`Scheduler`] so that N candidate files can
//! be probed at once. When the files live on different disks (or the
//! backend has real parallelism), probe latency overlaps disk service and
//! the whole classification finishes in roughly the time of the slowest
//! file instead of the sum of all of them.

use graybox::fccd::FccdParams;
use graybox::fccd::{classify_ranks, sort_ranks, Classified, FccdFilePlan, FccdPlanner, FileRank};
use graybox::os::GrayBoxOs;

use crate::exec::PlanExecutor;
use crate::plan::ProbePlan;
use crate::Scheduler;

/// FCCD classification of many files through the probe scheduler.
///
/// Plans are drawn client-side (RNG, parameters, and fold all stay here);
/// workers only open/probe/close. Files are handed in as `(path, size)`
/// pairs because planning precedes the worker's `file_size` observation —
/// the fold afterwards uses the size the *worker* saw, so a stale caller
/// size only mildly skews offset placement, never correctness.
pub struct FccdFleet {
    planner: FccdPlanner,
    sub_batch: usize,
    page_size: u64,
}

/// Submitted-but-unfolded probe plans from
/// [`submit_files`](FccdFleet::submit_files): one `(handle, plan, path)`
/// per file, in input order. Opaque so the fold stays the fleet's job.
pub struct PendingFiles {
    pending: Vec<(crate::PlanHandle, FccdFilePlan, String)>,
}

impl PendingFiles {
    /// Number of files awaiting fold.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether nothing was submitted.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

impl FccdFleet {
    /// Creates a fleet detector over the given backend's geometry.
    ///
    /// Reads the clock once, exactly like `Fccd::new`, so a fleet and an
    /// inline detector built back-to-back issue identical syscall
    /// sequences (the equivalence tests compare runs syscall for
    /// syscall). `sub_batch` bounds specs per `probe_batch` call; 0 sends
    /// each file's plan as one batch.
    pub fn new<O: GrayBoxOs>(os: &O, params: FccdParams, sub_batch: usize) -> Self {
        let planner = FccdPlanner::new(params, os.now());
        FccdFleet {
            planner,
            sub_batch,
            page_size: os.page_size(),
        }
    }

    /// Creates a fleet whose probe offsets depend only on `params.seed`,
    /// mirroring `Fccd::with_fixed_seed` (including the clock read, kept
    /// for syscall-sequence parity). For tests needing bit-exact offsets.
    pub fn with_fixed_seed<O: GrayBoxOs>(os: &O, params: FccdParams, sub_batch: usize) -> Self {
        let fleet = FccdFleet::new(os, params, sub_batch);
        let params = fleet.planner.params().clone();
        FccdFleet {
            planner: FccdPlanner::with_fixed_seed(params),
            ..fleet
        }
    }

    /// The OS-free planner half.
    pub fn planner(&self) -> &FccdPlanner {
        &self.planner
    }

    /// Draws one file's probe plan and wraps it for the scheduler.
    fn plan_for(&self, path: &str, size: u64) -> (FccdFilePlan, ProbePlan) {
        let plan = self.planner.draw_plan(size, self.page_size);
        gray_toolbox::trace::emit_with(|| gray_toolbox::trace::TraceEvent::ProbePlanned {
            target: path.to_string(),
            probes: plan.specs.len() as u64,
        });
        let probe = ProbePlan {
            path: path.to_string(),
            specs: plan.specs.clone(),
            sub_batch: self.sub_batch,
        };
        (plan, probe)
    }

    /// Draws and submits one plan per file, without dispatching.
    ///
    /// Offsets are drawn per file in input order (one `draw_plan` each —
    /// the same RNG consumption as ranking the files inline one by one).
    /// Callers that pool probes across independent queries — the `gbd`
    /// daemon batches every tenant's FCCD misses into shared waves —
    /// submit each query's files, dispatch the scheduler once, then fold
    /// each query with [`fold_files`](FccdFleet::fold_files).
    pub fn submit_files(&self, sched: &mut Scheduler, files: &[(String, u64)]) -> PendingFiles {
        let mut pending = Vec::with_capacity(files.len());
        for (path, size) in files {
            let (plan, probe) = self.plan_for(path, *size);
            let handle = sched.submit(probe);
            pending.push((handle, plan, path.clone()));
        }
        PendingFiles { pending }
    }

    /// Folds dispatched probe results back into ranks, fastest first.
    /// Files whose worker failed to open them sort last with the
    /// small-file penalty, exactly as in the inline path.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler has not dispatched the submitted plans.
    pub fn fold_files(&self, sched: &mut Scheduler, submitted: PendingFiles) -> Vec<FileRank> {
        let mut ranks: Vec<FileRank> = submitted
            .pending
            .into_iter()
            .map(|(handle, plan, path)| {
                let result = sched
                    .take(handle)
                    .expect("dispatch resolves every submitted handle");
                if result.error.is_some() {
                    self.planner.rank_unopenable(&path)
                } else {
                    let report = self.planner.fold(&plan, &result.samples);
                    self.planner.rank(&path, result.size, &report)
                }
            })
            .collect();
        sort_ranks(&mut ranks);
        ranks
    }

    /// Ranks `files` by predicted access cost, fastest first, probing
    /// through the scheduler: submit, dispatch, fold.
    pub fn order_files<E: PlanExecutor>(
        &self,
        sched: &mut Scheduler,
        exec: &mut E,
        files: &[(String, u64)],
    ) -> Vec<FileRank> {
        let submitted = self.submit_files(sched, files);
        sched.dispatch(exec);
        self.fold_files(sched, submitted)
    }

    /// Splits `files` into predicted-cached and predicted-uncached groups
    /// (`classify_ranks`: `split_fast_slow` on the log of the
    /// fleet-probed mean probe times), mirroring `Fccd::classify_files`.
    pub fn classify_files<E: PlanExecutor>(
        &self,
        sched: &mut Scheduler,
        exec: &mut E,
        files: &[(String, u64)],
    ) -> Classified {
        classify_ranks(self.order_files(sched, exec, files))
    }
}
