//! FCCD — the File-Cache Content Detector (paper Section 4.1).
//!
//! FCCD lets an application discover which parts of which files are likely
//! resident in the OS file cache, so it can access cached data first and
//! avoid the LRU worst case of fetching everything from disk on every run.
//!
//! # Gray-box knowledge
//!
//! Only the coarsest assumption is made: *when the file cache is full, some
//! page must be replaced to fit a new one*, and replacement is LRU-like, so
//! spatially adjacent pages of a file tend to be cached or evicted together.
//! That correlation (the paper's Figure 1) is what makes sparse probing
//! sound: the presence of one page predicts the presence of its
//! neighborhood.
//!
//! # Method
//!
//! A *probe* is a timed `read` of a single byte. Probes are expensive on a
//! miss (a real disk access) and destructive (the probed page is pulled into
//! the cache — the *Heisenberg effect*), so FCCD probes sparsely: one random
//! byte per *prediction unit* (default 5 MB), grouped into *access units*
//! (default 20 MB, chosen by microbenchmark to amortize seeks). Access
//! units are then **sorted by total probe time** — deliberately avoiding any
//! absolute in-cache/on-disk threshold, so the same code works across
//! platforms and even across multi-level stores (memory, disk, tape: the
//! "closest" data simply sorts first).
//!
//! Where a caller needs a verdict rather than an order
//! ([`classify_ranks`]), the cut is [`split_fast_slow`], the toolbox's one
//! hit/miss rule: FCCD holds no threshold, scale or degenerate case of
//! its own.
//!
//! Probe offsets are *random* within each prediction unit: fixed offsets
//! would be self-confounding, because a previous probe (by this process or a
//! concurrent one) leaves exactly the probed page cached and a re-probe
//! would then report the whole unit resident.
//!
//! All of a file's probes are planned up front (offsets drawn in one RNG
//! borrow) and issued as a single [`GrayBoxOs::probe_batch`] call, which
//! backends service with amortized dispatch. Batching changes neither which
//! pages are touched nor their order, so the Heisenberg footprint is the
//! same as the scalar loop's.
//!
//! # One plan type, one probing pass, one fold
//!
//! A file's plan is its probe offsets and nothing else ([`ProbePlan`]):
//! the access units and their probe counts follow from the parameters and
//! the file size, so the fold ([`FccdPlanner::fold`]) reads only the size,
//! the page size and the samples, and any verdict can be re-derived from
//! those. Every set of files is ranked by one pass per file: open, read
//! the size, probe the plan drawn for that size, close.
//! [`Fccd::order_files`] runs it inline and draws each file's plan after
//! its size read; a `gray-sched` worker must hold its offsets *before*
//! dispatch, so gbd draws them from size hints
//! ([`FccdPlanner::draw_plans`]) and [`execute_plan`] runs the pass on the
//! pre-drawn specs. Both callers emit `ProbePlanned` from
//! [`FccdPlanner::draw_plans`], with the path as target, and rank with
//! [`FccdPlanner::rank_results`] over the same `(path, size)` list: one
//! fold and one size rule.

use std::cell::RefCell;

use gray_toolbox::cluster::{split_fast_slow, TRUST_FLOOR};
use gray_toolbox::rng::StdRng;
use gray_toolbox::trace::{self, TraceEvent, Verdict};
use gray_toolbox::GrayDuration;

use crate::os::{Fd, GrayBoxOs, OsError, ProbeSample, ProbeSpec};
use crate::technique::{Technique, TechniqueInventory};

/// Fake probe time reported for files too small to probe without pulling
/// them entirely into the cache (smaller than one page), for failed probes
/// and for files that cannot be opened. The paper returns "a fake high
/// probe-time for them".
pub const SMALL_FILE_PENALTY: GrayDuration = GrayDuration::from_millis(20);

/// Tuning parameters for the detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FccdParams {
    /// Size of the access unit: the granularity in which reordered data is
    /// returned to the application. The paper's microbenchmark found 20 MB
    /// delivers near-peak disk bandwidth.
    pub access_unit: u64,
    /// Size of the prediction unit: one probe is issued per this many
    /// bytes. The paper uses 5 MB (four probes per access unit), finding a
    /// few probes per access unit "slightly more robust" than one.
    pub prediction_unit: u64,
    /// Record alignment: extent boundaries are snapped down to a multiple
    /// of this, so records never straddle two access units (the paper's
    /// fastsort passes 100 here).
    pub align: u64,
    /// Seed for the probe-offset randomization.
    pub seed: u64,
}

impl Default for FccdParams {
    fn default() -> Self {
        FccdParams {
            access_unit: 20 << 20,
            prediction_unit: 5 << 20,
            align: 1,
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

impl FccdParams {
    /// Sets the record alignment (builder style).
    pub fn with_align(mut self, align: u64) -> Self {
        assert!(align > 0, "alignment must be positive");
        self.align = align;
        self
    }
}

/// A contiguous byte range of a file, in predicted-fastest-first order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Byte offset of the extent.
    pub offset: u64,
    /// Length of the extent in bytes.
    pub len: u64,
}

/// Probe measurements for one access unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitProbe {
    /// Byte offset of the access unit.
    pub offset: u64,
    /// Length of the access unit in bytes.
    pub len: u64,
    /// Sum of the probe times of the unit's prediction units.
    pub probe_time: GrayDuration,
    /// Number of probes issued into this unit.
    pub probes: u32,
}

/// The raw result of probing a file, in file order.
#[derive(Debug, Clone, Default)]
pub struct FileProbeReport {
    /// Per-access-unit measurements, ordered by offset.
    pub units: Vec<UnitProbe>,
}

impl FileProbeReport {
    /// Total number of probes issued (the Heisenberg footprint: at most
    /// this many pages were perturbed).
    pub fn total_probes(&self) -> u64 {
        self.units.iter().map(|u| u.probes as u64).sum()
    }

    /// Extents sorted fastest-first (ties broken by file offset, so the
    /// result is deterministic and as sequential as possible).
    pub fn plan(&self) -> Vec<Extent> {
        let mut order: Vec<&UnitProbe> = self.units.iter().collect();
        order.sort_by_key(|u| (u.probe_time, u.offset));
        order
            .into_iter()
            .map(|u| Extent {
                offset: u.offset,
                len: u.len,
            })
            .collect()
    }
}

/// One file's worth of probes, ready for dispatch to a worker process.
///
/// A plan is inert data: FCCD draws every offset up front
/// ([`FccdPlanner::draw_plans`]) and the worker merely executes them, so
/// the RNG, the parameters and the fold all stay with the planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbePlan {
    /// The file to open in the worker.
    pub path: String,
    /// Probe offsets in issue order.
    pub specs: Vec<ProbeSpec>,
    /// Most specs per `probe_batch` syscall, `0` for one batch. A bounded
    /// batch is one scheduling point, not an atomic sweep, so concurrent
    /// workers' probes interleave; gbd takes `SchedConfig::sub_batch`.
    pub sub_batch: usize,
}

/// What came back from executing one [`ProbePlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanResult {
    /// The plan's file path (so results are interpretable standalone).
    pub path: String,
    /// File size observed by the worker (0 if the open or the size read
    /// failed).
    pub size: u64,
    /// One sample per spec, in spec order. Empty if the plan could not run.
    pub samples: Vec<ProbeSample>,
    /// Why the plan could not run (the open or the size read failed);
    /// `None` on success.
    pub error: Option<OsError>,
}

/// Executes one plan against a backend: FCCD's probing pass on the plan's
/// pre-drawn specs, the same syscalls [`Fccd::order_files`] issues for one
/// file, so a concurrency-1 scheduler run is syscall for syscall the same
/// as inline ranking (the equivalence tests pin this).
pub fn execute_plan<O: GrayBoxOs>(os: &O, plan: &ProbePlan) -> PlanResult {
    probe_pass(os, &plan.path, plan.sub_batch, |_| &plan.specs)
}

/// FCCD's one probing pass over a file, under a `plan:<path>` span: opens
/// `path`, reads its size, probes the specs `draw` returns for that size
/// ([`probe_specs`]), and closes. A file that fails to open, or whose size
/// cannot be read, is never drawn or probed: its result carries the error,
/// and [`FccdPlanner::rank_results`] ranks it with the small-file penalty.
fn probe_pass<'s, O: GrayBoxOs>(
    os: &O,
    path: &str,
    sub_batch: usize,
    draw: impl FnOnce(u64) -> &'s [ProbeSpec],
) -> PlanResult {
    // Inline or on a worker (one simulated process per plan under simos),
    // the span names the plan on every backend-emitted probe event.
    let _span = trace::span("plan", || path.to_string());
    let probed = os.open(path).and_then(|fd| {
        let probed = os
            .file_size(fd)
            .map(|size| (size, probe_specs(os, fd, draw(size), sub_batch)));
        let _ = os.close(fd);
        probed
    });
    let (size, samples, error) = match probed {
        Ok((size, samples)) => (size, samples, None),
        Err(e) => (0, Vec::new(), Some(e)),
    };
    PlanResult {
        path: path.to_string(),
        size,
        samples,
        error,
    }
}

/// Probes `specs` on `fd`, at most `sub_batch` per
/// [`GrayBoxOs::probe_batch`] (0: one batch).
fn probe_specs<O: GrayBoxOs>(
    os: &O,
    fd: Fd,
    specs: &[ProbeSpec],
    sub_batch: usize,
) -> Vec<ProbeSample> {
    match sub_batch {
        // No specs send no batch at all, not even an empty one.
        _ if specs.is_empty() => Vec::new(),
        0 => os.probe_batch(fd, specs),
        n => {
            let mut samples = Vec::with_capacity(specs.len());
            for chunk in specs.chunks(n) {
                samples.extend(os.probe_batch(fd, chunk));
            }
            samples
        }
    }
}

/// The OS-free half of FCCD: draws probe offsets and folds their samples.
///
/// The planner holds the parameters and the RNG; a plan is only offsets.
/// Drawing ([`draw_plan`](Self::draw_plan)) and folding
/// ([`fold`](Self::fold)) walk the same shape of a file, computed from
/// its size and the page size, so the fold needs nothing from the draw
/// but the samples. [`Fccd`] owns one planner and runs its plans inline;
/// gbd takes one out of a fixed-seed detector ([`Fccd::into_planner`]) to
/// draw plans ([`draw_plans`](Self::draw_plans)), dispatch them to worker
/// processes through `gray-sched`, and rank the returned results
/// ([`rank_results`](Self::rank_results)). Both paths share this code, so
/// a fixed seed places probes identically either way.
pub struct FccdPlanner {
    params: FccdParams,
    rng: RefCell<StdRng>,
}

impl FccdPlanner {
    /// Creates a planner whose probe offsets are decorrelated across runs
    /// by mixing `clock` (a reading of the backend clock) into the seed —
    /// the same defense [`Fccd::new`] applies. A `clock` of zero leaves
    /// the seed as it is: [`Fccd::with_fixed_seed`]'s planner.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (zero-sized units, or a
    /// prediction unit larger than the access unit).
    pub fn new(params: FccdParams, clock: gray_toolbox::Nanos) -> Self {
        assert!(params.access_unit > 0, "access unit must be positive");
        assert!(
            params.prediction_unit > 0,
            "prediction unit must be positive"
        );
        assert!(
            params.prediction_unit <= params.access_unit,
            "prediction unit cannot exceed the access unit"
        );
        assert!(params.align > 0, "alignment must be positive");
        let seed = params
            .seed
            .wrapping_add(clock.as_nanos().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rng = RefCell::new(StdRng::seed_from_u64(seed));
        FccdPlanner { params, rng }
    }

    /// The access units of a file of `size` bytes: `access_unit`-sized,
    /// snapped to the record alignment, covering the whole file.
    pub fn access_units(&self, size: u64) -> Vec<(u64, u64)> {
        // With a page size of 0 no file is too small to probe.
        self.shape(size, 0)
            .map(|(offset, len, _)| (offset, len))
            .collect()
    }

    /// The shape [`draw_plan`](Self::draw_plan) and [`fold`](Self::fold)
    /// both walk: each access unit of a file of `size` bytes, as
    /// `(offset, len, probes)`, with one probe per prediction unit. A file
    /// smaller than one page is one unprobed unit (probing would pull the
    /// whole file in — pure Heisenberg); an empty file has no unit.
    fn shape(&self, size: u64, page_size: u64) -> impl Iterator<Item = (u64, u64, u32)> {
        let p = &self.params;
        let au = snap_down(p.access_unit, p.align).max(p.align);
        let (pu, probed) = (p.prediction_unit, size >= page_size);
        let unit = if probed { au } else { page_size };
        chunks(0, size, unit).map(move |(offset, len)| {
            let probes = if probed { len.div_ceil(pu) as u32 } else { 0 };
            (offset, len, probes)
        })
    }

    /// Draws the probe offsets for a file of `size` bytes on a system with
    /// `page_size`-byte pages: one random byte per prediction unit, in
    /// file order, all under a single RNG borrow, so a fixed seed places
    /// probes identically across dispatch paths.
    pub fn draw_plan(&self, size: u64, page_size: u64) -> Vec<ProbeSpec> {
        let mut rng = self.rng.borrow_mut();
        self.shape(size, page_size)
            .filter(|&(_, _, probes)| probes > 0)
            .flat_map(|(offset, len, _)| chunks(offset, len, self.params.prediction_unit))
            .map(|(p_off, p_len)| ProbeSpec {
                offset: p_off + rng.random_range(0..p_len),
            })
            .collect()
    }

    /// Draws one plan per `(path, size)` of `files`, in input order: one
    /// [`draw_plan`](Self::draw_plan) each, the RNG consumption of ranking
    /// the files inline one by one. Each plan goes to [`execute_plan`],
    /// which sends at most `sub_batch` specs per `probe_batch` (0: one
    /// batch), and its result back to [`rank_results`](Self::rank_results)
    /// with the same `files`.
    pub fn draw_plans(
        &self,
        files: &[(String, u64)],
        page_size: u64,
        sub_batch: usize,
    ) -> Vec<ProbePlan> {
        files
            .iter()
            .map(|(path, size)| {
                let specs = self.draw_plan(*size, page_size);
                trace::emit_with(|| TraceEvent::ProbePlanned {
                    target: path.clone(),
                    probes: specs.len() as u64,
                });
                ProbePlan {
                    path: path.clone(),
                    specs,
                    sub_batch,
                }
            })
            .collect()
    }

    /// Ranks `files`, the `(path, size)` list [`draw_plans`](Self::draw_plans)
    /// drew for, from their results (one per file, in the same order),
    /// fastest first.
    ///
    /// A file whose result carries an error, or a size other than the one
    /// its plan was drawn for, was not probed: its probes covered some
    /// other file, or none at all. It ranks with the small-file penalty at
    /// the size the pass saw (0 after an error), as FCCD ranks any file it
    /// could not probe with the paper's fake high probe-time.
    ///
    /// # Panics
    ///
    /// Panics if `results` and `files` differ in length.
    pub fn rank_results(
        &self,
        files: &[(String, u64)],
        page_size: u64,
        results: Vec<PlanResult>,
    ) -> Vec<FileRank> {
        assert_eq!(files.len(), results.len(), "one result per file");
        let mut ranks: Vec<FileRank> = files
            .iter()
            .zip(results)
            .map(|((_, drawn), result)| {
                let report = if result.error.is_none() && result.size == *drawn {
                    self.fold(result.size, page_size, &result.samples)
                } else {
                    FileProbeReport::default()
                };
                rank(result.path, result.size, &report)
            })
            .collect();
        sort_ranks(&mut ranks);
        ranks
    }

    /// Folds the samples of a file of `size` bytes, one per spec
    /// [`draw_plan`](Self::draw_plan) drew for that size and in that order,
    /// into a report: per access unit, the sum of its samples. Failed
    /// probes and unprobed units take the small-file penalty.
    ///
    /// # Panics
    ///
    /// Panics if there is not one sample per spec.
    pub fn fold(&self, size: u64, page_size: u64, samples: &[ProbeSample]) -> FileProbeReport {
        let probes: usize = self.shape(size, page_size).map(|u| u.2 as usize).sum();
        assert_eq!(samples.len(), probes, "one sample per spec");
        let mut cursor = samples.iter();
        let units = self
            .shape(size, page_size)
            .map(|(offset, len, probes)| {
                let probe_time = match probes {
                    0 => SMALL_FILE_PENALTY,
                    n => cursor
                        .by_ref()
                        .take(n as usize)
                        // A failed probe tells us nothing good about
                        // residency.
                        .map(|s| if s.ok { s.elapsed } else { SMALL_FILE_PENALTY })
                        .sum(),
                };
                UnitProbe {
                    offset,
                    len,
                    probe_time,
                    probes,
                }
            })
            .collect();
        FileProbeReport { units }
    }
}

/// Builds a [`FileRank`] from a folded report, normalizing by probe count
/// so files of different sizes compare fairly. A report with no probes —
/// an empty file, a file smaller than a page, a file the pass could not
/// probe — ranks with the small-file penalty: an unprobed file is not
/// known to be cached.
fn rank(path: String, size: u64, report: &FileProbeReport) -> FileRank {
    let (mean_probe, total_probe) = match report.total_probes() {
        0 => (SMALL_FILE_PENALTY, SMALL_FILE_PENALTY),
        n => {
            let total: GrayDuration = report.units.iter().map(|u| u.probe_time).sum();
            (total / n, total)
        }
    };
    FileRank {
        path,
        mean_probe,
        total_probe,
        size,
    }
}

/// Sorts ranks fastest-first (ties broken by path, so the order is
/// deterministic).
fn sort_ranks(ranks: &mut [FileRank]) {
    ranks.sort_by(|a, b| {
        a.mean_probe
            .cmp(&b.mean_probe)
            .then_with(|| a.path.cmp(&b.path))
    });
}

/// Splits sorted ranks into predicted-cached and predicted-uncached groups
/// by [`split_fast_slow`] over the mean probe times (paper Section 4.2.4) —
/// the classification core shared by [`Fccd::classify_files`] and gbd's
/// scheduled path.
pub fn classify_ranks(ranks: Vec<FileRank>) -> Classified {
    let times: Vec<f64> = ranks
        .iter()
        .map(|r| r.mean_probe.as_nanos() as f64)
        .collect();
    let split = split_fast_slow(&times);
    trace::emit_with(|| TraceEvent::ThresholdCrossed {
        what: "fccd.separation",
        value: split.separation,
        threshold: TRUST_FLOOR,
    });
    let mut cached = Vec::new();
    let mut uncached = Vec::new();
    for (rank, fast) in ranks.into_iter().zip(split.fast) {
        trace::emit_with(|| TraceEvent::Classified {
            unit: rank.path.clone(),
            verdict: if fast {
                Verdict::Cached
            } else {
                Verdict::Uncached
            },
        });
        if fast {
            cached.push(rank);
        } else {
            uncached.push(rank);
        }
    }
    Classified {
        cached,
        uncached,
        separation: split.separation,
    }
}

/// A file ranked by probe time, as returned by [`Fccd::order_files`].
#[derive(Debug, Clone, PartialEq)]
pub struct FileRank {
    /// The file's path.
    pub path: String,
    /// Mean probe time per probe (normalizes files of different sizes).
    pub mean_probe: GrayDuration,
    /// Total probe time.
    pub total_probe: GrayDuration,
    /// File size in bytes (0 if the file could not be opened).
    pub size: u64,
}

/// Result of splitting a set of files into predicted-cached and
/// predicted-uncached groups ([`Fccd::classify_files`]).
#[derive(Debug, Clone)]
pub struct Classified {
    /// Files whose probe times fell in the fast cluster, fastest first.
    pub cached: Vec<FileRank>,
    /// Files in the slow cluster, fastest first.
    pub uncached: Vec<FileRank>,
    /// Cluster separation score in [0, 1]; near 0 means the two-way split
    /// found no real structure (e.g. everything was on disk) and `cached`
    /// is empty.
    pub separation: f64,
}

/// The File-Cache Content Detector.
///
/// See the [module documentation](self) for the method. The detector is
/// cheap to construct; all state is the parameter block and a private RNG
/// for probe-offset randomization.
pub struct Fccd<'a, O: GrayBoxOs> {
    os: &'a O,
    planner: FccdPlanner,
}

impl<'a, O: GrayBoxOs> Fccd<'a, O> {
    /// Creates a detector over the given OS with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are inconsistent (zero-sized units, or a
    /// prediction unit larger than the access unit).
    pub fn new(os: &'a O, params: FccdParams) -> Self {
        // Probe offsets must differ from run to run (paper Section 4.1.2):
        // with fixed offsets, a previous run's probes leave exactly the
        // probed pages in a skewed cache state — and worse, an LRU-like
        // cache tends to evict precisely the earliest-touched (probed)
        // pages, so a re-probe at the same offsets reports the file cold
        // when 95% of it is resident. Mixing the clock into the seed keeps
        // simulation runs reproducible while decorrelating offsets across
        // runs.
        let planner = FccdPlanner::new(params, os.now());
        Fccd { os, planner }
    }

    /// Creates a detector whose probe offsets depend *only* on
    /// `params.seed`: two such detectors probe the same bytes, the
    /// fixed-offset behaviour the paper warns against. It reads the clock
    /// as [`Fccd::new`] does, so both issue the same syscalls. Tests that
    /// need bit-exact probe placement build FCCD this way, and so do
    /// gbd's daemon, the scenario matrix and graybench; whether those
    /// move to [`Fccd::new`] is ROADMAP item 1's call.
    pub fn with_fixed_seed(os: &'a O, params: FccdParams) -> Self {
        os.now();
        let planner = FccdPlanner::new(params, gray_toolbox::Nanos::ZERO);
        Fccd { os, planner }
    }

    /// The OS-free planner half of the detector, for a caller that
    /// dispatches its plans elsewhere (gbd, through `gray-sched`).
    pub fn into_planner(self) -> FccdPlanner {
        self.planner
    }

    /// Probes every access unit of the open file `fd` of size `size`.
    ///
    /// Returns measurements in file order; call [`FileProbeReport::plan`]
    /// for the fastest-first ordering. Files smaller than one page are not
    /// probed at all (probing would pull the whole file in — pure
    /// Heisenberg) and instead receive [`SMALL_FILE_PENALTY`]. Handed an
    /// fd, not a path, it plans against `size:<size>` in the trace.
    pub fn probe_file(&self, fd: Fd, size: u64) -> FileProbeReport {
        let page_size = self.os.page_size();
        let specs = self.planner.draw_plan(size, page_size);
        trace::emit_with(|| TraceEvent::ProbePlanned {
            target: format!("size:{size}"),
            probes: specs.len() as u64,
        });
        let samples = probe_specs(self.os, fd, &specs, 0);
        self.planner.fold(size, page_size, &samples)
    }

    /// Ranks a set of files by predicted access cost, fastest first: one
    /// probing pass per file, whose plan is drawn
    /// ([`FccdPlanner::draw_plans`]) once its size is read, then
    /// [`FccdPlanner::rank_results`].
    ///
    /// Files that fail to open or to size sort last with the small-file
    /// penalty (a vanished file is certainly not in the cache). Ranking
    /// uses the *mean* per-probe time so that large and small files
    /// compare fairly.
    pub fn order_files(&self, paths: &[String]) -> Vec<FileRank> {
        let page_size = self.os.page_size();
        let (files, results): (Vec<_>, Vec<_>) = paths
            .iter()
            .map(|path| {
                let mut plans = Vec::new();
                let slot = &mut plans;
                let result = probe_pass(self.os, path, 0, move |size| {
                    *slot = self
                        .planner
                        .draw_plans(&[(path.clone(), size)], page_size, 0);
                    &slot[0].specs
                });
                ((path.clone(), result.size), result)
            })
            .unzip();
        self.planner.rank_results(&files, page_size, results)
    }

    /// Splits files into a predicted-cached and a predicted-uncached group
    /// by [`split_fast_slow`] over the mean probe times (paper Section
    /// 4.2.4).
    ///
    /// When that split is not trusted (separation below [`TRUST_FLOOR`])
    /// all files are reported uncached, since "fast versus slow" carries
    /// no signal when everything costs the same.
    pub fn classify_files(&self, paths: &[String]) -> Classified {
        classify_ranks(self.order_files(paths))
    }
}

/// How FCCD maps onto the paper's technique taxonomy (Table 2).
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "FCCD",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "LRU-like: neighbors cached together",
            ),
            (Technique::MonitorOutputs, "Time for 1-byte reads"),
            (Technique::StatisticalMethods, "Sort/cluster probe times"),
            (Technique::Microbenchmarks, "Access unit from disk peak"),
            (Technique::InsertProbes, "Random byte per 5MB unit"),
            (Technique::KnownState, "None"),
            (Technique::Feedback, "Unit-sized reads stabilize cache"),
        ],
    )
}

/// Splits `[start, start + total)` into `unit`-sized chunks (last chunk may
/// be short). `total == 0` yields nothing.
fn chunks(start: u64, total: u64, unit: u64) -> impl Iterator<Item = (u64, u64)> {
    let end = start + total;
    (start..end)
        .step_by(unit as usize)
        .map(move |off| (off, unit.min(end - off)))
}

/// Largest multiple of `align` not exceeding `x` (0 if `x < align`).
fn snap_down(x: u64, align: u64) -> u64 {
    x - x % align
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_exactly() {
        let c: Vec<_> = chunks(0, 10, 4).collect();
        assert_eq!(c, vec![(0, 4), (4, 4), (8, 2)]);
        assert_eq!(chunks(100, 4, 4).collect::<Vec<_>>(), vec![(100, 4)]);
        assert_eq!(chunks(0, 0, 4).next(), None);
    }

    #[test]
    fn snap_down_respects_alignment() {
        assert_eq!(snap_down(20 << 20, 100), 20971500);
        assert_eq!((20971500u64) % 100, 0);
        assert_eq!(snap_down(7, 10), 0);
    }

    #[test]
    fn plan_sorts_fastest_first_then_by_offset() {
        let report = FileProbeReport {
            units: vec![
                UnitProbe {
                    offset: 0,
                    len: 10,
                    probe_time: GrayDuration::from_millis(5),
                    probes: 1,
                },
                UnitProbe {
                    offset: 10,
                    len: 10,
                    probe_time: GrayDuration::from_micros(3),
                    probes: 1,
                },
                UnitProbe {
                    offset: 20,
                    len: 10,
                    probe_time: GrayDuration::from_micros(3),
                    probes: 1,
                },
            ],
        };
        let plan = report.plan();
        assert_eq!(plan[0].offset, 10);
        assert_eq!(plan[1].offset, 20);
        assert_eq!(plan[2].offset, 0);
    }

    #[test]
    #[should_panic(expected = "prediction unit cannot exceed")]
    fn inconsistent_params_panic() {
        let params = FccdParams {
            access_unit: 1,
            prediction_unit: 2,
            ..FccdParams::default()
        };
        let _ = FccdPlanner::new(params, gray_toolbox::Nanos::ZERO);
    }

    #[test]
    fn techniques_cover_probes_and_feedback() {
        let inv = techniques();
        assert!(inv.uses(Technique::InsertProbes));
        assert!(inv.uses(Technique::Feedback));
        assert!(!inv.uses(Technique::KnownState));
    }

    // The planner half of FCCD's behaviour: plans drawn, then folded from
    // synthetic probe timings (a hit costs microseconds, a miss
    // milliseconds), with no OS. `crates/core/tests/fccd.rs` holds the
    // same claims end to end, with the timings a simulated disk produces.
    const PAGE: u64 = 4096;
    const HIT: GrayDuration = GrayDuration::from_micros(3);
    const MISS: GrayDuration = GrayDuration::from_millis(5);

    fn small_params() -> FccdParams {
        FccdParams {
            access_unit: 4 * PAGE,
            prediction_unit: PAGE,
            ..FccdParams::default()
        }
    }

    fn planner() -> FccdPlanner {
        FccdPlanner::new(small_params(), gray_toolbox::Nanos::ZERO)
    }

    /// Executes `specs` against a cache in which exactly the bytes `cached`
    /// says are resident.
    fn samples(specs: &[ProbeSpec], cached: impl Fn(u64) -> bool) -> Vec<ProbeSample> {
        specs
            .iter()
            .map(|spec| ProbeSample {
                offset: spec.offset,
                elapsed: if cached(spec.offset) { HIT } else { MISS },
                ok: true,
            })
            .collect()
    }

    /// Draws, executes and folds the plan of one file.
    fn report(planner: &FccdPlanner, size: u64, cached: impl Fn(u64) -> bool) -> FileProbeReport {
        let specs = planner.draw_plan(size, PAGE);
        planner.fold(size, PAGE, &samples(&specs, cached))
    }

    /// Ranks files of eight pages each; the files in `warm` are cached.
    fn ranks(names: &[&str], warm: &[&str]) -> Vec<FileRank> {
        let planner = planner();
        let mut ranks: Vec<FileRank> = names
            .iter()
            .map(|&name| {
                let hot = warm.contains(&name);
                rank(
                    name.to_string(),
                    8 * PAGE,
                    &report(&planner, 8 * PAGE, |_| hot),
                )
            })
            .collect();
        sort_ranks(&mut ranks);
        ranks
    }

    #[test]
    fn cached_units_sort_before_uncached_units() {
        // Only the second access unit (pages 4..8) is resident.
        let plan = report(&planner(), 16 * PAGE, |off| {
            (4 * PAGE..8 * PAGE).contains(&off)
        })
        .plan();
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan[0].offset,
            4 * PAGE,
            "the warm access unit must sort first: {plan:?}"
        );
    }

    #[test]
    fn small_file_is_not_probed() {
        let planner = planner();
        assert!(
            planner.draw_plan(16, PAGE).is_empty(),
            "no Heisenberg on tiny files"
        );
        let report = planner.fold(16, PAGE, &[]);
        assert_eq!(report.total_probes(), 0, "tiny files must not be probed");
        assert_eq!(report.units.len(), 1);
        assert_eq!(report.units[0].probe_time, SMALL_FILE_PENALTY);
    }

    #[test]
    fn order_files_puts_warm_files_first() {
        let ranks = ranks(&["/f0", "/f1", "/f2", "/f3"], &["/f2"]);
        assert_eq!(ranks[0].path, "/f2");
    }

    #[test]
    fn classify_separates_warm_from_cold() {
        let names = ["/f0", "/f1", "/f2", "/f3", "/f4", "/f5"];
        let classified = classify_ranks(ranks(&names, &["/f1", "/f4"]));
        let cached: Vec<&str> = classified.cached.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(cached, vec!["/f1", "/f4"]);
        assert_eq!(classified.uncached.len(), 4);
        assert!(classified.separation > 0.9, "{}", classified.separation);
    }

    #[test]
    fn missing_file_ranks_last() {
        let planner = planner();
        let mut ranks = vec![
            rank("/ghost".to_string(), 0, &FileProbeReport::default()),
            rank(
                "/real".to_string(),
                8 * PAGE,
                &report(&planner, 8 * PAGE, |_| false),
            ),
        ];
        sort_ranks(&mut ranks);
        assert_eq!(ranks[0].path, "/real");
        assert_eq!(ranks[1].path, "/ghost");
        assert_eq!(ranks[1].size, 0);
    }

    /// What a worker returns for `probe` from a file of `size` bytes that
    /// is entirely warm or entirely cold.
    fn worker_result(probe: &ProbePlan, size: u64, warm: bool) -> PlanResult {
        PlanResult {
            path: probe.path.clone(),
            size,
            samples: probe
                .specs
                .iter()
                .map(|spec| ProbeSample {
                    offset: spec.offset,
                    elapsed: if warm { HIT } else { MISS },
                    ok: true,
                })
                .collect(),
            error: None,
        }
    }

    #[test]
    fn rank_results_folds_sorts_and_penalizes_unprobed_files() {
        let planner = planner();
        let size = 8 * PAGE;
        // `/stale` grew after its hint; `/zero`'s hint is 0, so its plan
        // probes nothing at all.
        let files: Vec<(String, u64)> = [
            ("/zero", 0),
            ("/cold", size),
            ("/ghost", size),
            ("/stale", size),
            ("/warm", size),
        ]
        .map(|(path, hint)| (path.to_string(), hint))
        .to_vec();
        let probes = planner.draw_plans(&files, PAGE, 3);
        for (probe, (path, _)) in probes.iter().zip(&files) {
            assert_eq!((&probe.path, probe.sub_batch), (path, 3));
        }
        let results = vec![
            worker_result(&probes[0], size, true),
            worker_result(&probes[1], size, false),
            PlanResult {
                path: "/ghost".to_string(),
                size: 0,
                samples: Vec::new(),
                error: Some(OsError::NotFound),
            },
            worker_result(&probes[3], 2 * size, true),
            worker_result(&probes[4], size, true),
        ];
        let ranks = planner.rank_results(&files, PAGE, results.clone());

        let mut sorted = ranks.clone();
        sort_ranks(&mut sorted);
        assert_eq!(ranks, sorted, "ranks come out sorted as sort_ranks sorts");
        let rank_of = |path: &str| ranks.iter().find(|r| r.path == path).unwrap();
        for i in [1, 4] {
            let report = planner.fold(size, PAGE, &results[i].samples);
            assert_eq!(
                *rank_of(&files[i].0),
                rank(files[i].0.clone(), size, &report),
                "matching samples rank as fold + rank"
            );
        }
        assert_eq!(
            *rank_of("/ghost"),
            rank("/ghost".to_string(), 0, &FileProbeReport::default()),
            "an open error ranks as an unprobed file"
        );
        for (path, seen) in [("/zero", size), ("/stale", 2 * size)] {
            let rank = rank_of(path);
            assert_eq!(
                (rank.mean_probe, rank.total_probe, rank.size),
                (SMALL_FILE_PENALTY, SMALL_FILE_PENALTY, seen),
                "{path}: a size mismatch ranks with the penalty"
            );
        }
        let order: Vec<&str> = ranks.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(order, ["/warm", "/cold", "/ghost", "/stale", "/zero"]);
    }

    #[test]
    fn empty_file_yields_empty_plan() {
        let planner = planner();
        assert!(planner.draw_plan(0, PAGE).is_empty());
        assert!(planner.fold(0, PAGE, &[]).plan().is_empty());
    }

    #[test]
    fn plan_respects_record_alignment() {
        let params = FccdParams {
            access_unit: 3 * PAGE,
            prediction_unit: PAGE,
            ..FccdParams::default()
        }
        .with_align(100);
        let planner = FccdPlanner::new(params, gray_toolbox::Nanos::ZERO);
        let plan = report(&planner, 100 * 1000, |off| off % 3 == 0).plan();
        assert!(plan.len() > 1);
        for e in plan {
            assert_eq!(e.offset % 100, 0, "extent must be record-aligned: {e:?}");
        }
    }

    #[test]
    fn repeated_probing_is_deterministic_per_seed() {
        let draw = |seed, clock| {
            let params = FccdParams {
                seed,
                ..small_params()
            };
            FccdPlanner::new(params, gray_toolbox::Nanos(clock)).draw_plan(16 * PAGE, PAGE)
        };
        assert_eq!(draw(1, 7), draw(1, 7));
        assert_ne!(draw(1, 7), draw(2, 7));
        assert_ne!(draw(1, 7), draw(1, 8));
    }
}
