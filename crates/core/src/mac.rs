//! MAC — the Memory-based Admission Controller (paper Section 4.3).
//!
//! MAC keeps a set of cooperating processes from actively using more memory
//! than is physically present: it *infers* the amount of currently
//! available memory by timed page-touch probing, *allocates* memory only
//! when the requested minimum fits, and otherwise answers `None`, the
//! paper's NULL return, so that the caller waits and asks again.
//!
//! # Gray-box knowledge
//!
//! The probing leverages the page-replacement algorithm's own definition of
//! the working set: MAC observes how much memory it can touch **without
//! triggering replacement**. Probes must *write* (copy-on-write zero pages
//! mean reads allocate nothing). The basic algorithm probes a new chunk a
//! page at a time in **two sequential loops**:
//!
//! 1. The first loop *moves the chunk to a known state* (every page
//!    resident, freshly written). Its per-page times are not directly
//!    conclusive — they include allocation, zeroing, or re-fetch costs —
//!    but **several consecutive slow points** indicate the page daemon has
//!    been activated, and MAC skips straight to verification.
//! 2. The second loop re-touches every page: if each touch is "fast" the
//!    chunk fits in available memory (nothing was selected for
//!    replacement); any cluster of "slow" touches means part of the chunk
//!    was paged out, i.e. the chunk is too large.
//!
//! Chunk growth follows the paper's compromise, deliberately *more
//! conservative than TCP congestion control*: start with a conservative
//! increment, double it while the probed memory keeps fitting (up to a
//! fixed maximum increment), and collapse back to the initial increment
//! when a problem is detected.
//!
//! Probes are issued through [`GrayBoxOs::mem_probe_batch`] in bounded
//! sub-batches of [`SUB_BATCH_PAGES`]: a batch is one scheduling point, so
//! the bound is what lets daemon detection stop growth promptly and lets
//! competitors run mid-sweep. It is a constant — virtual time charges per
//! probe, so there is no dispatch cost for a larger batch to amortize and
//! nothing to measure. Batching changes which syscalls carry the probes,
//! not which pages get touched or how each touch is timed.
//!
//! # Thresholds
//!
//! Unlike FCCD, MAC must classify each touch *on line*, so it needs actual
//! thresholds. They come from the microbenchmark repository when available
//! (`mem.page_touch_ns`, `mem.page_alloc_zero_ns`), and otherwise from
//! self-calibration: time repeated touches of a few certainly-resident
//! pages, and call anything "significantly larger" slow.
//!
//! # One grant path
//!
//! [`Mac::admit_all`] is how MAC grants memory: requests that arrive
//! together (gbd's `GbAlloc` queries of one tick) share one probe pass,
//! and [`Mac::gb_alloc`] is the same call with one request. Every grant is
//! first-touched with page-daemon detection and verified resident before
//! it is returned. Bytes become pages by one rule: a byte bound covers
//! `bound.div_ceil(page)` pages, and every answer is clamped to the bound
//! it was asked under, so a grant never exceeds its request's `max` and an
//! exact request that is not a whole number of pages can be met.
//!
//! # Deadlock
//!
//! MAC is admission control, not a transaction manager: two processes
//! that each hold half of memory and wait for more will starve each other.
//! Callers should ask for everything they need in one call, or free
//! before re-allocating (the paper's gb-fastsort frees each pass before
//! allocating the next, so it cannot deadlock).

use core::fmt;
use std::cell::RefCell;
use std::ops::Range;

use gray_toolbox::repository::keys;
use gray_toolbox::trace::{self, TraceEvent};
use gray_toolbox::{GrayDuration, ParamRepository, Summary};

use crate::os::{GrayBoxOs, MemRegion, OsError, OsResult, ProbeSample};
use crate::technique::{Technique, TechniqueInventory};

/// Pages per probe sub-batch (one scheduling point each, see the module
/// docs): probing overshoots the page daemon's wake-up by at most one.
pub const SUB_BATCH_PAGES: u64 = 64;

/// How many *consecutive* slow first-loop touches indicate the page daemon
/// woke up. Isolated slow points are scheduling noise.
pub const SLOW_RUN_THRESHOLD: usize = 3;

/// A touch is "slow" if it exceeds the calibrated fast time by this factor
/// ("significantly larger").
pub const SLOW_MULTIPLIER: f64 = 8.0;

/// Fraction of second-loop pages allowed to be slow before the chunk is
/// declared not to fit (tolerates stray evictions and interrupts).
pub const SLOW_TOLERANCE: f64 = 0.02;

/// Pages used for self-calibration when the repository has no numbers.
pub const CALIBRATION_PAGES: u64 = 64;

/// The fewest pages calibration halves down to on a machine too small to
/// hold [`CALIBRATION_PAGES`].
const CALIBRATION_FLOOR_PAGES: u64 = 8;

/// Tuning parameters for the admission controller.
#[derive(Debug, Clone, PartialEq)]
pub struct MacParams {
    /// First (and post-backoff) probe increment, in bytes.
    pub initial_increment: u64,
    /// Ceiling for the doubling increment, in bytes.
    pub max_increment: u64,
}

impl Default for MacParams {
    fn default() -> Self {
        MacParams {
            initial_increment: 16 << 20,
            max_increment: 128 << 20,
        }
    }
}

/// A successful gray-box allocation.
///
/// The backing region may be larger than `bytes` (address space is cheap);
/// exactly `bytes.div_ceil(page_size)` pages have been verified resident.
/// Free it with [`Mac::gb_free`].
#[derive(Debug)]
pub struct GbAlloc {
    /// The backing memory region.
    pub region: MemRegion,
    /// The admitted size in bytes (a multiple of the request's `multiple`).
    pub bytes: u64,
}

/// One `gb_alloc`-shaped request: at least `min`, at most `max`, in units
/// of `multiple` (all in bytes). [`Mac::admit_all`] answers any number of
/// them behind one probe pass; [`Mac::gb_alloc`] asks for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRequest {
    /// Smallest useful grant; the request is denied rather than take less.
    pub min: u64,
    /// Largest useful grant.
    pub max: u64,
    /// Grants are rounded down to a multiple of this (e.g. a sort's
    /// record size). Must be positive.
    pub multiple: u64,
}

impl AdmissionRequest {
    /// The request cut to its `multiple`: the smallest and the largest
    /// grant it accepts. A grant exists only if the first is at most the
    /// second.
    ///
    /// # Panics
    ///
    /// Panics if `multiple` is zero or `min > max`.
    fn bounds(&self) -> (u64, u64) {
        assert!(self.multiple > 0, "multiple must be positive");
        assert!(self.min <= self.max, "min exceeds max");
        let min = self.min.max(self.multiple).next_multiple_of(self.multiple);
        (min, round_down(self.max, self.multiple))
    }
}

/// Cumulative cost accounting for Figure 7's overhead breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Time spent inside probe loops.
    pub probe_time: GrayDuration,
    /// Number of requests answered (granted or not).
    pub attempts: u64,
    /// Total pages touched by probes.
    pub pages_probed: u64,
}

impl fmt::Display for MacStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "probe {} over {} pages in {} attempts",
            self.probe_time, self.pages_probed, self.attempts
        )
    }
}

/// Calibrated touch-time thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Thresholds {
    /// Above this, a second-loop (resident) touch is slow.
    touch_slow: GrayDuration,
    /// Above this, a first-loop (allocate/zero) touch is slow.
    zero_slow: GrayDuration,
}

/// The Memory-based Admission Controller.
pub struct Mac<'a, O: GrayBoxOs> {
    os: &'a O,
    params: MacParams,
    thresholds: RefCell<Option<Thresholds>>,
    stats: RefCell<MacStats>,
    /// The page numbers of the sub-batch in flight. One buffer, refilled:
    /// an estimate issues thousands of sub-batches, and the samples that
    /// come back are the only vector each may cost
    /// (`tests/mac_alloc_budget.rs`).
    plan: RefCell<Vec<u64>>,
}

impl<'a, O: GrayBoxOs> Mac<'a, O> {
    /// Creates a controller with self-calibrating thresholds.
    pub fn new(os: &'a O, params: MacParams) -> Self {
        assert!(params.initial_increment > 0, "increment must be positive");
        assert!(
            params.max_increment >= params.initial_increment,
            "max increment below initial increment"
        );
        Mac {
            os,
            params,
            thresholds: RefCell::new(None),
            stats: RefCell::new(MacStats::default()),
            plan: RefCell::new(Vec::with_capacity(SUB_BATCH_PAGES as usize)),
        }
    }

    /// Creates a controller that takes its thresholds from the
    /// microbenchmark repository when present (the paper's preferred
    /// "values calculated once ... and advertised in a file").
    pub fn with_repository(os: &'a O, params: MacParams, repo: &ParamRepository) -> Self {
        let mac = Mac::new(os, params);
        let touch = repo.get_duration(keys::PAGE_TOUCH_NS).ok().flatten();
        let zero = repo.get_duration(keys::PAGE_ALLOC_ZERO_NS).ok().flatten();
        if let (Some(touch), Some(zero)) = (touch, zero) {
            *mac.thresholds.borrow_mut() = Some(Thresholds {
                touch_slow: touch.mul_f64(SLOW_MULTIPLIER),
                zero_slow: zero.max(touch).mul_f64(SLOW_MULTIPLIER),
            });
        }
        mac
    }

    /// The parameters in use.
    pub fn params(&self) -> &MacParams {
        &self.params
    }

    /// Takes and resets the accumulated overhead statistics.
    pub fn take_stats(&self) -> MacStats {
        std::mem::take(&mut self.stats.borrow_mut())
    }

    /// Allocates between `min` and `max` bytes, in multiples of `multiple`,
    /// returning `None` if `min` bytes are not available now (the paper's
    /// NULL return): the caller waits, and asks again when it chooses.
    /// This is [`Mac::admit_all`] of the one request, so the grant is
    /// probed, first-touched and verified resident like any pooled one.
    ///
    /// An application that cannot adapt its memory use passes
    /// `min == max`.
    ///
    /// # Panics
    ///
    /// Panics if `multiple` is zero or `min > max`.
    pub fn gb_alloc(&self, min: u64, max: u64, multiple: u64) -> OsResult<Option<GbAlloc>> {
        let request = AdmissionRequest { min, max, multiple };
        Ok(self.admit_all(&[request])?.pop().flatten())
    }

    /// Releases an allocation made by [`Mac::gb_alloc`].
    pub fn gb_free(&self, alloc: GbAlloc) -> OsResult<()> {
        self.os.mem_free(alloc.region)
    }

    /// Admits every request against one shared availability probe — MAC's
    /// one grant path ([`Mac::gb_alloc`] is this with one request).
    ///
    /// Back-to-back single requests would each run their own probe, and
    /// each probe allocates and touches memory, perturbing exactly what the
    /// next caller is about to measure. Here one
    /// [`Mac::available_estimate`] pass, bounded by the sum of the
    /// grantable requests' (rounded) maxima, serves them all, and grants
    /// are carved from it in request order: each request gets
    /// `min(remaining, max)` rounded down to its multiple, provided that
    /// still covers its minimum. Every grant is first-touched with
    /// page-daemon detection and verified resident, so a grant that comes
    /// back `None` means the shared estimate went stale (memory was taken
    /// between the probe and the grant). The remaining budget is then
    /// halved before the next request: the estimate overstated reality.
    ///
    /// Returns one slot per request, in request order: `Some(alloc)` on
    /// success, `None` if the request was not admitted or its grant went
    /// stale. On `Err` every grant already made has been freed.
    ///
    /// # Panics
    ///
    /// Panics, before probing, if any request has a zero `multiple` or
    /// `min > max`.
    pub fn admit_all(&self, requests: &[AdmissionRequest]) -> OsResult<Vec<Option<GbAlloc>>> {
        let bounds: Vec<(u64, u64)> = requests.iter().map(AdmissionRequest::bounds).collect();
        self.stats.borrow_mut().attempts += requests.len() as u64;
        // A request whose rounded bounds cross is never granted, so it
        // adds nothing to the probe.
        let ceiling = bounds
            .iter()
            .filter(|(min, max)| min <= max)
            .fold(0u64, |sum, &(_, max)| sum.saturating_add(max));
        let mut remaining = self.available_estimate(ceiling)?;
        let mut grants = Vec::with_capacity(requests.len());
        for (req, &(min, max)) in requests.iter().zip(&bounds) {
            let deny = || {
                trace::emit_with(|| TraceEvent::AdmissionDecision {
                    source: "mac.admit_all",
                    requested: req.max,
                    granted: 0,
                })
            };
            // A request whose rounded bounds cross is denied here too:
            // its grant is at most `max`, which is below its `min`.
            let grant = round_down(remaining.min(max), req.multiple);
            if grant < min {
                deny();
                grants.push(None);
                continue;
            }
            let admitted = match self.grant(grant) {
                Ok(admitted) => admitted,
                Err(e) => {
                    // Simulated memory outlives the caller's process (gbd
                    // serves a whole fleet from one machine): give back
                    // what was already granted before reporting the error.
                    for alloc in grants.into_iter().flatten() {
                        self.gb_free(alloc)?;
                    }
                    return Err(e);
                }
            };
            match admitted {
                Some(alloc) => {
                    remaining -= alloc.bytes;
                    trace::emit_with(|| TraceEvent::AdmissionDecision {
                        source: "mac.admit_all",
                        requested: req.max,
                        granted: alloc.bytes,
                    });
                    grants.push(Some(alloc));
                }
                None => {
                    remaining /= 2;
                    trace::emit_with(|| TraceEvent::ThresholdCrossed {
                        what: "mac.admit_all.stale_grant",
                        value: grant as f64,
                        threshold: remaining as f64,
                    });
                    deny();
                    grants.push(None);
                }
            }
        }
        Ok(grants)
    }

    /// Allocates exactly `bytes` (positive) that [`Mac::admit_all`]'s
    /// probe pass already admitted, without re-probing availability. The
    /// first-touch loop keeps the page-daemon run detection, and the region
    /// is verified resident afterwards, so if the estimate went stale
    /// between the probe pass and this grant (a competitor grabbed memory),
    /// the grant fails with `None` rather than silently overcommitting.
    fn grant(&self, bytes: u64) -> OsResult<Option<GbAlloc>> {
        let th = self.ensure_thresholds()?;
        let probe_start = self.os.now();
        let region = self.os.mem_alloc(bytes)?;
        let pages = bytes.div_ceil(self.os.page_size());
        // First loop: materialize the grant; a page-daemon run means the
        // estimate is stale. Second loop: verify residency. A failed touch
        // gives the region back before the error goes up.
        let checked = self
            .first_touch(region, 0..pages, th)
            .and_then(|daemon| match daemon {
                Some(_) => Ok(false),
                None => self.verify_resident(region, pages, th),
            });
        let fits = match checked {
            Ok(fits) => fits,
            Err(e) => {
                self.os.mem_free(region)?;
                return Err(e);
            }
        };
        self.stats.borrow_mut().probe_time += self.os.now().since(probe_start);
        if !fits {
            self.os.mem_free(region)?;
            return Ok(None);
        }
        Ok(Some(GbAlloc { region, bytes }))
    }

    /// Estimates currently available memory, in bytes, without retaining
    /// it: the largest amount that fits right now, at most `ceiling`.
    /// `ceiling` bounds the search (and the probe cost) under MAC's one
    /// byte-to-page rule: a byte bound covers `bound.div_ceil(page)` pages,
    /// and the answer is clamped back to the bound. [`Mac::admit_all`]
    /// sizes its grants from this answer, so an exact request that is not
    /// a whole number of pages can still be granted in full.
    ///
    /// Probing runs up to two rounds. Round one grows until it either
    /// covers the ceiling cleanly or hits a boundary (the page daemon
    /// fired, or verification failed). A boundary probe leaves its own
    /// region partly swapped, which poisons further measurement of it — so
    /// round two releases everything and re-probes a *fresh* region with
    /// the ceiling clamped just below the detected boundary, where
    /// verification can succeed cleanly. (The cost of the second round is
    /// part of the probe overhead the paper reports.) The scratch regions
    /// are freed before returning.
    pub fn available_estimate(&self, ceiling: u64) -> OsResult<u64> {
        let page = self.os.page_size();
        // Capped so the probe region's size in bytes still fits a `u64`.
        let pages = ceiling.div_ceil(page).min(u64::MAX / page);
        let fit = if pages == 0 {
            0
        } else {
            (self.fit_pages(pages, page)? * page).min(ceiling)
        };
        trace::emit_with(|| TraceEvent::Estimated {
            quantity: "mac.available_bytes",
            value: fit as f64,
        });
        Ok(fit)
    }

    /// The probe rounds of [`Mac::available_estimate`] over at most
    /// `pages` (positive) pages; returns the pages that fit.
    fn fit_pages(&self, pages: u64, page: u64) -> OsResult<u64> {
        let thresholds = self.ensure_thresholds()?;
        let init_pages = (self.params.initial_increment / page).max(1);
        let mut ceiling = pages;
        for round in 0..2 {
            let region = self.os.mem_alloc(ceiling * page)?;
            let outcome = self.probe_region(region, ceiling, page, thresholds);
            self.os.mem_free(region)?;
            let (good, boundary) = outcome?;
            match boundary {
                None => return Ok(good),
                Some(b) if round == 0 => {
                    ceiling = b.saturating_sub(init_pages).max(good).max(1);
                }
                Some(_) => return Ok(good),
            }
        }
        unreachable!("two rounds always return");
    }

    /// One probing round over `region`. Returns `(good_pages, boundary)`:
    /// `good_pages` is the largest verified-resident size; `boundary` is
    /// `Some(point)` when probing stopped early at that point (daemon
    /// activity or a failed verification) rather than covering the whole
    /// region.
    fn probe_region(
        &self,
        region: MemRegion,
        max_pages: u64,
        page: u64,
        th: Thresholds,
    ) -> OsResult<(u64, Option<u64>)> {
        let mut good_pages = 0u64;
        let mut increment_pages = (self.params.initial_increment / page).max(1);
        let max_increment_pages = (self.params.max_increment / page).max(1);
        let probe_start = self.os.now();
        let mut result = (0u64, None);

        while good_pages < max_pages {
            let target = (good_pages + increment_pages).min(max_pages);

            // First loop: move the new chunk to a known state. If the
            // daemon fires we stop touching promptly — pressing on would
            // force other processes' memory out (MAC must assume their
            // resident pages are their working sets).
            let daemon_at = self.first_touch(region, good_pages..target, th)?;

            // Second loop: verify that everything touched so far is still
            // resident (only materialized pages can be meaningfully
            // verified).
            let candidate = daemon_at.map_or(target, |page| page + 1);
            let fits = self.verify_resident(region, candidate, th)?;

            if fits {
                good_pages = candidate;
                if daemon_at.is_some() {
                    // It fits, but our growth activated the page daemon:
                    // stop here rather than squeeze competitors further.
                    result = (good_pages, Some(candidate));
                    break;
                }
                result = (good_pages, None);
                increment_pages = (increment_pages * 2).min(max_increment_pages);
            } else {
                // Too large: report the last verified amount and where the
                // boundary was observed.
                result = (good_pages, Some(candidate));
                break;
            }
        }

        self.stats.borrow_mut().probe_time += self.os.now().since(probe_start);
        Ok(result)
    }

    /// The first loop: write-touches `pages` of `region` in sub-batches,
    /// watching for runs of [`SLOW_RUN_THRESHOLD`] slow points that betray
    /// the page daemon. Returns the page at which the daemon was suspected
    /// (touching stopped there, so the sweep overshoots the daemon's
    /// wake-up by less than one sub-batch), or `None` when every page was
    /// touched.
    fn first_touch(
        &self,
        region: MemRegion,
        pages: Range<u64>,
        th: Thresholds,
    ) -> OsResult<Option<u64>> {
        let mut slow_run = 0usize;
        for batch in sub_batches(pages) {
            let samples = self.probe_pages(region, batch);
            self.stats.borrow_mut().pages_probed += samples.len() as u64;
            for s in &samples {
                if !s.ok {
                    return Err(OsError::InvalidArgument);
                }
                if s.elapsed > th.zero_slow {
                    slow_run += 1;
                    if slow_run >= SLOW_RUN_THRESHOLD {
                        trace::emit_with(|| TraceEvent::ThresholdCrossed {
                            what: "mac.page_daemon",
                            value: slow_run as f64,
                            threshold: SLOW_RUN_THRESHOLD as f64,
                        });
                        return Ok(Some(s.offset));
                    }
                } else {
                    slow_run = 0;
                }
            }
        }
        Ok(None)
    }

    /// One sub-batch of timed write-touches: pages `batch` of `region`.
    fn probe_pages(&self, region: MemRegion, batch: Range<u64>) -> Vec<ProbeSample> {
        let mut plan = self.plan.borrow_mut();
        plan.clear();
        plan.extend(batch);
        self.os.mem_probe_batch(region, &plan)
    }

    /// Timed re-touch of pages `0..pages`; true if at most the tolerated
    /// fraction was slow.
    fn verify_resident(&self, region: MemRegion, pages: u64, th: Thresholds) -> OsResult<bool> {
        if pages == 0 {
            return Ok(true);
        }
        let allowed = (pages as f64 * SLOW_TOLERANCE).floor() as u64;
        // The verdict is monotone in the slow count, so batching reaches
        // the same answer the scalar early-exit loop did. Batches stay
        // bounded (rather than one whole-region batch) so competitors
        // still get scheduled mid-verification — an atomic full-region
        // re-touch would hide exactly the competition this check exists
        // to detect.
        let mut slow = 0u64;
        for batch in sub_batches(0..pages) {
            let samples = self.probe_pages(region, batch);
            self.stats.borrow_mut().pages_probed += samples.len() as u64;
            for s in &samples {
                if !s.ok {
                    return Err(OsError::InvalidArgument);
                }
                if s.elapsed > th.touch_slow {
                    slow += 1;
                    if slow > allowed {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Self-calibration: measure resident-touch and allocate-zero costs on
    /// a small scratch region that certainly fits in memory.
    fn ensure_thresholds(&self) -> OsResult<Thresholds> {
        if let Some(th) = *self.thresholds.borrow() {
            return Ok(th);
        }
        let (touch, zero) = page_cost_medians(self.os)?;
        // Calibrate the timer's own granularity: with a coarse clock
        // (e.g. microsecond gettimeofday), sub-quantum touches measure as
        // zero and a naive multiple-of-the-median threshold classifies
        // everything as slow. Floor the thresholds at a few quanta.
        let mut quantum = u64::MAX;
        for _ in 0..32 {
            let t0 = self.os.now();
            let t1 = self.os.now();
            let d = t1.since(t0).as_nanos();
            if d > 0 {
                quantum = quantum.min(d);
            }
        }
        let quantum = if quantum == u64::MAX { 1 } else { quantum };
        let floor = (quantum * 4) as f64;
        let th = Thresholds {
            touch_slow: GrayDuration::from_nanos((touch * SLOW_MULTIPLIER).max(floor) as u64),
            zero_slow: GrayDuration::from_nanos((zero * SLOW_MULTIPLIER).max(floor) as u64),
        };
        *self.thresholds.borrow_mut() = Some(th);
        Ok(th)
    }
}

/// The calibration pass: write-touches [`CALIBRATION_PAGES`] fresh pages
/// in four rounds. Round 0 pays allocation and zeroing, round 1 settles,
/// and rounds 2 and 3 are resident re-touches. Returns the medians of the
/// resident touches and of the first touches, in nanoseconds (the first
/// at least 1, the second at least the first). MAC scales its thresholds
/// from them, and the microbenchmark suite publishes them
/// ([`crate::microbench::Microbench::page_costs`]).
///
/// A re-touch median above the first-touch median means the region did
/// not fit and the re-touches were swap-ins: the pass runs again on half
/// as many pages, down to [`CALIBRATION_FLOOR_PAGES`], rather than scale
/// "resident" thresholds from paging.
pub(crate) fn page_cost_medians<O: GrayBoxOs>(os: &O) -> OsResult<(f64, f64)> {
    let mut pages = CALIBRATION_PAGES;
    loop {
        let (touch, zero) = time_page_costs(os, pages)?;
        if touch <= zero || pages <= CALIBRATION_FLOOR_PAGES {
            let touch = touch.max(1.0);
            return Ok((touch, zero.max(touch)));
        }
        pages /= 2;
    }
}

/// One calibration pass over `pages` fresh pages: the raw medians of the
/// resident and the first touches. The scratch region is freed on every
/// path.
fn time_page_costs<O: GrayBoxOs>(os: &O, pages: u64) -> OsResult<(f64, f64)> {
    let region = os.mem_alloc(pages * os.page_size())?;
    let plan: Vec<u64> = (0..pages).collect();
    let mut zero_times = Vec::new();
    let mut touch_times = Vec::with_capacity(2 * pages as usize);
    for round in 0..4 {
        let samples = os.mem_probe_batch(region, &plan);
        if samples.iter().any(|s| !s.ok) {
            os.mem_free(region)?;
            return Err(OsError::InvalidArgument);
        }
        let times = samples.iter().map(|s| s.elapsed.as_nanos() as f64);
        match round {
            0 => zero_times.extend(times),
            1 => {}
            _ => touch_times.extend(times),
        }
    }
    os.mem_free(region)?;
    let median = |times: &[f64]| Summary::new(times).median();
    Ok((median(&touch_times), median(&zero_times)))
}

/// `pages` cut into runs of at most [`SUB_BATCH_PAGES`], in order.
fn sub_batches(pages: Range<u64>) -> impl Iterator<Item = Range<u64>> {
    let end = pages.end;
    pages
        .step_by(SUB_BATCH_PAGES as usize)
        .map(move |start| start..(start + SUB_BATCH_PAGES).min(end))
}

/// `x` rounded down to a multiple of `m`: how a grant is cut to its
/// request's `multiple`.
fn round_down(x: u64, m: u64) -> u64 {
    x / m * m
}

/// How MAC maps onto the paper's technique taxonomy (Table 2).
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "MAC",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "Replacement defines working set",
            ),
            (Technique::MonitorOutputs, "Per-page write-touch times"),
            (Technique::StatisticalMethods, "Median calib, slow runs"),
            (Technique::Microbenchmarks, "Touch/zero costs from repo"),
            (Technique::InsertProbes, "Two-loop page writes"),
            (Technique::KnownState, "First loop makes chunk resident"),
            (Technique::Feedback, "AIMD-style increment growth"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn techniques_include_known_state_and_feedback() {
        let inv = techniques();
        assert!(inv.uses(Technique::KnownState));
        assert!(inv.uses(Technique::Feedback));
        assert!(inv.uses(Technique::InsertProbes));
    }

    #[test]
    fn rounding_helpers() {
        assert_eq!(round_down(5, 4), 4);
        assert_eq!(round_down(8, 4), 8);
        assert_eq!(round_down(3, 4), 0);
    }

    #[test]
    fn requests_round_min_up_and_max_down() {
        let req = |min, max, multiple| AdmissionRequest { min, max, multiple }.bounds();
        assert_eq!(req(10, 20, 4), (12, 20));
        assert_eq!(req(0, 7, 4), (4, 4));
        // Bounds that cross leave no grant: 5..=7 holds no multiple of 4.
        assert_eq!(req(5, 7, 4), (8, 4));
        assert_eq!(req(0, 0, 4), (4, 0));
    }

    #[test]
    #[should_panic(expected = "multiple must be positive")]
    fn zero_multiple_rejected() {
        AdmissionRequest {
            min: 1,
            max: 2,
            multiple: 0,
        }
        .bounds();
    }
}
