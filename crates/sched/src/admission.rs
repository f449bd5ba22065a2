//! MAC admission queue: pending `gb_alloc` requests share one
//! probe-and-verify calibration pass.
//!
//! When several gray-box allocators call `Mac::gb_alloc` back to back,
//! each runs its own availability probe — and each probe *allocates and
//! touches* memory, perturbing exactly the quantity the next caller is
//! about to measure. The admission queue fixes the stampede: requests
//! accumulate, then [`MacAdmissionQueue::admit_all`] runs a single
//! `available_estimate` probe pass and carves FIFO grants out of that one
//! estimate via `Mac::gb_alloc_admitted` (which still first-touches and
//! verifies residency per grant, so stale estimates fail closed instead
//! of overcommitting).

use gray_toolbox::trace::{self, TraceEvent};
use graybox::mac::{round_down, GbAlloc, Mac};
use graybox::os::{GrayBoxOs, OsResult};

/// One pending `gb_alloc`-shaped request: at least `min`, at most `max`,
/// in units of `multiple` (all in bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRequest {
    /// Smallest useful grant; the request fails rather than take less.
    pub min: u64,
    /// Largest useful grant.
    pub max: u64,
    /// Grants are rounded down to a multiple of this (e.g. a sort's
    /// record size). Must be positive.
    pub multiple: u64,
}

/// Redeems one request's slot in the result of
/// [`MacAdmissionQueue::admit_all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionTicket(usize);

impl AdmissionTicket {
    /// The request's index into the `admit_all` result vector.
    pub fn index(self) -> usize {
        self.0
    }
}

/// FIFO queue of allocation requests admitted against one shared probe.
#[derive(Debug, Default)]
pub struct MacAdmissionQueue {
    requests: Vec<AdmissionRequest>,
}

impl MacAdmissionQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        MacAdmissionQueue::default()
    }

    /// Enqueues a request.
    ///
    /// # Panics
    ///
    /// Panics if `multiple` is zero or `min > max` (same contract as
    /// `Mac::gb_alloc`).
    pub fn submit(&mut self, req: AdmissionRequest) -> AdmissionTicket {
        assert!(req.multiple > 0, "multiple must be positive");
        assert!(req.min <= req.max, "min exceeds max");
        self.requests.push(req);
        AdmissionTicket(self.requests.len() - 1)
    }

    /// Number of requests waiting.
    pub fn pending(&self) -> usize {
        self.requests.len()
    }

    /// Admits every queued request against one shared availability probe.
    ///
    /// Runs a single `available_estimate` pass bounded by the sum of the
    /// (rounded) maxima, then grants FIFO: each request gets
    /// `min(remaining, max)` rounded down to its multiple, provided that
    /// still covers its minimum. Each grant is materialized through
    /// `Mac::gb_alloc_admitted`, which first-touches with page-daemon
    /// detection and verifies residency — a grant that comes back `None`
    /// means the shared estimate went stale (memory was taken between the
    /// probe and the grant), so the queue halves its remaining budget
    /// before continuing: the conservative reaction to discovering the
    /// estimate overstated reality.
    ///
    /// Returns one slot per request, in submission order (index with the
    /// ticket): `Some(alloc)` on success, `None` if the request was not
    /// admitted or its grant went stale. The queue is drained. On `Err`
    /// every grant already made has been freed.
    pub fn admit_all<O: GrayBoxOs>(&mut self, mac: &Mac<'_, O>) -> OsResult<Vec<Option<GbAlloc>>> {
        let requests = std::mem::take(&mut self.requests);
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let ceiling = requests.iter().fold(0u64, |sum, r| {
            sum.saturating_add(round_down(r.max, r.multiple))
        });
        if ceiling == 0 {
            return Ok(requests.iter().map(|_| None).collect());
        }
        let mut remaining = mac.available_estimate(ceiling)?;
        let mut grants = Vec::with_capacity(requests.len());
        for req in &requests {
            let min = req.min.max(req.multiple).next_multiple_of(req.multiple);
            let max = round_down(req.max, req.multiple);
            if max == 0 || min > max {
                trace::emit_with(|| TraceEvent::AdmissionDecision {
                    source: "sched.admission",
                    requested: req.max,
                    granted: 0,
                });
                grants.push(None);
                continue;
            }
            let grant = round_down(remaining.min(max), req.multiple);
            if grant < min {
                trace::emit_with(|| TraceEvent::AdmissionDecision {
                    source: "sched.admission",
                    requested: req.max,
                    granted: 0,
                });
                grants.push(None);
                continue;
            }
            let admitted = match mac.gb_alloc_admitted(grant) {
                Ok(admitted) => admitted,
                Err(e) => {
                    // Simulated memory outlives the caller's process (gbd
                    // serves a whole fleet from one machine): give back
                    // what was already granted before reporting the error.
                    for alloc in grants.into_iter().flatten() {
                        mac.gb_free(alloc)?;
                    }
                    return Err(e);
                }
            };
            match admitted {
                Some(alloc) => {
                    remaining -= alloc.bytes;
                    trace::emit_with(|| TraceEvent::AdmissionDecision {
                        source: "sched.admission",
                        requested: req.max,
                        granted: alloc.bytes,
                    });
                    grants.push(Some(alloc));
                }
                None => {
                    remaining /= 2;
                    trace::emit_with(|| TraceEvent::ThresholdCrossed {
                        what: "sched.admission.stale_grant",
                        value: grant as f64,
                        threshold: remaining as f64,
                    });
                    trace::emit_with(|| TraceEvent::AdmissionDecision {
                        source: "sched.admission",
                        requested: req.max,
                        granted: 0,
                    });
                    grants.push(None);
                }
            }
        }
        Ok(grants)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    use gray_toolbox::{GrayDuration, Nanos};
    use graybox::mac::MacParams;
    use graybox::os::{Fd, MemRegion, ProbeSample, Stat};
    use simos::{Sim, SimConfig, SimProc};

    #[test]
    fn tickets_index_submission_order() {
        let mut q = MacAdmissionQueue::new();
        let a = q.submit(AdmissionRequest {
            min: 10,
            max: 20,
            multiple: 1,
        });
        let b = q.submit(AdmissionRequest {
            min: 5,
            max: 5,
            multiple: 1,
        });
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(q.pending(), 2);
    }

    #[test]
    #[should_panic(expected = "multiple must be positive")]
    fn zero_multiple_rejected() {
        MacAdmissionQueue::new().submit(AdmissionRequest {
            min: 1,
            max: 2,
            multiple: 0,
        });
    }

    const PAGE: u64 = 4096;

    /// A simulated process, except that its `fail_at`-th write-touch
    /// through `mem_probe_batch` (counted over the wrapper's life) comes
    /// back `ok: false`.
    struct FailingTouch<'a> {
        os: &'a SimProc,
        fail_at: u64,
        touches: Cell<u64>,
    }

    impl GrayBoxOs for FailingTouch<'_> {
        fn now(&self) -> Nanos {
            self.os.now()
        }
        fn page_size(&self) -> u64 {
            self.os.page_size()
        }
        fn open(&self, path: &str) -> OsResult<Fd> {
            self.os.open(path)
        }
        fn create(&self, path: &str) -> OsResult<Fd> {
            self.os.create(path)
        }
        fn close(&self, fd: Fd) -> OsResult<()> {
            self.os.close(fd)
        }
        fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize> {
            self.os.read_at(fd, offset, buf)
        }
        fn read_discard(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
            self.os.read_discard(fd, offset, len)
        }
        fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> OsResult<usize> {
            self.os.write_at(fd, offset, data)
        }
        fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
            self.os.write_fill(fd, offset, len)
        }
        fn file_size(&self, fd: Fd) -> OsResult<u64> {
            self.os.file_size(fd)
        }
        fn sync(&self) -> OsResult<()> {
            self.os.sync()
        }
        fn stat(&self, path: &str) -> OsResult<Stat> {
            self.os.stat(path)
        }
        fn list_dir(&self, path: &str) -> OsResult<Vec<String>> {
            self.os.list_dir(path)
        }
        fn mkdir(&self, path: &str) -> OsResult<()> {
            self.os.mkdir(path)
        }
        fn rmdir(&self, path: &str) -> OsResult<()> {
            self.os.rmdir(path)
        }
        fn unlink(&self, path: &str) -> OsResult<()> {
            self.os.unlink(path)
        }
        fn rename(&self, from: &str, to: &str) -> OsResult<()> {
            self.os.rename(from, to)
        }
        fn set_times(&self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()> {
            self.os.set_times(path, atime, mtime)
        }
        fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion> {
            self.os.mem_alloc(bytes)
        }
        fn mem_free(&self, region: MemRegion) -> OsResult<()> {
            self.os.mem_free(region)
        }
        fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()> {
            self.os.mem_touch_write(region, page)
        }
        fn mem_touch_read(&self, region: MemRegion, page: u64) -> OsResult<u8> {
            self.os.mem_touch_read(region, page)
        }
        fn compute(&self, work: GrayDuration) {
            self.os.compute(work)
        }
        fn sleep(&self, d: GrayDuration) {
            self.os.sleep(d)
        }
        fn yield_now(&self) {
            self.os.yield_now()
        }
        fn mem_probe_batch(&self, region: MemRegion, pages: &[u64]) -> Vec<ProbeSample> {
            let mut samples = self.os.mem_probe_batch(region, pages);
            for s in &mut samples {
                self.touches.set(self.touches.get() + 1);
                s.ok &= self.touches.get() != self.fail_at;
            }
            samples
        }
    }

    /// Every MAC entry point once, in order, freeing whatever it granted.
    fn every_entry_point(os: &FailingTouch<'_>) {
        let mac = Mac::new(
            os,
            MacParams {
                initial_increment: 4 * PAGE,
                max_increment: 64 * PAGE,
            },
        );
        let _ = mac.available_estimate(64 * PAGE);
        if let Ok(Some(alloc)) = mac.gb_alloc(8 * PAGE, 48 * PAGE, PAGE) {
            mac.gb_free(alloc).unwrap();
        }
        if let Ok(Some(alloc)) = mac.gb_alloc_admitted(32 * PAGE) {
            mac.gb_free(alloc).unwrap();
        }
        let mut queue = MacAdmissionQueue::new();
        for _ in 0..3 {
            queue.submit(AdmissionRequest {
                min: 4 * PAGE,
                max: 16 * PAGE,
                multiple: PAGE,
            });
        }
        if let Ok(grants) = queue.admit_all(&mac) {
            for alloc in grants.into_iter().flatten() {
                mac.gb_free(alloc).unwrap();
            }
        }
    }

    /// Simulated memory is global, not per process: whatever a failed
    /// probe path does not give back stays resident for the machine's
    /// life (under gbd, the daemon's shared machine). Fail each touch of
    /// the whole sequence in turn, each on a fresh quiet machine of 256
    /// pages; nothing may stay resident.
    #[test]
    fn a_failed_touch_leaves_no_memory_resident() {
        // Returns (touches issued, pages resident after the sequence).
        let run = |fail_at| {
            let mut cfg = SimConfig::small().without_noise();
            cfg.mem_bytes = cfg.kernel_reserve_bytes + 256 * PAGE;
            let mut sim = Sim::new(cfg);
            let oracle = sim.oracle();
            let touches = sim.run_one(|os| {
                let failing = FailingTouch {
                    os,
                    fail_at,
                    touches: Cell::new(0),
                };
                every_entry_point(&failing);
                failing.touches.get()
            });
            (touches, oracle.resident_pages())
        };
        let (touches, resident) = run(0);
        assert_eq!(resident, 0);
        assert!(touches > 100, "{touches} touches");
        for k in 1..=touches {
            let (issued, resident) = run(k);
            assert!(issued >= k, "touch {k} was never issued");
            assert_eq!(resident, 0, "failing touch {k} of {touches} leaked memory");
        }
    }
}
