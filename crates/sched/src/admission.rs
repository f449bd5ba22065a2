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
use graybox::mac::{GbAlloc, Mac};
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
    /// admitted or its grant went stale. The queue is drained.
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
            let min = round_up(req.min.max(req.multiple), req.multiple);
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
            match mac.gb_alloc_admitted(grant)? {
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

fn round_up(x: u64, m: u64) -> u64 {
    x.div_ceil(m) * m
}

fn round_down(x: u64, m: u64) -> u64 {
    (x / m) * m
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn rounding_helpers() {
        assert_eq!(round_up(10, 4), 12);
        assert_eq!(round_up(12, 4), 12);
        assert_eq!(round_down(10, 4), 8);
        assert_eq!(round_down(3, 4), 0);
    }
}
