//! WBD — the Writeback/Dirty-page Detector (a fourth ICL).
//!
//! The paper's ICLs infer *read-side* cache state (FCCD), layout (FLDC),
//! and memory pressure (MAC). WBD extends the same gray-box methodology to
//! the *write* path: it infers how many dirty pages the OS is holding and
//! whether the periodic writeback daemon has flushed them, without any
//! kernel interface exposing either.
//!
//! # Gray-box knowledge
//!
//! Two coarse assumptions, true of every target platform: writes are
//! buffered (a `write` dirties cached pages and returns fast), and `sync`
//! must push every dirty page to disk before returning — so **the cost of
//! `sync` is proportional to the dirty residue**. That proportionality is
//! the side channel: one timed `sync` reveals approximately how many dirty
//! pages existed the instant it was issued.
//!
//! # Method
//!
//! WBD first *calibrates*: it times `sync` on a drained system (the
//! intercept), then dirties a known number of scratch-file pages and times
//! `sync` again (the slope). The per-page cost learned this way converts
//! any later timed `sync` into an estimated dirty-page count. Like FCCD's
//! probes, the measurement is destructive — the timed `sync` flushes the
//! very residue it measures (the Heisenberg effect, write-side edition) —
//! so callers sample sparsely and treat each estimate as a snapshot.
//!
//! Calibration is approximate by design: creating the scratch file may
//! dirty metadata pages too, and on a seeking disk every written run also
//! pays a seek and a rotational wait that a straight line spreads over
//! pages. Small residues therefore read high; on simos, 18 dirty pages
//! read as 25–46 at a 16-page calibration. Estimates are rounded to the
//! nearest page and are enough for the covert-channel receiver's "at
//! least half a group" rule and for flushed/not-flushed verdicts, not
//! for an exact count.

use gray_toolbox::trace::{self, TraceEvent};
use gray_toolbox::GrayDuration;

use crate::os::{GrayBoxOs, OsResult};
use crate::technique::{Technique, TechniqueInventory};

/// Floor for the learned per-page cost, so a degenerate calibration (e.g.
/// a backend with free syncs) cannot divide by zero downstream.
pub const MIN_PAGE_COST: GrayDuration = GrayDuration::from_nanos(1);

/// Tuning parameters for the detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WbdParams {
    /// Path of the scratch file calibration creates, dirties, and unlinks.
    pub scratch_path: String,
    /// Number of scratch pages calibration dirties. More pages average
    /// out fixed per-sync overhead but write more.
    pub calib_pages: u64,
}

impl Default for WbdParams {
    fn default() -> Self {
        WbdParams {
            scratch_path: "/.wbd_scratch".to_string(),
            calib_pages: 32,
        }
    }
}

/// The learned cost model of `sync`: intercept and slope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WbdCalibration {
    /// Cost of a `sync` with no dirty residue (the intercept).
    pub clean_sync: GrayDuration,
    /// Marginal cost per dirty page (the slope); never zero.
    pub page_cost: GrayDuration,
}

impl WbdCalibration {
    /// The line through a clean `sync` (the intercept) and a `sync` that
    /// flushed `pages` dirty pages: the slope is their difference per
    /// page, floored at [`MIN_PAGE_COST`].
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub(crate) fn from_syncs(
        clean_sync: GrayDuration,
        dirty_sync: GrayDuration,
        pages: u64,
    ) -> Self {
        WbdCalibration {
            clean_sync,
            page_cost: (dirty_sync.saturating_sub(clean_sync) / pages).max(MIN_PAGE_COST),
        }
    }

    /// Converts an observed `sync` cost into an estimated dirty-page
    /// count: excess over the clean intercept, divided by the per-page
    /// slope, rounded to the nearest page. A `sync` at or below the
    /// intercept estimates zero.
    pub fn estimate_pages(&self, observed: GrayDuration) -> u64 {
        let excess = observed.saturating_sub(self.clean_sync).as_nanos();
        let per = self.page_cost.as_nanos().max(1);
        (excess + per / 2) / per
    }
}

/// The Writeback/Dirty-page Detector.
///
/// See the [module documentation](self) for the method. Like the other
/// ICLs, it is generic over [`GrayBoxOs`] and learns only from timing.
pub struct Wbd<'a, O: GrayBoxOs> {
    os: &'a O,
    params: WbdParams,
}

impl<'a, O: GrayBoxOs> Wbd<'a, O> {
    /// Creates a detector over the given OS with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.calib_pages` is zero.
    pub fn new(os: &'a O, params: WbdParams) -> Self {
        assert!(params.calib_pages > 0, "at least one calibration page");
        Wbd { os, params }
    }

    /// The parameters in use.
    pub fn params(&self) -> &WbdParams {
        &self.params
    }

    /// One timed `sync` — the raw probe. Destructive: whatever residue it
    /// measures is flushed by the measurement.
    pub fn sync_cost(&self) -> OsResult<GrayDuration> {
        let (res, elapsed) = self.os.timed(|os| os.sync());
        res?;
        Ok(elapsed)
    }

    /// Learns the `sync` cost model: drains existing residue, times a
    /// clean `sync` (intercept), then dirties [`WbdParams::calib_pages`]
    /// scratch pages and times the `sync` that flushes them (slope, floored
    /// at [`MIN_PAGE_COST`]).
    pub fn calibrate(&self) -> OsResult<WbdCalibration> {
        self.os.sync()?;
        let clean_sync = self.sync_cost()?;
        let bytes = self.params.calib_pages * self.os.page_size();
        let fd = self.os.create(&self.params.scratch_path)?;
        self.os.write_fill(fd, 0, bytes)?;
        let dirty_sync = self.sync_cost()?;
        self.os.close(fd)?;
        self.os.unlink(&self.params.scratch_path)?;
        let cal = WbdCalibration::from_syncs(clean_sync, dirty_sync, self.params.calib_pages);
        trace::emit_with(|| TraceEvent::Estimated {
            quantity: "wbd.page_cost_ns",
            value: cal.page_cost.as_nanos() as f64,
        });
        Ok(cal)
    }

    /// Estimates the system's current dirty residue in pages with one
    /// timed `sync` (destructive — see [`Wbd::sync_cost`]).
    pub fn residue_pages(&self, cal: &WbdCalibration) -> OsResult<u64> {
        let observed = self.sync_cost()?;
        let estimate = cal.estimate_pages(observed);
        trace::emit_with(|| TraceEvent::Estimated {
            quantity: "wbd.dirty_pages",
            value: estimate as f64,
        });
        Ok(estimate)
    }

    /// Whether a write of `expected_pages` pages has already been flushed
    /// (by the writeback daemon or anyone else): true when the estimated
    /// residue is below half the expected count. Destructive — the probe
    /// itself flushes whatever residue remained.
    pub fn flushed(&self, cal: &WbdCalibration, expected_pages: u64) -> OsResult<bool> {
        let residue = self.residue_pages(cal)?;
        trace::emit_with(|| TraceEvent::ThresholdCrossed {
            what: "wbd.flushed",
            value: residue as f64,
            threshold: expected_pages as f64 / 2.0,
        });
        Ok(residue * 2 < expected_pages)
    }
}

/// How WBD maps onto the paper's technique taxonomy (Table 2).
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "WBD",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "sync cost grows with dirty residue",
            ),
            (Technique::MonitorOutputs, "Time whole-system syncs"),
            (
                Technique::StatisticalMethods,
                "Linear fit: intercept + slope",
            ),
            (Technique::Microbenchmarks, "Scratch-file slope calibration"),
            (Technique::InsertProbes, "Timed sync as probe"),
            (Technique::KnownState, "Probe drains residue to zero"),
            (Technique::Feedback, "None"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_rounds_to_the_nearest_page() {
        let cal = WbdCalibration {
            clean_sync: GrayDuration::from_micros(10),
            page_cost: GrayDuration::from_millis(2),
        };
        let base = GrayDuration::from_micros(10);
        assert_eq!(cal.estimate_pages(GrayDuration::ZERO), 0);
        assert_eq!(cal.estimate_pages(base), 0);
        assert_eq!(cal.estimate_pages(base + GrayDuration::from_millis(2)), 1);
        assert_eq!(cal.estimate_pages(base + GrayDuration::from_millis(3)), 2);
        assert_eq!(cal.estimate_pages(base + GrayDuration::from_millis(20)), 10);
    }

    #[test]
    fn degenerate_calibration_keeps_a_positive_slope() {
        let clean = GrayDuration::from_micros(10);
        let fit = |dirty| WbdCalibration::from_syncs(clean, dirty, 16);
        // Sixteen pages at 2 ms each: the slope is exact.
        assert_eq!(
            fit(clean + GrayDuration::from_millis(32)).page_cost,
            GrayDuration::from_millis(2)
        );
        // Free syncs (zero per-page cost) must not yield a zero slope, nor
        // a dirty sync that came out cheaper than the clean one.
        for dirty in [clean, GrayDuration::from_micros(5)] {
            let cal = fit(dirty);
            assert_eq!(cal.page_cost, MIN_PAGE_COST);
            assert_eq!(cal.estimate_pages(cal.clean_sync), 0);
        }
    }

    #[test]
    fn techniques_cover_probes_and_known_state() {
        let inv = techniques();
        assert!(inv.uses(Technique::InsertProbes));
        assert!(inv.uses(Technique::KnownState));
        assert!(!inv.uses(Technique::Feedback));
    }
}
