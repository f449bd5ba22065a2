//! Inference-accuracy scoring: joining trace events against the oracle.
//!
//! The paper scored FCCD by comparing its cached/uncached calls against a
//! modified kernel's per-page presence bitmaps, and MAC by comparing its
//! availability estimate against known memory pressure. This module is the
//! reproduction's scorer: it consumes the [`gray_toolbox::trace`] records an
//! instrumented run produced (the `Classified` and `Estimated` events the
//! ICLs emit) and joins them against [`crate::Oracle`] ground truth.
//!
//! Scoring happens strictly *after* the inference ran — the ICLs never see
//! the oracle, so the join cannot leak truth back into the gray-box code.

use gray_toolbox::trace::{TraceEvent, TraceRecord, Verdict};

use crate::oracle::Oracle;

/// Confusion-matrix tally of FCCD cached/uncached verdicts against the
/// oracle's residency ground truth.
///
/// "Positive" means *predicted cached*; truth is "majority of the file's
/// pages resident" (`cached_fraction >= 0.5`), matching the two-way
/// fast/slow split FCCD itself performs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FccdScore {
    /// Predicted cached, actually cached.
    pub true_positives: u64,
    /// Predicted cached, actually uncached.
    pub false_positives: u64,
    /// Predicted uncached, actually cached.
    pub false_negatives: u64,
    /// Predicted uncached, actually uncached.
    pub true_negatives: u64,
    /// `Classified` events that could not be joined (unit not a path the
    /// oracle resolves, or a non-FCCD verdict such as `Present`/`Absent`).
    pub skipped: u64,
}

impl FccdScore {
    /// Verdicts that were joined against ground truth.
    pub fn scored(&self) -> u64 {
        self.true_positives + self.false_positives + self.false_negatives + self.true_negatives
    }

    /// Fraction of predicted-cached calls that were right. `1.0` when
    /// nothing was predicted cached (vacuous precision, so an all-cold
    /// run with correct verdicts still scores perfectly).
    pub fn precision(&self) -> f64 {
        let predicted = self.true_positives + self.false_positives;
        if predicted == 0 {
            return 1.0;
        }
        self.true_positives as f64 / predicted as f64
    }

    /// Fraction of actually-cached files that were called cached. `1.0`
    /// when nothing was actually cached.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            return 1.0;
        }
        self.true_positives as f64 / actual as f64
    }

    /// Fraction of all joined verdicts that were right.
    pub fn accuracy(&self) -> f64 {
        let scored = self.scored();
        if scored == 0 {
            return 1.0;
        }
        (self.true_positives + self.true_negatives) as f64 / scored as f64
    }
}

/// Joins every FCCD `Classified` event in `records` against the oracle.
///
/// Only `Cached`/`Uncached` verdicts participate; `Present`/`Absent`
/// (fig1-style prediction units) and units the oracle cannot resolve are
/// counted in [`FccdScore::skipped`]. Truth for a file is
/// `oracle.cached_fraction(path) >= 0.5`.
///
/// Note the oracle reads *current* residency: score immediately after the
/// classification ran, before further workload perturbs the cache.
pub fn score_fccd(oracle: &Oracle, records: &[TraceRecord]) -> FccdScore {
    let mut score = FccdScore::default();
    for rec in records {
        let (unit, verdict) = match &rec.event {
            TraceEvent::Classified { unit, verdict } => (unit, *verdict),
            _ => continue,
        };
        let predicted_cached = match verdict {
            Verdict::Cached => true,
            Verdict::Uncached => false,
            Verdict::Present | Verdict::Absent => {
                score.skipped += 1;
                continue;
            }
        };
        tally(oracle, unit, predicted_cached, &mut score);
    }
    score
}

/// Joins `(path, predicted_cached)` verdicts directly against the
/// oracle — the tracer-free scoring path.
///
/// The global tracer serializes captures process-wide, so host-parallel
/// scenario cells cannot route verdicts through trace records. They
/// don't need to: a [`graybox::fccd::Classified`] already carries the
/// ranked verdicts, and this function scores them straight off the
/// result value. Semantics are identical to [`score_fccd`] (same truth
/// rule, same skip handling for unresolvable paths).
pub fn score_fccd_verdicts<'a>(
    oracle: &Oracle,
    verdicts: impl IntoIterator<Item = (&'a str, bool)>,
) -> FccdScore {
    let mut score = FccdScore::default();
    for (unit, predicted_cached) in verdicts {
        tally(oracle, unit, predicted_cached, &mut score);
    }
    score
}

/// Joins one verdict against ground truth and tallies it.
fn tally(oracle: &Oracle, unit: &str, predicted_cached: bool, score: &mut FccdScore) {
    let truth_cached = match oracle.cached_fraction(unit) {
        Ok(frac) => frac >= 0.5,
        Err(_) => {
            score.skipped += 1;
            return;
        }
    };
    match (predicted_cached, truth_cached) {
        (true, true) => score.true_positives += 1,
        (true, false) => score.false_positives += 1,
        (false, true) => score.false_negatives += 1,
        (false, false) => score.true_negatives += 1,
    }
}

/// MAC's final availability estimate joined against known free memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacScore {
    /// The last `Estimated { quantity: "mac.available_bytes" }` value.
    pub estimated_bytes: f64,
    /// Caller-supplied ground truth (e.g. free pages × page size at the
    /// moment the probe ran).
    pub truth_bytes: f64,
}

impl MacScore {
    /// `|estimate − truth| / truth`; `0.0` if truth is zero and the
    /// estimate agrees, `f64::INFINITY` if truth is zero and it doesn't.
    pub fn abs_error(&self) -> f64 {
        if self.truth_bytes == 0.0 {
            return if self.estimated_bytes == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        (self.estimated_bytes - self.truth_bytes).abs() / self.truth_bytes
    }
}

/// Extracts MAC's most recent availability estimate from `records` and
/// pairs it with `truth_bytes`. Returns `None` if no MAC `Estimated`
/// event is present (MAC never ran, or tracing was off).
pub fn score_mac(records: &[TraceRecord], truth_bytes: f64) -> Option<MacScore> {
    let estimated_bytes = records.iter().rev().find_map(|rec| match rec.event {
        TraceEvent::Estimated {
            quantity: "mac.available_bytes",
            value,
        } => Some(value),
        _ => None,
    })?;
    Some(MacScore {
        estimated_bytes,
        truth_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gray_toolbox::time::Nanos;

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq: 0,
            ts: Nanos(0),
            wave: None,
            span: String::new(),
            lane: 0,
            event,
        }
    }

    #[test]
    fn confusion_counts_and_rates() {
        let s = FccdScore {
            true_positives: 8,
            false_positives: 2,
            false_negatives: 1,
            true_negatives: 9,
            skipped: 3,
        };
        assert_eq!(s.scored(), 20);
        assert!((s.precision() - 0.8).abs() < 1e-12);
        assert!((s.recall() - 8.0 / 9.0).abs() < 1e-12);
        assert!((s.accuracy() - 17.0 / 20.0).abs() < 1e-12);
    }

    #[test]
    fn vacuous_rates_are_one() {
        let s = FccdScore::default();
        assert_eq!(s.precision(), 1.0);
        assert_eq!(s.recall(), 1.0);
        assert_eq!(s.accuracy(), 1.0);
    }

    #[test]
    fn mac_score_uses_last_estimate() {
        let records = vec![
            rec(TraceEvent::Estimated {
                quantity: "mac.available_bytes",
                value: 100.0,
            }),
            rec(TraceEvent::Estimated {
                quantity: "other.thing",
                value: 5.0,
            }),
            rec(TraceEvent::Estimated {
                quantity: "mac.available_bytes",
                value: 90.0,
            }),
        ];
        let score = score_mac(&records, 100.0).unwrap();
        assert_eq!(score.estimated_bytes, 90.0);
        assert!((score.abs_error() - 0.1).abs() < 1e-12);
        assert!(score_mac(&[], 100.0).is_none());
    }

    #[test]
    fn zero_truth_edge_cases() {
        let exact = MacScore {
            estimated_bytes: 0.0,
            truth_bytes: 0.0,
        };
        assert_eq!(exact.abs_error(), 0.0);
        let wrong = MacScore {
            estimated_bytes: 1.0,
            truth_bytes: 0.0,
        };
        assert!(wrong.abs_error().is_infinite());
    }
}
