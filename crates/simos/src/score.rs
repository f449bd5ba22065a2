//! Inference-accuracy scoring: joining ICL verdicts against the oracle.
//!
//! The paper scored FCCD by comparing its cached/uncached calls against a
//! modified kernel's per-page presence bitmaps, and MAC by comparing its
//! availability estimate against known memory pressure. This module is the
//! reproduction's scorer: it joins FCCD's `(path, cached)` verdicts against
//! [`crate::Oracle`] ground truth ([`score_fccd_verdicts`]), and pairs a
//! MAC estimate with the oracle's free memory ([`MacScore`]). The verdicts
//! may come straight off a [`graybox::fccd::Classified`] value or from the
//! `Classified` events of a trace capture; the join is the same.
//!
//! Scoring happens strictly *after* the inference ran — the ICLs never see
//! the oracle, so the join cannot leak truth back into the gray-box code.

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
    /// Verdicts that could not be joined: the unit is not a path the
    /// oracle resolves.
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

/// Joins `(path, predicted_cached)` verdicts against the oracle. Truth
/// for a file is `oracle.cached_fraction(path) >= 0.5`; a path the oracle
/// cannot resolve is counted in [`FccdScore::skipped`].
///
/// The oracle reads *current* residency: score immediately after the
/// classification ran, before further workload perturbs the cache.
pub fn score_fccd_verdicts<'a>(
    oracle: &Oracle,
    verdicts: impl IntoIterator<Item = (&'a str, bool)>,
) -> FccdScore {
    let mut score = FccdScore::default();
    for (unit, predicted_cached) in verdicts {
        let truth_cached = match oracle.cached_fraction(unit) {
            Ok(frac) => frac >= 0.5,
            Err(_) => {
                score.skipped += 1;
                continue;
            }
        };
        match (predicted_cached, truth_cached) {
            (true, true) => score.true_positives += 1,
            (true, false) => score.false_positives += 1,
            (false, true) => score.false_negatives += 1,
            (false, false) => score.true_negatives += 1,
        }
    }
    score
}

/// MAC's availability estimate joined against known free memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacScore {
    /// MAC's estimate of available memory, in bytes.
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

#[cfg(test)]
mod tests {
    use super::*;

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
