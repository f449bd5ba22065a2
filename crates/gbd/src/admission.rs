//! AIMD admission control over the daemon's own query load.
//!
//! The daemon's probes *are* load on the machine it is measuring: admit
//! every query and heavy traffic makes the probes time each other instead
//! of the OS (the self-interference the paper's ICLs individually guard
//! against, multiplied by tenancy). So the daemon applies MAC-style
//! admission to itself: a per-tick budget of probe-needing queries, moved
//! AIMD-fashion by the probe scheduler's own interference guard — the
//! same signal that already halves wave concurrency. A wave judged
//! self-interfering halves the budget (queries over budget are *shed*,
//! not queued — the client retries, as in `gb_alloc`'s deny); a tick of
//! clean waves recovers one slot, up to the configured ceiling.

use gray_sched::WaveStat;
use gray_toolbox::trace::{self, TraceEvent};

/// The AIMD query budget.
#[derive(Debug, Clone)]
pub struct QueryAdmission {
    ceiling: usize,
    budget: usize,
    backoffs: u64,
}

impl QueryAdmission {
    /// Creates a budget that starts at its ceiling (`GbdConfig::admission_budget`).
    pub fn new(ceiling: usize) -> Self {
        let ceiling = ceiling.max(1);
        QueryAdmission {
            ceiling,
            budget: ceiling,
            backoffs: 0,
        }
    }

    /// The live per-tick budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The configured recovery ceiling.
    pub fn ceiling(&self) -> usize {
        self.ceiling
    }

    /// How many times the budget has been halved.
    pub fn backoffs(&self) -> u64 {
        self.backoffs
    }

    /// Feeds one tick's wave statistics to the AIMD rule. Any wave whose
    /// probe-time dispersion crossed `cv_threshold` halves the budget
    /// (floored at 1) and emits a `ThresholdCrossed`; a tick of clean
    /// waves recovers one slot toward the ceiling. Returns whether the
    /// budget backed off.
    pub fn observe_waves(&mut self, waves: &[WaveStat], cv_threshold: f64) -> bool {
        let worst = waves
            .iter()
            .filter(|w| w.plans >= 2)
            .map(|w| w.cv)
            .fold(0.0f64, f64::max);
        if worst > cv_threshold {
            self.budget = (self.budget / 2).max(1);
            self.backoffs += 1;
            trace::emit_with(|| TraceEvent::ThresholdCrossed {
                what: "gbd.admission.backoff",
                value: worst,
                threshold: cv_threshold,
            });
            true
        } else {
            if !waves.is_empty() && self.budget < self.ceiling {
                self.budget += 1;
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(plans: usize, cv: f64) -> WaveStat {
        WaveStat {
            plans,
            concurrency: plans,
            span: None,
            cv,
        }
    }

    #[test]
    fn halves_on_dispersion_and_recovers_additively() {
        let mut adm = QueryAdmission::new(8);
        assert_eq!(adm.budget(), 8);
        assert!(adm.observe_waves(&[wave(4, 0.9)], 0.5));
        assert_eq!(adm.budget(), 4);
        assert!(adm.observe_waves(&[wave(4, 0.1), wave(2, 0.8)], 0.5));
        assert_eq!(adm.budget(), 2);
        for expect in [3, 4, 5] {
            assert!(!adm.observe_waves(&[wave(4, 0.1)], 0.5));
            assert_eq!(adm.budget(), expect);
        }
        assert_eq!(adm.backoffs(), 2);
    }

    #[test]
    fn floors_at_one_and_caps_at_ceiling() {
        let mut adm = QueryAdmission::new(2);
        adm.observe_waves(&[wave(2, 0.9)], 0.5);
        adm.observe_waves(&[wave(2, 0.9)], 0.5);
        assert_eq!(adm.budget(), 1);
        for _ in 0..5 {
            adm.observe_waves(&[wave(2, 0.0)], 0.5);
        }
        assert_eq!(adm.budget(), 2, "never recovers past the ceiling");
    }

    #[test]
    fn idle_ticks_and_single_plan_waves_hold_steady() {
        let mut adm = QueryAdmission::new(4);
        adm.observe_waves(&[wave(4, 0.9)], 0.5);
        assert_eq!(adm.budget(), 2);
        // No waves at all: nothing to judge, budget holds.
        assert!(!adm.observe_waves(&[], 0.5));
        assert_eq!(adm.budget(), 2);
        // A single-plan wave cannot measure dispersion; it counts as clean.
        assert!(!adm.observe_waves(&[wave(1, 0.0)], 0.5));
        assert_eq!(adm.budget(), 3);
    }
}
