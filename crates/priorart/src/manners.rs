//! MS Manners as a gray-box system (paper Section 3; Douceur & Bolosky,
//! SOSP'99).
//!
//! Goal: run a low-importance process only when the machine is otherwise
//! idle, without OS support. Gray-box knowledge: *one process competing
//! with another degrades the other's progress roughly symmetrically to its
//! own*. So the low-importance process measures its **own** progress rate,
//! compares it statistically against a calibrated uncontended baseline,
//! and suspends itself when progress is significantly low — inferring the
//! presence of important work purely from its own slowdown. While
//! suspended, it periodically resumes briefly to re-probe.
//!
//! The machine model: one CPU, [`TICKS`] discrete steps; an "important"
//! workload is active on given intervals. When both run, each gets half
//! the CPU (plus noise); alone, each gets it all. The detector uses the
//! toolbox's paired-sample sign test, as the original does.

use gray_toolbox::paired_sign_test;
use gray_toolbox::rng::StdRng;
use graybox::technique::{Technique, TechniqueInventory};

/// Total ticks simulated.
pub const TICKS: u64 = 10_000;

/// The intervals `[start, end)` when Table 1's important workload runs.
pub const BUSY: [(u64, u64); 2] = [(2_000, 4_000), (6_000, 7_000)];

/// Window of progress samples compared against the baseline.
pub const WINDOW: usize = 12;

/// Significance level for the sign test.
pub const ALPHA: f64 = 0.05;

/// Ticks to stay suspended before re-probing.
pub const BACKOFF: u64 = 200;

/// Ticks of the initial calibration run (assumed uncontended).
pub const CALIBRATION: u64 = 200;

/// Multiplicative progress noise (half-width of the uniform draw).
pub const NOISE: f64 = 0.05;

/// RNG seed of the progress noise.
const SEED: u64 = 23;

/// Result of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct MannersReport {
    /// Work completed by the low-importance process (ticks of CPU used).
    pub low_work: f64,
    /// Fraction of the *busy* time during which the low-importance process
    /// was running anyway (lower = politer).
    pub interference: f64,
    /// Fraction of the *idle* time the low-importance process exploited
    /// (higher = less wasteful).
    pub idle_utilization: f64,
    /// Mean ticks from a busy-interval start until suspension.
    pub detection_latency: f64,
    /// Number of suspend events.
    pub suspensions: u64,
}

/// Runs the regulated low-importance process on a machine whose important
/// workload runs in the `busy` intervals `[start, end)` ([`BUSY`] for
/// Table 1; none and all of the run are the idle and the saturated
/// machine).
pub fn run(busy: &[(u64, u64)]) -> MannersReport {
    let busy_at = |t: u64| busy.iter().any(|&(s, e)| t >= s && t < e);
    let mut rng = StdRng::seed_from_u64(SEED);
    let noise = |rng: &mut StdRng| 1.0 + rng.random_range(-NOISE..=NOISE);

    // Calibration: measured uncontended progress per tick.
    let mut baseline: Vec<f64> = Vec::with_capacity(WINDOW);
    for _ in 0..CALIBRATION {
        let p = noise(&mut rng);
        baseline.push(p);
        if baseline.len() > WINDOW {
            baseline.remove(0);
        }
    }

    let mut low_work = 0.0f64;
    let mut window: Vec<f64> = Vec::with_capacity(WINDOW);
    let mut running = true;
    let mut suspended_until = 0u64;
    let mut suspensions = 0u64;
    let mut busy_running_ticks = 0u64;
    let mut idle_running_ticks = 0u64;
    let mut busy_ticks = 0u64;
    let mut idle_ticks = 0u64;
    let mut detection: Vec<u64> = Vec::new();
    let mut current_busy_start: Option<u64> = None;

    for t in 0..TICKS {
        let contended = busy_at(t);
        if contended {
            busy_ticks += 1;
            // Arm latency measurement only at a true interval start, not
            // after mid-interval re-probes.
            if busy.iter().any(|&(s, _)| s == t) {
                current_busy_start = Some(t);
            }
        } else {
            idle_ticks += 1;
            current_busy_start = None;
        }

        if !running {
            if t >= suspended_until {
                running = true; // Re-probe.
                window.clear();
            } else {
                continue;
            }
        }

        // Progress this tick: full speed alone, half when contended.
        let progress = if contended { 0.5 } else { 1.0 } * noise(&mut rng);
        low_work += progress;
        if contended {
            busy_running_ticks += 1;
        } else {
            idle_running_ticks += 1;
        }

        window.push(progress);
        if window.len() >= WINDOW {
            let base: Vec<f64> = baseline.iter().copied().take(window.len()).collect();
            let test = paired_sign_test(&window[..base.len()], &base);
            // Contention requires both statistical significance (sign
            // test: baseline systematically above current progress) *and*
            // a material slowdown — repeated testing of a sliding window
            // would otherwise compound the alpha into frequent false
            // positives on an idle machine.
            let base_mean: f64 = base.iter().sum::<f64>() / base.len() as f64;
            let win_mean: f64 = window.iter().take(base.len()).sum::<f64>() / base.len() as f64;
            let material = win_mean < 0.75 * base_mean;
            if material && test.greater > test.less && test.significant_at(ALPHA) {
                running = false;
                suspended_until = t + BACKOFF;
                suspensions += 1;
                if let Some(start) = current_busy_start {
                    detection.push(t - start);
                    current_busy_start = None;
                }
                window.clear();
            } else {
                window.remove(0);
            }
        }
    }

    MannersReport {
        low_work,
        interference: if busy_ticks == 0 {
            0.0
        } else {
            busy_running_ticks as f64 / busy_ticks as f64
        },
        idle_utilization: if idle_ticks == 0 {
            0.0
        } else {
            idle_running_ticks as f64 / idle_ticks as f64
        },
        detection_latency: if detection.is_empty() {
            f64::NAN
        } else {
            detection.iter().sum::<u64>() as f64 / detection.len() as f64
        },
        suspensions,
    }
}

/// Table 1 row for MS Manners.
pub fn techniques() -> TechniqueInventory {
    TechniqueInventory::new(
        "MS Manners",
        &[
            (
                Technique::AlgorithmicKnowledge,
                "Symmetric performance impact",
            ),
            (Technique::MonitorOutputs, "Reported progress of process"),
            (Technique::StatisticalMethods, "Regression, EWMA, sign test"),
            (Technique::KnownState, "None, but slow convergence"),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_contention_quickly() {
        let report = run(&BUSY);
        assert!(
            report.detection_latency < 60.0,
            "latency {:.0} ticks",
            report.detection_latency
        );
        assert!(
            report.suspensions >= 2,
            "suspensions {}",
            report.suspensions
        );
    }

    #[test]
    fn polite_during_busy_intervals() {
        let report = run(&BUSY);
        assert!(
            report.interference < 0.25,
            "ran during {:.0}% of busy time",
            report.interference * 100.0
        );
    }

    #[test]
    fn exploits_idle_time() {
        let report = run(&BUSY);
        assert!(
            report.idle_utilization > 0.85,
            "used only {:.0}% of idle time",
            report.idle_utilization * 100.0
        );
    }

    #[test]
    fn never_suspends_on_an_idle_machine() {
        let report = run(&[]);
        assert_eq!(report.suspensions, 0);
        assert!(report.idle_utilization > 0.99);
    }

    #[test]
    fn always_busy_machine_mostly_excludes_low_importance() {
        let report = run(&[(0, TICKS)]);
        assert!(
            report.interference < 0.3,
            "interference {:.2}",
            report.interference
        );
    }

    #[test]
    fn deterministic_replay() {
        assert_eq!(run(&BUSY), run(&BUSY));
    }

    #[test]
    fn noisier_progress_still_detected() {
        // The ±NOISE jitter on every progress sample does not hide the
        // halved progress of a contended tick from the sign test.
        let report = run(&BUSY);
        assert!(report.suspensions >= 1);
        assert!(report.interference < 0.5);
    }
}
