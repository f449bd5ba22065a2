//! Inference-accuracy suite: how *right* the ICLs are, not how fast.
//!
//! The timing suites answer "did the probe engine get slower"; this one
//! answers "did the inferences get worse". It runs two deterministic
//! simos scenarios under trace capture and joins the emitted events
//! against the oracle via [`simos::score`]:
//!
//! - **FCCD**: a corpus with a known warm half is classified; every
//!   `Classified` verdict is checked against the oracle's per-file
//!   residency. On the noise-free fixed-seed machine the split is exact,
//!   so precision and recall pin at 1.0 — any drop is a real inference
//!   regression, not noise.
//! - **MAC**: `available_estimate` probes an idle machine whose free
//!   memory is known from the oracle; the `Estimated` event's value is
//!   compared against that truth as a relative error.
//!
//! The report also carries the captured probe-latency log2 histogram, so
//! the baseline file records the *shape* of probe costs alongside their
//! means.

use gray_toolbox::trace;
use graybox::fccd::Fccd;
use graybox::mac::{Mac, MacParams};
use simos::score::{score_fccd, score_mac, FccdScore};

use crate::{tiny_corpus, tiny_fccd, tiny_sim};

/// Files in the FCCD corpus (even indices are warmed by `tiny_corpus`).
const FCCD_FILES: usize = 8;
/// Bytes per corpus file — two prediction units at `tiny_fccd` geometry.
const FCCD_FILE_BYTES: u64 = 512 << 10;

/// Joined accuracy results from one traced run of both scenarios.
#[derive(Debug, Clone)]
pub struct AccuracyReport {
    /// FCCD confusion matrix against the oracle.
    pub fccd: FccdScore,
    /// MAC's traced availability estimate, bytes.
    pub mac_estimated_bytes: f64,
    /// Oracle free memory at probe time, bytes.
    pub mac_truth_bytes: f64,
    /// `|estimate − truth| / truth`.
    pub mac_abs_err: f64,
    /// Probe-latency log2 histogram as `bound:count` pairs.
    pub probe_latency_summary: String,
    /// Median probe-latency bucket upper bound, ns.
    pub probe_latency_p50_ns: u64,
    /// 99th-percentile probe-latency bucket upper bound, ns.
    pub probe_latency_p99_ns: u64,
    /// Probes recorded in the histogram.
    pub probes_recorded: u64,
}

impl AccuracyReport {
    /// The report as one line of baseline-file JSON fields (no braces),
    /// parseable by the runner's line-oriented `field_num`.
    pub fn json_fields(&self) -> String {
        format!(
            "\"fccd_precision\":{:.4},\"fccd_recall\":{:.4},\"fccd_scored\":{},\
             \"mac_abs_err\":{:.4},\"mac_estimated_bytes\":{:.0},\"mac_truth_bytes\":{:.0},\
             \"probe_p50_ns\":{},\"probe_p99_ns\":{},\"probes_recorded\":{},\
             \"probe_latency_hist\":\"{}\"",
            self.fccd.precision(),
            self.fccd.recall(),
            self.fccd.scored(),
            self.mac_abs_err,
            self.mac_estimated_bytes,
            self.mac_truth_bytes,
            self.probe_latency_p50_ns,
            self.probe_latency_p99_ns,
            self.probes_recorded,
            self.probe_latency_summary,
        )
    }
}

/// Runs both accuracy scenarios under trace capture and scores them.
///
/// Fully deterministic: noise-free machines, fixed-seed FCCD plans, and
/// virtual time throughout — repeated calls return identical reports.
pub fn run() -> AccuracyReport {
    let _cap = trace::capture();

    // FCCD: classify a corpus whose warm half is known, then ask the
    // oracle who was really resident.
    let mut sim = tiny_sim();
    let paths = tiny_corpus(&mut sim, FCCD_FILES, FCCD_FILE_BYTES);
    let probe_paths = paths.clone();
    sim.run_one(move |os| {
        let fccd = Fccd::with_fixed_seed(os, tiny_fccd());
        fccd.classify_files(&probe_paths)
    });
    let records = trace::drain();
    let fccd = score_fccd(&sim.oracle(), &records);

    // MAC: probe an idle machine; truth is the oracle's free-page count
    // the instant before the probe allocates anything.
    let mut sim = tiny_sim();
    let oracle = sim.oracle();
    let truth_bytes = (oracle
        .total_pages()
        .saturating_sub(oracle.resident_pages() as u64)
        * 4096) as f64;
    let ceiling = oracle.total_pages() * 4096 * 2;
    sim.run_one(move |os| {
        let mac = Mac::new(
            os,
            MacParams {
                initial_increment: 1 << 20,
                max_increment: 4 << 20,
                ..MacParams::default()
            },
        );
        mac.available_estimate(ceiling).unwrap()
    });
    let mac_records = trace::drain();
    let mac = score_mac(&mac_records, truth_bytes).expect("MAC probe emits an Estimated event");

    let metrics = trace::metrics();
    let hist = &metrics.probe_latency;
    AccuracyReport {
        fccd,
        mac_estimated_bytes: mac.estimated_bytes,
        mac_truth_bytes: mac.truth_bytes,
        mac_abs_err: mac.abs_error(),
        probe_latency_summary: hist.summary(),
        probe_latency_p50_ns: hist.percentile_bound(50.0),
        probe_latency_p99_ns: hist.percentile_bound(99.0),
        probes_recorded: hist.count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_meets_the_acceptance_bar() {
        let r = run();
        assert!(
            r.fccd.precision() >= 0.95 && r.fccd.recall() >= 0.95,
            "FCCD must classify the deterministic corpus correctly: \
             precision {:.3}, recall {:.3}, scored {}, skipped {}",
            r.fccd.precision(),
            r.fccd.recall(),
            r.fccd.scored(),
            r.fccd.skipped,
        );
        assert_eq!(r.fccd.scored(), FCCD_FILES as u64);
        assert!(
            r.mac_abs_err <= 0.10,
            "MAC estimate must land within 10% of oracle free memory: \
             estimated {:.0} vs truth {:.0} ({:.1}% off)",
            r.mac_estimated_bytes,
            r.mac_truth_bytes,
            r.mac_abs_err * 100.0,
        );
        assert!(r.probes_recorded > 0, "probe histogram must be populated");
    }

    /// Two runs score identically — provided nothing else in the process
    /// probes while a run holds the tracer. The tracer is process-global,
    /// so a sibling test's probes used to land in this run's histogram
    /// (`probes_recorded` 28 vs 56) whenever `cargo test` overlapped them;
    /// the siblings now take the capture lock too (`crate::hold_tracer`).
    #[test]
    fn report_is_deterministic() {
        let a = run();
        let b = run();
        assert_eq!(a.json_fields(), b.json_fields());
    }
}
