//! Tier-1 accuracy pin: the trace-event/oracle join must score a fully
//! determined scenario exactly.
//!
//! A noise-free simulated machine gets a corpus whose residency is forced
//! by construction (half the files re-read after a flush, half left
//! cold), so FCCD's verdicts — read back as `Classified` trace events and
//! joined against the oracle by `simos::score` — have an exactly
//! computable confusion matrix: all six files right, precision and recall
//! both 1.0. MAC's availability estimate on the same idle machine, read
//! back as its last `Estimated` event, must land within 10% of the
//! oracle's free-page count — the bar the paper's "reliably returns
//! (830 − x) MB" claim sets. And a capture armed inside a pool job holds
//! that job's records alone: per-cell traces from a parallel matrix run.

use graybox_icl::apps::workload::make_files;
use graybox_icl::graybox::fccd::{Fccd, FccdParams};
use graybox_icl::graybox::mac::{Mac, MacParams};
use graybox_icl::graybox::os::GrayBoxOs;
use graybox_icl::simos::scenario::matrix::MatrixConfig;
use graybox_icl::simos::score::{score_fccd_verdicts, MacScore};
use graybox_icl::simos::{Sim, SimConfig};
use graybox_icl::toolbox::pool::Pool;
use graybox_icl::toolbox::trace::{self, TraceEvent, Verdict};

const FILES: usize = 6;
const FILE_BYTES: u64 = 512 << 10;

fn fccd_params() -> FccdParams {
    FccdParams {
        access_unit: 1 << 20,
        prediction_unit: 256 << 10,
        ..FccdParams::default()
    }
}

#[test]
fn fccd_verdicts_score_exactly_against_the_oracle() {
    let cap = trace::capture();
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let paths = sim.run_one(|os| make_files(os, "/acc", FILES, FILE_BYTES).unwrap());
    sim.flush_file_cache();
    let warm: Vec<String> = paths.iter().step_by(2).cloned().collect();
    let warm_count = warm.len() as u64;
    sim.run_one(move |os| {
        for p in &warm {
            let fd = os.open(p).unwrap();
            os.read_discard(fd, 0, FILE_BYTES).unwrap();
            os.close(fd).unwrap();
        }
    });
    let probe_paths = paths.clone();
    sim.run_one(move |os| Fccd::with_fixed_seed(os, fccd_params()).classify_files(&probe_paths));

    let records = trace::drain();
    drop(cap);
    let verdicts = records.iter().filter_map(|r| match &r.event {
        TraceEvent::Classified { unit, verdict } => {
            Some((unit.as_str(), *verdict == Verdict::Cached))
        }
        _ => None,
    });
    let score = score_fccd_verdicts(&sim.oracle(), verdicts);
    assert_eq!(
        score.scored(),
        FILES as u64,
        "every file must produce one joinable verdict: {score:?}"
    );
    assert_eq!(score.true_positives, warm_count, "{score:?}");
    assert_eq!(score.true_negatives, FILES as u64 - warm_count, "{score:?}");
    assert_eq!(score.precision(), 1.0, "{score:?}");
    assert_eq!(score.recall(), 1.0, "{score:?}");
}

#[test]
fn mac_estimate_lands_within_ten_percent_of_oracle_truth() {
    let cap = trace::capture();
    let mut sim = Sim::new(SimConfig::small().without_noise());
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
            },
        );
        mac.available_estimate(ceiling).unwrap()
    });
    let records = trace::drain();
    drop(cap);
    let estimated_bytes = records
        .iter()
        .rev()
        .find_map(|r| match r.event {
            TraceEvent::Estimated {
                quantity: "mac.available_bytes",
                value,
            } => Some(value),
            _ => None,
        })
        .expect("MAC probe emits its estimate");
    let score = MacScore {
        estimated_bytes,
        truth_bytes,
    };
    assert!(
        score.abs_error() <= 0.10,
        "MAC estimate {:.0} vs oracle free {:.0}: {:.1}% off",
        score.estimated_bytes,
        score.truth_bytes,
        score.abs_error() * 100.0
    );
}

#[test]
fn pool_jobs_capture_their_own_cells() {
    // Each job arms its own capture, so a cell's `Classified` count is
    // that cell's alone, whichever worker ran it and whatever ran beside
    // it.
    let cells = MatrixConfig::smoke().expand();
    let classified_per_cell = |workers| -> Vec<usize> {
        Pool::with_workers(workers)
            .map(cells.clone(), |_, spec| {
                let _cap = trace::capture();
                spec.run();
                trace::drain()
                    .iter()
                    .filter(|r| matches!(r.event, TraceEvent::Classified { .. }))
                    .count()
            })
            .into_iter()
            .map(|cell| cell.expect("no cell may panic"))
            .collect()
    };
    let serial = classified_per_cell(1);
    assert!(serial.iter().all(|&n| n > 0), "{serial:?}");
    assert_eq!(classified_per_cell(2), serial);
}
