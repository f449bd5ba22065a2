//! FCCD accuracy over the whole scenario matrix, joined against the oracle.
//!
//! Every hit/miss decision is `toolbox::cluster::split_fast_slow` on log
//! time, so a spread of disk misses (1.8–6.7 ms with seek distance) can no
//! longer pull the cut inside the disk cluster. What this floor pins:
//! pooled over all 72 cells precision ≥ 0.85 at recall ≥ 0.99, every
//! `churn` cell exactly right, and every remaining wrong verdict in a
//! `probe`-mix cell — where an earlier probe's readahead residue (4 pages
//! of a cold 32-page file) is what the classifier's own probe hits.

use graybox_icl::simos::scenario::matrix::{run_grid, CellResult, MatrixConfig};
use graybox_icl::simos::score::FccdScore;
use graybox_icl::toolbox::pool::Pool;

fn wrong(s: &FccdScore) -> u64 {
    s.false_positives + s.false_negatives
}

#[test]
fn full_matrix_errors_are_confined_to_probe_residue() {
    let cells: Vec<CellResult> = run_grid(&MatrixConfig::full(), &Pool::with_workers(2))
        .into_iter()
        .map(|cell| cell.expect("no matrix cell panics"))
        .collect();
    assert_eq!(cells.len(), 72);

    let mut table = String::from("label tp fp fn tn separation\n");
    let mut pooled = FccdScore::default();
    for c in &cells {
        table.push_str(&format!(
            "{} {} {} {} {} {:.3}\n",
            c.label,
            c.fccd.true_positives,
            c.fccd.false_positives,
            c.fccd.false_negatives,
            c.fccd.true_negatives,
            c.separation
        ));
        pooled.true_positives += c.fccd.true_positives;
        pooled.false_positives += c.fccd.false_positives;
        pooled.false_negatives += c.fccd.false_negatives;
        pooled.true_negatives += c.fccd.true_negatives;
    }

    assert!(
        pooled.precision() >= 0.85 && pooled.recall() >= 0.99,
        "pooled precision {:.3} recall {:.3}\n{table}",
        pooled.precision(),
        pooled.recall()
    );
    for c in &cells {
        let churn = c.label.contains("/churn/");
        assert!(
            churn || c.label.contains("/probe/"),
            "unknown mix in {}",
            c.label
        );
        assert!(
            !churn || wrong(&c.fccd) == 0,
            "churn cell {} holds {} wrong verdicts\n{table}",
            c.label,
            wrong(&c.fccd)
        );
    }
}
