//! Figure 6 — **Aging and Refresh**: reading 100 small files in one
//! directory as the file system ages (each epoch deletes five random files
//! and creates five new ones), comparing random order against i-number
//! order, with an explicit directory refresh at epoch 31.
//!
//! Paper findings: random ordering is uniformly poor; i-number ordering is
//! excellent on a fresh directory, degrades with age (worse than 3× off
//! fresh by epoch 30, though still better than random), and snaps back to
//! the original level after the refresh.

use gray_apps::workload::{age_epoch, make_files, read_files_in_order, shuffled};
use gray_toolbox::rng::StdRng;
use graybox::fldc::{Fldc, RefreshOrder};
use graybox::os::GrayBoxOs;
use simos::Sim;

use crate::{format_table, paper_note, Scale};

/// One epoch's measurements, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPoint {
    /// Epoch number (0 = fresh).
    pub epoch: u32,
    /// Random-order read time.
    pub random: f64,
    /// I-number-order read time.
    pub inumber: f64,
}

/// The figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Per-epoch measurements.
    pub points: Vec<EpochPoint>,
    /// The epoch at whose start the directory was refreshed.
    pub refresh_epoch: u32,
}

/// Number of files in the aged directory (the paper's 100).
pub const FILES: usize = 100;
/// Files deleted + created per epoch (the paper's 5).
pub const CHURN: usize = 5;
/// Size of each file.
pub const FILE_BYTES: u64 = 8 << 10;

/// Runs the aging experiment over `epochs` epochs, refreshing at
/// `refresh_epoch` (the paper: 40 epochs, refresh at 31).
pub fn run_with(scale: Scale, epochs: u32, refresh_epoch: u32) -> Fig6 {
    let cfg = scale.sim_config();
    let mut sim = Sim::new(cfg);
    let mut rng = StdRng::seed_from_u64(0xF166);

    sim.run_one(|os| make_files(os, "/aged", FILES, FILE_BYTES).unwrap());
    let mut points = Vec::with_capacity(epochs as usize + 1);
    let mut current_paths: Vec<String> = sim.run_one(|os| {
        use graybox::os::GrayBoxOsExt;
        os.list_dir("/aged")
            .unwrap()
            .into_iter()
            .map(|n| os.join("/aged", &n))
            .collect()
    });

    for epoch in 0..=epochs {
        if epoch > 0 {
            let mut epoch_rng = StdRng::seed_from_u64(rng_next(&mut rng));
            current_paths = sim.run_one(|os| {
                age_epoch(os, "/aged", CHURN, FILE_BYTES, epoch as u64, &mut epoch_rng).unwrap()
            });
            if epoch == refresh_epoch {
                // The paper's control step: move the directory back to a
                // known state (the epoch-31 point is measured post-refresh).
                sim.run_one(|os| {
                    Fldc::new(os)
                        .refresh_directory("/aged", RefreshOrder::SmallestFirst)
                        .unwrap()
                });
                current_paths = sim.run_one(|os| {
                    use graybox::os::GrayBoxOsExt;
                    os.list_dir("/aged")
                        .unwrap()
                        .into_iter()
                        .map(|n| os.join("/aged", &n))
                        .collect()
                });
            }
        }

        // Measure random order.
        sim.flush_file_cache();
        let order = shuffled(&current_paths, 0xAAA + epoch as u64);
        let t_random = sim.run_one(move |os| read_files_in_order(os, &order).unwrap());

        // Measure i-number order.
        sim.flush_file_cache();
        let scrambled = shuffled(&current_paths, 0xBBB + epoch as u64);
        let t_inumber = sim.run_one(move |os| {
            let (ranks, _) = Fldc::new(os).order_by_inumber(&scrambled);
            let order: Vec<String> = ranks.into_iter().map(|r| r.path).collect();
            read_files_in_order(os, &order).unwrap()
        });

        points.push(EpochPoint {
            epoch,
            random: t_random.as_secs_f64(),
            inumber: t_inumber.as_secs_f64(),
        });
    }
    Fig6 {
        points,
        refresh_epoch,
    }
}

/// Runs the paper's exact schedule: epochs 0..=40, refresh at 31.
pub fn run(scale: Scale) -> Fig6 {
    run_with(scale, 40, 31)
}

fn rng_next(rng: &mut StdRng) -> u64 {
    rng.random_range(0..u64::MAX)
}

/// Renders Figure 6 as `repro fig6` prints it.
pub fn render(fig: &Fig6) -> String {
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| {
            let refresh = if p.epoch == fig.refresh_epoch {
                " *refresh*"
            } else {
                ""
            };
            vec![
                format!("{}{refresh}", p.epoch),
                format!("{:.4}s", p.random),
                format!("{:.4}s", p.inumber),
            ]
        })
        .collect();
    format_table(
        "Figure 6: Aging (100 files; 5 deleted + 5 created per epoch)",
        &["epoch", "random order", "i-number order"],
        &rows,
    ) + &paper_note(
        "i-number order is excellent fresh, degrades >3x by epoch 30, and \
         snaps back after the refresh at epoch 31; random stays poor",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shape_holds_at_small_scale() {
        // A shorter schedule for the test: 14 epochs, refresh at 11.
        let fig = run_with(Scale::Small, 14, 11);
        let fresh = fig.points[0];
        let aged = &fig.points[10];
        let refreshed = &fig.points[11];

        // Fresh: i-number order crushes random.
        assert!(
            fresh.inumber < fresh.random / 2.0,
            "fresh: inumber {} vs random {}",
            fresh.inumber,
            fresh.random
        );
        // Aging degrades i-number order...
        assert!(
            aged.inumber > fresh.inumber * 1.3,
            "aged: {} vs fresh {}",
            aged.inumber,
            fresh.inumber
        );
        // ...but it stays better than random.
        assert!(aged.inumber < aged.random);
        // The refresh restores close-to-fresh performance.
        assert!(
            refreshed.inumber < aged.inumber,
            "refresh must help: {} vs {}",
            refreshed.inumber,
            aged.inumber
        );
        assert!(
            refreshed.inumber < fresh.inumber * 1.6,
            "refresh must restore near-fresh: {} vs fresh {}",
            refreshed.inumber,
            fresh.inumber
        );
        // Random stays roughly flat (no trend worth asserting beyond a
        // sanity band).
        let r0 = fresh.random;
        for p in &fig.points {
            assert!(p.random > r0 * 0.4 && p.random < r0 * 2.5);
        }
    }
}
