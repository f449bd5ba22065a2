//! Figure 5 — **File Ordering Matters**: total time to read 200 small
//! (8 KB) files split evenly across two directories, in three access
//! orders — random, sorted by directory, sorted by i-number — on each
//! platform, with a cold cache.
//!
//! Paper findings: directory sorting beats random by 10–25%; i-number
//! sorting is dramatic — about 6× on Linux and NetBSD, better than 2× on
//! Solaris.

use gray_apps::workload::{read_files_in_order, shuffled};
use gray_toolbox::GrayDuration;
use graybox::fldc::Fldc;
use graybox::os::GrayBoxOs;
use simos::{Platform, Sim};

use crate::{format_table, paper_note, Scale, TrialStats};

/// One platform's three bars.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// The platform.
    pub platform: Platform,
    /// Random order.
    pub random: TrialStats,
    /// Grouped by directory.
    pub by_directory: TrialStats,
    /// Sorted by i-number.
    pub by_inumber: TrialStats,
}

/// The figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// One row per platform.
    pub rows: Vec<Fig5Row>,
}

/// Number of files and their size (the paper's exact workload — small
/// enough to keep unscaled).
pub const FILES: usize = 200;
/// Size of each small file in bytes.
pub const FILE_BYTES: u64 = 8 << 10;

/// Runs all three orders on all three platforms.
pub fn run(scale: Scale) -> Fig5 {
    let rows = [
        Platform::LinuxLike,
        Platform::NetBsdLike,
        Platform::SolarisLike,
    ]
    .into_iter()
    .map(|p| run_platform(scale, p))
    .collect();
    Fig5 { rows }
}

fn run_platform(scale: Scale, platform: Platform) -> Fig5Row {
    let cfg = scale.sim_config().with_platform(platform);
    let trials = scale.trials();
    let mut sim = Sim::new(cfg);

    // Create the two directories and interleave file creation across them
    // ("200 8-KB files, split equally across two directories").
    let paths: Vec<String> = sim.run_one(|os| {
        use graybox::os::GrayBoxOsExt;
        os.mkdir("/dir_a").unwrap();
        os.mkdir("/dir_b").unwrap();
        let mut paths = Vec::with_capacity(FILES);
        for i in 0..FILES {
            let dir = if i % 2 == 0 { "/dir_a" } else { "/dir_b" };
            let path = os.join(dir, &format!("f{i:03}"));
            let fd = os.create(&path).unwrap();
            os.write_fill(fd, 0, FILE_BYTES).unwrap();
            os.close(fd).unwrap();
            paths.push(path);
        }
        os.sync().unwrap();
        paths
    });

    let mut measure = |order_for_trial: &dyn Fn(&mut Sim, usize) -> Vec<String>| -> TrialStats {
        let mut times: Vec<GrayDuration> = Vec::with_capacity(trials);
        for trial in 0..trials {
            let order = order_for_trial(&mut sim, trial);
            sim.flush_file_cache();
            times.push(sim.run_one(move |os| read_files_in_order(os, &order).unwrap()));
        }
        TrialStats::of(&times)
    };

    let random = {
        let paths = paths.clone();
        measure(&move |_sim, trial| shuffled(&paths, 0xF5 + trial as u64))
    };
    let by_directory = {
        let paths = paths.clone();
        measure(&move |sim, trial| {
            let scrambled = shuffled(&paths, 0xD1 + trial as u64);
            sim.run_one(move |os| Fldc::new(os).order_by_directory(&scrambled))
        })
    };
    let by_inumber = {
        let paths = paths.clone();
        measure(&move |sim, trial| {
            let scrambled = shuffled(&paths, 0x1A + trial as u64);
            sim.run_one(move |os| {
                let (ranks, _) = Fldc::new(os).order_by_inumber(&scrambled);
                ranks.into_iter().map(|r| r.path).collect()
            })
        })
    };

    Fig5Row {
        platform,
        random,
        by_directory,
        by_inumber,
    }
}

/// Renders Figure 5 as `repro fig5` prints it.
pub fn render(fig: &Fig5) -> String {
    let rows: Vec<Vec<String>> = fig
        .rows
        .iter()
        .map(|r| {
            vec![
                r.platform.name().to_string(),
                r.random.to_string(),
                format!(
                    "{} ({:.2}x)",
                    r.by_directory,
                    r.by_directory.mean / r.random.mean
                ),
                format!(
                    "{} ({:.2}x)",
                    r.by_inumber,
                    r.by_inumber.mean / r.random.mean
                ),
            ]
        })
        .collect();
    format_table(
        "Figure 5: File Ordering Matters (200 x 8 KB files, 2 directories)",
        &["platform", "random", "by directory", "by i-number"],
        &rows,
    ) + &paper_note(
        "directory sort saves 10-25%; i-number sort ~6x on Linux/NetBSD \
         and >2x on Solaris",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shape_holds_at_small_scale() {
        let fig = run(Scale::Small);
        for row in &fig.rows {
            // Directory grouping beats random.
            assert!(
                row.by_directory.mean < row.random.mean,
                "{:?}: dir {} vs random {}",
                row.platform,
                row.by_directory.mean,
                row.random.mean
            );
            // I-number order is a large win (paper: ~6x on Linux/NetBSD).
            assert!(
                row.by_inumber.mean < row.random.mean / 2.5,
                "{:?}: inumber {} vs random {}",
                row.platform,
                row.by_inumber.mean,
                row.random.mean
            );
            // And beats directory grouping too.
            assert!(row.by_inumber.mean < row.by_directory.mean);
        }
    }
}
