//! Figure 2 — **Single-File Scan**: total access time over repeated
//! (warm-cache) runs as file size sweeps across the file-cache size, for a
//! traditional linear scan versus the gray-box scan, with the paper's two
//! analytic models (predicted worst case: everything from disk; predicted
//! ideal: cached data at memory-copy rate, the rest from disk).
//!
//! Expected shape: the linear scan falls off a cliff once the file exceeds
//! the cache (LRU worst case: every run fetches everything), while the
//! gray-box scan grows gently — its I/O is proportional to
//! `file size − cache size`.

use gray_apps::scan::{graybox_scan, linear_scan};
use gray_apps::workload::make_file;
use gray_toolbox::GrayDuration;
use simos::{disk::BANDWIDTH, Sim, COSTS, PAGE_SIZE};

use crate::{format_table, paper_note, Scale, TrialStats};

/// One x-axis point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// File size in bytes.
    pub file_size: u64,
    /// Warm repeated linear scan.
    pub linear: TrialStats,
    /// Warm repeated gray-box scan.
    pub graybox: TrialStats,
    /// Predicted worst case (all data from disk), seconds.
    pub model_worst: f64,
    /// Predicted ideal (cache at memory rate, remainder from disk),
    /// seconds.
    pub model_ideal: f64,
}

/// The figure.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// Measured sweep points.
    pub points: Vec<Point>,
    /// The cache size in bytes (the crossover).
    pub cache_bytes: u64,
}

/// Runs the sweep.
pub fn run(scale: Scale) -> Fig2 {
    let cfg = scale.sim_config();
    let cache_bytes = cfg.usable_pages() * PAGE_SIZE;
    let disk_bw = BANDWIDTH as f64;
    // Effective memory-copy rate for a cached page visible to a scan.
    let mem_rate = PAGE_SIZE as f64 / (COSTS.copy_per_page + COSTS.page_lookup).as_secs_f64();
    let fractions = [0.25, 0.5, 0.75, 0.9, 1.0, 1.1, 1.25, 1.5];
    let chunk = 1u64 << 20;
    let trials = scale.trials();
    let params = scale.fccd_params();

    let mut points = Vec::new();
    for &f in &fractions {
        let file_size = ((cache_bytes as f64 * f) as u64 / PAGE_SIZE).max(4) * PAGE_SIZE;
        // Fresh machine per point so sweeps are independent.
        let mut sim = Sim::new(cfg.clone());
        sim.run_one(|os| make_file(os, "/sweep", file_size).unwrap());

        sim.flush_file_cache();
        let mut linear_times: Vec<GrayDuration> = Vec::with_capacity(trials);
        for _ in 0..trials {
            linear_times.push(
                sim.run_one(|os| linear_scan(os, "/sweep", chunk).unwrap())
                    .elapsed,
            );
        }

        sim.flush_file_cache();
        let mut gray_times: Vec<GrayDuration> = Vec::with_capacity(trials);
        for _ in 0..trials {
            let p = params.clone();
            gray_times.push(
                sim.run_one(|os| graybox_scan(os, "/sweep", p, chunk).unwrap())
                    .elapsed,
            );
        }

        let cached = file_size.min(cache_bytes) as f64;
        let uncached = file_size.saturating_sub(cache_bytes) as f64;
        points.push(Point {
            file_size,
            linear: TrialStats::of(&linear_times),
            graybox: TrialStats::of(&gray_times),
            model_worst: file_size as f64 / disk_bw,
            model_ideal: cached / mem_rate + uncached / disk_bw,
        });
    }
    Fig2 {
        points,
        cache_bytes,
    }
}

/// Renders Figure 2 as `repro fig2` prints it.
pub fn render(fig: &Fig2) -> String {
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| {
            vec![
                format!("{} MB", p.file_size >> 20),
                p.linear.to_string(),
                p.graybox.to_string(),
                format!("{:8.3}s", p.model_worst),
                format!("{:8.3}s", p.model_ideal),
            ]
        })
        .collect();
    let title = format!(
        "Figure 2: Single-File Scan (cache {} MB)",
        fig.cache_bytes >> 20
    );
    let header = [
        "file size",
        "linear",
        "gray-box",
        "model worst",
        "model ideal",
    ];
    format_table(&title, &header, &rows)
        + &paper_note(
            "linear scan falls off a cliff once the file exceeds the cache \
             (LRU worst case); the gray-box scan tracks the ideal model",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shape_holds_at_small_scale() {
        let fig = run(Scale::Small);
        let below: Vec<&Point> = fig
            .points
            .iter()
            .filter(|p| p.file_size < fig.cache_bytes * 9 / 10)
            .collect();
        let above: Vec<&Point> = fig
            .points
            .iter()
            .filter(|p| p.file_size > fig.cache_bytes * 11 / 10)
            .collect();
        assert!(!below.is_empty() && !above.is_empty());

        // Below the cache size, the warm linear scan runs near memory
        // speed — far better than the all-disk model.
        for p in &below {
            assert!(
                p.linear.mean < p.model_worst * 0.5,
                "below-cache point should be mostly cached: {p:?}"
            );
        }
        // Above the cache size, the linear scan hits the LRU worst case
        // (approximately the all-disk model), while the gray-box scan
        // stays well below it.
        for p in &above {
            assert!(
                p.linear.mean > p.model_worst * 0.7,
                "above-cache linear should approach worst case: {p:?}"
            );
            assert!(
                p.graybox.mean < p.linear.mean * 0.75,
                "gray-box must beat linear above the cache size: {p:?}"
            );
            assert!(
                p.graybox.mean < p.model_worst,
                "gray-box must beat the worst-case model: {p:?}"
            );
        }
        // The gray-box curve grows with file size (more uncached data).
        let g: Vec<f64> = fig.points.iter().map(|p| p.graybox.mean).collect();
        assert!(g.last().unwrap() > g.first().unwrap());
    }
}
