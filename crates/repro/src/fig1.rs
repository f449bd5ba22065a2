//! Figure 1 — **Probe Correlation**: how well does the presence of one
//! random page within a prediction unit predict the cached fraction of the
//! whole unit?
//!
//! The paper's procedure: flush the file cache; run a program that reads a
//! file of roughly twice the cache size in `access_unit`-sized sequential
//! chunks at random offsets; then (via their modified kernel) obtain the
//! per-page presence bitmap and correlate, across prediction units, the
//! presence of a random page with the unit's cached fraction. Three access
//! patterns (1 MB ≈ random, 10 MB, 100 MB ≈ sequential at paper scale)
//! sweep the prediction unit along the x-axis.
//!
//! The expected shape: correlation is high while the prediction unit is at
//! or below the access unit, and falls off noticeably beyond it.

use gray_apps::workload::make_file;
use gray_toolbox::correlation;
use gray_toolbox::rng::StdRng;
use gray_toolbox::trace;
use graybox::os::GrayBoxOs;
use simos::{Sim, PAGE_SIZE};

use crate::{format_table, paper_note, Scale};

/// One measured cell: mean and stddev of the correlation across trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Mean Pearson correlation.
    pub mean: f64,
    /// Sample standard deviation across trials.
    pub stddev: f64,
}

/// The full figure.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Access-unit sizes (bytes), one series each.
    pub access_units: Vec<u64>,
    /// Prediction-unit sizes (bytes), the x-axis.
    pub prediction_units: Vec<u64>,
    /// `cells[series][x]`.
    pub cells: Vec<Vec<Cell>>,
    /// File size used (bytes).
    pub file_size: u64,
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Fig1 {
    let cfg = scale.sim_config();
    let cache_bytes = cfg.usable_pages() * PAGE_SIZE;
    let file_size = cache_bytes * 2;

    // Paper-scale series: 1 MB, 10 MB, 100 MB access units.
    let access_units: Vec<u64> = [1u64 << 20, 10 << 20, 100 << 20]
        .iter()
        .map(|&b| scale.bytes(b).next_multiple_of(PAGE_SIZE))
        .collect();
    // Paper-scale x-axis: 1..50 MB prediction units.
    let prediction_units: Vec<u64> = [1u64 << 20, 2 << 20, 5 << 20, 10 << 20, 20 << 20, 50 << 20]
        .iter()
        .map(|&b| scale.bytes(b).next_multiple_of(PAGE_SIZE))
        .collect();
    let trials = scale.trials();

    let mut sim = Sim::new(cfg);
    sim.run_one(|os| make_file(os, "/fig1", file_size).unwrap());

    let mut cells = vec![Vec::new(); access_units.len()];
    let mut rng = StdRng::seed_from_u64(0xF161);
    for (si, &au) in access_units.iter().enumerate() {
        for &pu in &prediction_units {
            let mut corrs = Vec::with_capacity(trials);
            for trial in 0..trials {
                sim.flush_file_cache();
                let seed = 0x9000 + (si as u64) * 131 + pu + trial as u64;
                run_access_pattern(&mut sim, "/fig1", file_size, au, seed);
                let bitmap = sim.oracle().file_presence("/fig1").unwrap();
                corrs.push(probe_correlation(&bitmap, pu / PAGE_SIZE, &mut rng));
            }
            let s = gray_toolbox::Summary::new(&corrs);
            cells[si].push(Cell {
                mean: s.mean(),
                stddev: s.stddev(),
            });
        }
    }
    Fig1 {
        access_units,
        prediction_units,
        cells,
        file_size,
    }
}

/// Reads `access_unit`-sized sequential chunks at random offsets until one
/// file's worth of data has been read (the paper's test program).
fn run_access_pattern(sim: &mut Sim, path: &str, file_size: u64, access_unit: u64, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let reads = (file_size / access_unit).max(1);
    sim.run_one(|os| {
        let fd = os.open(path).unwrap();
        let page = os.page_size();
        for _ in 0..reads {
            let max_start = (file_size - access_unit) / page;
            let start = rng.random_range(0..=max_start) * page;
            os.read_discard(fd, start, access_unit).unwrap();
        }
        os.close(fd).unwrap();
    });
}

/// The Figure 1 statistic: across prediction units, correlate "a random
/// page of the unit is present" (0/1) with "fraction of the unit present".
///
/// Each unit's probe outcome is the figure's elementary inference, so it
/// is emitted as a `Classified { Present | Absent }` trace event — the
/// figure-level counterpart of FCCD's cached/uncached verdicts.
fn probe_correlation(bitmap: &[bool], unit_pages: u64, rng: &mut StdRng) -> f64 {
    let unit_pages = unit_pages.max(1) as usize;
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, unit) in bitmap.chunks(unit_pages).enumerate() {
        let frac = unit.iter().filter(|&&b| b).count() as f64 / unit.len() as f64;
        let probe = unit[rng.random_range(0..unit.len())];
        trace::emit_with(|| trace::TraceEvent::Classified {
            unit: format!("pu:{i}"),
            verdict: if probe {
                trace::Verdict::Present
            } else {
                trace::Verdict::Absent
            },
        });
        xs.push(if probe { 1.0 } else { 0.0 });
        ys.push(frac);
    }
    correlation(&xs, &ys)
}

/// Renders Figure 1 as `repro fig1` prints it.
pub fn render(fig: &Fig1) -> String {
    let mut header = vec!["pred unit".to_string()];
    for &au in &fig.access_units {
        header.push(format!("AU {:.2} MB", au as f64 / (1 << 20) as f64));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (x, &pu) in fig.prediction_units.iter().enumerate() {
        let mut row = vec![format!("{:.2} MB", pu as f64 / (1 << 20) as f64)];
        for series in &fig.cells {
            row.push(format!("{:.2} ±{:.2}", series[x].mean, series[x].stddev));
        }
        rows.push(row);
    }
    let title = format!(
        "Figure 1: Probe Correlation (file {} MB)",
        fig.file_size >> 20
    );
    format_table(&title, &header_refs, &rows)
        + &paper_note(
            "correlation is high while the prediction unit is <= the access \
             unit and falls off noticeably beyond it",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_correlation_of_chunked_bitmap_is_high() {
        // Perfectly chunky residency: units fully in or fully out.
        let mut bitmap = vec![true; 64];
        bitmap.extend(vec![false; 64]);
        bitmap.extend(vec![true; 64]);
        bitmap.extend(vec![false; 64]);
        let mut rng = StdRng::seed_from_u64(1);
        let c = probe_correlation(&bitmap, 16, &mut rng);
        assert!(c > 0.99, "chunky bitmap must correlate: {c}");
    }

    #[test]
    fn probe_correlation_of_scattered_bitmap_is_low() {
        // Alternating pages: a probe says nothing about unit fractions
        // (fractions are all 0.5 — zero variance in y).
        let bitmap: Vec<bool> = (0..256).map(|i| i % 2 == 0).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let c = probe_correlation(&bitmap, 16, &mut rng);
        assert!(c.abs() < 0.3, "scattered bitmap must not correlate: {c}");
    }

    #[test]
    fn figure_shape_holds_at_small_scale() {
        let fig = run(Scale::Small);
        // Smallest prediction unit, every pattern: strong correlation.
        for (si, series) in fig.cells.iter().enumerate() {
            assert!(
                series[0].mean > 0.6,
                "series {si} at smallest prediction unit: {:?}",
                series[0]
            );
        }
        // For the smallest (random-ish) access pattern, a prediction unit
        // far above the access unit must correlate worse than the
        // smallest prediction unit.
        let first = &fig.cells[0];
        let last = first.last().unwrap();
        assert!(
            last.mean < first[0].mean,
            "correlation must fall off: {first:?}"
        );
    }
}
