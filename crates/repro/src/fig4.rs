//! Figure 4 — **Multi-Platform Experiments**: repeated large-file scans
//! and multi-file searches on the three OS personalities, each point shown
//! as cold-cache / warm-cache / warm-gray-box, normalized to the cold run.
//!
//! The paper's findings this figure must reproduce:
//!
//! - **Linux**: warm linear rescans of a larger-than-cache file run at
//!   disk speed (LRU worst case); gray-box rescans are much faster.
//! - **NetBSD**: the file cache is a fixed 64 MB, so a 1 GB warm scan is
//!   hopeless either way; the paper instead scans a file sized to the
//!   small cache to show the best case, which is what we do (scaled).
//! - **Solaris**: warm rescans do well *even unmodified* — the sticky
//!   cache retains a fixed portion of the file — and that portion is hard
//!   to dislodge.
//! - **Search**: with the match in a cached file given last on the command
//!   line, the unmodified search reads everything while the gray-box
//!   search goes to the cached file first, on every platform — gray-box
//!   pays off even under non-LRU replacement.

use gray_apps::grep::{Grep, GrepMode, GrepOptions, Needle};
use gray_apps::scan::{graybox_scan, linear_scan};
use gray_apps::workload::{make_file, make_files};
use simos::{scenario, Platform, Sim, PAGE_SIZE};

use crate::{format_table, paper_note, Scale, TrialStats};

/// The three bars for one (platform, benchmark) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Bars {
    /// Cold-cache traditional run (the normalization basis).
    pub cold: TrialStats,
    /// Warm-cache traditional runs.
    pub warm: TrialStats,
    /// Warm-cache gray-box runs.
    pub gray: TrialStats,
}

impl Bars {
    /// (warm, gray) normalized to cold.
    pub fn normalized(&self) -> (f64, f64) {
        (
            self.warm.mean / self.cold.mean,
            self.gray.mean / self.cold.mean,
        )
    }
}

/// One platform's row.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRow {
    /// The personality.
    pub platform: Platform,
    /// Large-file scan bars.
    pub scan: Bars,
    /// Multi-file search bars.
    pub search: Bars,
}

/// The figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// One row per platform.
    pub rows: Vec<PlatformRow>,
}

/// Runs all six cells.
pub fn run(scale: Scale) -> Fig4 {
    let rows = [
        Platform::LinuxLike,
        Platform::NetBsdLike,
        Platform::SolarisLike,
    ]
    .into_iter()
    .map(|p| PlatformRow {
        platform: p,
        scan: run_scan(scale, p),
        search: run_search(scale, p),
    })
    .collect();
    Fig4 { rows }
}

fn run_scan(scale: Scale, platform: Platform) -> Bars {
    let cfg = scale.sim_config().with_platform(platform);
    // Paper file sizes: 1 GB on Linux/Solaris; 65 MB on NetBSD (sized just
    // above its fixed 64 MB cache to show the best case).
    let file_size = match platform {
        Platform::NetBsdLike => scale.bytes(65 << 20),
        _ => scale.bytes(1 << 30),
    }
    .next_multiple_of(PAGE_SIZE);
    let chunk = 1u64 << 20;
    let trials = scale.trials();
    // FCCD units must be meaningfully finer than the cache for a
    // file-size ≈ cache-size scenario; NetBSD's fixed cache is tiny, so
    // its cell uses proportionally finer units (the paper tunes these by
    // microbenchmark per platform).
    let params = match platform {
        Platform::NetBsdLike => {
            let cache = match cfg.cache_arch() {
                simos::CacheArch::SplitFixed { file_cache_bytes } => file_cache_bytes,
                _ => unreachable!("NetBSD personality uses a fixed file cache"),
            };
            graybox::fccd::FccdParams {
                access_unit: (cache / 16).next_multiple_of(PAGE_SIZE),
                prediction_unit: (cache / 64).next_multiple_of(PAGE_SIZE),
                ..graybox::fccd::FccdParams::default()
            }
        }
        _ => scale.fccd_params(),
    };

    let mut sim = Sim::new(cfg);
    sim.run_one(|os| make_file(os, "/scanfile", file_size).unwrap());

    // Cold.
    sim.flush_file_cache();
    let cold = vec![
        sim.run_one(|os| linear_scan(os, "/scanfile", chunk).unwrap())
            .elapsed,
    ];
    // Warm traditional (repeated runs; the cold run above warmed it).
    let mut warm = Vec::with_capacity(trials);
    for _ in 0..trials {
        warm.push(
            sim.run_one(|os| linear_scan(os, "/scanfile", chunk).unwrap())
                .elapsed,
        );
    }
    // Warm gray-box: restart from a flush, let one gray run establish the
    // access-unit feedback, then measure.
    sim.flush_file_cache();
    let p0 = params.clone();
    sim.run_one(|os| graybox_scan(os, "/scanfile", p0, chunk).unwrap());
    let mut gray = Vec::with_capacity(trials);
    for _ in 0..trials {
        let p = params.clone();
        gray.push(
            sim.run_one(|os| graybox_scan(os, "/scanfile", p, chunk).unwrap())
                .elapsed,
        );
    }
    Bars {
        cold: TrialStats::of(&cold),
        warm: TrialStats::of(&warm),
        gray: TrialStats::of(&gray),
    }
}

fn run_search(scale: Scale, platform: Platform) -> Bars {
    let cfg = scale.sim_config().with_platform(platform);
    let file_bytes = scale.bytes(10 << 20);
    let count = 100usize;
    let trials = scale.trials();
    let params = scale.fccd_params();
    let opts = GrepOptions {
        stop_at_first_match: true,
    };

    let mut sim = Sim::new(cfg);
    let paths = sim.run_one(|os| make_files(os, "/corpus", count, file_bytes).unwrap());
    // "The matching string is located in a cached file which is specified
    // last on the command-line."
    let target = paths.last().expect("count > 0").clone();
    let needle = Needle::SyntheticIn(Some(target.clone()));

    // Cold: nothing cached, traditional order.
    sim.flush_file_cache();
    let cold = {
        let paths = paths.clone();
        let needle = needle.clone();
        let opts = opts.clone();
        vec![sim.run_one(move |os| {
            Grep::new(os, opts)
                .run(&paths, &needle, &GrepMode::Unmodified)
                .unwrap()
                .elapsed
        })]
    };

    // Only the match file is warm before each warm run.
    let warm_target = [(target, file_bytes)];

    // Warm traditional: match file cached, but the scan order is fixed.
    let mut warm = Vec::with_capacity(trials);
    for _ in 0..trials {
        scenario::churn(&mut sim, &warm_target);
        let paths = paths.clone();
        let needle = needle.clone();
        let opts = opts.clone();
        warm.push(sim.run_one(move |os| {
            Grep::new(os, opts)
                .run(&paths, &needle, &GrepMode::Unmodified)
                .unwrap()
                .elapsed
        }));
    }
    // Warm gray-box: probes find the cached file first.
    let mut gray = Vec::with_capacity(trials);
    for _ in 0..trials {
        scenario::churn(&mut sim, &warm_target);
        let paths = paths.clone();
        let needle = needle.clone();
        let opts = opts.clone();
        let params = params.clone();
        gray.push(sim.run_one(move |os| {
            Grep::new(os, opts)
                .run(&paths, &needle, &GrepMode::GrayBox(params))
                .unwrap()
                .elapsed
        }));
    }
    Bars {
        cold: TrialStats::of(&cold),
        warm: TrialStats::of(&warm),
        gray: TrialStats::of(&gray),
    }
}

/// Renders Figure 4 as `repro fig4` prints it.
pub fn render(fig: &Fig4) -> String {
    let mut rows = Vec::new();
    for row in &fig.rows {
        let (scan_warm, scan_gray) = row.scan.normalized();
        let (search_warm, search_gray) = row.search.normalized();
        rows.push(vec![
            row.platform.name().to_string(),
            format!("{:.3}s", row.scan.cold.mean),
            format!("{scan_warm:.2}"),
            format!("{scan_gray:.2}"),
            format!("{:.3}s", row.search.cold.mean),
            format!("{search_warm:.2}"),
            format!("{search_gray:.2}"),
        ]);
    }
    let header = [
        "platform",
        "scan cold",
        "scan warm",
        "scan gray",
        "search cold",
        "search warm",
        "search gray",
    ];
    format_table(
        "Figure 4: Multi-Platform (normalized to the cold run per cell)",
        &header,
        &rows,
    ) + &paper_note(
        "Linux warm scans stay at disk rate while gray wins; NetBSD's \
         fixed cache shows the best case on a small file; Solaris warm \
         rescans do well even unmodified (sticky cache); the gray-box \
         search wins everywhere because the match is in a cached file",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shape_holds_at_small_scale() {
        let fig = run(Scale::Small);
        let linux = &fig.rows[0];
        let netbsd = &fig.rows[1];
        let solaris = &fig.rows[2];
        assert_eq!(linux.platform, Platform::LinuxLike);

        // Linux scan: warm ≈ cold (LRU worst case), gray much better.
        let (warm, gray) = linux.scan.normalized();
        assert!(
            warm > 0.8,
            "Linux warm scan should stay near cold: {warm:.2}"
        );
        assert!(gray < 0.6, "Linux gray scan must win: {gray:.2}");

        // NetBSD best-case scan: the file slightly exceeds the fixed
        // cache, so the warm traditional scan is still the LRU worst case
        // while the gray-box scan keeps almost everything.
        let (warm, gray) = netbsd.scan.normalized();
        assert!(warm > 0.8, "NetBSD warm scan stays near cold: {warm:.2}");
        assert!(
            gray < 0.7 && gray < warm * 0.7,
            "NetBSD gray scan must win: gray {gray:.2} vs warm {warm:.2}"
        );

        // Solaris: even the *unmodified* warm rescan does well — the
        // sticky cache keeps a fixed portion of the file.
        let (warm, _gray) = solaris.scan.normalized();
        assert!(
            warm < 0.8,
            "Solaris warm rescans partially hit without gray-box help: {warm:.2}"
        );

        // Search: on every platform the gray-box search finds the cached
        // match far faster than the warm traditional search.
        for row in &fig.rows {
            let (warm, gray) = row.search.normalized();
            assert!(
                gray < warm * 0.3,
                "{:?} search: gray {gray:.2} vs warm {warm:.2}",
                row.platform
            );
        }
    }
}
