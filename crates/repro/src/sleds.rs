//! FCCD versus SLEDs (paper Section 4.1): how close does the gray-box
//! detector get to the kernel-supported ideal?
//!
//! FCCD was inspired by Van Meter and Gao's Storage Latency Estimation
//! Descriptors (OSDI 2000), an interface that returns predicted access
//! times per file section — *implemented by modifying the Linux kernel*.
//! The paper's claim: "a great deal of the utility of their proposed
//! system can be obtained without any modification to the operating
//! system." This experiment quantifies that claim on the simulator, where
//! we can build the genuine article: a SLED backed by the kernel's own
//! presence bitmap (the oracle).
//!
//! Four strategies scan the same partially-cached file:
//!
//! 1. **linear** — no information at all;
//! 2. **fccd** — gray-box probing (this library);
//! 3. **sled** — perfect per-unit residency from the modified kernel,
//!    same access-unit machinery otherwise;
//! 4. the analytic **ideal** model (cached bytes at memory rate).

use gray_apps::scan::{graybox_scan, linear_scan, read_extents};
use gray_apps::workload::make_file;
use graybox::fccd::Extent;
use graybox::os::GrayBoxOs;
use simos::{disk::BANDWIDTH, scenario, Sim, COSTS, PAGE_SIZE};

use crate::{format_table, paper_note, Scale, TrialStats};

/// The comparison result.
#[derive(Debug, Clone, PartialEq)]
pub struct Sleds {
    /// Uninformed linear scan.
    pub linear: TrialStats,
    /// Gray-box FCCD-ordered scan.
    pub fccd: TrialStats,
    /// Kernel-bitmap (oracle) ordered scan — the modified-OS ideal.
    pub sled: TrialStats,
    /// Analytic ideal, seconds.
    pub model_ideal: f64,
    /// Fraction of the SLED's improvement over linear that FCCD captured,
    /// in [0, 1]-ish (can exceed 1 if FCCD happens to beat the SLED run).
    pub utility_captured: f64,
}

/// Runs the comparison in the paper's repeated-scan regime: a file at
/// 150% of the cache, warmed by a previous sequential pass (so an
/// uninformed rescan is the LRU worst case, while an informed reader can
/// harvest the resident tail).
pub fn run(scale: Scale) -> Sleds {
    let cfg = scale.sim_config();
    let cache_bytes = cfg.usable_pages() * PAGE_SIZE;
    let file_size = cache_bytes / 2 * 3;
    let params = scale.fccd_params();
    let unit = params.access_unit;
    let chunk = 1u64 << 20;
    let trials = scale.trials();
    let disk_bw = BANDWIDTH as f64;
    let mem_rate = PAGE_SIZE as f64 / (COSTS.copy_per_page + COSTS.page_lookup).as_secs_f64();

    let mut sim = Sim::new(cfg);
    sim.run_one(|os| make_file(os, "/sled", file_size).unwrap());

    // The warm state every strategy starts from: the residue of one
    // sequential pass (flush first so trials are identical).
    let one_pass = [("/sled".to_string(), file_size)];

    let mut linear_times = Vec::with_capacity(trials);
    let mut fccd_times = Vec::with_capacity(trials);
    let mut sled_times = Vec::with_capacity(trials);
    for _trial in 0..trials as u64 {
        // Linear rescan: the LRU worst case.
        scenario::churn(&mut sim, &one_pass);
        linear_times.push(
            sim.run_one(|os| linear_scan(os, "/sled", chunk).unwrap())
                .elapsed,
        );

        // FCCD.
        scenario::churn(&mut sim, &one_pass);
        let p = params.clone();
        fccd_times.push(
            sim.run_one(move |os| graybox_scan(os, "/sled", p, chunk).unwrap())
                .elapsed,
        );

        // SLED: rank units by the kernel's own presence bitmap, cached
        // fraction descending — no probes at all.
        scenario::churn(&mut sim, &one_pass);
        let bitmap = sim.oracle().file_presence("/sled").unwrap();
        let unit_pages = (unit / 4096) as usize;
        let mut ranked: Vec<(usize, usize)> = bitmap
            .chunks(unit_pages)
            .enumerate()
            .map(|(u, pages)| (u, pages.iter().filter(|&&b| !b).count()))
            .collect();
        ranked.sort_by_key(|&(u, missing)| (missing, u));
        let order: Vec<Extent> = ranked
            .into_iter()
            .map(|(u, _)| {
                let offset = u as u64 * unit;
                Extent {
                    offset,
                    len: unit.min(file_size - offset),
                }
            })
            .collect();
        sled_times.push(sim.run_one(move |os| {
            let t0 = os.now();
            let fd = os.open("/sled").unwrap();
            read_extents(os, fd, &order, chunk, |_| {}).unwrap();
            os.close(fd).unwrap();
            os.now().since(t0)
        }));
    }

    let linear = TrialStats::of(&linear_times);
    let fccd = TrialStats::of(&fccd_times);
    let sled = TrialStats::of(&sled_times);
    let cached = cache_bytes.min(file_size) as f64;
    let model_ideal = cached / mem_rate + (file_size as f64 - cached) / disk_bw;
    let utility_captured = if linear.mean > sled.mean {
        ((linear.mean - fccd.mean) / (linear.mean - sled.mean)).max(0.0)
    } else {
        1.0
    };
    Sleds {
        linear,
        fccd,
        sled,
        model_ideal,
        utility_captured,
    }
}

/// Renders the SLED comparison as `repro sleds` prints it.
pub fn render(r: &Sleds) -> String {
    let rows = vec![
        vec!["linear (no info)".to_string(), r.linear.to_string()],
        vec!["FCCD (gray-box)".to_string(), r.fccd.to_string()],
        vec!["SLED (modified kernel)".to_string(), r.sled.to_string()],
        vec!["ideal model".to_string(), format!("{:8.3}s", r.model_ideal)],
    ];
    format_table(
        "FCCD vs SLEDs (partially cached scan)",
        &["strategy", "time"],
        &rows,
    ) + &format!(
        "FCCD captured {:.0}% of the SLED's improvement over the uninformed scan\n",
        r.utility_captured * 100.0
    ) + &paper_note(
        "\"a great deal of the utility of their proposed system can be \
         obtained without any modification to the operating system\"",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fccd_captures_most_of_the_sled_utility() {
        let r = run(Scale::Small);
        // The SLED (modified kernel) is the floor; FCCD must land nearby,
        // and both must beat the uninformed scan.
        assert!(
            r.sled.mean < r.linear.mean * 0.8,
            "SLED must beat linear: {r:?}"
        );
        assert!(
            r.fccd.mean < r.linear.mean * 0.9,
            "FCCD must beat linear: {r:?}"
        );
        assert!(
            r.utility_captured > 0.6,
            "the paper claims 'a great deal of the utility': captured {:.2}",
            r.utility_captured
        );
        // And the gray-box layer can never beat perfect information by
        // much (sanity against accounting bugs).
        assert!(r.fccd.mean > r.sled.mean * 0.8, "{r:?}");
    }
}
