//! Figure 7 — **Performance of the Sort with MAC**: four competing copies
//! of fastsort, each sorting its own record file from its own disk (the
//! fifth disk is swap-only), sweeping the statically configured pass size
//! against `gb-fastsort`, whose pass sizes come from MAC.
//!
//! Paper findings: performance is extremely sensitive to the static pass
//! size — slightly past the sweet spot (150 MB per process on their
//! 830 MB machine) the system pages and completion time explodes (a
//! 290 MB pass takes ~30 minutes); `gb-fastsort` never pages, picks an
//! average pass of 154 MB, and lands within ~1.5× of the best static
//! configuration, the overhead split between probing and waiting for
//! memory.

use gray_apps::fastsort::{FastSort, PassPolicy, SortConfig, SortReport};
use gray_apps::workload::make_file;
use graybox::mac::MacParams;
use simos::exec::Workload;
use simos::{DiskParams, Sim, SimConfig, PAGE_SIZE};

use crate::{format_table, paper_note, Scale};

/// One sweep point: a pass-size configuration across the four processes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Label ("50 MB", …, or "gb").
    pub label: String,
    /// Static pass size in bytes (None for gb-fastsort).
    pub pass_bytes: Option<u64>,
    /// Completion time of the slowest process, seconds.
    pub makespan: f64,
    /// Mean across processes of the read phase, seconds.
    pub read: f64,
    /// Mean sort phase, seconds.
    pub sort: f64,
    /// Mean write phase, seconds.
    pub write: f64,
    /// Mean MAC probe overhead, seconds (gb only).
    pub probe_overhead: f64,
    /// Mean time slept after MAC turned a pass down, seconds (gb only).
    pub wait_overhead: f64,
    /// Mean pass size actually used, bytes.
    pub mean_pass: u64,
    /// Swap-outs observed during the run (paging indicator).
    pub swap_outs: u64,
}

/// The figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7 {
    /// All sweep points, static sizes first, gb last.
    pub points: Vec<SweepPoint>,
    /// Per-process data size, bytes.
    pub data_per_proc: u64,
    /// Usable memory, bytes.
    pub usable_memory: u64,
}

/// Number of competing sorts (the paper's four).
pub const PROCS: usize = 4;

/// The five-disk machine for this figure (the paper's: each process reads
/// and writes its own disk; the fifth is used only for paging).
fn machine(scale: Scale) -> SimConfig {
    match scale {
        Scale::Paper => SimConfig::paper(),
        Scale::Small => {
            let mut cfg = scale.sim_config();
            cfg.disks = vec![DiskParams::small(); 5];
            cfg.swap_disk = 4;
            cfg.cpus = 2;
            cfg
        }
    }
}

/// Runs the whole sweep.
pub fn run(scale: Scale) -> Fig7 {
    // Paper sweep: 50, 100, 150, 200 MB static passes (plus the 290 MB
    // catastrophe mentioned in the caption), then gb-fastsort.
    let static_passes: Vec<u64> = [50u64 << 20, 100 << 20, 150 << 20, 200 << 20]
        .iter()
        .map(|&b| scale.bytes(b))
        .collect();
    let data_per_proc = scale.bytes(477 << 20) / 100 * 100;
    let cfg = machine(scale);
    let usable_memory = cfg.usable_pages() * PAGE_SIZE;

    let mut points = Vec::new();
    for &pass in &static_passes {
        let label = format!("{} MB", to_paper_mb(scale, pass));
        points.push(run_config(
            scale,
            &label,
            data_per_proc,
            PassPolicy::Static(pass),
            Some(pass),
        ));
    }
    let mac = MacParams {
        initial_increment: scale.bytes(16 << 20).max(4096),
        max_increment: scale.bytes(128 << 20).max(8192),
    };
    points.push(run_config(
        scale,
        "gb",
        data_per_proc,
        PassPolicy::GrayBox {
            mac,
            min: scale.bytes(100 << 20),
        },
        None,
    ));
    Fig7 {
        points,
        data_per_proc,
        usable_memory,
    }
}

/// Converts a scaled pass size back to its paper-scale label.
fn to_paper_mb(scale: Scale, pass: u64) -> u64 {
    match scale {
        Scale::Paper => pass >> 20,
        Scale::Small => (pass * 14) >> 20,
    }
}

fn run_config(
    scale: Scale,
    label: &str,
    data_per_proc: u64,
    policy: PassPolicy,
    pass_bytes: Option<u64>,
) -> SweepPoint {
    let cfg = machine(scale);
    let mut sim = Sim::new(cfg);

    // Create each process's input on its own disk (disk 0 mounts "/").
    let inputs: Vec<String> = (0..PROCS)
        .map(|i| {
            if i == 0 {
                "/sortin".to_string()
            } else {
                format!("/d{i}/sortin")
            }
        })
        .collect();
    for input in &inputs {
        let input = input.clone();
        sim.run_one(move |os| make_file(os, &input, data_per_proc).unwrap());
    }
    sim.flush_file_cache();

    // Launch the four competing sorts.
    let workloads: Vec<(String, Workload<'_, SortReport>)> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| {
            let input = input.clone();
            let output = if i == 0 {
                "/sorted".to_string()
            } else {
                format!("/d{i}/sorted")
            };
            let policy = policy.clone();
            let name = format!("fastsort{i}");
            let wl: Workload<'_, SortReport> = Box::new(move |os: &simos::SimProc| {
                let cfg = SortConfig::new(&input, &output, policy);
                FastSort::new(os, cfg).run_modelled().unwrap()
            });
            (name, wl)
        })
        .collect();
    let reports = sim.run(workloads);
    let swap_outs = sim.oracle().stats().swap_outs;

    let n = reports.len() as f64;
    let mean = |f: &dyn Fn(&SortReport) -> f64| reports.iter().map(f).sum::<f64>() / n;
    SweepPoint {
        label: label.to_string(),
        pass_bytes,
        makespan: reports
            .iter()
            .map(|r| r.total.as_secs_f64())
            .fold(0.0, f64::max),
        read: mean(&|r| r.read_time.as_secs_f64()),
        sort: mean(&|r| r.sort_time.as_secs_f64()),
        write: mean(&|r| r.write_time.as_secs_f64()),
        probe_overhead: mean(&|r| r.probe_time.as_secs_f64()),
        wait_overhead: mean(&|r| r.wait_time.as_secs_f64()),
        mean_pass: (mean(&|r| r.mean_pass() as f64)) as u64,
        swap_outs,
    }
}

/// Renders Figure 7 as `repro fig7` prints it: virtual time only, so two
/// runs print the same bytes and `results/fig7.txt` is checked in CI.
pub fn render(fig: &Fig7) -> String {
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.2}s", p.makespan),
                format!("{:.2}s", p.read),
                format!("{:.2}s", p.sort),
                format!("{:.2}s", p.write),
                format!("{:.2}s", p.probe_overhead + p.wait_overhead),
                format!("{} MB", p.mean_pass >> 20),
                p.swap_outs.to_string(),
            ]
        })
        .collect();
    let title = format!(
        "Figure 7: Sort with MAC (4 procs x {} MB data, {} MB usable memory)",
        fig.data_per_proc >> 20,
        fig.usable_memory >> 20
    );
    let header = [
        "pass",
        "makespan",
        "read",
        "sort",
        "write",
        "mac ovh",
        "mean pass",
        "swapouts",
    ];
    format_table(&title, &header, &rows)
        + &paper_note(
            "static passes past the sweet spot page and explode (~30 min at \
             290 MB); gb-fastsort never pages, picks ~154 MB passes, and costs \
             ~1.54x the best static setting (probe + wait overhead)",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shape_holds_at_small_scale() {
        let fig = run(Scale::Small);
        let statics: Vec<&SweepPoint> = fig
            .points
            .iter()
            .filter(|p| p.pass_bytes.is_some())
            .collect();
        let gb = fig.points.last().expect("gb point");
        assert!(gb.pass_bytes.is_none());

        // The largest static pass pages; the sweet spot does not.
        let worst_static = statics.last().unwrap();
        let best_static = statics
            .iter()
            .min_by(|a, b| a.makespan.partial_cmp(&b.makespan).unwrap())
            .unwrap();
        assert!(
            worst_static.swap_outs > 0,
            "the oversized pass must page: {worst_static:?}"
        );
        assert!(
            worst_static.makespan > best_static.makespan * 1.5,
            "paging must hurt: {} vs {}",
            worst_static.makespan,
            best_static.makespan
        );

        // gb-fastsort never *thrashes*: MAC's probing has bounded
        // collateral (billed as probe overhead), far below the paging of
        // the oversized static configuration.
        assert!(
            gb.swap_outs < worst_static.swap_outs / 10,
            "gb paging must be collateral-only: gb {} vs worst static {}",
            gb.swap_outs,
            worst_static.swap_outs
        );
        // …its average pass lands in the non-paging sweet band. The
        // paper's comparison point is the sweet spot — the *largest*
        // static pass that does not page — not the static point with the
        // minimum makespan: the non-paging points finish within a few
        // percent of each other, so which of them "wins" is clock-jitter
        // noise, while the sweet spot is stable.
        let sweet = statics
            .iter()
            .filter(|p| p.swap_outs == 0)
            .max_by_key(|p| p.pass_bytes.unwrap())
            .expect("at least one static pass must avoid paging");
        let ratio = gb.mean_pass as f64 / sweet.mean_pass as f64;
        assert!(
            (0.4..=2.0).contains(&ratio),
            "gb mean pass {} vs sweet-spot static mean pass {} (pass {})",
            gb.mean_pass,
            sweet.mean_pass,
            sweet.pass_bytes.unwrap()
        );
        // …and it lands well below the paging catastrophe, paying only a
        // bounded overhead over the best static configuration (the paper
        // measured 1.54x).
        assert!(gb.makespan < worst_static.makespan);
        assert!(
            gb.makespan < best_static.makespan * 2.5,
            "gb {} vs best {}",
            gb.makespan,
            best_static.makespan
        );
        // The overhead is attributable: probing plus waiting.
        assert!(gb.probe_overhead > 0.0);
        assert!(gb.wait_overhead > 0.0, "four sorts contend: {gb:?}");
    }
}
