//! Host-parallel scenario matrix: the full platform × aging × noise ×
//! mix × fleet-size grid, fanned across host cores, scored per cell.
//!
//! Two properties are recorded, and they are deliberately different in
//! kind:
//!
//! - **The grid itself is deterministic.** Every cell is a self-seeded
//!   virtual-time simulation, so the scored grid — per-cell precision,
//!   recall, MAC error, virtual makespan, digest — is bit-identical
//!   whether one worker runs it or eight. `--diff --strict` gates the
//!   bit-identity flag and the aggregate scores.
//! - **The host speedup is a measurement, not a fact.** N workers vs one
//!   worker is host wall-clock, so it is measured the only way this repo
//!   trusts host time: paired, interleaved in one process (A/B then B/A,
//!   alternating), outlier pairs dropped whole, and *decided* by the
//!   paired sign test rather than a raw ratio. On a single-core host the
//!   honest answer is ~1x, and the headline records `host_cpus` so a
//!   reader can tell a scheduling regression from a small machine.

use gray_toolbox::bench::Harness;
use gray_toolbox::outlier::OutlierPolicy;
use gray_toolbox::pool::{JobPanic, Pool};
use gray_toolbox::stats::PairedHostReport;
use simos::scenario::matrix::{grid_digest, run_grid, CellResult, MatrixConfig};
use std::hint::black_box;

/// Paired measurement rounds for the full grid.
pub const FULL_ROUNDS: usize = 8;
/// Paired measurement rounds under `--smoke`.
pub const SMOKE_ROUNDS: usize = 4;
/// Significance level for the paired sign test.
pub const ALPHA: f64 = 0.05;

/// The `matrix` headline plus the per-cell grid and the paired
/// one-vs-N-worker host-time comparison.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// Cells in the grid.
    pub cells: usize,
    /// Cells that panicked (structured per-cell errors, not aborts).
    pub panicked: usize,
    /// Workers in the N-worker run (`GRAY_JOBS` or the host parallelism).
    pub workers: usize,
    /// Host hardware parallelism — context for the speedup number.
    pub host_cpus: usize,
    /// FNV fingerprint over every cell's digest, in grid order. Gated:
    /// identical across worker counts by construction.
    pub grid_digest: u64,
    /// Whether the 1-worker and N-worker grids were bit-identical.
    /// Gated: `false` is always a hard regression.
    pub identical: bool,
    /// Mean FCCD precision over scored cells (deterministic).
    pub precision: f64,
    /// Mean FCCD recall over scored cells (deterministic).
    pub recall: f64,
    /// Mean MAC relative error over scored cells (deterministic).
    pub mac_err: f64,
    /// Total virtual-time makespan of all cells (deterministic).
    pub total_virtual_ns: u64,
    /// The scored grid, in expansion order.
    pub grid: Vec<Result<CellResult, JobPanic>>,
    /// Paired 1-worker (baseline) vs N-worker (candidate) comparison.
    pub paired: PairedHostReport,
}

impl MatrixResult {
    /// The `matrix` headline's JSON fields (one line; keys chosen to
    /// collide with no other headline's line-scanner probes).
    pub fn json_fields(&self) -> String {
        format!(
            "\"cells\":{},\"panicked\":{},\"workers\":{},\"host_cpus\":{},\
             \"grid_digest\":{},\"identical\":{},\"precision\":{:.4},\
             \"recall\":{:.4},\"mac_err\":{:.4},\"total_virtual_ns\":{}",
            self.cells,
            self.panicked,
            self.workers,
            self.host_cpus,
            self.grid_digest,
            self.identical,
            self.precision,
            self.recall,
            self.mac_err,
            self.total_virtual_ns
        )
    }

    /// The `matrix_host_speedup` row's JSON fields: the paired
    /// measurement and its sign-test verdict, in full, so the diff can
    /// re-apply the decision rule without re-running anything.
    pub fn speedup_json_fields(&self) -> String {
        let p = &self.paired;
        format!(
            "\"one_worker_median_ns\":{:.0},\"n_worker_median_ns\":{:.0},\
             \"workers\":{},\"host_cpus\":{},\"speedup\":{:.3},\
             \"rounds\":{},\"kept\":{},\"sign_less\":{},\"sign_greater\":{},\
             \"sign_ties\":{},\"p_value\":{:.6},\"faster\":{}",
            p.baseline_median_ns,
            p.candidate_median_ns,
            self.workers,
            self.host_cpus,
            p.speedup,
            p.rounds,
            p.kept,
            p.sign.less,
            p.sign.greater,
            p.sign.ties,
            p.sign.p_value,
            p.candidate_faster(ALPHA)
        )
    }

    /// One JSON object per cell, for the baseline file's `matrix_grid`
    /// section. Panicked cells serialize their index and message, so a
    /// failure mode is still a stable, diffable artifact.
    pub fn grid_json_lines(&self) -> Vec<String> {
        self.grid
            .iter()
            .map(|cell| match cell {
                Ok(c) => format!(
                    "{{\"cell\":\"{}\",\"precision\":{:.4},\"recall\":{:.4},\
                     \"mac_err\":{:.4},\"virtual_ns\":{},\"digest\":{}}}",
                    c.label,
                    c.fccd.precision(),
                    c.fccd.recall(),
                    c.mac_abs_err,
                    c.virtual_ns,
                    c.digest
                ),
                Err(p) => format!(
                    "{{\"cell_index\":{},\"panic\":\"{}\"}}",
                    p.index,
                    p.message.escape_default()
                ),
            })
            .collect()
    }
}

/// Runs the grid (full or smoke) and the paired host-time comparison.
pub fn run(smoke: bool) -> MatrixResult {
    let cfg = if smoke {
        MatrixConfig::smoke()
    } else {
        MatrixConfig::full()
    };
    let rounds = if smoke { SMOKE_ROUNDS } else { FULL_ROUNDS };
    run_with(&cfg, rounds)
}

/// [`run`] with an explicit grid and round count (tests use tiny grids).
pub fn run_with(cfg: &MatrixConfig, rounds: usize) -> MatrixResult {
    let one = Pool::with_workers(1);
    let many = Pool::from_env();

    // Correctness first: the grid must not depend on the worker count.
    let grid = run_grid(cfg, &one);
    let grid_many = run_grid(cfg, &many);
    let digest = grid_digest(&grid);
    let identical = grid == grid_many && digest == grid_digest(&grid_many);

    // Then the measurement: 1 worker vs N, interleaved and sign-tested.
    let paired = gray_toolbox::paired_host_compare(
        rounds,
        || {
            black_box(run_grid(cfg, &one));
        },
        || {
            black_box(run_grid(cfg, &many));
        },
        OutlierPolicy::default(),
    );

    let scored: Vec<&CellResult> = grid.iter().filter_map(|c| c.as_ref().ok()).collect();
    let mean = |f: &dyn Fn(&CellResult) -> f64| -> f64 {
        if scored.is_empty() {
            0.0
        } else {
            scored.iter().map(|c| f(c)).sum::<f64>() / scored.len() as f64
        }
    };
    MatrixResult {
        cells: grid.len(),
        panicked: grid.len() - scored.len(),
        workers: many.workers(),
        host_cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
        grid_digest: digest,
        identical,
        precision: mean(&|c| c.fccd.precision()),
        recall: mean(&|c| c.fccd.recall()),
        mac_err: mean(&|c| c.mac_abs_err),
        total_virtual_ns: scored.iter().map(|c| c.virtual_ns).sum(),
        grid,
        paired,
    }
}

/// Registers the host-time matrix benches: the smoke grid under one
/// worker and under the environment's worker count. The full grid is
/// measured once per baseline in [`run`] — it is the measurement, not a
/// harness bench.
pub fn register(h: &mut Harness) {
    let cfg = MatrixConfig::smoke();
    let one = Pool::with_workers(1);
    h.bench_function("matrix_smoke_grid_1w", {
        let cfg = cfg.clone();
        move |b| {
            b.iter(|| black_box(run_grid(&cfg, &one)));
        }
    });
    let many = Pool::from_env();
    h.bench_function("matrix_smoke_grid_env", move |b| {
        b.iter(|| black_box(run_grid(&cfg, &many)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::scenario::matrix::WorkloadMix;
    use simos::Platform;

    fn tiny() -> MatrixConfig {
        MatrixConfig {
            platforms: vec![Platform::LinuxLike],
            aging: vec![false],
            noise_amps: vec![0.0, 0.1],
            mixes: vec![WorkloadMix::ProbeHeavy],
            fleet_sizes: vec![3],
            seed: 11,
            disks: 2,
            files_per_disk: 2,
            file_bytes: 32 << 10,
        }
    }

    #[test]
    fn tiny_matrix_is_identical_and_emits_clean_json() {
        let _tracer = crate::hold_tracer();
        let m = run_with(&tiny(), 2);
        assert!(m.identical, "grid must not depend on worker count");
        assert_eq!(m.cells, 2);
        assert_eq!(m.panicked, 0);
        assert!(m.total_virtual_ns > 0);
        // The baseline diff scans line-by-line with substring probes;
        // none of the other headlines' probe keys may appear here.
        let lines: Vec<String> = m
            .grid_json_lines()
            .into_iter()
            .chain([m.json_fields(), m.speedup_json_fields()])
            .collect();
        for line in &lines {
            for probe in [
                "\"serial_virtual_ns\":",
                "\"virtual_ns_per_query\":",
                "\"xl_virtual_ns\":",
                "\"fccd_precision\":",
                "\"mean_ns\":",
            ] {
                assert!(!line.contains(probe), "{line} collides with {probe}");
            }
        }
        // And our own locator keys are present exactly where expected.
        assert!(m.json_fields().contains("\"grid_digest\":"));
        assert!(m
            .speedup_json_fields()
            .contains("\"one_worker_median_ns\":"));
    }

    #[test]
    fn paired_report_is_well_formed() {
        let _tracer = crate::hold_tracer();
        let m = run_with(&tiny(), 3);
        assert_eq!(m.paired.rounds, 3);
        assert!(m.paired.kept >= 2);
        assert!(m.paired.speedup > 0.0);
        assert!(m.paired.baseline_median_ns > 0.0);
    }
}
