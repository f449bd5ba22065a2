//! The scenario matrix: a seeded sweep of platform × aging × noise ×
//! workload mix × fleet size, each cell a self-contained scored
//! simulation.
//!
//! The figures exercise a handful of fixed configurations; the matrix
//! turns "handles as many scenarios as you can imagine" into an
//! enumerable artifact. [`MatrixConfig::expand`] deterministically
//! expands the axes into [`ScenarioSpec`]s, each carrying its own seed
//! (derived from the grid seed and the cell index by splitmix64), and
//! [`ScenarioSpec::run`] boots a fresh machine, ages it if asked, runs a
//! contended probe fleet, classifies the corpus with FCCD, estimates
//! availability with MAC, and scores everything against the cell's own
//! oracle.
//!
//! **Parallelism contract.** A cell shares *nothing* mutable with its
//! siblings: its own `Sim` (kernel, disks, caches, RNG), its own oracle,
//! its own result struct. Scoring joins the classification result value
//! against that oracle ([`crate::score::score_fccd_verdicts`]), so a
//! score never depends on what else was traced. That is what makes
//! [`run_grid`] safe to fan across host cores: the grid is bit-identical
//! for 1 worker or N, and only wall-clock time changes with the worker
//! count. A cell's trace records go wherever its thread's capture is
//! (see [`gray_toolbox::trace`]): a capture armed inside the cell holds
//! that cell's alone, and one armed around [`run_grid`] collects every
//! cell's, through the pool's workers.

use gray_toolbox::hash::{fnv, fnv_bytes, FNV_OFFSET};
use gray_toolbox::pool::{self, JobPanic, Pool};
use gray_toolbox::rng::splitmix64;
use graybox::fccd::{Fccd, FccdParams};
use graybox::mac::{Mac, MacParams};
use graybox::os::GrayBoxOs;

use crate::scenario::{spread_corpus, warm};
use crate::score::{score_fccd_verdicts, FccdScore, MacScore};
use crate::{DiskParams, NoiseParams, Platform, Sim, SimConfig, SimProc};

/// What the fleet processes of a cell actually do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadMix {
    /// Read-only probing: every process probes its corpus file. The
    /// cache stays as the warm-up left it.
    ProbeHeavy,
    /// Probing under churn: every process rewrites a slice of its file
    /// before probing, and residency is churned again (flush + re-warm a
    /// different seeded subset) before classification.
    ChurnHeavy,
}

impl WorkloadMix {
    /// Short tag for labels and JSON.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadMix::ProbeHeavy => "probe",
            WorkloadMix::ChurnHeavy => "churn",
        }
    }
}

/// The axes of the sweep plus the shared sizing knobs. `expand` takes
/// the cross product in a fixed axis order, so cell indices — and with
/// them the per-cell seeds — are stable for a given config.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Platform cache policies to sweep.
    pub platforms: Vec<Platform>,
    /// File-system aging on/off.
    pub aging: Vec<bool>,
    /// Noise amplitudes (jitter fractions; `0.0` = the quiet machine).
    pub noise_amps: Vec<f64>,
    /// Workload mixes.
    pub mixes: Vec<WorkloadMix>,
    /// Concurrent probe processes per cell.
    pub fleet_sizes: Vec<usize>,
    /// Grid seed; each cell derives its own seed from this and its index.
    pub seed: u64,
    /// Data disks per cell machine.
    pub disks: usize,
    /// Corpus files per disk.
    pub files_per_disk: usize,
    /// Bytes per corpus file.
    pub file_bytes: u64,
}

impl MatrixConfig {
    /// The full baseline grid: 3 platforms × aging on/off × 3 noise
    /// amplitudes × 2 mixes × 2 fleet sizes = 72 cells.
    pub fn full() -> Self {
        MatrixConfig {
            platforms: vec![
                Platform::LinuxLike,
                Platform::NetBsdLike,
                Platform::SolarisLike,
            ],
            aging: vec![false, true],
            noise_amps: vec![0.0, 0.05, 0.15],
            mixes: vec![WorkloadMix::ProbeHeavy, WorkloadMix::ChurnHeavy],
            fleet_sizes: vec![4, 12],
            seed: 0x6D61_7472_6978, // "matrix"
            disks: 3,
            files_per_disk: 4,
            file_bytes: 128 << 10,
        }
    }

    /// A small grid for CI smoke runs: all three platforms, both aging
    /// states, two noise amplitudes, one mix, one fleet size (12 cells).
    pub fn smoke() -> Self {
        MatrixConfig {
            platforms: vec![
                Platform::LinuxLike,
                Platform::NetBsdLike,
                Platform::SolarisLike,
            ],
            aging: vec![false, true],
            noise_amps: vec![0.0, 0.1],
            mixes: vec![WorkloadMix::ProbeHeavy],
            fleet_sizes: vec![4],
            seed: 0x6D61_7472_6978,
            disks: 2,
            files_per_disk: 3,
            file_bytes: 64 << 10,
        }
    }

    /// Number of cells the config expands to.
    pub fn cells(&self) -> usize {
        self.platforms.len()
            * self.aging.len()
            * self.noise_amps.len()
            * self.mixes.len()
            * self.fleet_sizes.len()
    }

    /// Expands the cross product into self-contained cell specs, in a
    /// fixed axis order (platform outermost, fleet size innermost).
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        let mut specs = Vec::with_capacity(self.cells());
        for &platform in &self.platforms {
            for &aging in &self.aging {
                for &noise_amp in &self.noise_amps {
                    for &mix in &self.mixes {
                        for &fleet_size in &self.fleet_sizes {
                            let index = specs.len();
                            let mut state = self.seed ^ (index as u64).wrapping_mul(0x9E37);
                            let seed = splitmix64(&mut state);
                            specs.push(ScenarioSpec {
                                index,
                                platform,
                                aging,
                                noise_amp,
                                mix,
                                fleet_size,
                                seed,
                                disks: self.disks,
                                files_per_disk: self.files_per_disk,
                                file_bytes: self.file_bytes,
                            });
                        }
                    }
                }
            }
        }
        specs
    }
}

/// One fully-specified cell of the matrix. Self-contained: everything a
/// worker needs to build, run, and score the cell without touching any
/// shared state.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Position in the expanded grid (also the result's slot).
    pub index: usize,
    /// Platform cache policy.
    pub platform: Platform,
    /// Whether the file system is aged before the corpus is built.
    pub aging: bool,
    /// Jitter fraction (0.0 = quiet machine).
    pub noise_amp: f64,
    /// Fleet workload mix.
    pub mix: WorkloadMix,
    /// Concurrent probe processes.
    pub fleet_size: usize,
    /// The cell's own seed (derived; drives machine noise and warm-set
    /// selection).
    pub seed: u64,
    /// Data disks.
    pub disks: usize,
    /// Corpus files per disk.
    pub files_per_disk: usize,
    /// Bytes per corpus file.
    pub file_bytes: u64,
}

/// Scores and fingerprints from one executed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Human-readable cell coordinates.
    pub label: String,
    /// FCCD confusion tally against the cell's oracle.
    pub fccd: FccdScore,
    /// FCCD cluster separation at classification time.
    pub separation: f64,
    /// MAC availability estimate's relative error against the oracle.
    pub mac_abs_err: f64,
    /// Virtual-time makespan of the whole cell (deterministic).
    pub virtual_ns: u64,
    /// FNV fingerprint of the cell's observable behavior: fleet probe
    /// digests, verdicts, MAC numbers, and the makespan.
    pub digest: u64,
}

/// Noise parameters for an amplitude: jitter scales directly, spike
/// probability scales proportionally off the default profile.
fn noise_for(amp: f64) -> NoiseParams {
    if amp <= 0.0 {
        return NoiseParams::none();
    }
    let base = NoiseParams::default();
    NoiseParams {
        jitter_frac: amp,
        spike_prob: base.spike_prob * (amp / base.jitter_frac),
        ..base
    }
}

impl ScenarioSpec {
    /// Cell coordinates as a stable label, e.g.
    /// `linux/aged/n0.05/probe/f12`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/n{:.2}/{}/f{}",
            self.platform.tag(),
            if self.aging { "aged" } else { "fresh" },
            self.noise_amp,
            self.mix.name(),
            self.fleet_size
        )
    }

    /// Builds, runs, and scores this cell. Deterministic: depends only
    /// on the spec (virtual time throughout, no host state).
    pub fn run(&self) -> CellResult {
        let mut cfg = SimConfig::small()
            .with_platform(self.platform)
            .with_seed(self.seed);
        cfg.disks = vec![DiskParams::small(); self.disks.max(2)];
        cfg.swap_disk = 1;
        // Fewer CPU slots than processes, so the fleet genuinely contends.
        cfg.cpus = (self.fleet_size as u32 / 2).max(2);
        cfg.noise = noise_for(self.noise_amp);
        let mut sim = Sim::new(cfg);
        let t0 = sim.now();

        if self.aging {
            // FFS-style aging: create/unlink churn before the corpus is
            // built decorrelates i-numbers from layout (the allocator
            // rotor has moved), which is exactly the structure aging
            // destroys on real machines.
            sim.run_one(|os| {
                for i in 0..24 {
                    let path = format!("/age{i:02}");
                    let fd = os.create(&path).unwrap();
                    os.write_fill(fd, 0, 16 << 10).unwrap();
                    os.close(fd).unwrap();
                }
                for i in (0..24).step_by(2) {
                    os.unlink(&format!("/age{i:02}")).unwrap();
                }
            });
        }

        let files = spread_corpus(&mut sim, self.disks, self.files_per_disk, self.file_bytes);
        let warm_set = self.pick_subset(&files, 0x7761_726D); // "warm"
        warm(&mut sim, &warm_set);

        // Fleet phase: `fleet_size` concurrent probe processes.
        let fccd_params = || FccdParams {
            access_unit: 1 << 20,
            prediction_unit: 256 << 10,
            ..FccdParams::default()
        };
        let mix = self.mix;
        let workloads: Vec<(String, crate::exec::Workload<'_, u64>)> = (0..self.fleet_size)
            .map(|i| {
                let (path, bytes) = files[i % files.len()].clone();
                let w: crate::exec::Workload<'_, u64> = Box::new(move |os: &SimProc| {
                    let fd = os.open(&path).unwrap();
                    if mix == WorkloadMix::ChurnHeavy {
                        // Rewrite the first quarter: dirties cache pages
                        // and perturbs residency under the siblings.
                        os.write_fill(fd, 0, bytes / 4).unwrap();
                    }
                    let fccd = Fccd::with_fixed_seed(os, fccd_params());
                    let report = fccd.probe_file(fd, bytes);
                    os.close(fd).unwrap();
                    let mut h = FNV_OFFSET;
                    for unit in &report.units {
                        for v in [unit.offset, unit.probe_time.as_nanos(), unit.probes as u64] {
                            h = fnv(h, v);
                        }
                    }
                    h ^ os.now().as_nanos()
                });
                (format!("cell{}-p{i}", self.index), w)
            })
            .collect();
        let fleet_digests = sim.run(workloads);

        if self.mix == WorkloadMix::ChurnHeavy {
            // Churn residency behind the fleet's back before inference.
            let keep = self.pick_subset(&files, 0x6B65_6570); // "keep"
            crate::scenario::churn(&mut sim, &keep);
        }

        // Inference phase: classify the whole corpus, then join the
        // verdicts straight off the result value.
        let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
        let classified = sim.run_one(move |os| {
            let fccd = Fccd::with_fixed_seed(os, fccd_params());
            fccd.classify_files(&paths)
        });
        let verdicts: Vec<(String, bool)> = classified
            .cached
            .iter()
            .map(|r| (r.path.clone(), true))
            .chain(classified.uncached.iter().map(|r| (r.path.clone(), false)))
            .collect();
        let fccd_score = score_fccd_verdicts(
            &sim.oracle(),
            verdicts.iter().map(|(p, v)| (p.as_str(), *v)),
        );

        // MAC phase: estimate availability; truth is read the instant
        // before the probe allocates anything.
        let oracle = sim.oracle();
        let truth_bytes = (oracle
            .total_pages()
            .saturating_sub(oracle.resident_pages() as u64)
            * 4096) as f64;
        let ceiling = oracle.total_pages() * 4096 * 2;
        let estimate = sim.run_one(move |os| {
            let mac = Mac::new(
                os,
                MacParams {
                    initial_increment: 1 << 20,
                    max_increment: 4 << 20,
                },
            );
            mac.available_estimate(ceiling).unwrap()
        });
        let mac = MacScore {
            estimated_bytes: estimate as f64,
            truth_bytes,
        };

        let virtual_ns = sim.now().since(t0).as_nanos();
        let mut digest = FNV_OFFSET;
        for d in &fleet_digests {
            digest = fnv(digest, *d);
        }
        for (path, verdict) in &verdicts {
            digest = fnv(fnv_bytes(digest, path.as_bytes()), *verdict as u64);
        }
        digest = fnv(digest, classified.separation.to_bits());
        digest = fnv(digest, estimate);
        digest = fnv(digest, truth_bytes.to_bits());
        digest = fnv(digest, virtual_ns);

        CellResult {
            label: self.label(),
            fccd: fccd_score,
            separation: classified.separation,
            mac_abs_err: mac.abs_error(),
            virtual_ns,
            digest,
        }
    }

    /// Seeded ~half subset of `files` (deterministic per cell and salt).
    fn pick_subset(&self, files: &[(String, u64)], salt: u64) -> Vec<(String, u64)> {
        files
            .iter()
            .enumerate()
            .filter(|(i, _)| {
                let mut state = self.seed ^ salt ^ (*i as u64).wrapping_mul(0xA5A5);
                splitmix64(&mut state) & 1 == 0
            })
            .map(|(_, f)| f.clone())
            .collect()
    }
}

/// Runs every cell of `cfg` through `pool`, returning results in grid
/// order. A panicking cell yields a structured [`JobPanic`] in its own
/// slot; sibling cells are unaffected. Output is worker-count-invariant.
pub fn run_grid(cfg: &MatrixConfig, pool: &Pool) -> Vec<Result<CellResult, JobPanic>> {
    pool.map(cfg.expand(), |_idx, spec| spec.run())
}

/// One fingerprint for a whole grid run — what the bench baseline pins
/// across worker counts. Panicked cells fold in their index and message,
/// so even failure modes are compared deterministically.
pub fn grid_digest(cells: &[Result<CellResult, JobPanic>]) -> u64 {
    pool::grid_digest(cells, |c| c.digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MatrixConfig {
        MatrixConfig {
            platforms: vec![Platform::LinuxLike],
            aging: vec![false, true],
            noise_amps: vec![0.05],
            mixes: vec![WorkloadMix::ProbeHeavy, WorkloadMix::ChurnHeavy],
            fleet_sizes: vec![3],
            seed: 7,
            disks: 2,
            files_per_disk: 2,
            file_bytes: 32 << 10,
        }
    }

    #[test]
    fn expansion_is_stable_and_complete() {
        let cfg = MatrixConfig::full();
        let specs = cfg.expand();
        assert_eq!(specs.len(), cfg.cells());
        assert!(specs.len() >= 36, "acceptance floor");
        let labels: std::collections::BTreeSet<String> = specs.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), specs.len(), "labels must be unique");
        assert_eq!(cfg.expand(), specs, "expansion must be deterministic");
        // Cell seeds differ (splitmix64 decorrelation).
        let seeds: std::collections::BTreeSet<u64> = specs.iter().map(|s| s.seed).collect();
        assert_eq!(seeds.len(), specs.len());
    }

    #[test]
    fn cell_run_is_deterministic() {
        let spec = &tiny().expand()[1];
        let a = spec.run();
        let b = spec.run();
        assert_eq!(a, b);
        assert!(a.virtual_ns > 0, "cell must consume virtual time");
        assert!(a.fccd.scored() > 0, "verdicts must join against truth");
    }

    #[test]
    fn grid_is_worker_count_invariant() {
        let cfg = tiny();
        let one = run_grid(&cfg, &Pool::with_workers(1));
        let four = run_grid(&cfg, &Pool::with_workers(4));
        assert_eq!(one, four);
        assert_eq!(grid_digest(&one), grid_digest(&four));
        assert_eq!(one.len(), cfg.cells());
    }

    #[test]
    fn aging_and_mix_change_the_cell() {
        let specs = tiny().expand();
        // Same platform/noise/fleet; aging or mix differs => digests differ.
        let results: Vec<CellResult> = specs.iter().map(|s| s.run()).collect();
        let digests: std::collections::BTreeSet<u64> = results.iter().map(|r| r.digest).collect();
        assert_eq!(digests.len(), results.len(), "axes must matter");
    }
}
