//! Deterministic multi-client scenario scaffolding.
//!
//! Daemon-scale experiments (the `gbd` inference daemon, its benchmark
//! suite, and the staleness tests) all need the same setup: a machine
//! with several independent disks, a corpus of files spread across them,
//! a chosen subset resident in the file cache, and a way to *churn* that
//! residency behind an observer's back. This module packages those steps
//! so every caller builds the same machine the same way — the scenarios
//! stay comparable and the virtual-time numbers stay reproducible.

use graybox::os::GrayBoxOs;

use crate::{DiskParams, ExecBackend, Sim, SimConfig};

pub mod matrix;

/// Builds a quiet (no timing noise) machine with `disks` independent
/// small disks and enough CPU slack that `workers` concurrent probe
/// workers genuinely overlap their disk waits (two slots per worker, the
/// same proportioning as the scheduler benchmarks).
pub fn daemon_machine(disks: usize, workers: usize) -> Sim {
    assert!(disks >= 1, "need at least one disk");
    let mut cfg = SimConfig::small().without_noise();
    cfg.disks = vec![DiskParams::small(); disks.max(2)];
    cfg.swap_disk = 1;
    cfg.cpus = (2 * workers.max(1)) as u32;
    Sim::new(cfg)
}

/// Builds a quiet machine sized for *fleet* experiments: hundreds-to-
/// thousands of short-lived probe processes sharing `disks` data disks
/// and `cpus` CPU slots. The third argument selects nothing; it stays
/// because `benchmark/` passes it (see [`ExecBackend`]).
pub fn fleet_machine(disks: usize, cpus: u32, _exec: ExecBackend) -> Sim {
    assert!(disks >= 1, "need at least one disk");
    let mut cfg = SimConfig::small().without_noise();
    cfg.disks = vec![DiskParams::small(); disks.max(2)];
    cfg.swap_disk = 1;
    cfg.cpus = cpus.max(1);
    Sim::new(cfg)
}

/// Creates `files_per_disk` files of `bytes` each on the first `disks`
/// data disks (disk 0 is mounted at `/`, disk `i` at `/d<i>`), flushes
/// the file cache, and returns `(path, bytes)` pairs in creation order.
///
/// Every file starts cold; warm a subset with [`warm`].
pub fn spread_corpus(
    sim: &mut Sim,
    disks: usize,
    files_per_disk: usize,
    bytes: u64,
) -> Vec<(String, u64)> {
    let mut files = Vec::with_capacity(disks * files_per_disk);
    for d in 0..disks {
        for f in 0..files_per_disk {
            let path = if d == 0 {
                format!("/sc{f:02}")
            } else {
                format!("/d{d}/sc{f:02}")
            };
            files.push((path, bytes));
        }
    }
    let setup = files.clone();
    sim.run_one(move |os| {
        for (path, bytes) in &setup {
            let fd = os.create(path).unwrap();
            os.write_fill(fd, 0, *bytes).unwrap();
            os.close(fd).unwrap();
        }
    });
    sim.flush_file_cache();
    files
}

/// Reads each file end to end so it becomes resident — the ground truth
/// a cache-content detector should observe. One simulated process does
/// all the reading (sequentially, deterministically).
pub fn warm(sim: &mut Sim, files: &[(String, u64)]) {
    let files = files.to_vec();
    sim.run_one(move |os| {
        for (path, bytes) in &files {
            let fd = os.open(path).unwrap();
            os.read_discard(fd, 0, *bytes).unwrap();
            os.close(fd).unwrap();
        }
    });
}

/// Flips residency behind any observer's back: evicts everything, then
/// re-warms only `keep`. After this, a classification taken before the
/// churn is stale for every file whose membership in `keep` changed.
pub fn churn(sim: &mut Sim, keep: &[(String, u64)]) {
    sim.flush_file_cache();
    if !keep.is_empty() {
        warm(sim, keep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_spreads_and_warm_subset_is_resident() {
        let mut sim = daemon_machine(3, 2);
        let files = spread_corpus(&mut sim, 3, 2, 256 << 10);
        assert_eq!(files.len(), 6);
        assert!(files.iter().any(|(p, _)| p.starts_with("/d2/")));
        let oracle = sim.oracle();
        for (path, _) in &files {
            assert_eq!(
                oracle.cached_fraction(path).unwrap(),
                0.0,
                "{path} starts cold"
            );
        }
        drop(oracle);
        warm(&mut sim, &files[..2]);
        let oracle = sim.oracle();
        assert!(oracle.cached_fraction(&files[0].0).unwrap() > 0.9);
        assert_eq!(oracle.cached_fraction(&files[3].0).unwrap(), 0.0);
    }

    #[test]
    fn churn_flips_residency() {
        let mut sim = daemon_machine(2, 1);
        let files = spread_corpus(&mut sim, 2, 2, 128 << 10);
        warm(&mut sim, &files[..1]);
        churn(&mut sim, &files[1..2]);
        let oracle = sim.oracle();
        assert_eq!(oracle.cached_fraction(&files[0].0).unwrap(), 0.0, "evicted");
        assert!(
            oracle.cached_fraction(&files[1].0).unwrap() > 0.9,
            "re-warmed"
        );
    }
}
