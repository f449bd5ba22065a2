//! Probe-scheduler benchmarks: serial vs concurrent multi-file FCCD
//! probing through `gray-sched`.
//!
//! The headline number is **virtual-time** makespan, not host time: the
//! discrete-event simulator's host cost does not shrink when probes
//! overlap (it still evaluates every event), but the *simulated* clock
//! does — four cold files on four disks probed concurrently finish in
//! roughly the span of the slowest one instead of the sum of all four.
//! [`fccd_multifile_speedup`] reports that ratio; `register` adds
//! host-time entries so the suite also shows up in the harness baseline.

use gray_sched::{FccdFleet, SchedConfig, Scheduler, SimExecutor};
use gray_toolbox::bench::Harness;
use graybox::os::GrayBoxOs;
use simos::{DiskParams, Sim, SimConfig};
use std::hint::black_box;

use crate::tiny_fccd;

/// Number of files (and disks) in the multi-file probe comparison.
pub const FLEET_FILES: usize = 4;
/// Bytes per probed file.
const FILE_BYTES: u64 = 2 << 20;

/// Serial-vs-concurrent comparison of one fleet classification.
#[derive(Debug, Clone, Copy)]
pub struct SchedSpeedup {
    /// Summed wave spans at concurrency 1 (virtual ns).
    pub serial_ns: u64,
    /// Makespan of the single concurrency-4 wave (virtual ns).
    pub concurrent_ns: u64,
    /// `serial_ns / concurrent_ns`.
    pub speedup: f64,
}

/// A four-disk machine with one cold probe file per disk.
fn sched_sim() -> (Sim, Vec<(String, u64)>) {
    let mut cfg = SimConfig::small().without_noise();
    cfg.disks = vec![DiskParams::small(); FLEET_FILES];
    cfg.swap_disk = 1;
    // Two CPUs per worker so the comparison isolates *disk* overlap: the
    // shared CPU bank books each tiny syscall/timer charge on the
    // earliest-free slot, so at exactly one slot per worker the bookings
    // cross-couple the workers and cap the overlap (~1.8x); with slack
    // slots the makespan drops to the slowest single file (~3.4x).
    cfg.cpus = 2 * FLEET_FILES as u32;
    let mut sim = Sim::new(cfg);
    let files: Vec<(String, u64)> = (0..FLEET_FILES)
        .map(|i| {
            let path = if i == 0 {
                "/probe0".to_string()
            } else {
                format!("/d{i}/probe{i}")
            };
            (path, FILE_BYTES)
        })
        .collect();
    let setup = files.clone();
    sim.run_one(move |os| {
        for (path, bytes) in &setup {
            let fd = os.create(path).unwrap();
            os.write_fill(fd, 0, *bytes).unwrap();
            os.close(fd).unwrap();
        }
    });
    sim.flush_file_cache();
    (sim, files)
}

/// Classifies the fleet's files at the given concurrency cap and returns
/// the summed virtual span of all dispatched waves.
fn run_fleet(concurrency: usize) -> u64 {
    let (mut sim, files) = sched_sim();
    // Sub-batch of 1: each probe is its own scheduling point, so the
    // simulator interleaves the workers' probes in causal order and
    // their disk waits genuinely overlap. (A whole-plan batch executes
    // atomically under the kernel lock, which serializes the wave — the
    // batch bound is the concurrency granularity, not just dispatch
    // amortization.)
    let fleet = sim.run_one(|os| FccdFleet::with_fixed_seed(os, tiny_fccd(), 1));
    let mut sched = Scheduler::new(SchedConfig {
        concurrency,
        ..SchedConfig::default()
    });
    let mut exec = SimExecutor::new(&mut sim);
    let ranks = fleet.order_files(&mut sched, &mut exec, &files);
    assert_eq!(ranks.len(), FLEET_FILES);
    sched
        .waves()
        .iter()
        .map(|w| w.span.expect("sim executor reports spans").as_nanos())
        .sum()
}

/// Measures the virtual-time speedup of probing [`FLEET_FILES`] cold files
/// concurrently (one wave) over serially (one wave per file). Both runs
/// use identical fixed-seed plans on identical fresh machines.
pub fn fccd_multifile_speedup() -> SchedSpeedup {
    let serial_ns = run_fleet(1);
    let concurrent_ns = run_fleet(FLEET_FILES);
    SchedSpeedup {
        serial_ns,
        concurrent_ns,
        speedup: serial_ns as f64 / concurrent_ns.max(1) as f64,
    }
}

/// Registers the scheduler benchmarks (host-time: simulator cost of the
/// serial and concurrent dispatch paths, and the scheduler's own queue
/// machinery).
pub fn register(h: &mut Harness) {
    h.bench_function("sched_fccd_4files_serial", |b| {
        b.iter(|| black_box(run_fleet(1)));
    });
    h.bench_function("sched_fccd_4files_concurrent", |b| {
        b.iter(|| black_box(run_fleet(FLEET_FILES)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_probing_beats_serial_by_the_acceptance_bar() {
        let _tracer = crate::hold_tracer();
        let s = fccd_multifile_speedup();
        assert!(
            s.speedup >= 1.5,
            "concurrent multi-file probing must overlap disk service: \
             serial {} ns vs concurrent {} ns ({:.2}x)",
            s.serial_ns,
            s.concurrent_ns,
            s.speedup
        );
    }
}
