//! Fleet-scale executor benchmark: hundreds of concurrent FCCD probe
//! processes on the one event-driven executor.
//!
//! The paper's inference-control loops only meet realistic contention
//! when *many* processes probe at once; the executor makes each handoff
//! one in-process context switch, so fleets of thousands are affordable.
//! The headline (`exec_fleet_speedup` in the baseline file — the key
//! predates the removal of the thread-per-process executor it was
//! measured against) records the 512-process fleet's host wall-clock,
//! its **deterministic** virtual-time makespan, and a flag saying two
//! runs replayed to the same digests. The makespan and the flag are
//! what `--diff --strict` gates; host time is informational.
//!
//! An XL row (2048 processes) records the same at four times the size.

use gray_toolbox::bench::Harness;
use graybox::fccd::Fccd;
use graybox::os::GrayBoxOs;
use simos::scenario::{fleet_machine, spread_corpus, warm};
use simos::{exec::Workload, ExecBackend, Sim, SimProc};
use std::hint::black_box;
use std::time::Instant;

/// Processes in the headline fleet.
pub const FLEET_PROCS: usize = 512;
/// Processes in the scale demonstration.
pub const XL_PROCS: usize = 2048;
/// Data disks the fleet's corpus spreads over.
const FLEET_DISKS: usize = 4;
/// CPU slots of the fleet machine.
const FLEET_CPUS: u32 = 8;
/// Corpus files per disk (16 files total; every other one warm).
const FILES_PER_DISK: usize = 4;
/// Bytes per corpus file.
const FILE_BYTES: u64 = 256 << 10;

/// The `exec_fleet_speedup` headline.
#[derive(Debug, Clone)]
pub struct FleetResult {
    /// Fleet size of the headline run.
    pub procs: usize,
    /// Host wall-clock of the second (warm) headline run (informational).
    pub events_host_ns: u64,
    /// Virtual-time makespan of the fleet — deterministic, gated by
    /// `--diff --strict`.
    pub virtual_ns: u64,
    /// Whether two runs produced bit-identical probe digests and
    /// makespans. Gated: `false` is always a hard regression.
    pub identical: bool,
    /// Fleet size of the scale row.
    pub xl_procs: usize,
    /// Host wall-clock of the XL run (informational).
    pub xl_events_host_ns: u64,
    /// Virtual-time makespan of the XL fleet (deterministic).
    pub xl_virtual_ns: u64,
}

impl FleetResult {
    /// The headline's JSON object fields (one line, parseable by the
    /// runner's per-line field scanner). `xl_virtual_ns` is the row's
    /// locator key.
    pub fn json_fields(&self) -> String {
        format!(
            "\"procs\":{},\"events_host_ns\":{},\"virtual_ns\":{},\"identical\":{},\
             \"xl_procs\":{},\"xl_events_host_ns\":{},\"xl_virtual_ns\":{}",
            self.procs,
            self.events_host_ns,
            self.virtual_ns,
            self.identical,
            self.xl_procs,
            self.xl_events_host_ns,
            self.xl_virtual_ns
        )
    }
}

/// Boots the fleet machine with its corpus: 16 files over 4 disks, every
/// other file warm — the ground truth half the fleet should detect.
fn fleet_sim() -> (Sim, Vec<(String, u64)>) {
    let mut sim = fleet_machine(FLEET_DISKS, FLEET_CPUS, ExecBackend::Events);
    let files = spread_corpus(&mut sim, FLEET_DISKS, FILES_PER_DISK, FILE_BYTES);
    let warm_set: Vec<(String, u64)> = files.iter().skip(1).step_by(2).cloned().collect();
    warm(&mut sim, &warm_set);
    (sim, files)
}

/// Runs a `procs`-process probe fleet: process *i* opens corpus file
/// `i % files` and classifies it with a fixed-seed FCCD probe. Returns
/// the per-process observation digests and the virtual makespan —
/// deterministic fingerprints of the whole schedule.
fn run_fleet(procs: usize) -> (Vec<u64>, u64) {
    let (mut sim, files) = fleet_sim();
    let t0 = sim.now();
    let workloads: Vec<(String, Workload<'_, u64>)> = (0..procs)
        .map(|i| {
            let (path, bytes) = files[i % files.len()].clone();
            let w: Workload<'_, u64> = Box::new(move |os: &SimProc| {
                let fd = os.open(&path).unwrap();
                let fccd = Fccd::with_fixed_seed(os, crate::tiny_fccd());
                let report = fccd.probe_file(fd, bytes);
                os.close(fd).unwrap();
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for unit in &report.units {
                    for v in [unit.offset, unit.probe_time.as_nanos(), unit.probes as u64] {
                        h ^= v;
                        h = h.wrapping_mul(0x100_0000_01b3);
                    }
                }
                h ^ os.now().as_nanos()
            });
            (format!("probe{i}"), w)
        })
        .collect();
    let digests = sim.run(workloads);
    (digests, sim.now().since(t0).as_nanos())
}

/// Measures the headline: the 512-process fleet run twice (replay
/// identity and virtual time gated, host time informational), plus the
/// 2048-process row.
pub fn run() -> FleetResult {
    run_with(FLEET_PROCS, XL_PROCS)
}

/// [`run`] with explicit fleet sizes (tests use tiny fleets).
pub fn run_with(procs: usize, xl_procs: usize) -> FleetResult {
    let timed = |procs: usize| {
        let start = Instant::now();
        let fleet = run_fleet(procs);
        (fleet, start.elapsed().as_nanos() as u64)
    };
    let (first, _) = timed(procs);
    let (second, events_host_ns) = timed(procs);
    let ((_, xl_virtual_ns), xl_events_host_ns) = timed(xl_procs);
    FleetResult {
        procs,
        events_host_ns,
        virtual_ns: first.1,
        identical: first == second,
        xl_procs,
        xl_events_host_ns,
        xl_virtual_ns,
    }
}

/// Registers the host-time fleet benches.
pub fn register(h: &mut Harness) {
    h.bench_function("exec_fleet_512_events", |b| {
        b.iter(|| black_box(run_fleet(FLEET_PROCS)));
    });
    h.bench_function("exec_fleet_64_events", |b| {
        b.iter(|| black_box(run_fleet(64)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_row_is_well_formed_and_collision_free() {
        let _tracer = crate::hold_tracer();
        let f = run_with(16, 32);
        assert!(f.identical, "replays diverged at test scale");
        assert!(
            f.virtual_ns > 0 && f.xl_virtual_ns > 0,
            "fleets must consume virtual time"
        );
        assert!(f.events_host_ns > 0 && f.xl_events_host_ns > 0);
        // The baseline diff scans line-by-line with substring probes;
        // the fleet row must carry its own locator key and no other
        // headline's.
        let line = f.json_fields();
        assert!(line.contains("\"xl_virtual_ns\":"));
        for probe in [
            "\"serial_virtual_ns\":",
            "\"virtual_ns_per_query\":",
            "\"grid_digest\":",
            "\"one_worker_median_ns\":",
            "\"covert_digest\":",
            "\"mean_ns\":",
        ] {
            assert!(!line.contains(probe), "{line} collides with {probe}");
        }
    }
}
