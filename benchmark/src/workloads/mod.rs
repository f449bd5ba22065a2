//! The six workloads and what they share: the arguments of a run, the
//! record a run returns, and how host time is taken.
//!
//! Every workload is a closed loop: the caller waits for each reply
//! before it sends again, and the load comes from this one process on at
//! most two threads. Work is cut into *slices* of fixed size, and the
//! number of slices is a fixed multiple of `--seconds`, calibrated so that
//! a run lasts about that long on the two-core machine the benchmark was
//! sized on. The work is therefore a function of the arguments alone, and
//! so is every virtual-time, count and accuracy number; only the host
//! rate, the median over the slices, depends on the machine (and is scaled
//! to a reference kernel, see [`REFERENCE_NOMINAL_S`]). Time-boxing
//! the slices instead would not do: the simulator's cost per process grows
//! with the processes a machine has ever run, so a faster host would be
//! measured on later, slower slices.

use std::collections::BTreeMap;
use std::time::Instant;

use simos::kernel::KernelStats;

pub mod apps;
pub mod covert;
pub mod fleet;
pub mod gbd;
pub mod matrix;

/// A workload the benchmark can run.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, as `BENCHMARK.json` states it.
    pub why: &'static str,
    /// What one operation is.
    pub op: &'static str,
    pub run: fn(&Ctx) -> Run,
}

/// The workloads in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 6] = [
    gbd::HOT,
    gbd::MISS,
    fleet::FLEET_PROBE,
    matrix::MATRIX_GRID,
    apps::APPS_BULK,
    covert::COVERT_GRID,
];

/// Arguments of one run of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Feeds every seeded choice: query shapes, churn subsets, grid seeds.
    pub seed: u64,
    /// How long the run should last; sets the number of slices.
    pub seconds: f64,
    /// Scale every workload down to well under a second; same code paths.
    pub smoke: bool,
}

impl Ctx {
    /// The number of slices for a workload that fits `per_second` slices
    /// into a second of `--seconds` on the reference machine. A smoke run
    /// does `smoke` slices whatever the time asked for.
    pub fn slices(&self, per_second: f64, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            ((per_second * self.seconds).round() as usize).max(2)
        }
    }

    /// Picks the full-size or the smoke-size value of a sizing constant.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// What one run of a workload measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted over all slices.
    pub attempted: u64,
    /// Operations shed, failed, panicked or left unanswered.
    pub failed: u64,
    /// Output checks that did not hold; empty means the run is correct.
    pub checks_failed: Vec<String>,
    /// Host seconds of each repetition of the set-up, at reference speed.
    pub setup_s: Vec<f64>,
    /// Host operations per second of each slice, at reference speed.
    pub slice_rates: Vec<f64>,
    /// The same rates as the clock read them, before scaling to the
    /// reference kernel.
    pub raw_slice_rates: Vec<f64>,
    /// What the reference kernel took when last run.
    reference_before_s: f64,
    /// Host seconds inside timed sections, over all slices.
    pub timed_s: f64,
    /// Virtual nanoseconds each operation waited, zeros left out.
    pub latencies_ns: Vec<u64>,
    /// Operations that waited no virtual time at all (cache hits).
    pub zero_latency_ops: u64,
    /// The workload's gray-box outcome as a ratio, higher is better.
    pub quality: f64,
    /// FNV digest of the replies, verdicts and virtual clocks.
    pub digest: u64,
    /// Per-layer counts the workload reads off the layers' public stats.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if !self.checks_failed.contains(&msg) {
                self.checks_failed.push(msg);
            }
        }
    }

    /// Times one repetition of the set-up.
    pub fn setup<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let before = reference_s();
        let t0 = Instant::now();
        let out = f();
        let host_s = t0.elapsed().as_secs_f64();
        let speed = (before + reference_s()) / 2.0 / REFERENCE_NOMINAL_S;
        self.setup_s.push(host_s / speed);
        out
    }

    /// Records what the simulated kernel counted between two readings of
    /// its statistics.
    pub fn kernel_delta(&mut self, after: &KernelStats, before: &KernelStats) {
        let hits = after.cache_hits - before.cache_hits;
        let misses = after.cache_misses - before.cache_misses;
        self.layer.insert(
            "simos.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        for (name, after, before) in [
            (
                "simos.file_page_reads",
                after.file_page_reads,
                before.file_page_reads,
            ),
            ("simos.swap_outs", after.swap_outs, before.swap_outs),
            (
                "simos.flusher_runs",
                after.flusher_runs,
                before.flusher_runs,
            ),
        ] {
            self.layer.insert(name, (after - before) as f64);
        }
    }

    /// Marks the start of a slice's timed work.
    pub fn begin_slice(&mut self) {
        self.reference_before_s = reference_s();
    }

    /// Ends the slice begun by [`Run::begin_slice`]: `ops` operations took
    /// `host_s` seconds inside timed sections.
    pub fn slice(&mut self, ops: u64, host_s: f64) {
        let speed = (self.reference_before_s + reference_s()) / 2.0 / REFERENCE_NOMINAL_S;
        self.attempted += ops;
        self.timed_s += host_s;
        if host_s > 0.0 {
            self.raw_slice_rates.push(ops as f64 / host_s);
            self.slice_rates.push(ops as f64 / host_s * speed);
        }
    }
}

/// What the reference kernel takes on the machine the benchmark was sized
/// on, in its undisturbed phase.
pub const REFERENCE_NOMINAL_S: f64 = 0.003;

/// Times the reference kernel: forty thousand short strings formatted,
/// allocated and freed. It takes about three milliseconds.
///
/// The benchmark's host is a shared two-core VM whose memory system moves
/// between faster and slower phases that last seconds and shift
/// allocation-heavy code, which all of this repository is, by a third,
/// while a pure arithmetic loop does not notice. The kernel is run before
/// and after every timed section, and host times are scaled by what it
/// took against [`REFERENCE_NOMINAL_S`], so they read as if the whole run
/// had been in the undisturbed phase. Over ten runs that cut the spread of
/// the median slice rate from 10-15 % to 4-5 % on the workloads where the
/// phases showed.
fn reference_s() -> f64 {
    let t0 = Instant::now();
    let mut names: Vec<String> = Vec::new();
    for i in 0..40_000 {
        names.push(format!("/d{}/sc{:02}", i % 4, i % 16));
        if names.len() > 64 {
            names.clear();
        }
    }
    std::hint::black_box(&names);
    t0.elapsed().as_secs_f64()
}
