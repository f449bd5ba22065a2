//! Observability suite: the virtual-time profiler's two contracts.
//!
//! The profiler ([`gray_toolbox::profile`]) promises two things, and
//! this suite turns both into gated baseline rows:
//!
//! 1. **Observation only.** Enabling attribution must not move a single
//!    virtual-time result: the headline runs an identical FCCD probe
//!    fleet and a tiny covert grid with the profiler off and then on,
//!    and records whether the per-process digests, the makespans, and
//!    the grid digest came back bit-identical. `identical:false` is
//!    always a hard regression under `--diff --strict`.
//! 2. **Free when off.** The disabled hook is one relaxed atomic load
//!    and a branch. The `obs_disabled_overhead` row prices exactly that:
//!    a paired, interleaved comparison ([`gray_toolbox::paired_host_compare`])
//!    of a pure splitmix64 work loop against the same loop calling the
//!    disabled `charge`/`op_scope` hooks every iteration. The strict
//!    diff fails only when the sign test finds the hooked loop
//!    significantly slower **and** the median paired speedup falls below
//!    0.8 — the same decision rule as the fleet and matrix host rows.
//!
//! The headline also persists the profile tree itself: total attributed
//! virtual time, leaf/charge counts, the tree digest, and the hottest
//! leaf path — so the baseline file documents where the fleet's virtual
//! time went, not just that attribution happened. A third row
//! (`obs_profiler_cost`) prices the *enabled* profiler on the same
//! fleet, informational only: profiling is expected to cost host time.

use covert::{grid_digest, run_grid, CovertGridConfig};
use gray_toolbox::bench::Harness;
use gray_toolbox::outlier::OutlierPolicy;
use gray_toolbox::pool::Pool;
use gray_toolbox::profile;
use gray_toolbox::rng::splitmix64;
use gray_toolbox::stats::PairedHostReport;
use graybox::fccd::Fccd;
use graybox::os::GrayBoxOs;
use simos::scenario::{fleet_machine, spread_corpus, warm};
use simos::{exec::Workload, ExecBackend, SimProc};
use std::hint::black_box;

/// Processes in the headline attribution fleet.
pub const OBS_PROCS: usize = 96;
/// Fleet size under `--smoke`.
pub const SMOKE_PROCS: usize = 32;
/// Paired rounds for the hook-overhead and profiler-cost rows. Hook
/// rounds are microseconds each, so the budget is generous enough for
/// the sign test to reach significance when there is a real effect.
pub const FULL_ROUNDS: usize = 15;
/// Paired rounds under `--smoke`.
pub const SMOKE_ROUNDS: usize = 5;
/// Hook invocations per measured round of the overhead row.
pub const HOOK_OPS: u64 = 1 << 15;
/// Data disks of the attribution fleet's machine.
const DISKS: usize = 2;
/// CPU slots of the attribution fleet's machine.
const CPUS: u32 = 4;
/// Corpus files per disk (every other one warm).
const FILES_PER_DISK: usize = 3;
/// Bytes per corpus file.
const FILE_BYTES: u64 = 128 << 10;

/// The `obs` headline plus its two paired host-time rows.
#[derive(Debug, Clone)]
pub struct ObsResult {
    /// Fleet size of the attribution run.
    pub procs: usize,
    /// Virtual makespan with the profiler off — deterministic, gated
    /// with the usual 10% slack.
    pub baseline_virtual_ns: u64,
    /// Virtual makespan with the profiler on.
    pub profiled_virtual_ns: u64,
    /// Whether profiler-on reproduced profiler-off bit for bit: fleet
    /// digests, makespans, and the covert grid digest. Gated: `false`
    /// is always a hard regression.
    pub identical: bool,
    /// Virtual nanoseconds the profiler attributed across the fleet.
    /// Gated: zero means the charge hooks came unwired.
    pub charged_total_ns: u64,
    /// Distinct attribution paths (leaves) in the profile tree.
    pub profile_leaves: usize,
    /// Total charge events recorded.
    pub profile_charges: u64,
    /// FNV fingerprint of the profile tree (informational — re-tuning
    /// the scenario legitimately moves it).
    pub profile_digest: u64,
    /// Covert grid digest of the profiler-off run (informational).
    pub obs_grid_digest: u64,
    /// Hottest leaf path, flamegraph-frame syntax.
    pub top_path: String,
    /// Virtual nanoseconds at the hottest leaf.
    pub top_ns: u64,
    /// Paired pure-loop baseline vs disabled-hooks candidate.
    pub disabled: PairedHostReport,
    /// Paired profiler-off baseline vs profiler-on candidate on the
    /// fleet (informational).
    pub enabled: PairedHostReport,
}

impl ObsResult {
    /// The headline's JSON fields. `charged_total_ns` is the locator.
    pub fn json_fields(&self) -> String {
        format!(
            "\"procs\":{},\"baseline_virtual_ns\":{},\"profiled_virtual_ns\":{},\
             \"identical\":{},\"charged_total_ns\":{},\"profile_leaves\":{},\
             \"profile_charges\":{},\"profile_digest\":{},\"obs_grid_digest\":{},\
             \"top_path\":\"{}\",\"top_ns\":{}",
            self.procs,
            self.baseline_virtual_ns,
            self.profiled_virtual_ns,
            self.identical,
            self.charged_total_ns,
            self.profile_leaves,
            self.profile_charges,
            self.profile_digest,
            self.obs_grid_digest,
            self.top_path,
            self.top_ns
        )
    }

    /// The `obs_disabled_overhead` row: the full paired measurement and
    /// its sign-test inputs, so the diff re-applies the decision rule
    /// offline. `hook_median_ns` is the locator.
    pub fn disabled_json_fields(&self) -> String {
        let p = &self.disabled;
        format!(
            "\"base_median_ns\":{:.0},\"hook_median_ns\":{:.0},\"ops\":{},\
             \"speedup\":{:.3},\"rounds\":{},\"kept\":{},\"sign_less\":{},\
             \"sign_greater\":{},\"sign_ties\":{},\"p_value\":{:.6}",
            p.baseline_median_ns,
            p.candidate_median_ns,
            HOOK_OPS,
            p.speedup,
            p.rounds,
            p.kept,
            p.sign.less,
            p.sign.greater,
            p.sign.ties,
            p.sign.p_value
        )
    }

    /// The `obs_profiler_cost` row (informational). `profiled_median_ns`
    /// is the locator.
    pub fn enabled_json_fields(&self) -> String {
        let p = &self.enabled;
        format!(
            "\"off_median_ns\":{:.0},\"profiled_median_ns\":{:.0},\"procs\":{},\
             \"speedup\":{:.3},\"rounds\":{},\"kept\":{},\"sign_less\":{},\
             \"sign_greater\":{},\"sign_ties\":{},\"p_value\":{:.6}",
            p.baseline_median_ns,
            p.candidate_median_ns,
            self.procs,
            p.speedup,
            p.rounds,
            p.kept,
            p.sign.less,
            p.sign.greater,
            p.sign.ties,
            p.sign.p_value
        )
    }
}

/// Runs a `procs`-process FCCD probe fleet on the events executor and
/// returns the per-process observation digests plus the virtual
/// makespan — the exact fingerprints the profiler must not move.
fn run_fleet(procs: usize) -> (Vec<u64>, u64) {
    let mut sim = fleet_machine(DISKS, CPUS, ExecBackend::Events);
    let files = spread_corpus(&mut sim, DISKS, FILES_PER_DISK, FILE_BYTES);
    let warm_set: Vec<(String, u64)> = files.iter().skip(1).step_by(2).cloned().collect();
    warm(&mut sim, &warm_set);
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

/// The tiny covert grid used for the cross-subsystem half of the
/// bit-identity claim (4 cells — one platform, both channels, two
/// defenders).
fn tiny_grid() -> CovertGridConfig {
    CovertGridConfig {
        platforms: vec![simos::Platform::LinuxLike],
        defenders: vec![covert::DefenderKind::Idle, covert::DefenderKind::EagerFlush],
        bits: 8,
        ..CovertGridConfig::full()
    }
}

/// Sixteen splitmix64 steps — the unit of "real work" the hook-overhead
/// row hides the disabled hooks inside.
#[inline]
fn work_unit(seed: u64) -> u64 {
    let mut s = seed;
    let mut acc = 0u64;
    for _ in 0..16 {
        acc ^= splitmix64(&mut s);
    }
    acc
}

/// Runs the headline attribution experiment and both paired rows.
pub fn run(smoke: bool) -> ObsResult {
    let procs = if smoke { SMOKE_PROCS } else { OBS_PROCS };
    let rounds = if smoke { SMOKE_ROUNDS } else { FULL_ROUNDS };
    let pool = Pool::with_workers(2);

    // Contract 1: profiler on must reproduce profiler off bit for bit.
    assert!(!profile::enabled(), "profiler must start disabled");
    let (off_digests, off_virtual) = run_fleet(procs);
    let off_grid = grid_digest(&run_grid(&tiny_grid(), &pool));
    let guard = profile::capture();
    let (on_digests, on_virtual) = run_fleet(procs);
    let on_grid = grid_digest(&run_grid(&tiny_grid(), &pool));
    let snap = profile::snapshot();
    drop(guard);
    let identical = off_digests == on_digests && off_virtual == on_virtual && off_grid == on_grid;
    let (top_path, top_ns) = snap
        .nodes
        .iter()
        .max_by_key(|(path, agg)| (agg.ns, std::cmp::Reverse(path.as_str())))
        .map(|(path, agg)| (path.clone(), agg.ns))
        .unwrap_or_default();

    // Contract 2: the disabled hooks priced against the bare loop,
    // paired and interleaved.
    let disabled = paired_host_compare_hooks(rounds);

    // Informational: what turning the profiler on costs on this fleet.
    let enabled = gray_toolbox::paired_host_compare(
        rounds.min(5),
        || {
            black_box(run_fleet(procs));
        },
        || {
            let _g = profile::capture();
            black_box(run_fleet(procs));
        },
        OutlierPolicy::default(),
    );

    ObsResult {
        procs,
        baseline_virtual_ns: off_virtual,
        profiled_virtual_ns: on_virtual,
        identical,
        charged_total_ns: snap.total_ns,
        profile_leaves: snap.nodes.len(),
        profile_charges: snap.nodes.values().map(|a| a.count).sum(),
        profile_digest: snap.digest(),
        obs_grid_digest: off_grid,
        top_path,
        top_ns,
        disabled,
        enabled,
    }
}

/// Paired measurement of the disabled-hook cost: a pure work loop vs the
/// same loop calling `op_scope` + `charge` every iteration with the
/// profiler off.
fn paired_host_compare_hooks(rounds: usize) -> PairedHostReport {
    assert!(!profile::enabled(), "overhead row prices the DISABLED path");
    gray_toolbox::paired_host_compare(
        rounds,
        || {
            let mut h = 0u64;
            for i in 0..HOOK_OPS {
                h ^= work_unit(i);
            }
            black_box(h);
        },
        || {
            let mut h = 0u64;
            for i in 0..HOOK_OPS {
                let _op = profile::op_scope("bench_op");
                profile::charge(i, "cpu", 1);
                h ^= work_unit(i);
            }
            black_box(h);
        },
        OutlierPolicy::default(),
    )
}

/// Registers the metrics/profiler host-time benches.
pub fn register(h: &mut Harness) {
    h.bench_function("metrics_counter_inc", |b| {
        let reg = gray_toolbox::metrics::Registry::new();
        let c = reg.counter("bench.counter");
        b.iter(|| c.inc());
    });
    h.bench_function("metrics_histogram_record", |b| {
        let reg = gray_toolbox::metrics::Registry::new();
        let hist = reg.histogram("bench.latency");
        let mut v = 1u64;
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            hist.record(black_box(v >> 33));
        });
    });
    h.bench_function("metrics_snapshot_64", |b| {
        let reg = gray_toolbox::metrics::Registry::new();
        for i in 0..64 {
            reg.counter_labeled("bench.family", &format!("k{i}")).inc();
        }
        b.iter(|| black_box(reg.snapshot()));
    });
    h.bench_function("profile_charge_disabled", |b| {
        profile::disable();
        b.iter(|| {
            let _op = profile::op_scope("bench_op");
            profile::charge(1, "cpu", black_box(10));
        });
    });
    h.bench_function("profile_charge_enabled", |b| {
        let _g = profile::capture();
        b.iter(|| {
            let _op = profile::op_scope("bench_op");
            profile::charge(1, "cpu", black_box(10));
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tier-1 pin of the observation-only contract: enabling the
    /// profiler changes no digest, no clock, and no grid fingerprint.
    #[test]
    fn profiler_toggle_is_bit_identical() {
        let _tracer = crate::hold_tracer();
        let (off_digests, off_virtual) = run_fleet(24);
        let pool = Pool::with_workers(2);
        let off_grid = grid_digest(&run_grid(&tiny_grid(), &pool));

        let guard = profile::capture();
        let (on_digests, on_virtual) = run_fleet(24);
        let on_grid = grid_digest(&run_grid(&tiny_grid(), &pool));
        let snap = profile::snapshot();
        drop(guard);

        assert_eq!(off_digests, on_digests, "profiler moved a probe digest");
        assert_eq!(off_virtual, on_virtual, "profiler moved the clock");
        assert_eq!(off_grid, on_grid, "profiler moved the covert grid");
        assert!(off_virtual > 0, "fleet must consume virtual time");
        // And the run was actually attributed, down to kind leaves.
        assert!(snap.total_ns > 0, "no charges recorded");
        assert!(
            snap.nodes.keys().all(|p| p.starts_with("sim;")),
            "every path hangs off the root"
        );
        assert!(
            snap.nodes
                .keys()
                .any(|p| p.ends_with(";disk") || p.ends_with(";cpu")),
            "kind leaves missing: {:?}",
            snap.nodes.keys().take(5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rows_are_well_formed_and_collision_free() {
        let _tracer = crate::hold_tracer();
        let r = run(true);
        assert!(r.identical, "profiler perturbed the run at test scale");
        assert!(r.charged_total_ns > 0 && r.profile_leaves > 0);
        assert!(r.top_ns > 0 && r.top_path.starts_with("sim"));
        assert_eq!(r.disabled.rounds, SMOKE_ROUNDS);
        assert!(r.disabled.kept >= 1 && r.disabled.speedup > 0.0);
        // The baseline diff scans line-by-line with substring probes;
        // each obs row must carry its own locator key and no other
        // headline's.
        assert!(r.json_fields().contains("\"charged_total_ns\":"));
        assert!(r.disabled_json_fields().contains("\"hook_median_ns\":"));
        assert!(r.enabled_json_fields().contains("\"profiled_median_ns\":"));
        for line in [
            r.json_fields(),
            r.disabled_json_fields(),
            r.enabled_json_fields(),
        ] {
            for probe in [
                "\"serial_virtual_ns\":",
                "\"virtual_ns_per_query\":",
                "\"xl_virtual_ns\":",
                "\"events_median_ns\":",
                "\"grid_digest\":",
                "\"one_worker_median_ns\":",
                "\"covert_digest\":",
                "\"mean_ns\":",
                "\"fccd_precision\":",
            ] {
                assert!(!line.contains(probe), "{line} collides with {probe}");
            }
        }
    }
}
