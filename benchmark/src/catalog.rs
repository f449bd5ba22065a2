//! Every metric the benchmark prints: name, unit, which direction is
//! better and, for the end-to-end ones, the bound by which a later change
//! may make it worse. `BENCHMARK.json` at the root of the repository
//! repeats this table for the driver; `tests/smoke.rs` holds the two
//! together.

/// Which way a metric should move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue. `bound` is 0 for per-layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees, printed by the untraced run for every
/// workload. The bounds are what the ten-seed spread on the shared two-core
/// VM the benchmark was sized on allows (a bound has to be three times the
/// spread): about 4 % and up to 13 % for host time, 3 % for memory, 7 % for
/// the mean virtual wait of `gbd_hot`, whose every wait is a rare TTL
/// refresh, and 5 % for the quality of `matrix_grid`, whose 72 cells are
/// reseeded. For a given seed the last two are exact, and `--compare` on
/// two runs of one seed shows any change in them.
pub const END_TO_END: &[Metric] = &[
    // Host seconds before the timed phase: machines, corpora, warming,
    // daemon. Median over the repetitions of the set-up, at reference
    // speed (see `workloads::REFERENCE_NOMINAL_S`).
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Operations per host second: median over the slices, tracing off,
    // at reference speed.
    e2e("host_ops_per_s", "op/s", Better::Higher, 0.25),
    // The process's `VmHWM` at exit.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.10),
    // Mean virtual time an operation waited. Exact for given arguments.
    e2e("virtual_ns_per_op", "ns", Better::Lower, 0.25),
    // The gray-box outcome the workload exists for, as a ratio: cache hit
    // ratio on `gbd_hot`; FCCD precision against the oracle on `gbd_miss`,
    // `fleet_probe` and `matrix_grid`; geometric mean of the unmodified
    // over the gray-box virtual run time of grep and fastsort on
    // `apps_bulk`; share of bits decoded right over the undefended
    // channels on `covert_grid`. Exact likewise.
    e2e("quality", "ratio", Better::Higher, 0.15),
];

/// What single layers did, printed by the traced run for every workload;
/// a layer the workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    // Ladder rungs: one layer timed alone through its public API.
    lower("toolbox.two_means_ns", "ns"),
    lower("toolbox.summary_median_ns", "ns"),
    lower("toolbox.mailbox_roundtrip_ns", "ns"),
    higher("toolbox.pool_speedup_2w", "ratio"),
    lower("simos.exec.switch_ns", "ns"),
    lower("simos.exec.spawn_ns_p512", "ns"),
    lower("simos.exec.spawn_ns_p16384", "ns"),
    lower("simos.kernel.syscall_ns", "ns"),
    lower("simos.kernel.probe_ns", "ns"),
    lower("simos.kernel.probe_batched_ns", "ns"),
    lower("simos.kernel.sleep_wakeup_ns", "ns"),
    lower("simos.fs.read_page_warm_ns", "ns"),
    lower("simos.fs.read_page_cold_ns", "ns"),
    lower("simos.fs.create_unlink_ns", "ns"),
    lower("simos.vm.touch_page_ns", "ns"),
    lower("simos.boot_ns", "ns"),
    lower("core.fccd.probe_file_ns", "ns"),
    lower("core.fccd.classify_ns", "ns"),
    lower("core.fccd.classify_self_ns", "ns"),
    lower("core.mac.estimate_ns", "ns"),
    lower("core.mac.estimate_self_ns", "ns"),
    lower("core.fldc.order_ns", "ns"),
    lower("core.wbd.estimate_ns", "ns"),
    lower("sched.self_ns_per_plan", "ns"),
    lower("sched.wave_ns", "ns"),
    lower("gbd.serve_hit_ns", "ns"),
    lower("gbd.serve_miss_ns", "ns"),
    lower("gbd.cache.lookup_ns", "ns"),
    lower("gbd.cache.insert_evict_ns", "ns"),
    lower("apps.grep_file_ns", "ns"),
    lower("apps.fastsort_pass_ns", "ns"),
    lower("covert.cell_ns", "ns"),
    lower("scenario.cell_p50_ns", "ns"),
    lower("scenario.cell_max_ns", "ns"),
    // Virtual latency of an operation: exact.
    lower("virtual.op_p50_ns", "ns"),
    lower("virtual.op_tail_ns", "ns"),
    higher("virtual.op_tail_pct", "%"),
    higher("virtual.op_n", "count"),
    // gbd: exact counts off `GbdStats` and `TickStats`, then host time.
    higher("gbd.queries", "count"),
    higher("gbd.hit_ratio", "ratio"),
    higher("gbd.coalesced", "count"),
    lower("gbd.executed", "count"),
    lower("gbd.shed", "count"),
    lower("gbd.reinfers", "count"),
    lower("gbd.invalidated", "count"),
    lower("gbd.capacity_evictions", "count"),
    higher("gbd.budget_min", "count"),
    lower("gbd.admission_backoffs", "count"),
    lower("gbd.serve_busy_s", "s"),
    lower("gbd.tick_host_p50_us", "us"),
    lower("gbd.tick_host_p99_us", "us"),
    // sched: exact counts.
    lower("sched.waves", "count"),
    lower("sched.plans", "count"),
    higher("sched.plans_per_wave", "ratio"),
    // core: exact counts and virtual times off the trace, and accuracy.
    lower("core.probes_issued", "count"),
    lower("core.probes_per_op", "ratio"),
    lower("core.probe_virtual_p50_ns", "ns"),
    lower("core.probe_virtual_p99_ns", "ns"),
    higher("core.fccd.precision", "ratio"),
    higher("core.fccd.recall", "ratio"),
    higher("core.fccd.separation_min", "ratio"),
    lower("core.mac.rel_err", "ratio"),
    higher("scenario.precision_min", "ratio"),
    // simos: exact counts off the profiler and `KernelStats`, then shares
    // of virtual time, then host time.
    lower("simos.syscalls", "count"),
    lower("simos.host_ns_per_syscall", "ns"),
    lower("simos.procs_spawned", "count"),
    higher("simos.cache_hit_ratio", "ratio"),
    lower("simos.file_page_reads", "count"),
    lower("simos.swap_outs", "count"),
    lower("simos.flusher_runs", "count"),
    lower("simos.virtual_cpu_share", "ratio"),
    lower("simos.virtual_disk_share", "ratio"),
    lower("simos.virtual_sleep_share", "ratio"),
    lower("simos.run_busy_s", "s"),
    // apps and covert: exact.
    higher("apps.speedup", "ratio"),
    higher("apps.grep_speedup", "ratio"),
    higher("apps.fastsort_speedup", "ratio"),
    higher("covert.capacity_bps", "bit/s"),
    lower("covert.ber_quiet", "ratio"),
    higher("covert.ber_defended", "ratio"),
    lower("covert.late_wakeups", "count"),
    // The benchmark's own tracing and how well the ladder explains the run.
    lower("obs.trace_overhead_share", "ratio"),
    lower("obs.trace_records_dropped", "count"),
    lower("obs.spans", "count"),
    lower("ladder.modelled_s", "s"),
    lower("ladder.measured_s", "s"),
    lower("ladder.residual_share", "ratio"),
];

/// How long one run measures, in seconds, as `BENCHMARK.json` states it.
/// The slice counts of the workloads are calibrated for this value.
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, as this build would write it.
pub fn describe() -> String {
    use crate::json::{num, quote};
    let workloads: Vec<String> = crate::workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    let metric = |m: &Metric, bounded: bool| {
        let bound = if bounded {
            format!(", \"bound\": {}", num(m.bound))
        } else {
            String::new()
        };
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.as_str())
        )
    };
    let end_to_end: Vec<String> = END_TO_END.iter().map(|m| metric(m, true)).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|m| metric(m, false)).collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}
