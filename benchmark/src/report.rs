//! Runs one workload and turns what it measured into the metrics of the
//! catalogue: the end-to-end ones from an untraced run, the per-layer
//! ones from an untraced and a traced run of the same work plus the
//! ladder.

use std::collections::BTreeMap;
use std::path::Path;

use gray_toolbox::{profile, trace};

use crate::catalog::{Metric, END_TO_END, PER_LAYER};
use crate::json::{num, quote};
use crate::ladder::{self, Budget};
use crate::span;
use crate::stat::{latency, median};
use crate::workloads::{Ctx, Run, Workload};

/// Where the traced run leaves its span and folded-stack files, relative
/// to the directory the benchmark is started from.
const OUT_DIR: &str = "benchmark/out";

/// The two lines a run prints: what the contract asks for, and before it
/// everything else worth keeping.
pub struct Report {
    pub correct: bool,
    pub detail: String,
    pub result: String,
}

/// The process's peak resident set in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(w: &Workload, ctx: &Ctx, traced: bool) -> Report {
    let (mut run, metrics, catalogue) = if traced {
        let (run, metrics) = per_layer(w, ctx);
        (run, metrics, PER_LAYER)
    } else {
        let mut run = (w.run)(ctx);
        let metrics = end_to_end(&mut run);
        (run, metrics, END_TO_END)
    };
    for m in catalogue {
        let v = metrics.get(m.name).copied().unwrap_or(0.0);
        run.check(v.is_finite(), || {
            format!("{} is not a finite number", m.name)
        });
    }
    run.check(run.attempted > 0, || "no operation was attempted".into());
    let (failed, attempted) = (run.failed, run.attempted);
    run.check(failed == 0, || {
        format!("{failed} of {attempted} operations were shed, failed, panicked or left unanswered")
    });
    Report {
        correct: run.checks_failed.is_empty(),
        detail: detail_json(w, ctx, traced, &run),
        result: result_json(&run, catalogue, &metrics),
    }
}

fn end_to_end(run: &mut Run) -> BTreeMap<&'static str, f64> {
    let lat = latency(run.zero_latency_ops, &mut run.latencies_ns);
    BTreeMap::from([
        ("setup_s", median(&run.setup_s)),
        ("host_ops_per_s", median(&run.slice_rates)),
        ("peak_rss_mb", peak_rss_mb()),
        ("virtual_ns_per_op", lat.mean),
        ("quality", run.quality),
    ])
}

/// An untraced and a traced run of a third of the time each, then the
/// ladder. Returns the traced run, which carries the checks of both.
fn per_layer(w: &Workload, ctx: &Ctx) -> (Run, BTreeMap<&'static str, f64>) {
    let third = Ctx {
        seconds: ctx.seconds / 3.0,
        ..*ctx
    };
    let plain = (w.run)(&third);

    span::enable();
    let trace_guard = trace::capture();
    let profile_guard = profile::capture();
    let mut run = (w.run)(&third);
    let traced = trace::metrics();
    let profiled = profile::snapshot();
    drop(profile_guard);
    drop(trace_guard);
    let spans = span::disable();

    for failed in plain.checks_failed {
        run.check(false, || failed);
    }
    run.failed += plain.failed;
    let digests = (plain.digest, run.digest);
    run.check(digests.0 == digests.1, || {
        format!(
            "tracing moved the digest from {:x} to {:x}",
            digests.0, digests.1
        )
    });

    let out = Path::new(OUT_DIR);
    let written = std::fs::create_dir_all(out)
        .and_then(|()| {
            span::write_jsonl(&out.join(format!("spans-{}.jsonl", w.name)), w.name, &spans)
        })
        .and_then(|()| {
            std::fs::write(
                out.join(format!("folded-{}.txt", w.name)),
                profiled.folded(),
            )
        });
    run.check(written.is_ok(), || {
        format!("writing {OUT_DIR}: {written:?}")
    });

    let mut m: BTreeMap<&'static str, f64> = std::mem::take(&mut run.layer);
    let ops = run.attempted.max(1) as f64;

    let lat = latency(run.zero_latency_ops, &mut run.latencies_ns);
    m.insert("virtual.op_p50_ns", lat.p50 as f64);
    m.insert("virtual.op_tail_ns", lat.tail as f64);
    m.insert("virtual.op_tail_pct", lat.tail_pct);
    m.insert("virtual.op_n", lat.n as f64);

    // The trace counts every event even when its ring has dropped records.
    let count = |kind: &str| traced.counts.get(kind).copied().unwrap_or(0) as f64;
    let probes = count("ProbeIssued");
    m.insert("core.probes_issued", probes);
    m.insert("core.probes_per_op", probes / ops);
    m.insert(
        "core.probe_virtual_p50_ns",
        traced.probe_latency.percentile_bound(50.0) as f64,
    );
    m.insert(
        "core.probe_virtual_p99_ns",
        traced.probe_latency.percentile_bound(99.0) as f64,
    );
    if let Some(&waves) = m.get("sched.waves") {
        let plans = count("ProbePlanned");
        m.insert("sched.plans", plans);
        m.insert("sched.plans_per_wave", plans / waves.max(1.0));
    }
    m.insert("obs.trace_records_dropped", traced.records_dropped as f64);
    m.insert("obs.spans", spans.len() as f64);
    m.insert(
        "obs.trace_overhead_share",
        run.timed_s / plain.timed_s - 1.0,
    );

    // One profiler charge under a `sys_*` frame per time-advancing syscall.
    let syscalls: u64 = profiled
        .nodes
        .iter()
        .filter(|(path, _)| path.contains(";sys_"))
        .map(|(_, agg)| agg.count)
        .sum();
    m.insert("simos.syscalls", syscalls as f64);
    m.insert(
        "simos.host_ns_per_syscall",
        plain.timed_s * 1e9 / (syscalls.max(1)) as f64,
    );
    m.insert("simos.procs_spawned", profiled.by_pid.len() as f64);
    for (kind, name) in [
        ("cpu", "simos.virtual_cpu_share"),
        ("disk", "simos.virtual_disk_share"),
        ("sleep", "simos.virtual_sleep_share"),
    ] {
        let ns = profiled.by_kind.get(kind).copied().unwrap_or(0);
        m.insert(name, ns as f64 / profiled.total_ns.max(1) as f64);
    }
    let by_name = span::totals(&spans);
    let busy_ns: u64 = ["simos.run", "simos.run_one"]
        .iter()
        .filter_map(|n| by_name.get(n))
        .map(|t| t.total_ns)
        .sum();
    m.insert("simos.run_busy_s", busy_ns as f64 / 1e9);

    let budget = Budget {
        min_s: if ctx.smoke { 0.002 } else { 0.03 },
        reps: if ctx.smoke { 1 } else { 3 },
        smoke: ctx.smoke,
    };
    m.extend(ladder::measure(w.name, &budget));
    let modelled = ladder::modelled_s(w.name, run.attempted, &m);
    m.insert("ladder.modelled_s", modelled);
    m.insert("ladder.measured_s", plain.timed_s);
    m.insert(
        "ladder.residual_share",
        (plain.timed_s - modelled).abs() / plain.timed_s,
    );
    run.slice_rates = plain.slice_rates;
    run.raw_slice_rates = plain.raw_slice_rates;
    run.setup_s = plain.setup_s;
    (run, m)
}

fn result_json(run: &Run, catalogue: &[Metric], metrics: &BTreeMap<&'static str, f64>) -> String {
    let body: Vec<String> = catalogue
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(m.name),
                num(metrics.get(m.name).copied().unwrap_or(0.0)),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        run.checks_failed.is_empty(),
        run.attempted,
        run.failed,
        body.join(",")
    )
}

fn detail_json(w: &Workload, ctx: &Ctx, traced: bool, run: &Run) -> String {
    let list = |xs: &[f64]| xs.iter().map(|&x| num(x)).collect::<Vec<_>>().join(",");
    let checks: Vec<String> = run.checks_failed.iter().map(|c| quote(c)).collect();
    format!(
        "{{\"workload\":{},\"op\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"smoke\":{},\"threads\":{},\"digest\":\"{:016x}\",\"checks_failed\":[{}],\"setup_s\":[{}],\"slice_ops_per_s\":[{}],\"raw_slice_ops_per_s\":[{}]}}",
        quote(w.name),
        quote(w.op),
        ctx.seed,
        num(ctx.seconds),
        traced as u8,
        ctx.smoke,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        run.digest,
        checks.join(","),
        list(&run.setup_s),
        list(&run.slice_rates),
        list(&run.raw_slice_rates),
    )
}
