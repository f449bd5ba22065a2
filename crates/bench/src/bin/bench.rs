//! The benchmark runner: sweeps every suite and persists a baseline file.
//!
//! ```text
//! cargo run --release -p gray-bench --bin bench              # full run → BENCH_PR10.json
//! cargo run --release -p gray-bench --bin bench -- --smoke   # 1 warmup + 1 iter each → BENCH_SMOKE.json
//! cargo run --release -p gray-bench --bin bench -- fccd      # substring filter, as with cargo bench
//! cargo run --release -p gray-bench --bin bench -- --diff BENCH_PR7.json BENCH_PR8.json
//! cargo run --release -p gray-bench --bin bench -- --diff --strict old.json new.json  # exit 1 on regression
//! ```
//!
//! The baseline file holds one entry per suite with the per-benchmark
//! summaries (mean/stddev/min and friends), plus two headline numbers:
//! the scalar-vs-batched speedup of the FCCD full-file probe (the
//! vectored probe engine) and the serial-vs-concurrent virtual-time
//! speedup of multi-file FCCD probing through the scheduler. Smoke runs
//! write to a separate file so a CI invocation in a checkout can never
//! clobber a committed baseline with single-iteration noise.
//!
//! `--diff old new` compares two baseline files (no benches are run):
//! per-benchmark host-time means, the virtual-time scheduler headline,
//! and the inference-accuracy fields. Host-time comparisons are always
//! informational — committed baselines are recorded under uncontrolled
//! load (back-to-back runs of one binary swing 2x on a shared runner),
//! so a host-time ratio is not evidence of a code regression. The
//! *deterministic* fields — accuracy precision/recall/error and the
//! virtual-time speedup — are exactly reproducible, so a move there is a
//! real regression: `--strict` makes those exit non-zero (the enforcing
//! CI step). Without `--strict` the diff always exits 0.

use gray_bench::suites;
use gray_toolbox::bench::Harness;
use std::time::Duration;

/// Baseline file for full runs (committed at the repo root).
const BASELINE: &str = "BENCH_PR10.json";
/// Output for smoke runs (existence proof only, never committed).
const SMOKE_OUT: &str = "BENCH_SMOKE.json";
/// Mean-time ratio above which `--diff` flags a benchmark as regressed.
const REGRESSION: f64 = 1.25;
/// Absolute drop in precision/recall (or rise in MAC error) that counts
/// as an accuracy regression. Accuracy is deterministic (virtual time, no
/// noise), so the tolerance exists only to forgive rounding in the
/// baseline file's 4-decimal fields.
const ACCURACY_SLACK: f64 = 0.02;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strict = args.iter().any(|a| a == "--strict");
    if args.iter().any(|a| a == "--diff") {
        let paths: Vec<&String> = args
            .iter()
            .filter(|a| *a != "--diff" && *a != "--strict")
            .collect();
        match (paths.first(), paths.get(1)) {
            (Some(old), Some(new)) => {
                let regressed = diff(old, new);
                std::process::exit(if strict { regressed } else { 0 });
            }
            _ => {
                eprintln!("usage: bench --diff [--strict] <old.json> <new.json>");
                std::process::exit(2);
            }
        }
    }
    let smoke = args.iter().any(|a| a == "--smoke");

    let mut sections = Vec::new();
    let mut scalar_mean = None;
    let mut batched_mean = None;

    for (target, register) in suites::ALL {
        println!("=== {target} ===");
        // A fresh harness per suite: per-suite budgets, and the figures
        // suite's group prefix cannot leak into the next suite.
        let mut h = Harness::new()
            .warm_up_time(Duration::from_millis(250))
            .measurement_time(Duration::from_secs(1));
        register(&mut h);
        for r in h.results() {
            if r.name == suites::icl::PROBE_SCALAR {
                scalar_mean = Some(r.mean_ns);
            }
            if r.name == suites::icl::PROBE_BATCHED {
                batched_mean = Some(r.mean_ns);
            }
        }
        let entries: Vec<String> = h
            .results()
            .iter()
            .map(|r| format!("    {}", r.json()))
            .collect();
        sections.push(format!("  \"{target}\": [\n{}\n  ]", entries.join(",\n")));
    }

    let mut headlines = String::new();
    if let (Some(s), Some(b)) = (scalar_mean, batched_mean) {
        if b > 0.0 {
            let x = s / b;
            println!("\nfccd probe engine: scalar {s:.0} ns vs batched {b:.0} ns → {x:.2}x");
            headlines.push_str(&format!(
                ",\n  \"fccd_probe_speedup\": {{\"scalar_mean_ns\":{s:.1},\
                 \"batched_mean_ns\":{b:.1},\"speedup\":{x:.3}}}"
            ));
        }
    }
    // The scheduler headline is virtual-time, so it is exact and cheap:
    // compute it even under --smoke (where the host-time harness runs a
    // single iteration and its entries are noise).
    let sched = suites::sched::fccd_multifile_speedup();
    println!(
        "sched fccd fleet: serial {} ns vs concurrent {} ns (virtual) → {:.2}x",
        sched.serial_ns, sched.concurrent_ns, sched.speedup
    );
    headlines.push_str(&format!(
        ",\n  \"sched_fccd_speedup\": {{\"serial_virtual_ns\":{},\
         \"concurrent_virtual_ns\":{},\"files\":{},\"speedup\":{:.3}}}",
        sched.serial_ns,
        sched.concurrent_ns,
        suites::sched::FLEET_FILES,
        sched.speedup
    ));
    // Inference accuracy is virtual-time and deterministic, like the
    // scheduler headline: exact even under --smoke.
    let acc = suites::accuracy::run();
    println!(
        "inference accuracy: fccd precision {:.3} recall {:.3} ({} files), \
         mac estimate off by {:.1}%",
        acc.fccd.precision(),
        acc.fccd.recall(),
        acc.fccd.scored(),
        acc.mac_abs_err * 100.0
    );
    headlines.push_str(&format!(",\n  \"accuracy\": {{{}}}", acc.json_fields()));
    // The daemon headline is virtual-time deterministic too: 24 tenants,
    // 10k+ queries through one shared daemon, exact even under --smoke.
    let d = suites::daemon::run();
    println!(
        "gbd daemon: {} tenants, {} queries, hit rate {:.3}, {} admitted / {} shed, \
         {} reinfers, {:.0} virtual ns/query",
        d.tenants, d.queries, d.hit_rate, d.admitted, d.shed, d.reinfers, d.virtual_ns_per_query
    );
    headlines.push_str(&format!(",\n  \"gbd\": {{{}}}", d.json_fields()));
    // The executor fleet headline: a 512-process FCCD fleet, run twice.
    // The deterministic virtual makespan and the replay-identity flag
    // are what `--diff --strict` gates; host time is informational.
    let f = suites::fleet::run();
    println!(
        "exec fleet: {} procs in {:.1} ms (host), identical {}, \
         makespan {} virtual ns; xl {} procs in {:.1} ms",
        f.procs,
        f.events_host_ns as f64 / 1e6,
        f.identical,
        f.virtual_ns,
        f.xl_procs,
        f.xl_events_host_ns as f64 / 1e6
    );
    headlines.push_str(&format!(
        ",\n  \"exec_fleet_speedup\": {{{}}}",
        f.json_fields()
    ));
    // The scenario matrix: the scored grid is virtual-time deterministic
    // (bit-identical for any worker count — gated), while the 1-vs-N
    // worker host time is measured paired and decided by the sign test.
    // Under --smoke the grid shrinks but the same machinery runs, so CI
    // exercises the gate end to end.
    let m = suites::matrix::run(smoke);
    println!(
        "scenario matrix: {} cells ({} panicked), identical {}, precision {:.3} \
         recall {:.3} mac_err {:.3}; {} workers on {} cpus → {:.2}x \
         (paired sign test: {} faster / {} slower, p={:.4})",
        m.cells,
        m.panicked,
        m.identical,
        m.precision,
        m.recall,
        m.mac_err,
        m.workers,
        m.host_cpus,
        m.paired.speedup,
        m.paired.sign.less,
        m.paired.sign.greater,
        m.paired.sign.p_value
    );
    headlines.push_str(&format!(",\n  \"matrix\": {{{}}}", m.json_fields()));
    headlines.push_str(&format!(
        ",\n  \"matrix_host_speedup\": {{{}}}",
        m.speedup_json_fields()
    ));
    let grid_lines: Vec<String> = m
        .grid_json_lines()
        .into_iter()
        .map(|l| format!("    {l}"))
        .collect();
    sections.push(format!(
        "  \"matrix_grid\": [\n{}\n  ]",
        grid_lines.join(",\n")
    ));
    // The covert-channel grid: every cell is virtual-time deterministic
    // and worker-count bit-identical (gated), and the per-cell capacity
    // and BER lines let the strict diff re-check the adversarial claims
    // (quiet channels error-free, defenders degrade capacity) offline.
    let cv = suites::covert::run(smoke);
    println!(
        "covert channels: {} cells ({} panicked), identical {}, quiet capacity \
         {:.1} bps over {} error(s), {} late wakeup(s)",
        cv.cells,
        cv.panicked,
        cv.identical,
        cv.quiet_capacity_bps,
        cv.quiet_errors,
        cv.late_wakeups
    );
    headlines.push_str(&format!(",\n  \"covert\": {{{}}}", cv.json_fields()));
    let covert_lines: Vec<String> = cv
        .grid_json_lines()
        .into_iter()
        .map(|l| format!("    {l}"))
        .collect();
    sections.push(format!(
        "  \"covert_grid\": [\n{}\n  ]",
        covert_lines.join(",\n")
    ));
    // The observability headline: the profiler's observation-only and
    // free-when-off contracts, both measured. Bit-identity (profiler on
    // vs off: fleet digests, makespans, covert grid digest) is gated
    // hard; the disabled-hook cost gates on its own paired sign-test
    // verdict; the enabled-profiler cost is informational.
    let o = suites::obs::run(smoke);
    println!(
        "obs profiler: {} procs, identical {}, {} virtual ns attributed over \
         {} leaves ({} charges); disabled hooks {:.2}x (sign test: {} faster / \
         {} slower, p={:.4}); enabled profiler {:.2}x; top {} ({} ns)",
        o.procs,
        o.identical,
        o.charged_total_ns,
        o.profile_leaves,
        o.profile_charges,
        o.disabled.speedup,
        o.disabled.sign.less,
        o.disabled.sign.greater,
        o.disabled.sign.p_value,
        o.enabled.speedup,
        o.top_path,
        o.top_ns
    );
    headlines.push_str(&format!(",\n  \"obs\": {{{}}}", o.json_fields()));
    headlines.push_str(&format!(
        ",\n  \"obs_disabled_overhead\": {{{}}}",
        o.disabled_json_fields()
    ));
    headlines.push_str(&format!(
        ",\n  \"obs_profiler_cost\": {{{}}}",
        o.enabled_json_fields()
    ));

    let json = format!(
        "{{\n  \"schema\": \"gray-bench-baseline/v1\",\n  \"smoke\": {smoke},\n{}{headlines}\n}}\n",
        sections.join(",\n")
    );
    let out = if smoke { SMOKE_OUT } else { BASELINE };
    std::fs::write(out, &json).expect("write baseline file");
    println!("\nwrote {out}");
}

/// Compares two baseline files and prints the regressions. Returns the
/// exit code `--strict` propagates: 0 when no *deterministic* metric
/// (accuracy, virtual-time speedup) regressed, 1 otherwise. Host-time
/// regressions past [`REGRESSION`] are printed but never fail the diff —
/// see the module docs for why.
fn diff(old_path: &str, new_path: &str) -> i32 {
    let old = read_means(old_path);
    let new = read_means(new_path);
    let mut regressed = 0usize;
    let mut compared = 0usize;
    println!("diff {old_path} → {new_path} (regression bar {REGRESSION}x)");
    // Whole suites may exist in only one file (a PR adds or retires a
    // suite); that is a fact to report, not an error to die on.
    let old_suites = read_suites(old_path);
    let new_suites = read_suites(new_path);
    for s in &new_suites {
        if !old_suites.contains(s) {
            println!("  new suite {s} (entries below report as new)");
        }
    }
    for s in &old_suites {
        if !new_suites.contains(s) {
            println!("  removed suite {s}");
        }
    }
    for (name, new_mean) in &new {
        let Some(old_mean) = old.iter().find(|(n, _)| n == name).map(|(_, m)| *m) else {
            println!("  new       {name}: {new_mean:.0} ns");
            continue;
        };
        compared += 1;
        let ratio = if old_mean > 0.0 {
            new_mean / old_mean
        } else {
            1.0
        };
        if ratio > REGRESSION {
            regressed += 1;
            println!("  slower    {name}: {old_mean:.0} ns → {new_mean:.0} ns ({ratio:.2}x)");
        } else if ratio < 1.0 / REGRESSION {
            println!("  faster    {name}: {old_mean:.0} ns → {new_mean:.0} ns ({ratio:.2}x)");
        }
    }
    for (name, _) in &old {
        if !new.iter().any(|(n, _)| n == name) {
            println!("  removed   {name}");
        }
    }
    let hard = diff_accuracy(old_path, new_path)
        + diff_virtual(old_path, new_path)
        + diff_gbd(old_path, new_path)
        + diff_fleet(old_path, new_path)
        + diff_matrix(old_path, new_path)
        + diff_covert(old_path, new_path)
        + diff_obs(old_path, new_path);
    println!(
        "{compared} compared: {regressed} host-time slower (informational), \
         {hard} deterministic regressions"
    );
    i32::from(hard > 0)
}

/// Compares the virtual-time scheduler headline — deterministic, so any
/// real drop is a scheduling regression, not noise. 10% slack tolerates
/// intentional re-tuning of the fleet scenario.
fn diff_virtual(old_path: &str, new_path: &str) -> usize {
    let speedup = |path: &str| -> Option<f64> {
        let text = std::fs::read_to_string(path).ok()?;
        let line = text.lines().find(|l| l.contains("serial_virtual_ns"))?;
        field_num(line, "speedup")
    };
    let (Some(old_v), Some(new_v)) = (speedup(old_path), speedup(new_path)) else {
        return 0;
    };
    if new_v < old_v * 0.9 {
        println!("  REGRESSED sched_fccd_speedup: {old_v:.3}x → {new_v:.3}x (virtual time)");
        return 1;
    }
    if new_v > old_v * 1.1 {
        println!("  improved  sched_fccd_speedup: {old_v:.3}x → {new_v:.3}x (virtual time)");
    }
    0
}

/// Compares the `"accuracy"` lines of two baseline files. Higher is
/// better for precision/recall, lower for MAC error; a move past
/// [`ACCURACY_SLACK`] in the bad direction counts as a regression.
/// Baselines from before the accuracy suite simply have no line to
/// compare, and the new values print as informational.
fn diff_accuracy(old_path: &str, new_path: &str) -> usize {
    let new = read_accuracy(new_path);
    let old = read_accuracy(old_path);
    let mut regressed = 0usize;
    for (key, higher_is_better) in [
        ("fccd_precision", true),
        ("fccd_recall", true),
        ("mac_abs_err", false),
    ] {
        let Some(new_v) = new.iter().find(|(k, _)| *k == key).map(|(_, v)| *v) else {
            continue;
        };
        let Some(old_v) = old.iter().find(|(k, _)| *k == key).map(|(_, v)| *v) else {
            println!("  new       accuracy.{key}: {new_v:.4}");
            continue;
        };
        let delta = if higher_is_better {
            old_v - new_v
        } else {
            new_v - old_v
        };
        if delta > ACCURACY_SLACK {
            regressed += 1;
            println!("  REGRESSED accuracy.{key}: {old_v:.4} → {new_v:.4}");
        } else if delta < -ACCURACY_SLACK {
            println!("  improved  accuracy.{key}: {old_v:.4} → {new_v:.4}");
        }
    }
    regressed
}

/// Compares the daemon headline — virtual-time deterministic, like the
/// scheduler speedup. Hit rate and shed rate get the same absolute slack
/// as accuracy (they are ratios of exact counters, so slack only
/// forgives intentional scenario re-tuning); the per-query virtual cost
/// gets the 10% relative slack of the scheduler headline. A baseline
/// from before the daemon suite has no line, so its fields report as
/// new rather than erroring.
fn diff_gbd(old_path: &str, new_path: &str) -> usize {
    let read = |path: &str| -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .find(|l| l.contains("\"virtual_ns_per_query\":"))
            .map(str::to_string)
    };
    let Some(new_line) = read(new_path) else {
        if read(old_path).is_some() {
            println!("  removed   gbd daemon headline");
        }
        return 0;
    };
    let Some(old_line) = read(old_path) else {
        println!("  new       gbd daemon headline");
        return 0;
    };
    let mut regressed = 0usize;
    let rate = |line: &str, num: &str, den: &str| -> Option<f64> {
        Some(field_num(line, num)? / field_num(line, den)?.max(1.0))
    };
    if let (Some(old_v), Some(new_v)) = (
        rate(&old_line, "hits", "queries"),
        rate(&new_line, "hits", "queries"),
    ) {
        if old_v - new_v > ACCURACY_SLACK {
            regressed += 1;
            println!("  REGRESSED gbd.hit_rate: {old_v:.4} → {new_v:.4}");
        } else if new_v - old_v > ACCURACY_SLACK {
            println!("  improved  gbd.hit_rate: {old_v:.4} → {new_v:.4}");
        }
    }
    if let (Some(old_v), Some(new_v)) = (
        rate(&old_line, "shed", "queries"),
        rate(&new_line, "shed", "queries"),
    ) {
        if new_v - old_v > ACCURACY_SLACK {
            regressed += 1;
            println!("  REGRESSED gbd.shed_rate: {old_v:.4} → {new_v:.4}");
        } else if old_v - new_v > ACCURACY_SLACK {
            println!("  improved  gbd.shed_rate: {old_v:.4} → {new_v:.4}");
        }
    }
    if let (Some(old_v), Some(new_v)) = (
        field_num(&old_line, "virtual_ns_per_query"),
        field_num(&new_line, "virtual_ns_per_query"),
    ) {
        if new_v > old_v * 1.1 {
            regressed += 1;
            println!("  REGRESSED gbd.virtual_ns_per_query: {old_v:.0} → {new_v:.0}");
        } else if new_v < old_v * 0.9 {
            println!("  improved  gbd.virtual_ns_per_query: {old_v:.0} → {new_v:.0}");
        }
    }
    regressed
}

/// Compares the executor fleet headline. Two of its fields are
/// deterministic and therefore gated: the replay-identity flag (`false`
/// in the new baseline is always a hard regression — two runs of one
/// fleet diverged) and the virtual-time fleet makespan (same 10%
/// relative slack as the other virtual headlines, forgiving intentional
/// scenario re-tuning). Host times are informational. Baselines from
/// when a thread-per-process executor still existed also carry a
/// `fleet_host_speedup` row comparing the two; it reports as removed.
fn diff_fleet(old_path: &str, new_path: &str) -> usize {
    let line_with = |path: &str, key: &str| -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines().find(|l| l.contains(key)).map(str::to_string)
    };
    let paired_row = "\"events_median_ns\":";
    if line_with(old_path, paired_row).is_some() && line_with(new_path, paired_row).is_none() {
        println!("  removed   fleet_host_speedup");
    }
    // `"xl_virtual_ns":` appears only in this headline's line.
    let headline = "\"xl_virtual_ns\":";
    let Some(new_line) = line_with(new_path, headline) else {
        if line_with(old_path, headline).is_some() {
            println!("  removed   exec fleet headline");
        }
        return 0;
    };
    let mut regressed = 0usize;
    if new_line.contains("\"identical\":false") {
        regressed += 1;
        println!("  REGRESSED exec_fleet_speedup.identical: replays diverged");
    }
    let Some(old_line) = line_with(old_path, headline) else {
        println!("  new       exec fleet headline");
        return regressed;
    };
    if let (Some(old_v), Some(new_v)) = (
        field_num(&old_line, "virtual_ns"),
        field_num(&new_line, "virtual_ns"),
    ) {
        if new_v > old_v * 1.1 {
            regressed += 1;
            println!("  REGRESSED exec_fleet.virtual_ns: {old_v:.0} → {new_v:.0}");
        } else if new_v < old_v * 0.9 {
            println!("  improved  exec_fleet.virtual_ns: {old_v:.0} → {new_v:.0}");
        }
    }
    if let (Some(old_v), Some(new_v)) = (
        field_num(&old_line, "events_host_ns"),
        field_num(&new_line, "events_host_ns"),
    ) {
        println!("  info      exec_fleet.events_host_ns: {old_v:.0} → {new_v:.0} (informational)");
    }
    regressed
}

/// Compares the scenario-matrix headline and its paired host-time row.
///
/// Deterministic and therefore gated: the worker-count bit-identity flag
/// (`identical:false` in the new baseline is always a hard regression —
/// the grid depended on scheduling) and the aggregate scores (precision/
/// recall/MAC error under [`ACCURACY_SLACK`], total virtual makespan
/// under the usual 10% slack).
///
/// The host-speedup row is measured, not deterministic, so it gates only
/// on its own *decided* verdict: a hard failure requires the paired sign
/// test to find the N-worker run significantly slower (`sign_greater >
/// sign_less` at p < 0.05) **and** the median paired speedup below 0.8 —
/// i.e. parallelism made things consistently worse, which no amount of
/// runner noise produces under paired A/B/B/A interleaving. A small or
/// single-core host (see `host_cpus`) yields ~1x with an insignificant
/// sign test and passes; only a real fan-out regression fails.
fn diff_matrix(old_path: &str, new_path: &str) -> usize {
    let headline = |path: &str| -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .find(|l| l.contains("\"grid_digest\":"))
            .map(str::to_string)
    };
    let Some(new_line) = headline(new_path) else {
        if headline(old_path).is_some() {
            println!("  removed   scenario matrix headline");
        }
        return 0;
    };
    let mut regressed = 0usize;
    if new_line.contains("\"identical\":false") {
        regressed += 1;
        println!("  REGRESSED matrix.identical: grid depends on worker count");
    }
    // The speedup row gates on the new file alone — the decision rule is
    // recorded in the row itself.
    let speedup_line = |path: &str| -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .find(|l| l.contains("\"one_worker_median_ns\":"))
            .map(str::to_string)
    };
    if let Some(line) = speedup_line(new_path) {
        let speedup = field_num(&line, "speedup").unwrap_or(1.0);
        let less = field_num(&line, "sign_less").unwrap_or(0.0);
        let greater = field_num(&line, "sign_greater").unwrap_or(0.0);
        let p = field_num(&line, "p_value").unwrap_or(1.0);
        let cpus = field_num(&line, "host_cpus").unwrap_or(1.0);
        if greater > less && p < 0.05 && speedup < 0.8 {
            regressed += 1;
            println!(
                "  REGRESSED matrix_host_speedup: {speedup:.2}x on {cpus:.0} cpus \
                 (N workers significantly slower, p={p:.4})"
            );
        } else {
            println!(
                "  info      matrix_host_speedup: {speedup:.2}x on {cpus:.0} cpus \
                 (sign test {less:.0} faster / {greater:.0} slower, p={p:.4})"
            );
        }
    }
    let Some(old_line) = headline(old_path) else {
        println!("  new       scenario matrix headline");
        return regressed;
    };
    // Aggregates are only comparable over the same grid: a full baseline
    // vs a smoke baseline sweeps different cells, and their means differ
    // by construction, not by regression.
    let cells = |line: &str| field_num(line, "cells");
    if cells(&old_line) != cells(&new_line) {
        println!(
            "  info      matrix grid shape changed ({:.0} → {:.0} cells); \
             aggregate comparison skipped",
            cells(&old_line).unwrap_or(0.0),
            cells(&new_line).unwrap_or(0.0)
        );
        return regressed;
    }
    for (key, higher_is_better) in [("precision", true), ("recall", true), ("mac_err", false)] {
        let (Some(old_v), Some(new_v)) = (field_num(&old_line, key), field_num(&new_line, key))
        else {
            continue;
        };
        let delta = if higher_is_better {
            old_v - new_v
        } else {
            new_v - old_v
        };
        if delta > ACCURACY_SLACK {
            regressed += 1;
            println!("  REGRESSED matrix.{key}: {old_v:.4} → {new_v:.4}");
        } else if delta < -ACCURACY_SLACK {
            println!("  improved  matrix.{key}: {old_v:.4} → {new_v:.4}");
        }
    }
    if let (Some(old_v), Some(new_v)) = (
        field_num(&old_line, "total_virtual_ns"),
        field_num(&new_line, "total_virtual_ns"),
    ) {
        if new_v > old_v * 1.1 {
            regressed += 1;
            println!("  REGRESSED matrix.total_virtual_ns: {old_v:.0} → {new_v:.0}");
        } else if new_v < old_v * 0.9 {
            println!("  improved  matrix.total_virtual_ns: {old_v:.0} → {new_v:.0}");
        }
    }
    regressed
}

/// Compares the covert-channel headline and its per-cell grid.
///
/// Everything in this suite is virtual-time deterministic, so the gates
/// apply to the new baseline alone (the claims must hold in every
/// baseline, whatever the old file says):
///
/// - `identical:false` — the grid depended on the worker count;
/// - `quiet_errors > 0` — a no-defender channel decoded bits wrongly on
///   a quiet platform, i.e. the side channel itself broke;
/// - `late_wakeups > 0` — a process overran its slot schedule, so the
///   scores no longer measure the protocol they claim to;
/// - the noise defender must leave the FCCD channel with *less* capacity
///   than the idle baseline, and the eager-flush defender likewise for
///   the WBD channel — the defender taxonomy's headline claims.
///
/// Cross-file, the quiet capacity gets the usual 10% relative slack when
/// the grid shape matches; a full-vs-smoke comparison skips it.
fn diff_covert(old_path: &str, new_path: &str) -> usize {
    let headline = |path: &str| -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .find(|l| l.contains("\"covert_digest\":"))
            .map(str::to_string)
    };
    let Some(new_line) = headline(new_path) else {
        if headline(old_path).is_some() {
            println!("  removed   covert headline");
        }
        return 0;
    };
    let mut regressed = 0usize;
    if new_line.contains("\"identical\":false") {
        regressed += 1;
        println!("  REGRESSED covert.identical: grid depends on worker count");
    }
    if field_num(&new_line, "quiet_errors").unwrap_or(0.0) > 0.0 {
        regressed += 1;
        println!("  REGRESSED covert.quiet_errors: no-defender channel decoded bits wrongly");
    }
    if field_num(&new_line, "late_wakeups").unwrap_or(0.0) > 0.0 {
        regressed += 1;
        println!("  REGRESSED covert.late_wakeups: slot schedule overran");
    }
    // Per-cell defender-degradation claims, re-checked from the grid
    // lines of the new file. Labels are `platform/channel/defender/bN`.
    let capacity = |prefix: &str| -> Option<f64> {
        let text = std::fs::read_to_string(new_path).ok()?;
        let line = text
            .lines()
            .find(|l| field_str(l, "channel_cell").is_some_and(|c| c.starts_with(prefix)))?
            .to_string();
        field_num(&line, "capacity_bps")
    };
    for (channel, defender) in [("fccd", "noise"), ("wbd", "flush")] {
        let quiet = capacity(&format!("linux/{channel}/none/"));
        let defended = capacity(&format!("linux/{channel}/{defender}/"));
        match (quiet, defended) {
            (Some(q), Some(d)) if d >= q => {
                regressed += 1;
                println!(
                    "  REGRESSED covert.{channel}: {defender} defender no longer degrades \
                     capacity ({q:.2} → {d:.2} bps)"
                );
            }
            (Some(q), Some(d)) => {
                println!("  info      covert.{channel}: {defender} defender {q:.2} → {d:.2} bps");
            }
            _ => {}
        }
    }
    let Some(old_line) = headline(old_path) else {
        println!("  new       covert headline");
        return regressed;
    };
    let cells = |line: &str| field_num(line, "cells");
    if cells(&old_line) != cells(&new_line) {
        println!(
            "  info      covert grid shape changed ({:.0} → {:.0} cells); \
             aggregate comparison skipped",
            cells(&old_line).unwrap_or(0.0),
            cells(&new_line).unwrap_or(0.0)
        );
        return regressed;
    }
    if let (Some(old_v), Some(new_v)) = (
        field_num(&old_line, "quiet_capacity_bps"),
        field_num(&new_line, "quiet_capacity_bps"),
    ) {
        if new_v < old_v * 0.9 {
            regressed += 1;
            println!("  REGRESSED covert.quiet_capacity_bps: {old_v:.2} → {new_v:.2}");
        } else if new_v > old_v * 1.1 {
            println!("  improved  covert.quiet_capacity_bps: {old_v:.2} → {new_v:.2}");
        }
    }
    regressed
}

/// Compares the observability headline and its paired overhead row.
///
/// Gated on the new baseline alone (the profiler's contracts must hold
/// in every baseline):
///
/// - `identical:false` — enabling the profiler moved a virtual-time
///   result (fleet digest, makespan, or covert grid digest): the
///   observation-only contract broke;
/// - `charged_total_ns` of zero — the charge hooks came unwired, so the
///   attribution tree is empty while the fleet plainly consumed time;
/// - the `obs_disabled_overhead` row — the strict diff re-applies the
///   recorded paired verdict: a hard failure requires the sign test to
///   find the hooked loop significantly slower (`sign_greater >
///   sign_less` at p < 0.05) **and** the median paired speedup below
///   0.8, i.e. the *disabled* hooks cost more than a quarter of a
///   16-step splitmix64 work unit — which one relaxed load and a branch
///   cannot, so only a real fast-path regression fails.
///
/// Cross-file, the profiler-off virtual makespan gets the usual 10%
/// slack when the fleet size matches; the profile tree shape
/// (leaves/digest/top path) is informational — re-tuning the scenario
/// legitimately moves it. The `obs_profiler_cost` row never gates:
/// profiling is expected to cost host time.
fn diff_obs(old_path: &str, new_path: &str) -> usize {
    let headline = |path: &str| -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .find(|l| l.contains("\"charged_total_ns\":"))
            .map(str::to_string)
    };
    let Some(new_line) = headline(new_path) else {
        if headline(old_path).is_some() {
            println!("  removed   obs profiler headline");
        }
        return 0;
    };
    let mut regressed = 0usize;
    if new_line.contains("\"identical\":false") {
        regressed += 1;
        println!("  REGRESSED obs.identical: profiler perturbed virtual time");
    }
    if field_num(&new_line, "charged_total_ns").unwrap_or(0.0) <= 0.0 {
        regressed += 1;
        println!("  REGRESSED obs.charged_total_ns: profiler attributed nothing");
    }
    // The overhead row gates on the new file alone — the decision rule
    // is recorded in the row itself.
    let overhead_line = |path: &str| -> Option<String> {
        let text = std::fs::read_to_string(path).ok()?;
        text.lines()
            .find(|l| l.contains("\"hook_median_ns\":"))
            .map(str::to_string)
    };
    if let Some(line) = overhead_line(new_path) {
        let speedup = field_num(&line, "speedup").unwrap_or(1.0);
        let less = field_num(&line, "sign_less").unwrap_or(0.0);
        let greater = field_num(&line, "sign_greater").unwrap_or(0.0);
        let p = field_num(&line, "p_value").unwrap_or(1.0);
        if greater > less && p < 0.05 && speedup < 0.8 {
            regressed += 1;
            println!(
                "  REGRESSED obs_disabled_overhead: {speedup:.2}x \
                 (disabled hooks significantly slower, p={p:.4})"
            );
        } else {
            println!(
                "  info      obs_disabled_overhead: {speedup:.2}x \
                 (sign test {less:.0} faster / {greater:.0} slower, p={p:.4})"
            );
        }
    }
    let Some(old_line) = headline(old_path) else {
        println!("  new       obs profiler headline");
        return regressed;
    };
    // The makespan is only comparable over the same fleet (full vs
    // smoke run different sizes).
    if field_num(&old_line, "procs") != field_num(&new_line, "procs") {
        println!(
            "  info      obs fleet size changed ({:.0} → {:.0} procs); \
             makespan comparison skipped",
            field_num(&old_line, "procs").unwrap_or(0.0),
            field_num(&new_line, "procs").unwrap_or(0.0)
        );
        return regressed;
    }
    if let (Some(old_v), Some(new_v)) = (
        field_num(&old_line, "baseline_virtual_ns"),
        field_num(&new_line, "baseline_virtual_ns"),
    ) {
        if new_v > old_v * 1.1 {
            regressed += 1;
            println!("  REGRESSED obs.baseline_virtual_ns: {old_v:.0} → {new_v:.0}");
        } else if new_v < old_v * 0.9 {
            println!("  improved  obs.baseline_virtual_ns: {old_v:.0} → {new_v:.0}");
        }
    }
    regressed
}

/// The suite-section names of a baseline file (`"toolbox": [` lines).
fn read_suites(path: &str) -> Vec<String> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    text.lines()
        .filter_map(|l| {
            let t = l.trim_end();
            let name = t.strip_suffix("\": [")?.trim_start().strip_prefix('"')?;
            Some(name.to_string())
        })
        .collect()
}

/// Extracts the accuracy fields from a baseline file's `"accuracy"` line.
fn read_accuracy(path: &str) -> Vec<(&'static str, f64)> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Some(line) = text.lines().find(|l| l.contains("\"fccd_precision\":")) else {
        return Vec::new();
    };
    ["fccd_precision", "fccd_recall", "mac_abs_err"]
        .into_iter()
        .filter_map(|key| field_num(line, key).map(|v| (key, v)))
        .collect()
}

/// Extracts `(name, mean_ns)` pairs from a baseline file without a JSON
/// dependency: entries are one `{"name":"...","mean_ns":...}` object per
/// line, which is exactly what this runner writes.
fn read_means(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "name") else {
            continue;
        };
        let Some(mean) = field_num(line, "mean_ns") else {
            continue;
        };
        out.push((name, mean));
    }
    out
}

/// The string value of `"key":"..."` in `line`, if present.
fn field_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// The numeric value of `"key":...` in `line`, if present.
fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
