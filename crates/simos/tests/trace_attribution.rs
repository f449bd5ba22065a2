//! Span-and-lane attribution across coroutine resumes.
//!
//! The event-driven executor multiplexes every simulated process onto
//! one host thread, so thread-local span stacks and lane bindings would
//! interleave garbage without `trace::TraceCtx` swapping around each
//! resume. These tests pin the contract end to end through the
//! profiler: a span opened inside a process's workload stays attached
//! to *that process's* charges across arbitrarily many suspensions, and
//! each process keeps its own lane.

use gray_toolbox::{profile, trace, GrayDuration};
use graybox::os::{GrayBoxOs, GrayBoxOsExt};
use simos::exec::Workload;
use simos::{Sim, SimConfig, SimProc};

/// Milliseconds, as virtual nanoseconds.
const MS: u64 = 1_000_000;

fn attribution_sim() -> Sim {
    Sim::new(SimConfig::small().without_noise())
}

#[test]
fn spans_stay_with_their_process_across_resumes() {
    let guard = profile::capture();
    let mut sim = attribution_sim();
    // Both processes open a named span, then alternate compute and
    // sleep. Every sleep suspends the coroutine and resumes the sibling,
    // so the span stacks swap many times mid-span; distinct durations
    // make the two processes' charge totals distinguishable.
    let workloads: Vec<(String, Workload<'_, ()>)> = vec![
        (
            "alpha".to_string(),
            Box::new(|os: &SimProc| {
                let _span = trace::span("proc", || "alpha".to_string());
                for _ in 0..3 {
                    os.compute(GrayDuration::from_millis(1));
                    os.sleep(GrayDuration::from_millis(2));
                }
            }),
        ),
        (
            "beta".to_string(),
            Box::new(|os: &SimProc| {
                let _span = trace::span("proc", || "beta".to_string());
                for _ in 0..2 {
                    os.compute(GrayDuration::from_millis(3));
                    os.sleep(GrayDuration::from_millis(5));
                }
            }),
        ),
    ];
    sim.run(workloads);
    let snap = profile::snapshot();
    drop(guard);

    // Every charge landed under exactly one process's span — a single
    // leaked frame would produce a path with both labels or neither.
    for path in snap.nodes.keys() {
        let alpha = path.contains("proc:alpha");
        let beta = path.contains("proc:beta");
        assert!(
            alpha ^ beta,
            "path must carry exactly one process span: {path}"
        );
    }
    let under = |label: &str, kind: &str| -> u64 {
        snap.nodes
            .iter()
            .filter(|(p, _)| p.contains(label) && p.ends_with(kind))
            .map(|(_, a)| a.ns)
            .sum()
    };
    // Sleep charges are exact (a sleep costs its duration, nothing
    // else); CPU charges are at least the requested work — the kernel
    // also attributes time the process spent contending for a CPU slot,
    // which is precisely what a where-did-virtual-time-go tree is for.
    assert_eq!(under("proc:alpha", ";sleep"), 6 * MS);
    assert_eq!(under("proc:beta", ";sleep"), 10 * MS);
    let alpha_cpu = under("proc:alpha", ";cpu");
    let beta_cpu = under("proc:beta", ";cpu");
    assert!(alpha_cpu >= 3 * MS, "alpha cpu under-charged: {alpha_cpu}");
    assert!(beta_cpu >= 6 * MS, "beta cpu under-charged: {beta_cpu}");
    // Per-pid attribution agrees with the per-span totals exactly
    // (pids are assigned in spawn order).
    assert_eq!(snap.by_pid[&0], alpha_cpu + 6 * MS);
    assert_eq!(snap.by_pid[&1], beta_cpu + 10 * MS);
    // Each process kept its own lane across every swap.
    assert!(
        snap.by_lane.len() >= 2,
        "two processes must occupy two lanes, got {:?}",
        snap.by_lane
    );
}

#[test]
fn op_frames_nest_under_swapped_spans() {
    let guard = profile::capture();
    let mut sim = attribution_sim();
    // A process that does real syscalls inside its span: the op stack
    // (sys_write / sys_read frames pushed by the kernel) must nest
    // *under* the span that survives the resume boundary.
    sim.run_one(|os: &SimProc| {
        let _span = trace::span("plan", || "/data".to_string());
        os.write_file("/data", &[7u8; 4096]).unwrap();
        let fd = os.open("/data").unwrap();
        let mut buf = [0u8; 4096];
        os.read_at(fd, 0, &mut buf).unwrap();
        os.close(fd).unwrap();
    });
    let snap = profile::snapshot();
    drop(guard);

    assert!(snap.total_ns > 0, "syscalls must charge virtual time");
    let keys: Vec<&String> = snap.nodes.keys().collect();
    assert!(
        keys.iter()
            .any(|p| p.starts_with("sim;plan:/data;sys_write;")),
        "sys_write frame must nest under the plan span: {keys:?}"
    );
    assert!(
        keys.iter()
            .any(|p| p.starts_with("sim;plan:/data;sys_read;")),
        "sys_read frame must nest under the plan span: {keys:?}"
    );
}
