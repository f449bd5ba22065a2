//! Span-and-lane attribution across coroutine resumes.
//!
//! The event-driven executor multiplexes every simulated process onto
//! one host thread, so thread-local span stacks and lane bindings would
//! interleave garbage without `trace::TraceCtx` swapping around each
//! resume. These tests pin the contract end to end through the
//! profiler and the tracer: a span opened inside a process's workload
//! stays attached to *that process's* charges across arbitrarily many
//! suspensions, each process keeps its own lane, and each record is
//! stamped with the last clock reading of the process that emitted it.

use gray_toolbox::trace::TraceEvent;
use gray_toolbox::{profile, trace, GrayDuration, Nanos};
use graybox::fccd::{Fccd, FccdParams};
use graybox::mac::{Mac, MacParams};
use graybox::os::{GrayBoxOs, GrayBoxOsExt};
use graybox::wbd::{Wbd, WbdParams};
use simos::exec::Workload;
use simos::{Sim, SimConfig, SimProc};

/// Milliseconds, as virtual nanoseconds.
const MS: u64 = 1_000_000;

fn attribution_sim() -> Sim {
    Sim::new(SimConfig::small().without_noise())
}

/// Emits a record whose payload is `reading`, the clock reading it
/// must be stamped with.
fn emit_reading(who: &'static str, reading: Nanos) {
    trace::emit_with(|| TraceEvent::Estimated {
        quantity: who,
        value: reading.as_nanos() as f64,
    });
}

#[test]
fn spans_stay_with_their_process_across_resumes() {
    let guard = profile::capture();
    let capture = trace::capture();
    let mut sim = attribution_sim();
    // Both processes open a named span, then alternate compute and
    // sleep. Every sleep suspends the coroutine and resumes the sibling,
    // so the span stacks swap many times mid-span; distinct durations
    // make the two processes' charge totals distinguishable. Each
    // process reads its clock before sleeping and emits after waking:
    // the sibling read its own clock in between.
    let workloads: Vec<(String, Workload<'_, ()>)> = vec![
        (
            "alpha".to_string(),
            Box::new(|os: &SimProc| {
                let _span = trace::span("proc", || "alpha".to_string());
                for _ in 0..3 {
                    os.compute(GrayDuration::from_millis(1));
                    let reading = os.now();
                    os.sleep(GrayDuration::from_millis(2));
                    emit_reading("alpha", reading);
                }
            }),
        ),
        (
            "beta".to_string(),
            Box::new(|os: &SimProc| {
                let _span = trace::span("proc", || "beta".to_string());
                for _ in 0..2 {
                    os.compute(GrayDuration::from_millis(3));
                    let reading = os.now();
                    os.sleep(GrayDuration::from_millis(5));
                    emit_reading("beta", reading);
                }
            }),
        ),
    ];
    sim.run(workloads);
    // Back on the driver, whose reading is the latest instant reached.
    emit_reading("driver", Nanos::ZERO);
    let end = sim.now();
    let snap = profile::snapshot();
    drop(guard);

    // Every record carries its own process's last reading, not the
    // neighbour's.
    let mut records = trace::drain();
    drop(capture);
    let driver = records.pop().expect("records");
    assert_eq!(records.len(), 5, "{records:?}");
    for rec in &records {
        let TraceEvent::Estimated { quantity, value } = rec.event else {
            panic!("unexpected {rec:?}");
        };
        assert_eq!(
            rec.ts.as_nanos() as f64,
            value,
            "{quantity}'s record is stamped {} ns, not its own reading",
            rec.ts.as_nanos()
        );
    }
    assert_eq!(driver.ts, end, "the driver resumes at the run's end");

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

/// Every record an ICL emits carries the virtual clock of the process
/// that runs it: stamped between that process's own clock reads before
/// and after, in `seq` order. The process first sleeps 1 000 virtual
/// seconds, so a stamp on any other clock cannot land in range.
#[test]
fn icl_records_carry_their_process_virtual_clock() {
    const MIB: u64 = 1 << 20;
    let mut sim = attribution_sim();
    let paths: Vec<String> = (0..2).map(|i| format!("/f{i}")).collect();
    sim.run_one(|os| {
        for path in &paths {
            let fd = os.create(path).unwrap();
            os.write_fill(fd, 0, 2 * MIB).unwrap();
            os.close(fd).unwrap();
        }
        os.sync().unwrap();
    });
    let _capture = trace::capture();
    let (a, b) = sim.run_one(|os| {
        os.sleep(GrayDuration::from_secs(1000));
        let a = os.now();
        let mac = MacParams {
            initial_increment: MIB,
            max_increment: 4 * MIB,
        };
        Mac::new(os, mac).available_estimate(16 * MIB).unwrap();
        let wbd = Wbd::new(os, WbdParams::default());
        let cal = wbd.calibrate().unwrap();
        wbd.residue_pages(&cal).unwrap();
        let fccd = FccdParams {
            access_unit: MIB,
            prediction_unit: 256 << 10,
            ..FccdParams::default()
        };
        Fccd::new(os, fccd).classify_files(&paths);
        let b = os.now();
        // The process ends a second after its last reading.
        os.sleep(GrayDuration::from_secs(1));
        (a, b)
    });
    emit_reading("driver", Nanos::ZERO);
    let end = sim.now();
    let mut records = trace::drain();
    let driver = records.pop().expect("records");
    for kind in ["Estimated", "ProbePlanned", "ProbeIssued", "Classified"] {
        assert!(
            records.iter().any(|r| r.event.kind() == kind),
            "no {kind} record"
        );
    }
    // FCCD plans a ranked file against its path, as gbd's scheduled
    // path does: one record shape per job.
    for rec in &records {
        if let TraceEvent::ProbePlanned { target, .. } = &rec.event {
            assert!(paths.contains(target), "{rec:?} plans no ranked path");
        }
    }
    let mut last = a;
    for rec in &records {
        assert!(
            (a..=b).contains(&rec.ts),
            "{} #{} stamped {} ns, outside the process's reads [{}, {}] ns",
            rec.event.kind(),
            rec.seq,
            rec.ts.as_nanos(),
            a.as_nanos(),
            b.as_nanos()
        );
        assert!(rec.ts >= last, "{rec:?} steps back from {last}");
        last = rec.ts;
    }
    assert_eq!(driver.ts, end, "the driver resumes at the run's end");
}
