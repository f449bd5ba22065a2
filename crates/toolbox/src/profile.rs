//! gray-profile: a virtual-time attribution profiler.
//!
//! A wall-clock profiler answers "where did the CPU go"; in this
//! workspace the scarce resource is *virtual* time — the nanoseconds the
//! simulated kernel charges a process for CPU bursts, disk transfers,
//! and sleeps. This module aggregates those charges into a hierarchical
//! where-did-virtual-time-go tree without perturbing them: the hooks
//! only *observe* deltas the kernel already computed, so enabling the
//! profiler cannot change a single clock, verdict, or digest (a tier-1
//! test pins exactly that).
//!
//! # Attribution path
//!
//! Each charge lands at a leaf addressed by three cooperating stacks:
//!
//! 1. the [`trace`] span stack (`plan:/f3`,
//!    `tenant:4`, …) — per simulated process under the event-driven
//!    executor thanks to `TraceCtx` swapping, per thread otherwise;
//! 2. this module's own operation stack, pushed by [`op_scope`] at
//!    kernel syscall entries (`sys_read`, `sys_probe_batch`, …) —
//!    kernel operations complete without suspending, so these frames
//!    are always balanced within one resume and need no swapping (a
//!    kernel step names its op on its charges instead, [`charge_in`]);
//! 3. the charge *kind* leaf: `cpu`, `disk`, or `sleep`.
//!
//! A full path reads like a flamegraph frame:
//! `sim;plan:/f3;sys_probe_batch;disk`. [`ProfileSnapshot::folded`]
//! emits the standard folded-stack format (`path space count`) that
//! flamegraph tooling consumes (`--profile <path>` on the repro binaries
//! writes it).
//!
//! # Ownership and cost
//!
//! The tree is the profile half of the thread's recorder (see
//! [`trace`]'s "Ownership"): [`capture`] arms a fresh one on the calling
//! thread, pool workers charge into their spawner's, and nothing is
//! process-global. Mirroring [`trace`], while the half is unarmed every
//! hook is one thread-local load and a branch — no allocation, no lock
//! (pinned by the allocation-counting test `tests/trace_zero_alloc.rs`).
//! Armed, a charge clones the span stack and takes the half's mutex to
//! bump the tree.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::mem;
use std::sync::{Arc, Mutex};

use crate::hash::{fnv, fnv_bytes, FNV_OFFSET};
use crate::trace;

/// Root frame every attribution path starts with.
pub const ROOT: &str = "sim";

thread_local! {
    static OP_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Aggregate at one leaf of the attribution tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeAgg {
    /// Virtual nanoseconds charged at this exact path.
    pub ns: u64,
    /// Number of charges that landed here.
    pub count: u64,
}

/// The profile half of a recorder: one capture's attribution tree.
#[derive(Debug, Default)]
pub(crate) struct Profiler {
    total_ns: u64,
    nodes: BTreeMap<String, NodeAgg>,
    by_pid: BTreeMap<u64, u64>,
    by_lane: BTreeMap<u64, u64>,
    by_kind: BTreeMap<&'static str, u64>,
}

/// Whether this thread's recorder has its profile half armed. One
/// thread-local load — the entire cost of every hook while it is not.
#[inline]
pub fn enabled() -> bool {
    trace::armed() & trace::PROFILE_ARMED != 0
}

/// Records a virtual-time charge of `ns` nanoseconds of `kind`
/// (`cpu`/`disk`/`sleep`) against process `pid`, attributed to the
/// current span + operation path. No-op (closure-free, allocation-free)
/// when profiling is disabled.
#[inline]
pub fn charge(pid: u64, kind: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    charge_slow(pid, None, kind, ns);
}

/// [`charge`] as if `op` were pushed by [`op_scope`] for this one charge:
/// the path is the same, and nothing is pushed. For the kernel's steps,
/// which run inside another operation's frame without opening their own.
#[inline]
pub fn charge_in(pid: u64, op: &'static str, kind: &'static str, ns: u64) {
    if !enabled() {
        return;
    }
    charge_slow(pid, Some(op), kind, ns);
}

fn charge_slow(pid: u64, op: Option<&'static str>, kind: &'static str, ns: u64) {
    let mut path = String::from(ROOT);
    for seg in trace::span_segments() {
        path.push(';');
        path.push_str(&seg);
    }
    OP_STACK.with(|s| {
        for op in s.borrow().iter() {
            path.push(';');
            path.push_str(op);
        }
    });
    for seg in op.into_iter().chain([kind]) {
        path.push(';');
        path.push_str(seg);
    }
    let lane = trace::current_lane();
    trace::with_recorder(|r| {
        let Some(half) = &r.profile else { return };
        let mut st = trace::lock(half);
        st.total_ns += ns;
        let agg = st.nodes.entry(path).or_default();
        agg.ns += ns;
        agg.count += 1;
        *st.by_pid.entry(pid).or_insert(0) += ns;
        *st.by_lane.entry(lane).or_insert(0) += ns;
        *st.by_kind.entry(kind).or_insert(0) += ns;
    });
}

/// Pushes a named operation frame (a kernel syscall) onto this thread's
/// attribution stack; the guard pops it on drop. Free when disabled.
#[inline]
pub fn op_scope(name: &'static str) -> OpGuard {
    if !enabled() {
        return OpGuard { pushed: false };
    }
    OP_STACK.with(|s| s.borrow_mut().push(name));
    OpGuard { pushed: true }
}

/// Guard returned by [`op_scope`]; pops its frame when dropped.
pub struct OpGuard {
    pushed: bool,
}

impl Drop for OpGuard {
    #[inline]
    fn drop(&mut self) {
        if self.pushed {
            OP_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Snapshot of this thread's capture's attribution tree (empty when no
/// capture is armed).
pub fn snapshot() -> ProfileSnapshot {
    trace::with_recorder(|r| {
        let st = trace::lock(r.profile.as_deref()?);
        Some(ProfileSnapshot {
            total_ns: st.total_ns,
            nodes: st.nodes.clone(),
            by_pid: st.by_pid.clone(),
            by_lane: st.by_lane.clone(),
            by_kind: st
                .by_kind
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        })
    })
    .unwrap_or_default()
}

/// Starts a capture on this thread: arms a fresh, empty profile half in
/// place of whatever profile half the thread's recorder held, and leaves
/// its trace half alone. The guard puts the displaced half back, so
/// captures nest. Call [`snapshot`] before dropping it.
pub fn capture() -> CaptureGuard {
    let fresh = Some(Arc::new(Mutex::new(Profiler::default())));
    CaptureGuard {
        prev: trace::update_recorder(|r| mem::replace(&mut r.profile, fresh)),
    }
}

/// Guard returned by [`capture`]; ends the capture on drop and re-arms
/// the profile half it displaced, if any.
pub struct CaptureGuard {
    prev: Option<Arc<Mutex<Profiler>>>,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        drop(trace::update_recorder(|r| {
            mem::replace(&mut r.profile, prev)
        }));
    }
}

/// An immutable where-did-virtual-time-go tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Sum of every charge, in virtual nanoseconds.
    pub total_ns: u64,
    /// Leaf aggregates keyed by `;`-joined attribution path.
    pub nodes: BTreeMap<String, NodeAgg>,
    /// Virtual nanoseconds charged per simulated process id.
    pub by_pid: BTreeMap<u64, u64>,
    /// Virtual nanoseconds charged per trace lane.
    pub by_lane: BTreeMap<u64, u64>,
    /// Virtual nanoseconds per charge kind (`cpu`/`disk`/`sleep`).
    pub by_kind: BTreeMap<String, u64>,
}

impl ProfileSnapshot {
    /// Folded-stack flamegraph export: one `path count` line per leaf,
    /// counts in virtual nanoseconds, sorted by path (deterministic).
    pub fn folded(&self) -> String {
        let mut out = String::new();
        for (path, agg) in &self.nodes {
            out.push_str(path);
            out.push(' ');
            out.push_str(&agg.ns.to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a fingerprint over the leaf paths, their charges, and the
    /// per-pid totals. Lanes are excluded: lane numbering depends on
    /// allocation order across the whole process, which other subsystems
    /// influence; everything folded here is virtual-time deterministic.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for (path, agg) in &self.nodes {
            h = fnv(fnv(fnv_bytes(h, path.as_bytes()), agg.ns), agg.count);
        }
        for (&pid, &ns) in &self.by_pid {
            h = fnv(fnv(h, pid), ns);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_charge_is_inert() {
        drop(capture()); // an ended capture leaves nothing armed
        charge(0, "cpu", 1_000_000);
        let _op = op_scope("sys_read");
        assert!(
            OP_STACK.with(|s| s.borrow().is_empty()),
            "disabled op_scope must not push"
        );
    }

    #[test]
    fn charges_aggregate_under_span_and_op_frames() {
        let _guard = capture();
        {
            let _span = trace::span("plan", || "/f1".to_string());
            let _op = op_scope("sys_read");
            charge(3, "disk", 500);
            charge(3, "disk", 700);
        }
        {
            let _op = op_scope("sys_compute");
            charge(4, "cpu", 250);
        }
        let snap = snapshot();
        assert_eq!(snap.total_ns, 1450);
        let read = &snap.nodes["sim;plan:/f1;sys_read;disk"];
        assert_eq!((read.ns, read.count), (1200, 2));
        let compute = &snap.nodes["sim;sys_compute;cpu"];
        assert_eq!((compute.ns, compute.count), (250, 1));
        assert_eq!(snap.by_pid[&3], 1200);
        assert_eq!(snap.by_pid[&4], 250);
        assert_eq!(snap.by_kind["disk"], 1200);
        assert_eq!(snap.by_kind["cpu"], 250);
    }

    #[test]
    fn a_charge_in_an_op_is_the_charge_under_its_frame() {
        let run = |framed: bool| {
            let _guard = capture();
            let _span = trace::span("plan", || "/f1".to_string());
            let _batch = op_scope("sys_mem_probe_batch");
            if framed {
                let _op = op_scope("sys_now");
                charge(2, "cpu", 40);
            } else {
                charge_in(2, "sys_now", "cpu", 40);
            }
            charge(2, "cpu", 7);
            snapshot()
        };
        let (framed, stepped) = (run(true), run(false));
        assert_eq!(stepped, framed);
        assert_eq!(
            stepped.nodes["sim;plan:/f1;sys_mem_probe_batch;sys_now;cpu"].ns,
            40
        );
        assert_eq!(stepped.nodes["sim;plan:/f1;sys_mem_probe_batch;cpu"].ns, 7);
    }

    #[test]
    fn spans_push_when_only_profiler_is_enabled() {
        let _guard = capture();
        assert!(!trace::enabled(), "tracing itself stays off");
        let _span = trace::span("tenant", || "7".to_string());
        charge(0, "cpu", 10);
        let snap = snapshot();
        assert!(
            snap.nodes.contains_key("sim;tenant:7;cpu"),
            "span() must attribute for the profiler even with tracing off; got {:?}",
            snap.nodes.keys().collect::<Vec<_>>()
        );
    }

    #[test]
    fn folded_tree_json_and_digest_are_deterministic() {
        let _guard = capture();
        {
            let _op = op_scope("sys_probe_batch");
            charge(0, "disk", 4000);
            charge(0, "cpu", 1000);
        }
        charge(1, "sleep", 2000);
        let a = snapshot();
        let folded = a.folded();
        assert!(folded.contains("sim;sys_probe_batch;disk 4000\n"));
        assert!(folded.contains("sim;sleep 2000\n"));

        // Re-run the identical session: identical snapshot and digest.
        drop(_guard);
        let _guard2 = capture();
        {
            let _op = op_scope("sys_probe_batch");
            charge(0, "disk", 4000);
            charge(0, "cpu", 1000);
        }
        charge(1, "sleep", 2000);
        let b = snapshot();
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.folded(), b.folded());
        assert_ne!(a.digest(), ProfileSnapshot::default().digest());
    }

    #[test]
    fn op_guard_restores_on_early_toggle() {
        let guard = capture();
        let op = op_scope("sys_write");
        drop(guard);
        drop(op); // pushed while enabled → must still pop
        assert!(OP_STACK.with(|s| s.borrow().is_empty()));
    }
}
