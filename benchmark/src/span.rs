//! The benchmark's span recorder.
//!
//! A span is one call the benchmark makes into a layer: its name, when it
//! started and ended on the host clock, the operation it belongs to and
//! the span that was open on the same thread when it began. Spans are
//! kept in memory and written out when the run ends. The recorder is off
//! during the untraced run, where a span costs one relaxed load.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static DONE: Mutex<Vec<Span>> = Mutex::new(Vec::new());
/// Zero of the span clock: the first time the recorder was switched on.
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// Identifier of the innermost open span on this thread, 0 for none.
    static OPEN: Cell<u64> = const { Cell::new(0) };
}

/// One finished span. `parent` is 0 at the top level.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op_id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Starts recording; earlier spans are discarded.
pub fn enable() {
    DONE.lock().expect("span list lock").clear();
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording and returns every finished span.
pub fn disable() -> Vec<Span> {
    ENABLED.store(false, Ordering::SeqCst);
    std::mem::take(&mut *DONE.lock().expect("span list lock"))
}

/// The innermost open span of this thread, to hand to [`enter_under`] on
/// another thread.
pub fn current() -> u64 {
    OPEN.with(Cell::get)
}

/// Opens a span under this thread's innermost open span.
pub fn enter(name: &'static str, op_id: u64) -> Guard {
    enter_under(current(), name, op_id)
}

/// Opens a span under `parent`, which may have been opened on another
/// thread (a pool job under the `pool.map` call that queued it).
pub fn enter_under(parent: u64, name: &'static str, op_id: u64) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let outer = OPEN.with(|c| c.replace(id));
    Guard(Some(Open {
        span: Span {
            id,
            parent,
            op_id,
            name,
            start_ns: now_ns(),
            end_ns: 0,
        },
        outer,
    }))
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct Open {
    span: Span,
    outer: u64,
}

/// Closes its span when dropped.
pub struct Guard(Option<Open>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut open) = self.0.take() {
            open.span.end_ns = now_ns();
            OPEN.with(|c| c.set(open.outer));
            if let Ok(mut done) = DONE.lock() {
                done.push(open.span);
            }
        }
    }
}

/// Total and self time of all spans of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the part covered by child spans.
    pub self_ns: u64,
}

/// Sums spans by name. A span's self time is its duration minus the union
/// of its children's intervals, so children that ran in parallel on pool
/// workers are not subtracted twice.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"workload\":\"{}\",\"op_id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, workload, s.op_id, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op_id: 0,
            name,
            start_ns,
            end_ns,
        };
        // Two children overlap between 40 and 60: they cover 20..80.
        let spans = [
            span(1, 0, "outer", 0, 100),
            span(2, 1, "inner", 20, 60),
            span(3, 1, "inner", 40, 80),
        ];
        let t = totals(&spans);
        assert_eq!(t["outer"].total_ns, 100);
        assert_eq!(t["outer"].self_ns, 40);
        assert_eq!((t["inner"].count, t["inner"].self_ns), (2, 80));
    }
}
