//! gray-trace: structured tracing and metrics for the probe lifecycle.
//!
//! Every ICL inference rests on a chain of small decisions — an offset was
//! drawn, a probe was timed, a unit was classified, a request was admitted —
//! and when an inference goes wrong the figure output alone cannot say
//! which link broke. This module records that chain as typed events:
//!
//! - [`TraceEvent::ProbePlanned`] — an ICL drew a probe plan for a target;
//! - [`TraceEvent::ProbeIssued`] — one probe executed, with its latency
//!   (emitted by the backends: virtual time under simos, `FastTimer` time
//!   under hostos);
//! - [`TraceEvent::Classified`] — a prediction unit received a verdict;
//! - [`TraceEvent::ThresholdCrossed`] — a detector tripped (page-daemon
//!   slow-run, the fast/slow split's separation, a stale pooled grant);
//! - [`TraceEvent::AdmissionDecision`] — a memory request was granted or
//!   denied, and for how many bytes;
//! - [`TraceEvent::Estimated`] — an ICL published a scalar estimate
//!   (e.g. MAC's available-memory figure), joinable against oracle truth;
//! - [`TraceEvent::RepositoryMiss`] — a calibration key was read before
//!   anything wrote it (the caller silently fell back to a default);
//! - [`TraceEvent::CacheAccess`] — a service-side inference cache answered
//!   (or declined to answer) a query: hit, miss, expired, churned.
//!
//! # Ownership
//!
//! Nothing here is process-global except the lane-id counter. What a run
//! records lives in one recorder held by the thread that runs it: a trace
//! half (the ring, the JSONL sink, the sequence counter, the per-kind
//! counts and the probe-latency histogram) and a profile half
//! ([`crate::profile`]'s attribution tree). [`capture`] arms a fresh
//! trace half on the calling thread, and its guard puts back whatever
//! was there: captures on two threads never see each other's records,
//! and a capture inside a capture nests. [`crate::pool::Pool`]
//! installs the spawner's recorder in each worker for the length of one
//! `map`; a thread spawned any other way starts with nothing armed.
//!
//! # Cost model
//!
//! Call sites never need `#[cfg]`s: while nothing is armed on the thread
//! (the default), [`emit_with`] is one thread-local load and a branch —
//! no allocation, no lock, and the event-constructing closure is never
//! called; a clock reading ([`set_now`]) is one thread-local store,
//! armed or not. Armed, a record takes the trace half's mutex (shared only with
//! the pool workers of the same run) to push into a bounded ring buffer
//! and, if configured, a buffered JSONL sink; counters plus a log2 latency
//! histogram aggregate alongside.
//!
//! # Identity
//!
//! Each record carries four coordinates so a timeline can be
//! reconstructed per wave, per plan, and per process:
//!
//! - `ts` — the last clock reading made by the code that emitted it: the
//!   backends store every reading they take anyway ([`set_now`]), so a
//!   record lands on the emitting process's own clock (virtual time
//!   under simos, `FastTimer` time under hostos) without a read of its
//!   own, and a thread that has never read a clock stamps 0;
//! - `wave` — the scheduler stamps the current wave index onto its own
//!   thread while a wave is in flight ([`set_wave`]);
//! - `span` — a thread-local stack of `kind:label` segments pushed by
//!   [`span`] guards (e.g. `plan:/f3`); the executor swaps it, with the
//!   reading and the lane, per simulated process ([`swap_ctx`]), so a
//!   span pushed inside a worker names that worker's plan;
//! - `lane` — a small per-thread integer; under simos one lane is one
//!   simulated process.
//!
//! # Sinks
//!
//! The ring buffer ([`drain`]) serves in-process consumers: tests, the
//! accuracy scorer, and [`render_timeline`]. The JSONL sink
//! ([`enable_jsonl`]; `--trace <path>` on the repro binaries) streams
//! every record as one JSON object per line, so rare-but-important events
//! (threshold crossings) survive even when probe events wrap the ring.
//! Dropping its guard ends the file with an accounting footer.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::mem;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::stats::Log2Histogram;
use crate::time::Nanos;

/// Default ring-buffer capacity (records). Probe-heavy runs wrap; the
/// JSONL sink, when configured, still sees every record.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

/// A classification verdict attached to a [`TraceEvent::Classified`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Predicted resident in the cache.
    Cached,
    /// Predicted not resident.
    Uncached,
    /// A single probed page was observed present.
    Present,
    /// A single probed page was observed absent.
    Absent,
}

impl Verdict {
    /// The verdict's JSONL spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Cached => "cached",
            Verdict::Uncached => "uncached",
            Verdict::Present => "present",
            Verdict::Absent => "absent",
        }
    }
}

/// One typed event in the probe lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An ICL drew a probe plan: `probes` offsets against `target`.
    ProbePlanned {
        /// What will be probed: a file path (FCCD ranking a set of files,
        /// inline or through gbd), or `size:N` (FCCD's by-fd
        /// `probe_file`, handed an open file of N bytes, not a path).
        target: String,
        /// Number of probe offsets in the plan.
        probes: u64,
    },
    /// One probe executed. Emitted by the backend that serviced it, with
    /// the backend's own clock (virtual nanoseconds under simos).
    ProbeIssued {
        /// Byte offset probed.
        offset: u64,
        /// Observed service latency in nanoseconds.
        latency_ns: u64,
    },
    /// A prediction unit received a verdict.
    Classified {
        /// The unit's identity (a file path for FCCD; `pu:<i>` for
        /// per-unit probes in fig1).
        unit: String,
        /// The verdict.
        verdict: Verdict,
    },
    /// A detector compared a value against its threshold and tripped.
    ThresholdCrossed {
        /// Which detector (e.g. `mac.page_daemon`, `fccd.separation`).
        what: &'static str,
        /// The observed value.
        value: f64,
        /// The threshold it was compared against.
        threshold: f64,
    },
    /// A memory request was admitted (or not).
    AdmissionDecision {
        /// Who decided (e.g. `mac.admit_all`, `gbd.query`).
        source: &'static str,
        /// Bytes requested.
        requested: u64,
        /// Bytes granted; 0 means denied.
        granted: u64,
    },
    /// An ICL published a scalar estimate of hidden OS state.
    Estimated {
        /// The quantity (e.g. `mac.available_bytes`).
        quantity: &'static str,
        /// The estimate's value.
        value: f64,
    },
    /// A repository key was read before calibration wrote it.
    RepositoryMiss {
        /// The key that was missing.
        key: String,
    },
    /// A service-side inference cache was consulted.
    CacheAccess {
        /// The cache key (a query fingerprint).
        key: String,
        /// What happened: `hit`, `miss`, `expired`, `churned`, `reinfer`,
        /// `evicted` (capacity bound displaced the oldest entry).
        outcome: &'static str,
    },
}

impl TraceEvent {
    /// The event's type name, as spelled in JSONL and counter keys.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::ProbePlanned { .. } => "ProbePlanned",
            TraceEvent::ProbeIssued { .. } => "ProbeIssued",
            TraceEvent::Classified { .. } => "Classified",
            TraceEvent::ThresholdCrossed { .. } => "ThresholdCrossed",
            TraceEvent::AdmissionDecision { .. } => "AdmissionDecision",
            TraceEvent::Estimated { .. } => "Estimated",
            TraceEvent::RepositoryMiss { .. } => "RepositoryMiss",
            TraceEvent::CacheAccess { .. } => "CacheAccess",
        }
    }

    /// The event's payload as JSON object fields (no braces), e.g.
    /// `"offset":4096,"latency_ns":2500`.
    pub fn payload_json(&self) -> String {
        match self {
            TraceEvent::ProbePlanned { target, probes } => {
                format!("\"target\":{},\"probes\":{probes}", json_string(target))
            }
            TraceEvent::ProbeIssued { offset, latency_ns } => {
                format!("\"offset\":{offset},\"latency_ns\":{latency_ns}")
            }
            TraceEvent::Classified { unit, verdict } => {
                format!(
                    "\"unit\":{},\"verdict\":\"{}\"",
                    json_string(unit),
                    verdict.as_str()
                )
            }
            TraceEvent::ThresholdCrossed {
                what,
                value,
                threshold,
            } => format!(
                "\"what\":{},\"value\":{},\"threshold\":{}",
                json_string(what),
                json_f64(*value),
                json_f64(*threshold)
            ),
            TraceEvent::AdmissionDecision {
                source,
                requested,
                granted,
            } => format!(
                "\"source\":{},\"requested\":{requested},\"granted\":{granted}",
                json_string(source)
            ),
            TraceEvent::Estimated { quantity, value } => format!(
                "\"quantity\":{},\"value\":{}",
                json_string(quantity),
                json_f64(*value)
            ),
            TraceEvent::RepositoryMiss { key } => format!("\"key\":{}", json_string(key)),
            TraceEvent::CacheAccess { key, outcome } => {
                format!("\"key\":{},\"outcome\":\"{outcome}\"", json_string(key))
            }
        }
    }
}

/// One recorded event with its identity coordinates.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Sequence number within its capture, from 0 (a total order across
    /// the pool workers that share the capture).
    pub seq: u64,
    /// Timestamp in nanoseconds: the last clock reading the emitting
    /// code made ([`set_now`]), on its backend's own clock; 0 if it has
    /// made none.
    pub ts: Nanos,
    /// Scheduler wave index in flight when the event fired, if any.
    pub wave: Option<u64>,
    /// `/`-joined span path from the emitting thread's span stack
    /// (empty when no span was open).
    pub span: String,
    /// Small per-thread lane id (one simulated process = one lane).
    pub lane: u64,
    /// The event itself.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Renders the record as one JSONL line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"ts_ns\":{},\"lane\":{}",
            self.seq,
            self.ts.as_nanos(),
            self.lane
        );
        if let Some(w) = self.wave {
            s.push_str(&format!(",\"wave\":{w}"));
        }
        if !self.span.is_empty() {
            s.push_str(&format!(",\"span\":{}", json_string(&self.span)));
        }
        s.push_str(&format!(
            ",\"type\":\"{}\",{}}}",
            self.event.kind(),
            self.event.payload_json()
        ));
        s
    }
}

/// Aggregated counters and histograms, snapshotted by [`metrics`].
#[derive(Debug, Clone, Default)]
pub struct TraceMetrics {
    /// Event count per event kind.
    pub counts: BTreeMap<&'static str, u64>,
    /// Log2 histogram of [`TraceEvent::ProbeIssued`] latencies (ns).
    pub probe_latency: Log2Histogram,
    /// Records evicted from the bounded ring before anyone drained them.
    /// Non-zero means in-process consumers saw a truncated history (the
    /// JSONL sink, when configured, still received every record).
    pub records_dropped: u64,
}

/// Bounded ring of records: pushes evict the oldest once full.
#[derive(Debug)]
struct Ring {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Index of the oldest record once the ring has wrapped.
    head: usize,
    /// Records overwritten before being drained — the silent-loss
    /// counter surfaced as [`TraceMetrics::records_dropped`].
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            buf: Vec::new(),
            capacity: capacity.max(1),
            head: 0,
            dropped: 0,
        }
    }

    fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.dropped += 1;
            self.buf[self.head] = rec;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    fn drain(&mut self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self.buf.drain(self.head..).collect();
        out.append(&mut self.buf);
        self.head = 0;
        out
    }
}

/// The trace half of a [`Recorder`]: one capture's records and aggregates.
struct Tracer {
    seq: u64,
    ring: Ring,
    sink: Option<BufWriter<File>>,
    metrics: TraceMetrics,
}

impl Tracer {
    fn new(capacity: usize, sink: Option<BufWriter<File>>) -> Self {
        Tracer {
            seq: 0,
            ring: Ring::new(capacity),
            sink,
            metrics: TraceMetrics::default(),
        }
    }
}

impl Drop for Tracer {
    /// Ends the JSONL sink, if any, with its accounting footer:
    /// `{"type":"Footer","records":N,"ring_dropped":M,"ring_capacity":C}`,
    /// so a consumer can verify it received every record and see whether
    /// the in-process ring lost history.
    fn drop(&mut self) {
        if let Some(mut sink) = self.sink.take() {
            let _ = writeln!(
                sink,
                "{{\"type\":\"Footer\",\"records\":{},\"ring_dropped\":{},\"ring_capacity\":{}}}",
                self.seq, self.ring.dropped, self.ring.capacity
            );
            let _ = sink.flush();
        }
    }
}

/// Everything one run records: a trace half armed by [`capture`] and a
/// profile half armed by [`crate::profile::capture`], either possibly
/// unarmed. The halves are shared, so pool workers that install their
/// spawner's recorder push into the same ring and the same tree.
#[derive(Clone, Default)]
pub(crate) struct Recorder {
    trace: Option<Arc<Mutex<Tracer>>>,
    pub(crate) profile: Option<Arc<Mutex<crate::profile::Profiler>>>,
}

/// [`armed`] bit of a recorder whose trace half is armed.
const TRACE_ARMED: u8 = 1;
/// [`armed`] bit of a recorder whose profile half is armed.
pub(crate) const PROFILE_ARMED: u8 = 2;

static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static RECORDER: RefCell<Recorder> = const {
        RefCell::new(Recorder { trace: None, profile: None })
    };
    /// Which halves of `RECORDER` are armed. A plain `Copy` cell beside
    /// it, so the disabled check is one load and a branch, without the
    /// destructor bookkeeping `RECORDER` needs.
    static ARMED: Cell<u8> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static LANE: Cell<u64> = const { Cell::new(u64::MAX) };
    /// The last clock reading ([`set_now`]): every record's stamp.
    static NOW: Cell<Nanos> = const { Cell::new(Nanos::ZERO) };
    static CURRENT_WAVE: Cell<Option<u64>> = const { Cell::new(None) };
}

/// The [`TRACE_ARMED`]/[`PROFILE_ARMED`] bits of this thread's recorder.
#[inline]
pub(crate) fn armed() -> u8 {
    ARMED.get()
}

/// Edits this thread's recorder and refreshes its [`armed`] bits.
pub(crate) fn update_recorder<R>(edit: impl FnOnce(&mut Recorder) -> R) -> R {
    RECORDER.with(|slot| {
        let mut rec = slot.borrow_mut();
        let out = edit(&mut rec);
        ARMED.set(
            (u8::from(rec.trace.is_some()) * TRACE_ARMED)
                | (u8::from(rec.profile.is_some()) * PROFILE_ARMED),
        );
        out
    })
}

/// Reads this thread's recorder.
pub(crate) fn with_recorder<R>(read: impl FnOnce(&Recorder) -> R) -> R {
    RECORDER.with(|slot| read(&slot.borrow()))
}

/// Locks a recorder half. A panic while one was held (a pool job's, say)
/// leaves only whole records behind, so a poisoned lock is taken as is.
pub(crate) fn lock<T>(half: &Mutex<T>) -> MutexGuard<'_, T> {
    half.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `f` on this thread's trace half, if one is armed.
fn with_tracer<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    with_recorder(|r| r.trace.as_deref().map(|t| f(&mut lock(t))))
}

/// This thread's lane id (allocated lazily), also the profiler's
/// per-lane attribution key.
pub(crate) fn current_lane() -> u64 {
    LANE.with(|c| {
        if c.get() == u64::MAX {
            c.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// A copy of this thread's open span stack, root first, for the
/// profiler's attribution path.
pub(crate) fn span_segments() -> Vec<String> {
    SPAN_STACK.with(|s| s.borrow().clone())
}

/// Reserves a fresh lane id without binding it to any thread. Services
/// that multiplex many logical clients over one thread (the `gbd` daemon
/// serving its tenants) allocate one lane per client and switch the
/// emitting thread onto it with [`lane_scope`].
pub fn allocate_lane() -> u64 {
    NEXT_LANE.fetch_add(1, Ordering::Relaxed)
}

/// Overrides this thread's lane id until the guard drops, then restores
/// the previous binding. Records emitted inside the scope carry `lane` —
/// this is how per-tenant telemetry falls out of a single daemon thread.
pub fn lane_scope(lane: u64) -> LaneGuard {
    let prev = LANE.with(|c| c.replace(lane));
    LaneGuard { prev }
}

/// Guard returned by [`lane_scope`]; restores the previous lane on drop.
pub struct LaneGuard {
    prev: u64,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        LANE.with(|c| c.set(self.prev));
    }
}

/// A detached copy of this thread's per-context trace identity: the open
/// span stack, the lane binding and the last clock reading. Executors
/// that multiplex many logical processes over one driver thread (the
/// event-driven `simos` backend) keep one `TraceCtx` per process and
/// [`swap_ctx`] it in around every resume, so spans opened by one
/// process never leak into another's records and each process keeps a
/// stable lane and its own clock reading.
#[derive(Debug)]
pub struct TraceCtx {
    spans: Vec<String>,
    lane: u64,
    now: Nanos,
}

impl TraceCtx {
    /// A fresh context for a process that starts at `start`: no open
    /// spans, lane unbound (lazily allocated on first record, exactly
    /// like a fresh thread), and `start` as its first reading.
    pub fn new(start: Nanos) -> Self {
        TraceCtx {
            spans: Vec::new(),
            lane: u64::MAX,
            now: start,
        }
    }
}

/// Exchanges this thread's span stack, lane and reading with `ctx`. Call
/// once to install a context before resuming its process and once after
/// it suspends to stow it away again; the pairing restores the caller's
/// own identity in between. Swapping (rather than set/clear) makes the
/// operation self-inverse and allocation-free.
pub fn swap_ctx(ctx: &mut TraceCtx) {
    SPAN_STACK.with(|s| std::mem::swap(&mut *s.borrow_mut(), &mut ctx.spans));
    ctx.lane = LANE.with(|c| c.replace(ctx.lane));
    ctx.now = NOW.with(|c| c.replace(ctx.now));
}

/// Stores a clock reading: records this thread (or the simulated process
/// swapped onto it) emits from here on are stamped `now`, until the next
/// reading. Backends call it where they read their clock anyway, so a
/// stamp costs no read of its own. It stores whether or not a capture is
/// armed: a capture armed later still sees the reading made before it.
#[inline]
pub fn set_now(now: Nanos) {
    NOW.with(|c| c.set(now));
}

/// Whether this thread's recorder has its trace half armed. One
/// thread-local load — the entire cost of every instrumentation site
/// while nothing is armed.
#[inline]
pub fn enabled() -> bool {
    armed() & TRACE_ARMED != 0
}

/// Records an event if tracing is enabled; the closure is never called
/// (and nothing allocates) when it is not. Stamped with the last clock
/// reading ([`set_now`]).
#[inline]
pub fn emit_with(f: impl FnOnce() -> TraceEvent) {
    if !enabled() {
        return;
    }
    record(f());
}

fn record(event: TraceEvent) {
    let ts = NOW.with(Cell::get);
    let lane = current_lane();
    let span = SPAN_STACK.with(|s| s.borrow().join("/"));
    let wave = wave();
    with_tracer(|t| {
        let seq = t.seq;
        t.seq += 1;
        *t.metrics.counts.entry(event.kind()).or_insert(0) += 1;
        if let TraceEvent::ProbeIssued { latency_ns, .. } = event {
            t.metrics.probe_latency.record(latency_ns);
        }
        let rec = TraceRecord {
            seq,
            ts,
            wave,
            span,
            lane,
            event,
        };
        if let Some(sink) = t.sink.as_mut() {
            let _ = writeln!(sink, "{}", rec.to_json());
        }
        t.ring.push(rec);
    });
}

/// Starts a capture on this thread: arms a fresh trace half — empty ring,
/// zeroed counters, `seq` from 0 — in place of whatever trace half the
/// thread's recorder held, and leaves its profile half alone. The guard
/// puts the displaced half back, so captures on different threads never
/// share records and a capture inside a capture nests. [`drain`] and
/// [`metrics`] read the capture before its guard drops.
pub fn capture() -> CaptureGuard {
    arm(Tracer::new(DEFAULT_RING_CAPACITY, None))
}

/// Like [`capture`], and also streams every record to `path` as JSONL.
/// Dropping the guard ends the file with the accounting footer.
pub fn enable_jsonl(path: &str) -> io::Result<CaptureGuard> {
    let sink = BufWriter::new(File::create(path)?);
    Ok(arm(Tracer::new(DEFAULT_RING_CAPACITY, Some(sink))))
}

fn arm(tracer: Tracer) -> CaptureGuard {
    let fresh = Some(Arc::new(Mutex::new(tracer)));
    CaptureGuard {
        prev: update_recorder(|r| mem::replace(&mut r.trace, fresh)),
    }
}

/// Guard returned by [`capture`] and [`enable_jsonl`]; ends the capture
/// on drop and re-arms the trace half it displaced, if any.
pub struct CaptureGuard {
    prev: Option<Arc<Mutex<Tracer>>>,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        drop(update_recorder(|r| mem::replace(&mut r.trace, prev)));
    }
}

/// Stamps the scheduler wave index onto records subsequently emitted by
/// this thread. A wave belongs to its dispatcher: simulated processes run
/// on the dispatcher's thread and inherit the stamp, and two schedulers
/// on two threads never see each other's.
pub fn set_wave(index: u64) {
    CURRENT_WAVE.with(|c| c.set(Some(index)));
}

/// Clears this thread's wave stamp after dispatch finishes.
pub fn clear_wave() {
    CURRENT_WAVE.with(|c| c.set(None));
}

/// This thread's wave stamp.
fn wave() -> Option<u64> {
    CURRENT_WAVE.with(|c| c.get())
}

/// Pushes a `kind:label` span segment onto this thread's span stack; the
/// guard pops it on drop. When neither half of the thread's recorder is
/// armed nothing is pushed and the label closure is never called. (The
/// profiler reads the same span stack for its attribution tree, so spans
/// must open whenever either consumer is live.)
pub fn span(kind: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if armed() == 0 {
        return SpanGuard { pushed: false };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(format!("{kind}:{}", label())));
    SpanGuard { pushed: true }
}

/// Guard returned by [`span`]; pops its segment when dropped.
pub struct SpanGuard {
    pushed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.pushed {
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
}

/// Removes and returns every record in this thread's capture, oldest
/// first (nothing when no capture is armed).
pub fn drain() -> Vec<TraceRecord> {
    with_tracer(|t| t.ring.drain()).unwrap_or_default()
}

/// Snapshot of this thread's capture's counters and latency histogram
/// (all zero when no capture is armed).
pub fn metrics() -> TraceMetrics {
    with_tracer(|t| TraceMetrics {
        records_dropped: t.ring.dropped,
        ..t.metrics.clone()
    })
    .unwrap_or_default()
}

/// Renders records as a per-wave lane view: one section per scheduler
/// wave (plus one for out-of-wave events), one lane per span/thread, with
/// probe counts, latency ranges, and the verdicts, threshold crossings
/// and admission decisions made on it.
pub fn render_timeline(records: &[TraceRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let mut waves: Vec<Option<u64>> = records.iter().map(|r| r.wave).collect();
    waves.sort();
    waves.dedup();
    for wave in waves {
        match wave {
            Some(w) => {
                let _ = writeln!(out, "wave {w}");
            }
            None => {
                let _ = writeln!(out, "(no wave)");
            }
        }
        let in_wave: Vec<&TraceRecord> = records.iter().filter(|r| r.wave == wave).collect();
        // Lanes keyed by span (falling back to the thread lane id).
        let mut lanes: Vec<String> = in_wave
            .iter()
            .map(|r| {
                if r.span.is_empty() {
                    format!("lane {}", r.lane)
                } else {
                    r.span.clone()
                }
            })
            .collect();
        lanes.sort();
        lanes.dedup();
        for lane in &lanes {
            let recs: Vec<&&TraceRecord> = in_wave
                .iter()
                .filter(|r| {
                    let key = if r.span.is_empty() {
                        format!("lane {}", r.lane)
                    } else {
                        r.span.clone()
                    };
                    key == *lane
                })
                .collect();
            let probes: Vec<u64> = recs
                .iter()
                .filter_map(|r| match r.event {
                    TraceEvent::ProbeIssued { latency_ns, .. } => Some(latency_ns),
                    _ => None,
                })
                .collect();
            let mut line = format!("  {lane:<24}");
            if probes.is_empty() {
                line.push_str(" (no probes)");
            } else {
                let min = probes.iter().min().copied().unwrap_or(0);
                let max = probes.iter().max().copied().unwrap_or(0);
                let _ = write!(
                    line,
                    " {:>4} probes  {:>9}ns..{:<9}ns ",
                    probes.len(),
                    min,
                    max
                );
                // A crude magnitude bar: one '#' per log2 of max latency.
                let bar = (64 - max.leading_zeros()) as usize;
                line.push_str(&"#".repeat(bar.min(32)));
            }
            let _ = writeln!(out, "{line}");
            for r in &recs {
                match &r.event {
                    TraceEvent::Classified { unit, verdict } => {
                        let _ = writeln!(out, "    classified {unit} -> {}", verdict.as_str());
                    }
                    TraceEvent::ThresholdCrossed {
                        what,
                        value,
                        threshold,
                    } => {
                        let _ = writeln!(out, "    threshold {what}: {value:.3} vs {threshold:.3}");
                    }
                    TraceEvent::AdmissionDecision {
                        source,
                        requested,
                        granted,
                    } => {
                        let _ =
                            writeln!(out, "    admission {source}: {granted}/{requested} bytes");
                    }
                    _ => {}
                }
            }
        }
    }
    out
}

/// Escapes `s` as a JSON string literal (with quotes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as valid JSON (non-finite values become 0).
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        // `{}` on a whole f64 prints no decimal point; keep it a JSON
        // number either way (integers are valid JSON numbers).
        s
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::mpsc;
    use std::time::Duration;

    /// A `RepositoryMiss` carrying `key`: an event a test can recognise.
    fn miss(key: &str) {
        emit_with(|| TraceEvent::RepositoryMiss {
            key: key.to_string(),
        });
    }

    fn miss_keys(records: Vec<TraceRecord>) -> Vec<String> {
        records
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::RepositoryMiss { key } => Some(key),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn disabled_emit_is_inert_and_closure_never_runs() {
        // A test thread starts with nothing armed, and a capture that
        // ended leaves nothing armed behind.
        drop(capture());
        let mut ran = false;
        emit_with(|| {
            ran = true;
            TraceEvent::RepositoryMiss { key: String::new() }
        });
        assert!(!ran, "closure must not run while disabled");
    }

    #[test]
    fn ring_wraps_and_drains_in_order() {
        let mut ring = Ring::new(4);
        for i in 0..7u64 {
            ring.push(TraceRecord {
                seq: i,
                ts: Nanos(i),
                wave: None,
                span: String::new(),
                lane: 0,
                event: TraceEvent::ProbeIssued {
                    offset: i,
                    latency_ns: 1,
                },
            });
        }
        let seqs: Vec<u64> = ring.drain().into_iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5, 6], "oldest evicted, order kept");
        assert!(ring.drain().is_empty(), "drain empties the ring");
    }

    /// A fresh trace half of `capacity` records streaming to `path`.
    fn capture_jsonl_with_capacity(path: &str, capacity: usize) -> CaptureGuard {
        let sink = BufWriter::new(File::create(path).unwrap());
        arm(Tracer::new(capacity, Some(sink)))
    }

    /// A per-test, per-process scratch path.
    fn temp_jsonl(test: &str) -> String {
        let name = format!("gray_trace_{test}_{}.jsonl", std::process::id());
        std::env::temp_dir()
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn ring_eviction_is_accounted() {
        let _guard = arm(Tracer::new(4, None));
        for i in 0..7u64 {
            set_now(Nanos(i));
            emit_with(|| TraceEvent::ProbeIssued {
                offset: i,
                latency_ns: 1,
            });
        }
        assert_eq!(metrics().records_dropped, 3, "7 pushes into a 4-slot ring");
        let seqs: Vec<u64> = drain().into_iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [3, 4, 5, 6], "the ring keeps the newest 4");
    }

    #[test]
    fn capture_records_and_counts() {
        let _guard = capture();
        emit_with(|| TraceEvent::Classified {
            unit: "/f0".to_string(),
            verdict: Verdict::Cached,
        });
        set_now(Nanos(42));
        emit_with(|| TraceEvent::ProbeIssued {
            offset: 4096,
            latency_ns: 2500,
        });
        let recs = drain();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].ts, Nanos(42), "stamped with the last reading");
        let m = metrics();
        assert_eq!(m.counts["Classified"], 1);
        assert_eq!(m.counts["ProbeIssued"], 1);
        assert_eq!(m.probe_latency.count(), 1);
    }

    #[test]
    fn a_reading_stays_on_its_thread() {
        let _guard = capture();
        set_now(Nanos(7));
        miss("reader");
        // A thread that has never read a clock stamps 0, whatever the
        // spawner read; it records into the spawner's capture.
        let done = crate::pool::Pool::with_workers(2).map(vec![0u64, 1], |_, i| {
            miss(&format!("worker {i}"));
        });
        assert!(done.iter().all(Result::is_ok));
        let mut stamps: Vec<(String, Nanos)> = drain()
            .into_iter()
            .map(|r| match r.event {
                TraceEvent::RepositoryMiss { key } => (key, r.ts),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        stamps.sort();
        let expected = [("reader", 7), ("worker 0", 0), ("worker 1", 0)]
            .map(|(key, ts)| (key.to_string(), Nanos(ts)));
        assert_eq!(stamps, expected);
    }

    #[test]
    fn spans_nest_and_pop() {
        let _guard = capture();
        {
            let _wave = span("wave", || "7".to_string());
            let _plan = span("plan", || "/f1".to_string());
            emit_with(|| TraceEvent::ProbePlanned {
                target: "/f1".to_string(),
                probes: 3,
            });
        }
        emit_with(|| TraceEvent::ProbePlanned {
            target: "/f2".to_string(),
            probes: 3,
        });
        let recs = drain();
        assert_eq!(recs[0].span, "wave:7/plan:/f1");
        assert_eq!(recs[1].span, "", "span popped after guard drop");
    }

    #[test]
    fn captures_on_two_threads_run_at_once() {
        // Each thread holds its capture open across two handshakes with
        // the other: both captures are open before either emits, and both
        // have emitted before either drains.
        let (a_tx, a_rx) = mpsc::channel();
        let (b_tx, b_rx) = mpsc::channel();
        let side = |me: &'static str, tx: mpsc::Sender<()>, rx: mpsc::Receiver<()>| {
            move || {
                let _guard = capture();
                let handshake = || {
                    tx.send(()).unwrap();
                    rx.recv_timeout(Duration::from_secs(5))
                        .expect("the other thread's capture must be open at the same time");
                };
                handshake();
                miss(me);
                handshake();
                miss_keys(drain())
            }
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(side("a", a_tx, b_rx));
            let b = scope.spawn(side("b", b_tx, a_rx));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(a, ["a"], "thread a drains only its own record");
        assert_eq!(b, ["b"], "thread b drains only its own record");
    }

    #[test]
    fn wave_stamp_is_per_thread() {
        let _guard = capture();
        // Both workers stamp before either emits: a stamp shared between
        // threads would put the later index on both records. Each worker
        // records into the spawner's capture.
        let stamped = std::sync::Barrier::new(2);
        let done = crate::pool::Pool::with_workers(2).map(vec![0u64, 1], |_, i| {
            set_wave(i);
            stamped.wait();
            miss(&format!("worker {i}"));
        });
        assert!(done.iter().all(Result::is_ok));
        assert_eq!(wave(), None, "a worker's stamp must not reach its spawner");
        let mut stamps: Vec<(String, Option<u64>)> = drain()
            .into_iter()
            .map(|r| match r.event {
                TraceEvent::RepositoryMiss { key } => (key, r.wave),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        stamps.sort();
        let own = [0, 1].map(|i| (format!("worker {i}"), Some(i)));
        assert_eq!(stamps, own, "a record carries another thread's wave");
    }

    #[test]
    fn lane_scope_overrides_and_restores() {
        let _guard = capture();
        let thread_lane = current_lane();
        let tenant = allocate_lane();
        assert_ne!(tenant, thread_lane);
        {
            let _scope = lane_scope(tenant);
            emit_with(|| TraceEvent::CacheAccess {
                key: "fccd:/a".to_string(),
                outcome: "hit",
            });
        }
        emit_with(|| TraceEvent::CacheAccess {
            key: "fccd:/a".to_string(),
            outcome: "miss",
        });
        let lanes: Vec<u64> = drain().into_iter().map(|r| r.lane).collect();
        assert_eq!(lanes, [tenant, thread_lane], "scoped, then restored");
    }

    #[test]
    fn jsonl_footer_reports_drop_accounting() {
        let path = temp_jsonl("drops");
        let guard = capture_jsonl_with_capacity(&path, 2);
        for i in 0..5u64 {
            set_now(Nanos(i));
            emit_with(|| TraceEvent::ProbeIssued {
                offset: i,
                latency_ns: 1,
            });
        }
        drop(guard);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text.lines().count(),
            6,
            "sink keeps every record plus the footer"
        );
        let last = text.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"type\":\"Footer\",\"records\":5,\"ring_dropped\":3,\"ring_capacity\":2}"
        );
    }

    #[test]
    fn jsonl_footer_counts_only_its_own_records() {
        let path = temp_jsonl("own");
        let _outer = capture();
        for key in ["a", "b", "c"] {
            miss(key);
        }
        let sink = enable_jsonl(&path).unwrap();
        for key in ["d", "e"] {
            miss(key);
        }
        drop(sink);
        miss("f");
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "two records and the footer:\n{text}");
        assert!(lines[0].starts_with("{\"seq\":0,"), "{}", lines[0]);
        assert!(lines[2].contains("\"records\":2,"), "{}", lines[2]);
        assert_eq!(
            miss_keys(drain()),
            ["a", "b", "c", "f"],
            "the outer capture resumes, without the inner one's records"
        );
    }

    #[test]
    fn cache_access_serializes() {
        let rec = TraceRecord {
            seq: 0,
            ts: Nanos(7),
            wave: None,
            span: String::new(),
            lane: 3,
            event: TraceEvent::CacheAccess {
                key: "mac.available:1024".to_string(),
                outcome: "expired",
            },
        };
        assert_eq!(
            rec.to_json(),
            "{\"seq\":0,\"ts_ns\":7,\"lane\":3,\"type\":\"CacheAccess\",\
             \"key\":\"mac.available:1024\",\"outcome\":\"expired\"}"
        );
    }

    #[test]
    fn json_lines_are_well_formed() {
        let rec = TraceRecord {
            seq: 3,
            ts: Nanos(100),
            wave: Some(2),
            span: "plan:/a \"b\"".to_string(),
            lane: 1,
            event: TraceEvent::ThresholdCrossed {
                what: "mac.page_daemon",
                value: 0.75,
                threshold: 4.0,
            },
        };
        let line = rec.to_json();
        assert_eq!(
            line,
            "{\"seq\":3,\"ts_ns\":100,\"lane\":1,\"wave\":2,\
             \"span\":\"plan:/a \\\"b\\\"\",\"type\":\"ThresholdCrossed\",\
             \"what\":\"mac.page_daemon\",\"value\":0.75,\"threshold\":4}"
        );
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_string("a\nb"), "\"a\\nb\"");
    }

    #[test]
    fn timeline_renders_waves_and_guard() {
        let recs = vec![
            TraceRecord {
                seq: 0,
                ts: Nanos(0),
                wave: Some(0),
                span: "plan:/f0".to_string(),
                lane: 1,
                event: TraceEvent::ProbeIssued {
                    offset: 0,
                    latency_ns: 3000,
                },
            },
            TraceRecord {
                seq: 1,
                ts: Nanos(5),
                wave: Some(0),
                span: String::new(),
                lane: 0,
                event: TraceEvent::ThresholdCrossed {
                    what: "fccd.separation",
                    value: 0.1,
                    threshold: 0.5,
                },
            },
        ];
        let text = render_timeline(&recs);
        assert!(text.contains("wave 0"));
        assert!(text.contains("plan:/f0"));
        assert!(text.contains("threshold fccd.separation: 0.100 vs 0.500"));
    }
}
