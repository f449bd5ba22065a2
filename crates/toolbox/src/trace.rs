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
//! # Cost model
//!
//! The subsystem is designed to be compiled in everywhere and *always on*
//! in the sense that call sites never need `#[cfg]`s: when tracing is
//! disabled (the default), [`emit_with`] is one relaxed atomic load and a
//! branch — no allocation, no lock, and the event-constructing closure is
//! never called. When enabled, records go through one mutex into a bounded
//! ring buffer (and, if configured, a buffered JSONL sink), and counters
//! plus a log2 latency histogram aggregate alongside. "Lock-free-ish":
//! the fast path (disabled check) is lock-free; recording is not.
//!
//! # Identity
//!
//! Each record carries three coordinates so a timeline can be
//! reconstructed per wave, per plan, and per process:
//!
//! - `wave` — the scheduler stamps the current wave index onto its own
//!   thread while a wave is in flight ([`set_wave`]);
//! - `span` — a thread-local stack of `kind:label` segments pushed by
//!   [`span`] guards (e.g. `plan:/f3`); the executor swaps it per
//!   simulated process ([`swap_ctx`]), so a span pushed inside a worker
//!   names that worker's plan;
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

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

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
        /// What will be probed (a file path, or a memory-region tag).
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
        /// Who decided (e.g. `mac.gb_alloc`, `sched.admission`).
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
    /// Global sequence number (total order across threads).
    pub seq: u64,
    /// Timestamp in nanoseconds. From the emitting backend's clock when
    /// the site used [`emit_with_at`]; otherwise host-monotonic
    /// nanoseconds since the tracer first initialised.
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

struct TracerState {
    seq: u64,
    ring: Ring,
    sink: Option<BufWriter<File>>,
    metrics: TraceMetrics,
    clock: Option<Box<dyn Fn() -> Nanos + Send>>,
}

impl TracerState {
    fn new(capacity: usize) -> Self {
        TracerState {
            seq: 0,
            ring: Ring::new(capacity),
            sink: None,
            metrics: TraceMetrics::default(),
            clock: None,
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_LANE: AtomicU64 = AtomicU64::new(0);

fn state() -> &'static Mutex<TracerState> {
    static STATE: OnceLock<Mutex<TracerState>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(TracerState::new(DEFAULT_RING_CAPACITY)))
}

fn lock_state() -> MutexGuard<'static, TracerState> {
    match state().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    static LANE: Cell<u64> = const { Cell::new(u64::MAX) };
    static CURRENT_WAVE: Cell<Option<u64>> = const { Cell::new(None) };
}

fn lane_id() -> u64 {
    LANE.with(|c| {
        if c.get() == u64::MAX {
            c.set(NEXT_LANE.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// This thread's lane id (allocated lazily), for the profiler's per-lane
/// attribution table.
pub(crate) fn current_lane() -> u64 {
    lane_id()
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
/// span stack and the lane binding. Executors that multiplex many
/// logical processes over one driver thread (the event-driven `simos`
/// backend) keep one `TraceCtx` per process and [`swap_ctx`] it in
/// around every resume, so spans opened by one process never leak into
/// another's records and each process keeps a stable lane.
#[derive(Debug, Default)]
pub struct TraceCtx {
    spans: Vec<String>,
    lane: u64,
}

impl TraceCtx {
    /// A fresh context: no open spans, lane unbound (lazily allocated on
    /// first record, exactly like a fresh thread).
    pub fn new() -> Self {
        TraceCtx {
            spans: Vec::new(),
            lane: u64::MAX,
        }
    }
}

/// Exchanges this thread's span stack and lane with `ctx`. Call once to
/// install a context before resuming its process and once after it
/// suspends to stow it away again; the pairing restores the caller's own
/// identity in between. Swapping (rather than set/clear) makes the
/// operation self-inverse and allocation-free.
pub fn swap_ctx(ctx: &mut TraceCtx) {
    SPAN_STACK.with(|s| std::mem::swap(&mut *s.borrow_mut(), &mut ctx.spans));
    ctx.lane = LANE.with(|c| c.replace(ctx.lane));
}

/// Whether tracing is currently enabled. One relaxed atomic load — this
/// is the entire cost of every instrumentation site in a disabled build.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Records an event if tracing is enabled; the closure is never called
/// (and nothing allocates) when it is not. Timestamped from the
/// registered clock, or host-monotonic time by default.
#[inline]
pub fn emit_with(f: impl FnOnce() -> TraceEvent) {
    if !enabled() {
        return;
    }
    record(None, f());
}

/// Like [`emit_with`], but the caller supplies the timestamp — used by
/// backends whose probes are timed on their own clock (simos virtual
/// time, hostos `FastTimer`).
#[inline]
pub fn emit_with_at(ts: Nanos, f: impl FnOnce() -> TraceEvent) {
    if !enabled() {
        return;
    }
    record(Some(ts), f());
}

fn record(ts: Option<Nanos>, event: TraceEvent) {
    let lane = lane_id();
    let span = SPAN_STACK.with(|s| s.borrow().join("/"));
    let mut st = lock_state();
    let ts = ts.unwrap_or_else(|| match &st.clock {
        Some(clock) => clock(),
        None => Nanos(epoch().elapsed().as_nanos() as u64),
    });
    let seq = st.seq;
    st.seq += 1;
    *st.metrics.counts.entry(event.kind()).or_insert(0) += 1;
    if let TraceEvent::ProbeIssued { latency_ns, .. } = event {
        st.metrics.probe_latency.record(latency_ns);
    }
    let rec = TraceRecord {
        seq,
        ts,
        wave: wave(),
        span,
        lane,
        event,
    };
    if let Some(sink) = st.sink.as_mut() {
        let _ = writeln!(sink, "{}", rec.to_json());
    }
    st.ring.push(rec);
}

/// Enables tracing into the in-process ring buffer only.
pub fn enable() {
    enable_with_capacity(DEFAULT_RING_CAPACITY);
}

/// Enables tracing with an explicit ring capacity (tests exercise
/// wraparound with small rings).
fn enable_with_capacity(capacity: usize) {
    let mut st = lock_state();
    st.ring = Ring::new(capacity);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Enables tracing and streams every record to `path` as JSONL, in
/// addition to the ring buffer.
pub fn enable_jsonl(path: &str) -> io::Result<()> {
    let file = File::create(path)?;
    let mut st = lock_state();
    st.ring = Ring::new(DEFAULT_RING_CAPACITY);
    st.sink = Some(BufWriter::new(file));
    ENABLED.store(true, Ordering::Relaxed);
    Ok(())
}

/// Disables tracing, writes the accounting footer to the JSONL sink,
/// flushes and closes it, and clears the registered clock. Ring contents
/// survive until [`drain`].
///
/// The footer is one final JSON line,
/// `{"type":"Footer","records":N,"ring_dropped":M,"ring_capacity":C}`,
/// so a consumer can verify it received every record and see whether the
/// in-process ring lost history.
pub fn shutdown() {
    ENABLED.store(false, Ordering::Relaxed);
    clear_wave();
    let mut st = lock_state();
    let (records, dropped, capacity) = (st.seq, st.ring.dropped, st.ring.capacity);
    if let Some(mut sink) = st.sink.take() {
        let _ = writeln!(
            sink,
            "{{\"type\":\"Footer\",\"records\":{records},\"ring_dropped\":{dropped},\"ring_capacity\":{capacity}}}"
        );
        let _ = sink.flush();
    }
    st.clock = None;
}

/// Registers the default timestamp source for records emitted without an
/// explicit time (e.g. hostos registers its calibrated `FastTimer`).
pub fn set_clock(clock: impl Fn() -> Nanos + Send + 'static) {
    lock_state().clock = Some(Box::new(clock));
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
/// guard pops it on drop. When neither tracing nor the virtual-time
/// profiler is enabled nothing is pushed and the label closure is never
/// called. (The profiler reads the same span stack for its attribution
/// tree, so spans must open whenever either consumer is live.)
pub fn span(kind: &'static str, label: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() && !crate::profile::enabled() {
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

/// Removes and returns every record in the ring, oldest first.
pub fn drain() -> Vec<TraceRecord> {
    lock_state().ring.drain()
}

/// Records evicted from the bounded ring before being drained.
pub fn records_dropped() -> u64 {
    lock_state().ring.dropped
}

/// Snapshot of the aggregated counters and latency histogram.
pub fn metrics() -> TraceMetrics {
    let st = lock_state();
    let mut m = st.metrics.clone();
    m.records_dropped = st.ring.dropped;
    m
}

fn capture_lock() -> &'static Mutex<()> {
    static CAPTURE: OnceLock<Mutex<()>> = OnceLock::new();
    CAPTURE.get_or_init(|| Mutex::new(()))
}

/// Exclusive tracing session for tests and in-process scorers.
///
/// The global tracer is process-wide state; concurrent tests that each
/// enabled it would interleave their events. `capture()` serialises such
/// users behind one lock, clears the ring and metrics, enables tracing,
/// and disables it again when the guard drops (panic-safe). Callers
/// [`drain`] before dropping the guard.
pub fn capture() -> CaptureGuard {
    let lock = match capture_lock().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    };
    {
        let mut st = lock_state();
        st.ring = Ring::new(DEFAULT_RING_CAPACITY);
        st.metrics = TraceMetrics::default();
    }
    ENABLED.store(true, Ordering::Relaxed);
    CaptureGuard { _lock: lock }
}

/// Guard returned by [`capture`]; ends the tracing session on drop.
pub struct CaptureGuard {
    _lock: MutexGuard<'static, ()>,
}

impl CaptureGuard {
    /// This thread's lane id, for filtering records down to events the
    /// capturing test emitted itself (other test threads in the same
    /// process may emit while the session is open).
    pub fn lane(&self) -> u64 {
        lane_id()
    }
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::Relaxed);
        clear_wave();
    }
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

    #[test]
    fn disabled_emit_is_inert_and_closure_never_runs() {
        // Not under `capture()`: tracing must be off unless some other
        // test holds the capture lock — so take it to be sure.
        let guard = capture();
        drop(guard); // now definitely disabled, and we still hold no lock
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

    #[test]
    fn ring_eviction_is_accounted() {
        let guard = capture();
        enable_with_capacity(4); // shrink the session's ring
        let lane = guard.lane();
        for i in 0..7u64 {
            emit_with_at(Nanos(i), || TraceEvent::ProbeIssued {
                offset: i,
                latency_ns: 1,
            });
        }
        let m = metrics();
        assert!(
            m.records_dropped >= 3,
            "7 pushes into a 4-slot ring must drop >= 3, saw {}",
            m.records_dropped
        );
        assert_eq!(records_dropped(), m.records_dropped);
        let mine = drain().into_iter().filter(|r| r.lane == lane).count();
        assert!(mine <= 4, "ring holds at most its capacity");
    }

    #[test]
    fn capture_records_and_counts() {
        let guard = capture();
        let lane = guard.lane();
        emit_with(|| TraceEvent::Classified {
            unit: "/f0".to_string(),
            verdict: Verdict::Cached,
        });
        emit_with_at(Nanos(42), || TraceEvent::ProbeIssued {
            offset: 4096,
            latency_ns: 2500,
        });
        let recs: Vec<TraceRecord> = drain().into_iter().filter(|r| r.lane == lane).collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].ts, Nanos(42), "explicit ts honoured");
        let m = metrics();
        assert!(m.counts["Classified"] >= 1);
        assert!(m.counts["ProbeIssued"] >= 1);
        assert!(m.probe_latency.count() >= 1);
    }

    #[test]
    fn spans_nest_and_pop() {
        let guard = capture();
        let lane = guard.lane();
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
        let recs: Vec<TraceRecord> = drain().into_iter().filter(|r| r.lane == lane).collect();
        assert_eq!(recs[0].span, "wave:7/plan:/f1");
        assert_eq!(recs[1].span, "", "span popped after guard drop");
    }

    #[test]
    fn wave_stamp_is_per_thread() {
        let _guard = capture();
        // Both threads stamp before either emits: a stamp shared between
        // threads would put the later index on both records.
        let stamped = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for i in 0..2u64 {
                let stamped = &stamped;
                scope.spawn(move || {
                    set_wave(i);
                    stamped.wait();
                    emit_with(|| TraceEvent::RepositoryMiss {
                        key: format!("wave_stamp_is_per_thread:{i}"),
                    });
                });
            }
        });
        assert_eq!(wave(), None, "a worker's stamp must not reach its spawner");
        let mut stamps: Vec<(String, Option<u64>)> = drain()
            .into_iter()
            .filter_map(|r| match r.event {
                TraceEvent::RepositoryMiss { key } if key.starts_with("wave_stamp_is_") => {
                    Some((key, r.wave))
                }
                _ => None,
            })
            .collect();
        stamps.sort();
        let own = [0, 1].map(|i| (format!("wave_stamp_is_per_thread:{i}"), Some(i)));
        assert_eq!(stamps, own, "a record carries another thread's wave");
    }

    #[test]
    fn lane_scope_overrides_and_restores() {
        let guard = capture();
        let thread_lane = guard.lane();
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
        let recs: Vec<TraceRecord> = drain()
            .into_iter()
            .filter(|r| matches!(r.event, TraceEvent::CacheAccess { .. }))
            .filter(|r| r.lane == tenant || r.lane == thread_lane)
            .collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].lane, tenant, "scoped record on the tenant lane");
        assert_eq!(recs[1].lane, thread_lane, "lane restored after drop");
    }

    #[test]
    fn jsonl_footer_reports_drop_accounting() {
        let _guard = capture();
        let path =
            std::env::temp_dir().join(format!("gray_trace_footer_{}.jsonl", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        enable_jsonl(&path_s).unwrap();
        enable_with_capacity(2); // shrink the session's ring; the sink stays
        for i in 0..5u64 {
            emit_with_at(Nanos(i), || TraceEvent::ProbeIssued {
                offset: i,
                latency_ns: 1,
            });
        }
        shutdown();
        let text = std::fs::read_to_string(&path_s).unwrap();
        let _ = std::fs::remove_file(&path_s);
        assert!(
            text.lines().count() >= 6,
            "sink keeps every record plus the footer"
        );
        let last = text.lines().last().unwrap();
        assert!(
            last.starts_with("{\"type\":\"Footer\""),
            "footer line: {last}"
        );
        assert!(last.contains("\"ring_dropped\":3"), "footer line: {last}");
        assert!(last.contains("\"ring_capacity\":2"), "footer line: {last}");
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
