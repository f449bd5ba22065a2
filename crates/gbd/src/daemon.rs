//! The daemon proper: tenants, queries, and the serve loop.
//!
//! `Gbd` owns one probe [`Scheduler`], one [`InferenceCache`], and one
//! per-tick admission budget, shared by every tenant. Tenants hold a
//! [`GbdClient`] — a cloneable handle over the in-process mailbox — and
//! the daemon drains, executes, and answers in *ticks*
//! ([`Gbd::serve`]), because the simulated substrate runs exactly one
//! process at a time: clients enqueue between ticks, the daemon probes
//! during them.
//!
//! A tick processes the drained batch in arrival order:
//!
//! 1. **Cache.** Each cacheable query is looked up under the staleness
//!    policy; hits answer immediately. Identical misses within the tick
//!    coalesce onto one execution.
//! 2. **Admission.** Probe-needing misses consume the tick's constant
//!    budget; queries over budget are answered [`Reply::Shed`].
//! 3. **Execution.** All admitted FCCD queries submit their plans to the
//!    shared scheduler and dispatch together, so tenants' probes pool
//!    into shared waves; MAC allocation requests pool behind one
//!    [`Mac::admit_all`] probe pass; the rest run one by one.
//! 4. **Churn.** The tick's fresh per-file verdicts are handed to the
//!    staleness policy; contradicted entries are evicted and re-inferred
//!    (budget permitting).

use std::collections::BTreeMap;

use gray_sched::{Scheduler, SimExecutor};
use gray_toolbox::mailbox::{Mailbox, MailboxClient, Ticket};
use gray_toolbox::stats::Log2Histogram;
use gray_toolbox::trace::{self, TraceEvent};
use gray_toolbox::Nanos;
use graybox::fccd::{classify_ranks, Fccd, FileRank};
use graybox::fldc::Fldc;
use graybox::mac::{AdmissionRequest, Mac, MacParams};
use graybox::os::GrayBoxOs;
use graybox::wbd::{Wbd, WbdParams};
use simos::{Sim, PAGE_SIZE};

/// The verdict key WBD residue inferences publish. FCCD verdicts key on
/// file paths; WBD's single system-wide dirty/clean bit keys on this
/// pseudo-path instead, so the churn-aware staleness policy joins WBD
/// entries against fresh WBD passes with no policy changes.
pub const WBD_DIRTY_VERDICT: &str = "wbd:dirty";

use crate::cache::{CacheEntry, InferenceCache, Lookup, StalenessPolicy};
use crate::{GbdConfig, GbdError};

/// One gray-box inference request.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// FCCD: split these files into predicted-cached / predicted-uncached.
    /// `(path, size-hint)` pairs, exactly as `FccdPlanner::draw_plans`
    /// takes them; a file whose hint is not its size ranks with FCCD's
    /// small-file penalty.
    FccdClassify {
        /// The candidate files.
        files: Vec<(String, u64)>,
    },
    /// MAC: estimate available memory, probing no further than `ceiling`.
    MacAvailable {
        /// Probe ceiling in bytes.
        ceiling: u64,
    },
    /// MAC: admit a `gb_alloc`-shaped allocation (pooled with every other
    /// allocation request in the tick behind one probe pass). The daemon
    /// reports the admitted size and releases the memory — it answers the
    /// sizing question, it does not hold tenants' memory.
    GbAlloc {
        /// Smallest useful grant, bytes.
        min: u64,
        /// Largest useful grant, bytes.
        max: u64,
        /// Grants are rounded down to a multiple of this.
        multiple: u64,
    },
    /// FLDC: the directory's files in predicted on-disk layout order.
    FldcOrder {
        /// The directory to order.
        dir: String,
    },
    /// WBD: estimate the system-wide dirty-page residue via one timed
    /// `sync`. The measurement is destructive (the `sync` flushes the
    /// residue it measures), so the cached answer is a snapshot; a later
    /// pass that contradicts it churns it out like any FCCD verdict.
    WbdResidue {
        /// Scratch pages dirtied per calibration round.
        calib_pages: u64,
    },
    /// Observability: the daemon's own service-level metrics — cumulative
    /// stats, cache occupancy, admission state, and per-tenant virtual-
    /// time latency histograms. Costs no probes and no virtual time, is
    /// never cached (each answer reflects the serving instant), and is
    /// how a `gray-top` dashboard sees inside the daemon.
    MetricsSnapshot,
}

impl Query {
    /// The cache key: a stable fingerprint of the query's content.
    pub fn fingerprint(&self) -> String {
        let mut key = String::new();
        self.write_fingerprint(&mut key);
        key
    }

    /// Writes [`Query::fingerprint`] into `key`, replacing what it held:
    /// the daemon keys every query of every tick in one buffer.
    pub(crate) fn write_fingerprint(&self, key: &mut String) {
        use std::fmt::Write as _;
        key.clear();
        // Writing to a `String` cannot fail.
        let _ = match self {
            Query::FccdClassify { files } => {
                key.push_str("fccd:");
                files.iter().enumerate().try_for_each(|(i, (path, size))| {
                    if i > 0 {
                        key.push(',');
                    }
                    // `,` and `#` delimit: escaped inside a path, two file
                    // lists can never print the same key.
                    for c in path.chars() {
                        if matches!(c, '\\' | ',' | '#') {
                            key.push('\\');
                        }
                        key.push(c);
                    }
                    write!(key, "#{size}")
                })
            }
            Query::MacAvailable { ceiling } => write!(key, "mac.available:{ceiling}"),
            Query::GbAlloc { min, max, multiple } => {
                write!(key, "mac.alloc:{min}:{max}:{multiple}")
            }
            Query::FldcOrder { dir } => write!(key, "fldc:{dir}"),
            Query::WbdResidue { calib_pages } => write!(key, "wbd.residue:{calib_pages}"),
            Query::MetricsSnapshot => write!(key, "gbd.metrics"),
        };
    }

    /// Whether the answer may be served from cache. Allocation requests
    /// are side-effecting (each grant reflects memory at that instant and
    /// is consumed by the asker), so they always execute; metrics
    /// snapshots describe the serving instant, so caching one would
    /// answer with a stale daemon.
    fn cacheable(&self) -> bool {
        !matches!(self, Query::GbAlloc { .. } | Query::MetricsSnapshot)
    }

    /// Whether execution issues timing probes (and therefore consumes the
    /// admission budget). FLDC reads metadata only; metrics snapshots
    /// read daemon state only.
    fn needs_probes(&self) -> bool {
        !matches!(self, Query::FldcOrder { .. } | Query::MetricsSnapshot)
    }

    /// Whether the answer publishes per-key verdicts, so a later pass can
    /// contradict it and churn re-infers it.
    fn bears_verdicts(&self) -> bool {
        matches!(self, Query::FccdClassify { .. } | Query::WbdResidue { .. })
    }
}

/// The daemon's answer to one query.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// FCCD verdicts, bit-identical to `graybox::fccd::Classified`.
    Classified {
        /// Files in the fast cluster, fastest first.
        cached: Vec<FileRank>,
        /// Files in the slow cluster, fastest first.
        uncached: Vec<FileRank>,
        /// Two-means separation score in [0, 1].
        separation: f64,
    },
    /// MAC available-memory estimate, bytes.
    Available {
        /// The estimate.
        bytes: u64,
    },
    /// MAC allocation admitted for this many bytes (0 = denied).
    Granted {
        /// Admitted bytes.
        bytes: u64,
    },
    /// FLDC layout order: paths, nearest-first.
    Layout {
        /// Paths in predicted layout order.
        order: Vec<String>,
    },
    /// WBD dirty-page residue estimate (0 = writeback has caught up).
    Residue {
        /// Estimated dirty pages at the instant of the timed `sync`.
        pages: u64,
    },
    /// The daemon's service-level metrics (boxed: the snapshot carries
    /// per-tenant histograms and would otherwise dominate every reply).
    Metrics(Box<GbdMetrics>),
    /// Load-shed by query admission; retry next tick.
    Shed,
    /// The backend failed the query.
    Failed(String),
}

/// A reply plus its service metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The answer.
    pub reply: Reply,
    /// Whether it was served from the inference cache.
    pub from_cache: bool,
    /// Virtual time the response was posted.
    pub served_at: Nanos,
}

/// Per-tenant accounting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Queries this tenant submitted.
    pub queries: u64,
    /// Served from cache.
    pub hits: u64,
    /// Shed by admission.
    pub shed: u64,
    /// Virtual-time service latency per answered query (nanoseconds from
    /// tick drain to reply post; cache hits land in the 0 bucket).
    pub latency: Log2Histogram,
}

/// A registered tenant: also its row in a [`GbdMetrics`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tenant {
    /// The tenant's name (spans read `tenant:<name>`).
    pub name: String,
    /// The tenant's gray-trace lane: every daemon-side record emitted on
    /// this tenant's behalf carries it. A churn re-inference and the
    /// tick's pooled allocation pass serve no single tenant and trace on
    /// the daemon's own lane.
    pub lane: u64,
    /// Accounting.
    pub stats: TenantStats,
}

/// Daemon-wide accounting, cumulative over ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GbdStats {
    /// Serve ticks run.
    pub ticks: u64,
    /// Queries drained.
    pub queries: u64,
    /// Served from cache.
    pub hits: u64,
    /// Coalesced onto an identical in-tick execution.
    pub coalesced: u64,
    /// Shed by query admission.
    pub shed: u64,
    /// Cache entries aged out at lookup.
    pub expired: u64,
    /// Cache entries evicted by observed churn.
    pub invalidated: u64,
    /// Churn-evicted entries re-inferred within the tick.
    pub reinfers: u64,
    /// Cache entries evicted by the capacity bound (oldest stamp first).
    pub capacity_evictions: u64,
    /// Probe-needing executions admitted.
    pub admitted: u64,
    /// Scheduler waves dispatched on the daemon's behalf.
    pub waves: u64,
}

/// What one serve tick did.
#[derive(Debug, Clone, Copy, Default)]
pub struct TickStats {
    /// Queries drained this tick.
    pub queries: usize,
    /// Cache hits.
    pub hits: usize,
    /// Coalesced duplicates.
    pub coalesced: usize,
    /// Shed queries.
    pub shed: usize,
    /// Fresh executions.
    pub executed: usize,
    /// Churn re-inferences.
    pub reinfers: usize,
    /// The (constant) admission budget; a field because `benchmark/` reads it.
    pub budget: usize,
}

/// A tenant's handle: submit queries, redeem responses.
#[derive(Debug, Clone)]
pub struct GbdClient {
    inner: MailboxClient<Query, Response>,
}

impl GbdClient {
    /// Enqueues a query for the next serve tick.
    pub fn submit(&self, query: Query) -> Ticket {
        self.inner.send(query)
    }

    /// Redeems a response (consuming), if the daemon has served it.
    pub fn take(&self, ticket: Ticket) -> Option<Response> {
        self.inner.try_take(ticket)
    }
}

/// Per-key verdicts an inference publishes (a file path's cached bit, or
/// [`WBD_DIRTY_VERDICT`]), joined by the staleness policy.
type Verdicts = BTreeMap<String, bool>;

/// One coalesced unit of execution: a query plus everyone waiting on it.
struct ExecItem {
    key: String,
    query: Query,
    /// `(tenant index, ticket)`; the first waiter triggered the execution.
    waiters: Vec<(usize, Ticket)>,
    /// The first waiter's trace lane; `None` for a re-inference.
    lane: Option<u64>,
}

/// The daemon.
pub struct Gbd {
    cfg: GbdConfig,
    policy: Box<dyn StalenessPolicy>,
    sched: Scheduler,
    cache: InferenceCache,
    mailbox: Mailbox<Query, Response>,
    tenants: Vec<Tenant>,
    stats: GbdStats,
    /// The key buffer every query of every tick is fingerprinted into; a
    /// cache hit allocates no key.
    key: String,
}

impl Gbd {
    /// Creates a daemon with the given configuration and staleness policy.
    pub fn new(cfg: GbdConfig, policy: Box<dyn StalenessPolicy>) -> Self {
        let sched = Scheduler::new(cfg.sched.clone());
        let cache = InferenceCache::with_capacity(cfg.cache_capacity);
        Gbd {
            cfg,
            policy,
            sched,
            cache,
            mailbox: Mailbox::new(),
            tenants: Vec::new(),
            stats: GbdStats::default(),
            key: String::new(),
        }
    }

    /// Registers a tenant and returns its client handle, allocating the
    /// tenant a gray-trace lane of its own. Fails once `cfg.max_tenants`
    /// tenants exist.
    pub fn register_tenant(&mut self, name: &str) -> Result<GbdClient, GbdError> {
        if self.tenants.len() >= self.cfg.max_tenants {
            return Err(GbdError::TenantLimit {
                limit: self.cfg.max_tenants,
            });
        }
        let client = self.mailbox.client();
        debug_assert_eq!(client.id() as usize, self.tenants.len());
        self.tenants.push(Tenant {
            name: name.to_string(),
            lane: trace::allocate_lane(),
            stats: TenantStats::default(),
        });
        Ok(GbdClient { inner: client })
    }

    /// Cumulative daemon statistics.
    pub fn stats(&self) -> &GbdStats {
        &self.stats
    }

    /// The registered tenants, in registration order.
    pub fn tenants(&self) -> &[Tenant] {
        &self.tenants
    }

    /// Live inference-cache entry count.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Probe-needing executions admitted per tick: the configured
    /// budget, at least 1 so a tick always makes progress.
    pub fn admission_budget(&self) -> usize {
        self.cfg.admission_budget.max(1)
    }

    /// Always 0: the budget is a constant and never backs off. Kept
    /// because `benchmark/` calls it.
    pub fn admission_backoffs(&self) -> u64 {
        0
    }

    /// Drains and answers every pending query: one tick. Its counts are
    /// the difference of the cumulative [`GbdStats`] across it.
    pub fn serve(&mut self, sim: &mut Sim) -> TickStats {
        let before = self.stats;
        let batch = self.mailbox.drain();
        self.stats.ticks += 1;
        self.stats.queries += batch.len() as u64;

        // Phase 1+2: cache, coalescing, admission.
        let mut exec: Vec<ExecItem> = Vec::new();
        let mut exec_by_key: BTreeMap<String, usize> = BTreeMap::new();
        let mut admitted = 0usize;
        let now = sim.now();
        let mut key = std::mem::take(&mut self.key);
        for env in batch {
            let tenant = env.client as usize;
            let lane = {
                let t = &mut self.tenants[tenant];
                t.stats.queries += 1;
                t.lane
            };
            let _lane = trace::lane_scope(lane);
            let _span = trace::span("tenant", || self.tenants[tenant].name.clone());
            env.req.write_fingerprint(&mut key);
            if env.req.cacheable() {
                match self.cache.lookup(&key, now, self.policy.as_ref()) {
                    Lookup::Hit(reply) => {
                        trace::emit_with(|| TraceEvent::CacheAccess {
                            key: key.clone(),
                            outcome: "hit",
                        });
                        let t = &mut self.tenants[tenant];
                        t.stats.hits += 1;
                        t.stats.latency.record(0);
                        self.stats.hits += 1;
                        self.mailbox.reply(
                            env.ticket,
                            Response {
                                reply,
                                from_cache: true,
                                served_at: now,
                            },
                        );
                        continue;
                    }
                    Lookup::Expired => {
                        trace::emit_with(|| TraceEvent::CacheAccess {
                            key: key.clone(),
                            outcome: "expired",
                        });
                        self.stats.expired += 1;
                    }
                    Lookup::Miss => {
                        trace::emit_with(|| TraceEvent::CacheAccess {
                            key: key.clone(),
                            outcome: "miss",
                        });
                    }
                }
                // An identical query already executing this tick? Join it.
                if let Some(&i) = exec_by_key.get(key.as_str()) {
                    exec[i].waiters.push((tenant, env.ticket));
                    self.stats.coalesced += 1;
                    continue;
                }
            }
            // Fresh execution: pass admission if it needs probes.
            if env.req.needs_probes() {
                if admitted >= self.admission_budget() {
                    trace::emit_with(|| TraceEvent::AdmissionDecision {
                        source: "gbd.query",
                        requested: 1,
                        granted: 0,
                    });
                    self.tenants[tenant].stats.shed += 1;
                    self.stats.shed += 1;
                    self.mailbox.reply(
                        env.ticket,
                        Response {
                            reply: Reply::Shed,
                            from_cache: false,
                            served_at: now,
                        },
                    );
                    continue;
                }
                admitted += 1;
                self.stats.admitted += 1;
                trace::emit_with(|| TraceEvent::AdmissionDecision {
                    source: "gbd.query",
                    requested: 1,
                    granted: 1,
                });
            }
            if env.req.cacheable() {
                exec_by_key.insert(key.clone(), exec.len());
            }
            exec.push(ExecItem {
                key: key.clone(),
                query: env.req,
                waiters: vec![(tenant, env.ticket)],
                lane: Some(lane),
            });
        }
        self.key = key;

        // Phase 3: execution. FCCD plans pool into shared waves and
        // allocation requests behind one MAC pass; every other query runs
        // alone, in arrival order.
        let executed = exec.len();
        let mut fresh_verdicts = Verdicts::new();
        let (fccd, rest): (Vec<_>, Vec<_>) = exec
            .into_iter()
            .partition(|item| matches!(item.query, Query::FccdClassify { .. }));
        let (allocs, alone): (Vec<_>, Vec<_>) = rest
            .into_iter()
            .partition(|item| matches!(item.query, Query::GbAlloc { .. }));
        let groups = [fccd, allocs]
            .into_iter()
            .chain(alone.into_iter().map(|item| vec![item]));
        for group in groups {
            let outcomes = self.execute(sim, &group);
            for (item, (reply, verdicts)) in group.iter().zip(outcomes) {
                fresh_verdicts.extend(verdicts.iter().map(|(key, &v)| (key.clone(), v)));
                self.finish_item(sim, item, reply, verdicts, now);
            }
        }

        // Phase 4: observed churn. Entries the fresh verdicts contradict
        // are evicted; budget permitting, they re-infer right away, one at
        // a time, and their verdicts do not feed this tick's churn set.
        if !fresh_verdicts.is_empty() {
            let stale = self.policy.invalidated_by(&self.cache, &fresh_verdicts);
            for key in stale {
                let Some(entry) = self.cache.remove(&key) else {
                    continue;
                };
                self.stats.invalidated += 1;
                trace::emit_with(|| TraceEvent::CacheAccess {
                    key: key.clone(),
                    outcome: "churned",
                });
                // Only verdict-bearing inferences can be contradicted, so
                // anything else stays evicted until re-queried.
                if admitted >= self.admission_budget() || !entry.query.bears_verdicts() {
                    continue;
                }
                let item = ExecItem {
                    key,
                    query: entry.query,
                    waiters: Vec::new(),
                    lane: None,
                };
                let (reply, verdicts) = self
                    .execute(sim, std::slice::from_ref(&item))
                    .pop()
                    .expect("one outcome per item");
                admitted += 1;
                self.stats.admitted += 1;
                self.stats.reinfers += 1;
                trace::emit_with(|| TraceEvent::CacheAccess {
                    key: item.key.clone(),
                    outcome: "reinfer",
                });
                self.finish_item(sim, &item, reply, verdicts, now);
            }
        }

        self.stats.waves += self.sched.take_waves().len() as u64;
        let after = self.stats;
        TickStats {
            queries: (after.queries - before.queries) as usize,
            hits: (after.hits - before.hits) as usize,
            coalesced: (after.coalesced - before.coalesced) as usize,
            shed: (after.shed - before.shed) as usize,
            executed,
            reinfers: (after.reinfers - before.reinfers) as usize,
            budget: self.admission_budget(),
        }
    }

    /// The one execution path: runs a group of same-kind items and
    /// returns one `(reply, verdicts)` per item, in order. FCCD items
    /// submit their plans to the shared scheduler and dispatch together;
    /// allocation requests pool behind one [`Mac::admit_all`] probe pass;
    /// any other kind runs alone, in a group of one.
    fn execute(&mut self, sim: &mut Sim, items: &[ExecItem]) -> Vec<(Reply, Verdicts)> {
        let Some(first) = items.first() else {
            return Vec::new();
        };
        // The other kinds execute one query at a time, on the lane of the
        // tenant that asked (FCCD items scope their own lanes; the pooled
        // allocation pass serves many tenants and stays on the daemon's).
        let alone = |reply| {
            debug_assert_eq!(items.len(), 1, "only FCCD and allocations group");
            vec![(reply, Verdicts::new())]
        };
        let lane = match first.query {
            Query::FccdClassify { .. } | Query::GbAlloc { .. } => None,
            _ => first.lane,
        };
        let _scope = lane.map(trace::lane_scope);
        match &first.query {
            Query::FccdClassify { .. } => self.execute_fccd(sim, items),
            Query::GbAlloc { .. } => {
                let replies = self.execute_allocs(sim, items);
                replies.into_iter().map(|r| (r, Verdicts::new())).collect()
            }
            Query::MacAvailable { ceiling } => {
                let ceiling = *ceiling;
                alone(
                    match sim.run_one(move |os| {
                        Mac::new(os, MacParams::default()).available_estimate(ceiling)
                    }) {
                        Ok(bytes) => Reply::Available { bytes },
                        Err(e) => Reply::Failed(e.to_string()),
                    },
                )
            }
            Query::FldcOrder { dir } => {
                let dir = dir.clone();
                alone(
                    match sim.run_one(move |os| Fldc::new(os).order_directory(&dir)) {
                        Ok(ranks) => Reply::Layout {
                            order: ranks.into_iter().map(|r| r.path).collect(),
                        },
                        Err(e) => Reply::Failed(e.to_string()),
                    },
                )
            }
            Query::WbdResidue { calib_pages } => vec![self.execute_wbd(sim, *calib_pages)],
            // Pure introspection: reads daemon state, touches neither the
            // sim nor the probe budget.
            Query::MetricsSnapshot => {
                alone(Reply::Metrics(Box::new(self.metrics_snapshot(sim.now()))))
            }
        }
    }

    /// Runs a batch of FCCD classifications through the shared scheduler:
    /// each item's planner draws its plans, the scheduler dispatches all of
    /// them at once, and each planner folds its own results. Returns one
    /// `(reply, verdicts)` per item, in order.
    fn execute_fccd(&mut self, sim: &mut Sim, items: &[ExecItem]) -> Vec<(Reply, Verdicts)> {
        let mut submitted = Vec::with_capacity(items.len());
        for item in items {
            let Query::FccdClassify { files } = &item.query else {
                unreachable!("execute_fccd takes FCCD items only");
            };
            // Plan (and emit `ProbePlanned` events) on the lane of the
            // tenant that triggered the execution, when there is one.
            let _scope = item.lane.map(trace::lane_scope);
            let params = self.cfg.fccd.clone();
            let planner = sim.run_one(move |os| Fccd::with_fixed_seed(os, params).into_planner());
            let handles: Vec<_> = planner
                .draw_plans(files, PAGE_SIZE, self.cfg.sched.sub_batch)
                .into_iter()
                .map(|probe| self.sched.submit(probe))
                .collect();
            submitted.push((planner, files, handles));
        }
        self.sched.dispatch(&mut SimExecutor::new(sim));
        items
            .iter()
            .zip(submitted)
            .map(|(item, (planner, files, handles))| {
                // Fold (and emit `Classified` events) on the same lane.
                let _scope = item.lane.map(trace::lane_scope);
                let results = handles
                    .into_iter()
                    .map(|handle| {
                        self.sched
                            .take(handle)
                            .expect("dispatch resolves every submitted handle")
                    })
                    .collect();
                let classified = classify_ranks(planner.rank_results(files, PAGE_SIZE, results));
                let mut verdicts = Verdicts::new();
                for rank in &classified.cached {
                    verdicts.insert(rank.path.clone(), true);
                }
                for rank in &classified.uncached {
                    verdicts.insert(rank.path.clone(), false);
                }
                let reply = Reply::Classified {
                    cached: classified.cached,
                    uncached: classified.uncached,
                    separation: classified.separation,
                };
                (reply, verdicts)
            })
            .collect()
    }

    /// Pools every allocation request of the tick behind one
    /// [`Mac::admit_all`] probe pass. Grants are measured and released —
    /// the reply reports the admitted size.
    fn execute_allocs(&mut self, sim: &mut Sim, items: &[ExecItem]) -> Vec<Reply> {
        // A request with `min > max` is answered, never admitted (MAC
        // asserts on it); the rest of the tick's requests still pool.
        let requests: Vec<Option<AdmissionRequest>> = items
            .iter()
            .map(|item| {
                let Query::GbAlloc { min, max, multiple } = &item.query else {
                    unreachable!("execute_allocs takes allocation items only");
                };
                (min <= max).then_some(AdmissionRequest {
                    min: *min,
                    max: *max,
                    multiple: (*multiple).max(1),
                })
            })
            .collect();
        sim.run_one(move |os| {
            let mac = Mac::new(os, MacParams::default());
            let pooled: Vec<AdmissionRequest> = requests.iter().flatten().copied().collect();
            let mut grants = mac.admit_all(&pooled).map(Vec::into_iter);
            requests
                .iter()
                .map(|req| match (req, &mut grants) {
                    (None, _) => Reply::Failed("min exceeds max".to_string()),
                    (Some(_), Err(e)) => Reply::Failed(e.to_string()),
                    (Some(_), Ok(grants)) => match grants.next().flatten() {
                        None => Reply::Granted { bytes: 0 },
                        Some(alloc) => {
                            let bytes = alloc.bytes;
                            match mac.gb_free(alloc) {
                                Ok(()) => Reply::Granted { bytes },
                                Err(e) => Reply::Failed(e.to_string()),
                            }
                        }
                    },
                })
                .collect()
        })
    }

    /// Runs one WBD residue estimate. The first timed `sync` both observes
    /// and drains the system's dirty residue, so it runs *before*
    /// calibration — whose own drain `sync` would otherwise flush the very
    /// pages the query asks about. Calibration then learns the clean
    /// intercept and per-page slope on the now-clean system, and the first
    /// observation converts to pages after the fact. Publishes the
    /// [`WBD_DIRTY_VERDICT`] verdict, so a cached dirty/clean answer is
    /// churned out when a later pass contradicts it.
    fn execute_wbd(&mut self, sim: &mut Sim, calib_pages: u64) -> (Reply, Verdicts) {
        let params = WbdParams {
            calib_pages: calib_pages.max(1),
            ..WbdParams::default()
        };
        let outcome = sim.run_one(move |os| -> graybox::os::OsResult<u64> {
            let wbd = Wbd::new(os, params);
            let observed = wbd.sync_cost()?;
            let cal = wbd.calibrate()?;
            // Unlinking the calibration scratch file dirties metadata
            // pages *after* calibration's last sync; drain them so the
            // daemon's own probe is not the residue the next one finds.
            os.sync()?;
            Ok(cal.estimate_pages(observed))
        });
        match outcome {
            Ok(pages) => {
                let mut verdicts = Verdicts::new();
                verdicts.insert(WBD_DIRTY_VERDICT.to_string(), pages > 0);
                (Reply::Residue { pages }, verdicts)
            }
            Err(e) => (Reply::Failed(e.to_string()), Verdicts::new()),
        }
    }

    /// Posts `reply` to every waiter of `item` and caches it if eligible.
    /// `drained_at` is the tick's drain instant: the difference to the
    /// posting instant is the waiter's virtual-time service latency.
    fn finish_item(
        &mut self,
        sim: &Sim,
        item: &ExecItem,
        reply: Reply,
        verdicts: Verdicts,
        drained_at: Nanos,
    ) {
        let served_at = sim.now();
        let latency_ns = served_at.as_nanos().saturating_sub(drained_at.as_nanos());
        if item.query.cacheable() && !matches!(reply, Reply::Failed(_)) {
            let evicted = self.cache.insert(
                item.key.clone(),
                CacheEntry {
                    query: item.query.clone(),
                    reply: reply.clone(),
                    stored_at: served_at,
                    verdicts,
                },
            );
            self.stats.capacity_evictions += evicted.len() as u64;
            for key in evicted {
                trace::emit_with(|| TraceEvent::CacheAccess {
                    key,
                    outcome: "evicted",
                });
            }
        }
        // Every waiter but the last gets a copy; the last takes the reply.
        if let Some((&last, rest)) = item.waiters.split_last() {
            for &waiter in rest {
                self.post(waiter, reply.clone(), served_at, latency_ns);
            }
            self.post(last, reply, served_at, latency_ns);
        }
    }

    /// Posts an executed reply to one waiting `(tenant, ticket)`.
    fn post(
        &mut self,
        (tenant, ticket): (usize, Ticket),
        reply: Reply,
        served_at: Nanos,
        latency_ns: u64,
    ) {
        let t = &mut self.tenants[tenant];
        t.stats.latency.record(latency_ns);
        let _lane = trace::lane_scope(t.lane);
        let _span = trace::span("tenant", || t.name.clone());
        self.mailbox.reply(
            ticket,
            Response {
                reply,
                from_cache: false,
                served_at,
            },
        );
    }

    /// Captures the daemon's service-level metrics as of `at` (virtual
    /// time). This is what [`Query::MetricsSnapshot`] answers with; it is
    /// also directly callable between ticks for dashboards.
    pub fn metrics_snapshot(&self, at: Nanos) -> GbdMetrics {
        GbdMetrics {
            at,
            stats: self.stats,
            cache_len: self.cache.len(),
            admission_budget: self.admission_budget(),
            policy: self.policy.name(),
            tenants: self.tenants.clone(),
        }
    }
}

/// The daemon's service-level snapshot: the answer to
/// [`Query::MetricsSnapshot`] and the model behind [`render_gray_top`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GbdMetrics {
    /// Virtual instant the snapshot was taken.
    pub at: Nanos,
    /// Cumulative daemon counters.
    pub stats: GbdStats,
    /// Live inference-cache entries.
    pub cache_len: usize,
    /// Probe-needing executions admitted per tick.
    pub admission_budget: usize,
    /// The staleness policy's name.
    pub policy: &'static str,
    /// Per-tenant rows, in registration order.
    pub tenants: Vec<Tenant>,
}

impl GbdMetrics {
    /// Renders the snapshot as one JSON object (hand-rolled, sorted
    /// struct order, deterministic). Tenant latency histograms export
    /// their count and coarse p50/p99 bounds.
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "{{\"at_ns\":{},\"policy\":\"{}\",\"ticks\":{},\"queries\":{},\"hits\":{},\
             \"coalesced\":{},\"shed\":{},\"expired\":{},\"invalidated\":{},\"reinfers\":{},\
             \"capacity_evictions\":{},\"admitted\":{},\"waves\":{},\"cache_len\":{},\
             \"admission_budget\":{},\"tenants\":[",
            self.at.as_nanos(),
            self.policy,
            s.ticks,
            s.queries,
            s.hits,
            s.coalesced,
            s.shed,
            s.expired,
            s.invalidated,
            s.reinfers,
            s.capacity_evictions,
            s.admitted,
            s.waves,
            self.cache_len,
            self.admission_budget,
        );
        for (i, Tenant { name, lane, stats }) in self.tenants.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"lane\":{},\"queries\":{},\"hits\":{},\"shed\":{},\
                 \"latency_count\":{},\"latency_p50_ns\":{},\"latency_p99_ns\":{}}}",
                trace::json_string(name),
                lane,
                stats.queries,
                stats.hits,
                stats.shed,
                stats.latency.count(),
                stats.latency.percentile_bound(50.0),
                stats.latency.percentile_bound(99.0),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Renders a `gray-top`-style text dashboard from a metrics snapshot:
/// daemon-wide counters up top, one row per tenant with hit rate and
/// coarse latency percentiles below. Pure formatting — feed it
/// consecutive snapshots for a live view.
pub fn render_gray_top(m: &GbdMetrics) -> String {
    use std::fmt::Write as _;
    let s = &m.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "gray-top  virtual {:.3}s  tick {}  policy {}",
        m.at.as_nanos() as f64 / 1e9,
        s.ticks,
        m.policy
    );
    let hit_rate = if s.queries > 0 {
        s.hits as f64 * 100.0 / s.queries as f64
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "queries {}  hits {} ({hit_rate:.1}%)  coalesced {}  shed {}  admitted {}",
        s.queries, s.hits, s.coalesced, s.shed, s.admitted
    );
    let _ = writeln!(
        out,
        "cache {} entries  expired {}  churned {}  reinfers {}  evicted {}",
        m.cache_len, s.expired, s.invalidated, s.reinfers, s.capacity_evictions
    );
    let _ = writeln!(
        out,
        "admission budget {}  waves {}",
        m.admission_budget, s.waves
    );
    let _ = writeln!(
        out,
        "{:<16} {:>8} {:>8} {:>6} {:>6} {:>12} {:>12}",
        "tenant", "queries", "hits", "hit%", "shed", "p50(ns)", "p99(ns)"
    );
    for Tenant { name, stats, .. } in &m.tenants {
        let rate = if stats.queries > 0 {
            stats.hits as f64 * 100.0 / stats.queries as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:<16} {:>8} {:>8} {:>5.1}% {:>6} {:>12} {:>12}",
            name,
            stats.queries,
            stats.hits,
            rate,
            stats.shed,
            stats.latency.percentile_bound(50.0),
            stats.latency.percentile_bound(99.0),
        );
    }
    out
}
