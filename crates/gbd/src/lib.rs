//! gbd — the long-running multi-tenant gray-box inference daemon.
//!
//! Everything else in the workspace is one-shot: a figure driver builds
//! its ICLs, probes, prints, exits. Nothing amortizes inference across
//! clients, even though the paper's ICL vision implies exactly that — and
//! prior work shows why a central service is the right shape: many
//! concurrent observers of one page cache interfere with each other, so
//! the observing should happen *once*, in a daemon clients query instead
//! of probing themselves.
//!
//! `gbd` is that daemon:
//!
//! - **One scheduler, many tenants.** Every tenant's FCCD probe plans
//!   submit to one shared `gray-sched` [`Scheduler`](gray_sched::Scheduler)
//!   and dispatch together, so independent queries pool into shared,
//!   fixed-width waves.
//! - **An inference cache with pluggable staleness.** Repeated queries
//!   are answered from cache under a [`StalenessPolicy`]: [`TtlOnly`]
//!   serves entries until they age out; [`ChurnAware`] additionally
//!   evicts (and re-infers) any entry a fresh probe pass contradicts.
//! - **Admission over its own load.** A constant per-tick budget of
//!   probe-needing executions; queries over it are shed, not queued (the
//!   client retries, as after `gb_alloc`'s deny), so one tick's probing
//!   is bounded whatever the tenants send.
//! - **Pooled grants.** A tick's `GbAlloc` queries are admitted together
//!   by `graybox`'s `Mac::admit_all`, behind one probe pass.
//! - **A trace lane per tenant.** Each tenant gets its own gray-trace
//!   lane; daemon-side events (cache accesses, admission decisions,
//!   probe plans, classification verdicts, the estimates of a query
//!   executing on its own) carry the lane of the tenant they serve, so
//!   per-client telemetry falls out of the tracer for free. A churn
//!   re-inference and the pooled allocation pass serve no single tenant
//!   and trace on the daemon's own lane.
//!
//! Every tunable is a field of [`GbdConfig`]. MAC runs at its default
//! parameters, the ones every gray-box allocator in the workspace uses
//! unless it sizes a figure's machine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;

use gray_sched::SchedConfig;
use gray_toolbox::GrayDuration;
use graybox::fccd::FccdParams;

pub use cache::{CacheEntry, ChurnAware, Disposition, InferenceCache, StalenessPolicy, TtlOnly};
pub use daemon::{
    render_gray_top, Gbd, GbdClient, GbdMetrics, GbdStats, Query, Reply, Response, Shared, Tenant,
    TickStats, WBD_DIRTY_VERDICT,
};

use std::fmt;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct GbdConfig {
    /// Inference-cache entry lifetime, in virtual time.
    pub cache_ttl: GrayDuration,
    /// Most tenants the daemon registers.
    pub max_tenants: usize,
    /// Probe-needing executions admitted per tick (at least 1); queries
    /// over it are shed.
    pub admission_budget: usize,
    /// Most inference-cache entries held at once;
    /// inserting past it evicts the oldest-stamped entries. The default
    /// is far above any benchmark's working set, so the bound only bites
    /// on genuinely long-running daemons.
    pub cache_capacity: usize,
    /// FCCD planner parameters shared by every tenant's queries.
    pub fccd: FccdParams,
    /// Shared probe-scheduler configuration (wave width, sub-batch).
    pub sched: SchedConfig,
}

impl Default for GbdConfig {
    fn default() -> Self {
        GbdConfig {
            cache_ttl: GrayDuration::from_millis(250),
            max_tenants: 64,
            admission_budget: 8,
            cache_capacity: 4096,
            fccd: FccdParams::default(),
            sched: SchedConfig::default(),
        }
    }
}

impl GbdConfig {
    /// The TTL-only staleness policy at this config's TTL.
    pub fn ttl_policy(&self) -> TtlOnly {
        TtlOnly {
            ttl: self.cache_ttl,
        }
    }

    /// The churn-aware staleness policy at this config's TTL.
    pub fn churn_policy(&self) -> ChurnAware {
        ChurnAware {
            ttl: self.cache_ttl,
        }
    }
}

/// Daemon errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GbdError {
    /// `register_tenant` was called with [`GbdConfig::max_tenants`] tenants live.
    TenantLimit {
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for GbdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GbdError::TenantLimit { limit } => {
                write!(f, "tenant limit reached ({limit} tenants)")
            }
        }
    }
}

impl std::error::Error for GbdError {}

#[cfg(test)]
mod tests {
    use super::*;
    use simos::scenario;

    fn small_cfg() -> GbdConfig {
        GbdConfig {
            fccd: FccdParams {
                access_unit: 1 << 20,
                prediction_unit: 256 << 10,
                ..FccdParams::default()
            },
            sched: SchedConfig {
                sub_batch: 0,
                ..SchedConfig::default()
            },
            ..GbdConfig::default()
        }
    }

    #[test]
    fn fingerprints_of_distinct_file_lists_differ() {
        let fp = |files: &[(&str, u64)]| {
            let files = files.iter().map(|(p, n)| (p.to_string(), *n)).collect();
            Query::FccdClassify { files }.fingerprint()
        };
        assert_ne!(fp(&[("/d#1,/e", 2)]), fp(&[("/d", 1), ("/e", 2)]));
        // Paths without `\`, `,` or `#` keep the key they always had.
        assert_eq!(fp(&[("/d", 1), ("/e f", 2)]), "fccd:/d#1,/e f#2");
        assert_eq!(fp(&[("a\\b,c#d", 3)]), r"fccd:a\\b\,c\#d#3");
        // The daemon's reused key buffer holds the last query's key only.
        let mut key = String::new();
        Query::FldcOrder {
            dir: "/long".repeat(8),
        }
        .write_fingerprint(&mut key);
        Query::MacAvailable { ceiling: 7 }.write_fingerprint(&mut key);
        assert_eq!(key, "mac.available:7");
    }

    /// A size hint that is not the file's size must not make a cold file
    /// look cached. A hint of 0 draws an empty plan; folded as a probed
    /// file, it ranked fastest at 0 ns a probe, and the daemon cached that
    /// verdict. A file FCCD could not probe ranks with the penalty.
    #[test]
    fn a_stale_size_hint_never_reads_as_cached() {
        let cfg = GbdConfig {
            fccd: FccdParams {
                access_unit: 64 << 10,
                prediction_unit: 16 << 10,
                ..FccdParams::default()
            },
            ..small_cfg()
        };
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 2);
        let mut files = scenario::spread_corpus(&mut sim, 2, 3, 256 << 10);
        scenario::warm(&mut sim, &files[..2]);
        let stale = files[5].0.clone();
        assert_eq!(stale, "/d1/sc02");
        files[5].1 = 0;
        let c = gbd.register_tenant("t").unwrap();
        let t = c.submit(Query::FccdClassify { files });
        gbd.serve(&mut sim);
        let Reply::Classified {
            cached, uncached, ..
        } = c.take(t).expect("served").reply
        else {
            panic!("expected a classification");
        };
        assert_eq!(sim.oracle().cached_fraction(&stale), Ok(0.0));
        let cached: Vec<&str> = cached.iter().map(|r| r.path.as_str()).collect();
        assert_eq!(cached, ["/sc00", "/sc01"], "only the warm files are cached");
        let rank = uncached.iter().find(|r| r.path == stale).expect("ranked");
        assert_eq!(rank.mean_probe, graybox::fccd::SMALL_FILE_PENALTY);
    }

    /// Records emitted on a tenant's behalf carry its lane: the plans of
    /// its FCCD query, pooled into shared waves with the other tenant's,
    /// and the estimate of its MAC query, which executes on its own.
    #[test]
    fn a_tenants_plans_and_estimates_trace_on_its_lane() {
        use gray_toolbox::trace::{self, TraceEvent};
        let cfg = small_cfg();
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 4);
        let files = scenario::spread_corpus(&mut sim, 2, 3, 256 << 10);
        let (alice_files, bob_files) = files.split_at(2);
        let alice = gbd.register_tenant("alice").unwrap();
        let bob = gbd.register_tenant("bob").unwrap();
        let _capture = trace::capture();
        alice.submit(Query::FccdClassify {
            files: alice_files.to_vec(),
        });
        bob.submit(Query::FccdClassify {
            files: bob_files.to_vec(),
        });
        bob.submit(Query::MacAvailable { ceiling: 8 << 20 });
        gbd.serve(&mut sim);
        let records = trace::drain();
        let lanes: Vec<u64> = gbd.tenants().iter().map(|t| t.lane).collect();
        let planned_on = |lane: u64| {
            records
                .iter()
                .filter(|r| r.lane == lane && matches!(r.event, TraceEvent::ProbePlanned { .. }))
                .count()
        };
        assert_eq!(planned_on(lanes[0]), alice_files.len(), "alice's plans");
        assert_eq!(planned_on(lanes[1]), bob_files.len(), "bob's plans");
        let estimates: Vec<u64> = records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Estimated { .. }))
            .map(|r| r.lane)
            .collect();
        assert!(!estimates.is_empty(), "MAC estimates are traced");
        assert!(
            estimates.iter().all(|&lane| lane == lanes[1]),
            "bob's estimate records trace on lanes {estimates:?}, not {}",
            lanes[1]
        );
    }

    #[test]
    fn tenant_limit_is_enforced() {
        let cfg = GbdConfig {
            max_tenants: 2,
            ..small_cfg()
        };
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        assert!(gbd.register_tenant("a").is_ok());
        assert!(gbd.register_tenant("b").is_ok());
        assert_eq!(
            gbd.register_tenant("c").unwrap_err(),
            GbdError::TenantLimit { limit: 2 }
        );
    }

    #[test]
    fn repeated_queries_hit_the_cache_and_coalesce() {
        let cfg = small_cfg();
        let width = cfg.sched.concurrency;
        let policy = cfg.churn_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 4);
        let files = scenario::spread_corpus(&mut sim, 2, 4, 512 << 10);
        let warm: Vec<_> = files.iter().step_by(2).cloned().collect();
        scenario::warm(&mut sim, &warm);

        let a = gbd.register_tenant("a").unwrap();
        let b = gbd.register_tenant("b").unwrap();
        let q = Query::FccdClassify {
            files: files.clone(),
        };
        // Tick 1: identical queries from two tenants coalesce onto one
        // execution; both get the same answer.
        let ta = a.submit(q.clone());
        let tb = b.submit(q.clone());
        let tick = gbd.serve(&mut sim);
        assert_eq!(tick.queries, 2);
        assert_eq!(tick.executed, 1);
        assert_eq!(tick.coalesced, 1);
        // One plan per file, pooled into full-width waves: hits beside
        // misses in a wave are the signal, not a reason to narrow it.
        assert_eq!(gbd.stats().waves as usize, files.len().div_ceil(width));
        let ra = a.take(ta).expect("served");
        let rb = b.take(tb).expect("served");
        assert_eq!(ra.reply, rb.reply);
        assert!(!ra.from_cache);

        // Tick 2: the same query is a cache hit — no execution at all.
        let ta2 = a.submit(q);
        let tick = gbd.serve(&mut sim);
        assert_eq!((tick.hits, tick.executed), (1, 0));
        let ra2 = a.take(ta2).expect("served");
        assert!(ra2.from_cache);
        assert_eq!(ra2.reply, ra.reply);
        assert_eq!(gbd.stats().hits, 1);
        assert_eq!(gbd.stats().coalesced, 1);
    }

    #[test]
    fn wbd_residue_entries_are_churned_by_contradicting_passes() {
        use graybox::os::GrayBoxOs;
        let cfg = small_cfg();
        let policy = cfg.churn_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 4);
        let t = gbd.register_tenant("t").unwrap();

        // A tenant-side workload dirties pages nobody syncs.
        sim.run_one(|os| {
            let page = os.page_size();
            let fd = os.create("/dirty").unwrap();
            os.write_fill(fd, 0, 16 * page).unwrap();
            os.close(fd).unwrap();
        });

        // Tick 1: the residue query sees the dirty pages (and, the probe
        // being a timed sync, drains them). The answer is cached with its
        // dirty verdict.
        let q = Query::WbdResidue { calib_pages: 8 };
        let t1 = t.submit(q.clone());
        gbd.serve(&mut sim);
        let r1 = t.take(t1).expect("served");
        let Reply::Residue { pages } = r1.reply else {
            panic!("expected residue, got {:?}", r1.reply);
        };
        assert!(pages > 0, "dirty residue visible to the first pass");

        // Tick 2: a residue query with a *different* cache key runs fresh
        // on the now-clean system and publishes the contradicting verdict;
        // the churn-aware policy evicts the stale entry and re-infers it.
        let t2 = t.submit(Query::WbdResidue { calib_pages: 4 });
        let tick = gbd.serve(&mut sim);
        let r2 = t.take(t2).expect("served");
        assert_eq!(r2.reply, Reply::Residue { pages: 0 });
        assert_eq!(tick.reinfers, 1);
        assert_eq!(gbd.stats().invalidated, 1);

        // Tick 3: the original query hits the cache with the re-inferred
        // clean answer, not the stale dirty one.
        let t3 = t.submit(q);
        let tick = gbd.serve(&mut sim);
        assert_eq!((tick.hits, tick.executed), (1, 0));
        let r3 = t.take(t3).expect("served");
        assert!(r3.from_cache);
        assert_eq!(r3.reply, Reply::Residue { pages: 0 });
    }

    #[test]
    fn cache_capacity_pressure_evicts_oldest_and_is_bounded() {
        let cfg = GbdConfig {
            cache_capacity: 2,
            ..small_cfg()
        };
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(3, 4);
        let files = scenario::spread_corpus(&mut sim, 3, 2, 128 << 10);
        let c = gbd.register_tenant("t").unwrap();
        // Three distinct cacheable queries in separate ticks: the third
        // insert displaces the oldest entry instead of growing the cache.
        for i in 0..3 {
            let t = c.submit(Query::FccdClassify {
                files: files[i * 2..i * 2 + 2].to_vec(),
            });
            gbd.serve(&mut sim);
            assert!(c.take(t).expect("served").reply != Reply::Shed);
            assert!(gbd.cache_len() <= 2, "capacity bound respected");
        }
        assert_eq!(gbd.cache_len(), 2);
        assert!(gbd.stats().capacity_evictions >= 1, "oldest entry evicted");
        // The two *newest* queries are still cache hits.
        let t = c.submit(Query::FccdClassify {
            files: files[4..6].to_vec(),
        });
        let tick = gbd.serve(&mut sim);
        assert_eq!((tick.hits, tick.executed), (1, 0));
        assert!(c.take(t).expect("served").from_cache);
    }

    #[test]
    fn over_budget_queries_are_shed() {
        let cfg = GbdConfig {
            admission_budget: 1,
            ..small_cfg()
        };
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 4);
        let files = scenario::spread_corpus(&mut sim, 2, 2, 256 << 10);
        let c = gbd.register_tenant("t").unwrap();
        // Two *distinct* probe-needing queries, budget 1: second sheds.
        let t0 = c.submit(Query::FccdClassify {
            files: files[..2].to_vec(),
        });
        let t1 = c.submit(Query::FccdClassify {
            files: files[2..].to_vec(),
        });
        let tick = gbd.serve(&mut sim);
        assert_eq!((tick.executed, tick.shed), (1, 1));
        assert!(matches!(
            c.take(t0).expect("served").reply,
            Reply::Classified { .. }
        ));
        assert_eq!(c.take(t1).expect("served").reply, Reply::Shed);
        // FLDC needs no probes: it is served even at budget 0 pressure.
        let t2 = c.submit(Query::FldcOrder {
            dir: "/".to_string(),
        });
        gbd.serve(&mut sim);
        assert!(matches!(
            c.take(t2).expect("served").reply,
            Reply::Layout { .. }
        ));
    }

    #[test]
    fn mac_queries_answer_and_allocs_pool() {
        let cfg = small_cfg();
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 2);
        let c = gbd.register_tenant("t").unwrap();
        let mb = 1u64 << 20;
        let t0 = c.submit(Query::MacAvailable { ceiling: 16 * mb });
        let t1 = c.submit(Query::GbAlloc {
            min: mb,
            max: 8 * mb,
            multiple: mb,
        });
        let t2 = c.submit(Query::GbAlloc {
            min: mb,
            max: 8 * mb,
            multiple: mb,
        });
        gbd.serve(&mut sim);
        let Reply::Available { bytes } = c.take(t0).expect("served").reply else {
            panic!("expected an estimate");
        };
        assert!(bytes > 0, "idle machine has memory available");
        for t in [t1, t2] {
            let Reply::Granted { bytes } = c.take(t).expect("served").reply else {
                panic!("expected a grant");
            };
            assert!(bytes >= mb, "idle machine admits the minimum");
        }
    }

    /// An exact request that is not a whole number of pages is granted in
    /// full, not answered with a zero grant on every tick.
    #[test]
    fn exact_unaligned_alloc_is_granted_in_full() {
        let cfg = small_cfg();
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 2);
        let c = gbd.register_tenant("t").unwrap();
        let t = c.submit(Query::GbAlloc {
            min: 12_300,
            max: 12_300,
            multiple: 100,
        });
        gbd.serve(&mut sim);
        assert_eq!(
            c.take(t).expect("served").reply,
            Reply::Granted { bytes: 12_300 }
        );
    }

    #[test]
    fn malformed_alloc_fails_alone_and_the_daemon_keeps_serving() {
        let cfg = small_cfg();
        let policy = cfg.ttl_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 2);
        let c = gbd.register_tenant("t").unwrap();
        let mb = 1u64 << 20;
        let good = Query::GbAlloc {
            min: mb,
            max: 8 * mb,
            multiple: mb,
        };
        let bad = c.submit(Query::GbAlloc {
            min: 10 * mb,
            max: mb,
            multiple: 4096,
        });
        let ok = c.submit(good.clone());
        gbd.serve(&mut sim);
        assert_eq!(
            c.take(bad).expect("served").reply,
            Reply::Failed("min exceeds max".to_string())
        );
        let Reply::Granted { bytes } = c.take(ok).expect("served").reply else {
            panic!("the well-formed request of the same tick is still pooled");
        };
        assert!(bytes >= mb);
        // A later tick still serves, and maxima that sum past u64::MAX do
        // not overflow the pooled ceiling.
        let huge = Query::GbAlloc {
            min: mb,
            max: u64::MAX,
            multiple: mb,
        };
        let tickets = [c.submit(huge.clone()), c.submit(huge), c.submit(good)];
        gbd.serve(&mut sim);
        for t in tickets {
            assert!(c.take(t).is_some(), "served");
        }
    }

    #[test]
    fn metrics_snapshot_rides_the_query_path() {
        let cfg = small_cfg();
        let policy = cfg.churn_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let mut sim = scenario::daemon_machine(2, 4);
        let files = scenario::spread_corpus(&mut sim, 2, 2, 512 << 10);
        scenario::warm(&mut sim, &files[..2]);
        let a = gbd.register_tenant("alice").unwrap();
        let b = gbd.register_tenant("bob").unwrap();
        let _weird = gbd.register_tenant("we\"ird\\").unwrap();

        // A miss, then a hit, so both latency regimes are on record.
        let q = Query::FccdClassify {
            files: files.clone(),
        };
        let t1 = a.submit(q.clone());
        gbd.serve(&mut sim);
        let _ = a.take(t1);
        let t2 = a.submit(q);
        gbd.serve(&mut sim);
        let _ = a.take(t2);

        let before = sim.now();
        let tm = b.submit(Query::MetricsSnapshot);
        let tick = gbd.serve(&mut sim);
        assert_eq!(
            sim.now(),
            before,
            "a metrics snapshot is free of virtual cost"
        );
        let Reply::Metrics(m) = b.take(tm).expect("served").reply else {
            panic!("expected a metrics reply");
        };
        // The snapshot agrees with the daemon's own accounting, taken
        // after the tick that served it.
        assert_eq!(m.stats, *gbd.stats());
        assert_eq!(m.cache_len, gbd.cache_len());
        assert_eq!(m.tenants.len(), 3);
        let alice = &m.tenants[0];
        assert_eq!(alice.name, "alice");
        assert_eq!(alice.stats.queries, 2);
        assert_eq!(alice.stats.hits, 1);
        // Both the miss and the hit recorded a latency sample; the hit
        // is instantaneous, the miss is not.
        assert_eq!(alice.stats.latency.count(), 2);
        assert!(alice.stats.latency.percentile_bound(99.0) > 0);
        assert_eq!(tick.queries, 1);

        // The human and machine renderings carry the same story.
        let top = render_gray_top(&m);
        assert!(top.contains("alice") && top.contains("bob"), "{top}");
        let json = m.to_json();
        assert!(json.contains("\"name\":\"alice\""), "{json}");
        // Names are JSON-escaped: a quote or backslash cannot break the line.
        assert!(json.contains(r#""name":"we\"ird\\""#), "{json}");
        assert!(json.contains("\"latency_count\":2"), "{json}");

        // Identical snapshot queries must never be answered from cache.
        let tm2 = b.submit(Query::MetricsSnapshot);
        gbd.serve(&mut sim);
        let r2 = b.take(tm2).expect("served");
        assert!(!r2.from_cache, "metrics snapshots are never cached");
    }
}
