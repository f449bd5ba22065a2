//! Daemon suite: the multi-tenant gbd under sustained query load.
//!
//! The headline is [`run`]: two dozen simulated clients drive 10k+
//! FCCD/MAC/FLDC queries through one shared daemon over many serve
//! ticks, with periodic cache churn forcing the churn-aware staleness
//! policy to invalidate and re-infer. Everything in the report is
//! **virtual-time deterministic** — hit rate, shed/admission counts,
//! re-inference counts, and the simulated clock total are exactly
//! reproducible run to run, so `--diff --strict` can gate them the way
//! it gates the accuracy and scheduler headlines. `register` adds small
//! host-time entries (cache-hit service cost, one cold inference) so
//! the suite also lands in the harness baseline.

use gbd::{Gbd, GbdConfig, Query, Reply};
use gray_sched::SchedConfig;
use gray_toolbox::bench::Harness;
use gray_toolbox::GrayDuration;
use graybox::fccd::FccdParams;
use simos::scenario;
use simos::Sim;
use std::hint::black_box;

/// Simulated clients sharing the daemon (ISSUE 6 floor: ≥ 24).
pub const TENANTS: usize = 24;
/// Serve ticks in the headline run.
pub const TICKS: usize = 42;
/// Queries each tenant submits per tick: 24 × 42 × 10 = 10 080 ≥ 10k.
pub const QUERIES_PER_TICK: usize = 10;
/// Ticks between churn events (page-cache contents flip behind the
/// daemon, so cached classifications become stale mid-run).
const CHURN_EVERY: usize = 14;
/// Disks (and scheduler workers) on the daemon machine.
const DISKS: usize = 4;
/// Corpus files per disk.
const FILES_PER_DISK: usize = 3;
/// Bytes per corpus file — two prediction units at the small geometry.
const FILE_BYTES: u64 = 512 << 10;

/// Deterministic results of one headline daemon run.
#[derive(Debug, Clone)]
pub struct DaemonReport {
    /// Registered tenants.
    pub tenants: usize,
    /// Queries served (answered or shed) across the whole run.
    pub queries: u64,
    /// Queries answered straight from the inference cache.
    pub hits: u64,
    /// Cache hit rate, `hits / queries`.
    pub hit_rate: f64,
    /// Probe-needing queries admitted past the AIMD budget.
    pub admitted: u64,
    /// Queries shed by admission control.
    pub shed: u64,
    /// Identical in-tick misses folded into one execution.
    pub coalesced: u64,
    /// Entries evicted on churn contradiction.
    pub invalidated: u64,
    /// Entries aged out at lookup (virtual-TTL expiry).
    pub expired: u64,
    /// Entries evicted by the cache capacity bound.
    pub capacity_evictions: u64,
    /// Churned entries re-inferred within budget.
    pub reinfers: u64,
    /// Scheduler waves dispatched daemon-wide.
    pub waves: u64,
    /// Final virtual clock — total simulated time for the whole run.
    pub virtual_total_ns: u64,
    /// Virtual time per query — the daemon's latency proxy. Probe cost
    /// amortizes across tenants, so this sits far below one inference.
    pub virtual_ns_per_query: f64,
}

impl DaemonReport {
    /// The report as one line of baseline-file JSON fields (no braces),
    /// parseable by the runner's line-oriented `field_num`.
    pub fn json_fields(&self) -> String {
        format!(
            "\"tenants\":{},\"queries\":{},\"hits\":{},\"hit_rate\":{:.4},\
             \"admitted\":{},\"shed\":{},\"coalesced\":{},\"invalidated\":{},\
             \"expired\":{},\"capacity_evictions\":{},\
             \"reinfers\":{},\"waves\":{},\"virtual_total_ns\":{},\
             \"virtual_ns_per_query\":{:.1}",
            self.tenants,
            self.queries,
            self.hits,
            self.hit_rate,
            self.admitted,
            self.shed,
            self.coalesced,
            self.invalidated,
            self.expired,
            self.capacity_evictions,
            self.reinfers,
            self.waves,
            self.virtual_total_ns,
            self.virtual_ns_per_query,
        )
    }
}

/// Splitmix-style step for per-tenant query choice — deterministic and
/// seeded from the tenant index, never from wall-clock entropy.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The finite query-shape pool every tenant draws from. A small pool is
/// the point: repeats are what an inference cache amortizes.
fn query_pool(files: &[(String, u64)]) -> Vec<Query> {
    let mut pool: Vec<Query> = files
        .iter()
        .map(|f| Query::FccdClassify {
            files: vec![f.clone()],
        })
        .collect();
    // One per-disk sweep (multi-file plans pool into shared waves).
    for d in 0..DISKS {
        pool.push(Query::FccdClassify {
            files: files
                .iter()
                .skip(d * FILES_PER_DISK)
                .take(FILES_PER_DISK)
                .cloned()
                .collect(),
        });
    }
    pool.push(Query::MacAvailable { ceiling: 8 << 20 });
    pool.push(Query::FldcOrder { dir: "/".into() });
    pool
}

/// Builds the daemon machine, corpus, and a daemon with `tenants`
/// registered clients.
fn build(tenants: usize) -> (Sim, Vec<(String, u64)>, Gbd, Vec<gbd::GbdClient>) {
    let mut sim = scenario::daemon_machine(DISKS, DISKS);
    let files = scenario::spread_corpus(&mut sim, DISKS, FILES_PER_DISK, FILE_BYTES);
    let warm: Vec<_> = files.iter().step_by(2).cloned().collect();
    scenario::warm(&mut sim, &warm);

    let cfg = GbdConfig {
        // Long virtual TTL: staleness in this run comes from churn
        // contradictions, not expiry, so the re-inference counts are
        // attributable to the churn-aware policy.
        cache_ttl: GrayDuration::from_secs(3600),
        fccd: FccdParams {
            access_unit: 1 << 20,
            prediction_unit: 256 << 10,
            ..FccdParams::default()
        },
        sched: SchedConfig {
            concurrency: DISKS,
            sub_batch: 1,
            ..SchedConfig::default()
        },
        max_tenants: tenants.max(1),
        ..GbdConfig::default()
    };
    let policy = cfg.churn_policy();
    let mut gbd = Gbd::new(cfg, Box::new(policy));
    let clients: Vec<_> = (0..tenants)
        .map(|i| {
            gbd.register_tenant(&format!("tenant{i:02}"))
                .expect("within max_tenants")
        })
        .collect();
    (sim, files, gbd, clients)
}

/// Drives the full headline load and folds the daemon's counters into a
/// [`DaemonReport`]. Deterministic: fixed seeds, noise-free machine,
/// virtual time only.
pub fn run() -> DaemonReport {
    let (mut sim, files, mut gbd, clients) = build(TENANTS);
    let pool = query_pool(&files);
    let mut rng: Vec<u64> = (0..TENANTS).map(|i| 0x6762_6400 + i as u64).collect();
    let mut churns = 0usize;

    for tick in 0..TICKS {
        if tick > 0 && tick % CHURN_EVERY == 0 {
            // Flip the warm half behind the daemon's back, then have
            // tenant 0 scout a novel prefix query: its fresh verdicts
            // overlap the stale cached singles and trigger the
            // churn-aware invalidation path.
            churns += 1;
            let keep: Vec<_> = files.iter().skip(churns % 2).step_by(2).cloned().collect();
            scenario::churn(&mut sim, &keep);
            clients[0].submit(Query::FccdClassify {
                files: files[..(2 + churns).min(files.len())].to_vec(),
            });
        }
        let mut tickets = Vec::with_capacity(TENANTS * QUERIES_PER_TICK);
        for (t, client) in clients.iter().enumerate() {
            for _ in 0..QUERIES_PER_TICK {
                let q = pool[(next(&mut rng[t]) as usize) % pool.len()].clone();
                tickets.push((t, client.submit(q)));
            }
        }
        gbd.serve(&mut sim);
        for (t, ticket) in tickets {
            let resp = clients[t].take(ticket).expect("served this tick");
            debug_assert!(!matches!(resp.reply, Reply::Failed(_)), "{:?}", resp.reply);
        }
    }

    let s = gbd.stats();
    let virtual_total_ns = sim.now().0;
    DaemonReport {
        tenants: TENANTS,
        queries: s.queries,
        hits: s.hits,
        hit_rate: s.hits as f64 / s.queries.max(1) as f64,
        admitted: s.admitted,
        shed: s.shed,
        coalesced: s.coalesced,
        invalidated: s.invalidated,
        expired: s.expired,
        capacity_evictions: s.capacity_evictions,
        reinfers: s.reinfers,
        waves: s.waves,
        virtual_total_ns,
        virtual_ns_per_query: virtual_total_ns as f64 / s.queries.max(1) as f64,
    }
}

/// Registers the daemon's host-time benchmarks: the cost of serving a
/// fully-cached tick and of one cold shared-scheduler inference.
pub fn register(h: &mut Harness) {
    h.bench_function("gbd_tick_all_cache_hits", |b| {
        let (mut sim, files, mut gbd, clients) = build(4);
        let q = Query::FccdClassify {
            files: vec![files[0].clone()],
        };
        // Prime the entry so every measured tick is pure cache service.
        clients[0].submit(q.clone());
        gbd.serve(&mut sim);
        b.iter(|| {
            let tickets: Vec<_> = clients.iter().map(|c| c.submit(q.clone())).collect();
            gbd.serve(&mut sim);
            for (c, t) in clients.iter().zip(tickets) {
                black_box(c.take(t).expect("cached reply"));
            }
        });
    });
    h.bench_function("gbd_cold_inference", |b| {
        b.iter(|| {
            let (mut sim, files, mut gbd, clients) = build(1);
            let t = clients[0].submit(Query::FccdClassify {
                files: files[..2].to_vec(),
            });
            gbd.serve(&mut sim);
            black_box(clients[0].take(t).expect("served"))
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_run_meets_the_acceptance_bar() {
        let _tracer = crate::hold_tracer();
        let r = run();
        assert!(r.tenants >= 24, "ISSUE 6 floor: ≥ 24 clients");
        assert!(
            r.queries >= 10_000,
            "ISSUE 6 floor: ≥ 10k queries, got {}",
            r.queries
        );
        assert!(
            r.hit_rate > 0.5,
            "a finite query pool must amortize: hit rate {:.3}",
            r.hit_rate
        );
        assert!(r.admitted > 0, "some probe work must be admitted");
        assert!(
            r.reinfers > 0,
            "churn events must trigger churn-aware re-inference"
        );
        assert!(r.waves > 0 && r.virtual_total_ns > 0);
    }

    #[test]
    fn headline_run_is_deterministic() {
        let _tracer = crate::hold_tracer();
        let a = run();
        let b = run();
        assert_eq!(a.json_fields(), b.json_fields());
    }
}
