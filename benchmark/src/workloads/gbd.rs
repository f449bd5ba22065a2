//! `gbd_hot` and `gbd_miss`: the multi-tenant inference daemon used both
//! ways round.
//!
//! Both drive the same daemon on the same four-disk machine with 24
//! tenants in a closed loop: every tenant submits, the daemon serves one
//! tick, every tenant redeems its tickets, and a millisecond of virtual
//! think time passes before the next tick. They differ in how the query
//! pool compares to the inference cache. `gbd_hot` draws from 18 shapes
//! with room for 4096, so nearly every query is a lookup and the probe
//! stack below the daemon runs only when the 1.25-second TTL expires.
//! `gbd_miss` draws from 72 shapes with room for 8 while the page cache is
//! churned behind the daemon's back, so nearly every query is inferred
//! again through the scheduler, the simulator and the ICLs.

use std::time::Instant;

use gbd::{Gbd, GbdClient, GbdConfig, GbdStats, Query, Reply, Response, TickStats};
use gray_sched::SchedConfig;
use gray_toolbox::GrayDuration;
use graybox::fccd::FccdParams;
use graybox::os::GrayBoxOs;
use simos::scenario;
use simos::score::score_fccd_verdicts;
use simos::Sim;

use super::{Ctx, Run, Workload};
use crate::span;
use crate::stat::{fnv, fnv_str, median, ratio, splitmix, FNV_START};

pub const HOT: Workload = Workload {
    name: "gbd_hot",
    why: "18 query shapes against a 4096-entry cache: at least 99.9 % of queries are cache hits, so host time is the daemon and its mailbox while scheduler, simulator and ICLs sit idle",
    op: "query",
    run: run_hot,
};

pub const MISS: Workload = Workload {
    name: "gbd_miss",
    why: "72 query shapes against an 8-entry cache under page-cache churn: most queries are inferred again, so time is in scheduler waves, simulator probes and all four ICLs",
    op: "query",
    run: run_miss,
};

const DISKS: usize = 4;
const TENANTS: usize = 24;
/// Virtual time between two ticks: the tenants' pacing. It is what lets a
/// cache TTL expire at all, since a tick of pure hits costs no virtual time.
const THINK: GrayDuration = GrayDuration::from_millis(1);
/// How often the set-up is built and warmed, for the median of `setup_s`
/// and to check that identical set-ups replay identically.
const SETUP_REPEATS: usize = 3;

/// What tells the two workloads apart.
struct Spec {
    files_per_disk: usize,
    file_bytes: u64,
    /// Queries each tenant submits per tick.
    queries_per_tick: usize,
    /// Adds the WBD residue and allocation shapes to the pool.
    wide_pool: bool,
    cache_ttl: GrayDuration,
    cache_capacity: usize,
    admission_budget: usize,
    /// Ticks between page-cache churns; 0 for none.
    churn_every: usize,
    warmup_ticks: usize,
    slice_ticks: usize,
    slices: usize,
    /// Replies are joined to the oracle on every `score_every`-th tick.
    score_every: usize,
    /// What the workload exists to deliver: cache hits, or right answers.
    quality_is_hit_ratio: bool,
}

fn run_hot(ctx: &Ctx) -> Run {
    run(
        ctx,
        &Spec {
            files_per_disk: 3,
            file_bytes: 512 << 10,
            queries_per_tick: 10,
            wide_pool: false,
            // A smoke run is 100 ticks long and has to see a refresh too.
            cache_ttl: GrayDuration::from_millis(ctx.size(1250, 40)),
            cache_capacity: 4096,
            admission_budget: 64,
            churn_every: 0,
            warmup_ticks: 50,
            slice_ticks: ctx.size(1000, 50),
            slices: ctx.slices(5.0, 2),
            quality_is_hit_ratio: true,
            score_every: 16,
        },
    )
}

fn run_miss(ctx: &Ctx) -> Run {
    run(
        ctx,
        &Spec {
            files_per_disk: ctx.size(16, 4),
            file_bytes: 512 << 10,
            queries_per_tick: 1,
            wide_pool: true,
            cache_ttl: GrayDuration::from_secs(3600),
            cache_capacity: 8,
            admission_budget: 64,
            churn_every: 50,
            warmup_ticks: 10,
            slice_ticks: ctx.size(50, 10),
            slices: ctx.slices(3.0, 2),
            quality_is_hit_ratio: false,
            score_every: 1,
        },
    )
}

/// The finite pool of query shapes the tenants draw from: one per file,
/// one sweep per disk, a memory estimate and a layout order, and for the
/// wide pool a dirty-residue estimate and an allocation.
pub(crate) fn query_pool(files: &[(String, u64)], files_per_disk: usize, wide: bool) -> Vec<Query> {
    let mut pool: Vec<Query> = files
        .iter()
        .map(|f| Query::FccdClassify {
            files: vec![f.clone()],
        })
        .collect();
    for disk in files.chunks(files_per_disk) {
        pool.push(Query::FccdClassify {
            files: disk.to_vec(),
        });
    }
    pool.push(Query::MacAvailable { ceiling: 8 << 20 });
    pool.push(Query::FldcOrder { dir: "/".into() });
    if wide {
        pool.push(Query::WbdResidue { calib_pages: 8 });
        pool.push(Query::GbAlloc {
            min: 1 << 20,
            max: 8 << 20,
            multiple: 1 << 20,
        });
    }
    pool
}

/// A seeded half of `files`.
fn half(files: &[(String, u64)], seed: u64, salt: u64) -> Vec<(String, u64)> {
    files
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            let mut s = seed ^ salt ^ (*i as u64).wrapping_mul(0xA5A5);
            splitmix(&mut s) & 1 == 0
        })
        .map(|(_, f)| f.clone())
        .collect()
}

/// One reply with what is needed to check and score it.
struct Served {
    shape: usize,
    response: Option<Response>,
}

/// What one tick did.
struct Tick {
    /// Host seconds from the first submit to the last take.
    host_s: f64,
    /// Virtual instant the tick began.
    began: u64,
    served: Vec<Served>,
    stats: TickStats,
}

/// The machine, the daemon and its tenants.
struct Bench<'a> {
    spec: &'a Spec,
    seed: u64,
    sim: Sim,
    gbd: Gbd,
    clients: Vec<GbdClient>,
    files: Vec<(String, u64)>,
    pool: Vec<Query>,
    rng: Vec<u64>,
    ticks: usize,
    churns: u64,
}

impl<'a> Bench<'a> {
    fn build(ctx: &Ctx, spec: &'a Spec) -> Self {
        let mut sim = scenario::daemon_machine(DISKS, DISKS);
        let files = scenario::spread_corpus(&mut sim, DISKS, spec.files_per_disk, spec.file_bytes);
        // Every other file starts warm. The first warm set is not seeded:
        // `gbd_hot` never churns, so its few sweeps would be scored against
        // one seeded draw and precision would swing from seed to seed.
        let warm: Vec<_> = files.iter().step_by(2).cloned().collect();
        scenario::warm(&mut sim, &warm);
        let cfg = GbdConfig {
            cache_ttl: spec.cache_ttl,
            cache_capacity: spec.cache_capacity,
            admission_budget: spec.admission_budget,
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
            max_tenants: TENANTS,
            ..GbdConfig::default()
        };
        let policy = cfg.churn_policy();
        let mut gbd = Gbd::new(cfg, Box::new(policy));
        let clients = (0..TENANTS)
            .map(|i| {
                gbd.register_tenant(&format!("tenant{i:02}"))
                    .expect("within max_tenants")
            })
            .collect();
        let pool = query_pool(&files, spec.files_per_disk, spec.wide_pool);
        Bench {
            spec,
            seed: ctx.seed,
            sim,
            gbd,
            clients,
            files,
            pool,
            rng: (0..TENANTS as u64)
                .map(|t| ctx.seed.wrapping_mul(0x6762_6400).wrapping_add(t))
                .collect(),
            ticks: 0,
            churns: 0,
        }
    }

    /// One closed-loop tick: every tenant submits, the daemon serves, every
    /// tenant redeems.
    fn tick(&mut self) -> Tick {
        let op_id = self.ticks as u64;
        if self.spec.churn_every > 0
            && self.ticks > 0
            && self.ticks.is_multiple_of(self.spec.churn_every)
        {
            self.churns += 1;
            let keep = half(&self.files, self.seed, self.churns);
            let _s = span::enter("scenario.churn", op_id);
            scenario::churn(&mut self.sim, &keep);
        }
        {
            let _s = span::enter("simos.run_one", op_id);
            self.sim.run_one(|os| os.sleep(THINK));
        }
        self.ticks += 1;
        let began = self.sim.now().as_nanos();
        let per_tick = TENANTS * self.spec.queries_per_tick;
        let mut tickets = Vec::with_capacity(per_tick);

        let t0 = Instant::now();
        {
            let _s = span::enter("gbd.submit", op_id);
            for (t, client) in self.clients.iter().enumerate() {
                for _ in 0..self.spec.queries_per_tick {
                    let shape = (splitmix(&mut self.rng[t]) as usize) % self.pool.len();
                    tickets.push((t, shape, client.submit(self.pool[shape].clone())));
                }
            }
        }
        let stats = {
            let _s = span::enter("gbd.serve", op_id);
            self.gbd.serve(&mut self.sim)
        };
        let served: Vec<Served> = {
            let _s = span::enter("gbd.take", op_id);
            tickets
                .into_iter()
                .map(|(t, shape, ticket)| Served {
                    shape,
                    response: self.clients[t].take(ticket),
                })
                .collect()
        };
        Tick {
            host_s: t0.elapsed().as_secs_f64(),
            began,
            served,
            stats,
        }
    }
}

/// Tallies over the scored ticks.
#[derive(Default)]
struct Tally {
    tp: u64,
    fp: u64,
    fneg: u64,
    mac_err_sum: f64,
    mac_n: u64,
    separation_min: f64,
    digest: u64,
}

impl Tally {
    /// Checks one reply against the query that asked for it, joins it to
    /// the oracle and folds it into the digest.
    fn score(&mut self, run: &mut Run, bench: &Bench, served: &Served) {
        let Some(resp) = &served.response else { return };
        let mut h = fnv(self.digest, resp.served_at.as_nanos());
        h = fnv(h, resp.from_cache as u64);
        match (&bench.pool[served.shape], &resp.reply) {
            (
                Query::FccdClassify { files },
                Reply::Classified {
                    cached,
                    uncached,
                    separation,
                },
            ) => {
                let mut answered: Vec<&str> = cached
                    .iter()
                    .chain(uncached)
                    .map(|r| r.path.as_str())
                    .collect();
                answered.sort_unstable();
                let mut asked: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
                asked.sort_unstable();
                run.check(answered == asked, || {
                    "gbd: cached ∪ uncached differs from the files asked".into()
                });
                let verdicts = cached
                    .iter()
                    .map(|r| (r.path.as_str(), true))
                    .chain(uncached.iter().map(|r| (r.path.as_str(), false)));
                let s = score_fccd_verdicts(&bench.sim.oracle(), verdicts);
                self.tp += s.true_positives;
                self.fp += s.false_positives;
                self.fneg += s.false_negatives;
                if !resp.from_cache {
                    self.separation_min = self.separation_min.min(*separation);
                }
                for r in cached {
                    h = fnv_str(h, &r.path);
                }
                h = fnv(h, separation.to_bits());
            }
            (Query::MacAvailable { .. }, Reply::Available { bytes }) => {
                let oracle = bench.sim.oracle();
                let free = oracle
                    .total_pages()
                    .saturating_sub(oracle.resident_pages() as u64)
                    * 4096;
                if free > 0 {
                    self.mac_err_sum += (*bytes as f64 - free as f64).abs() / free as f64;
                    self.mac_n += 1;
                }
                h = fnv(h, *bytes);
            }
            (Query::GbAlloc { .. }, Reply::Granted { bytes }) => h = fnv(h, *bytes),
            (Query::FldcOrder { .. }, Reply::Layout { order }) => {
                for p in order {
                    h = fnv_str(h, p);
                }
            }
            (Query::WbdResidue { .. }, Reply::Residue { pages }) => h = fnv(h, *pages),
            (_, Reply::Shed | Reply::Failed(_)) => {}
            (q, r) => run.check(false, || format!("gbd: {q:?} was answered {r:?}")),
        }
        self.digest = h;
    }
}

fn delta(after: &GbdStats, before: &GbdStats) -> [(&'static str, f64); 7] {
    [
        ("gbd.queries", (after.queries - before.queries) as f64),
        ("gbd.coalesced", (after.coalesced - before.coalesced) as f64),
        ("gbd.shed", (after.shed - before.shed) as f64),
        ("gbd.reinfers", (after.reinfers - before.reinfers) as f64),
        (
            "gbd.invalidated",
            (after.invalidated - before.invalidated) as f64,
        ),
        (
            "gbd.capacity_evictions",
            (after.capacity_evictions - before.capacity_evictions) as f64,
        ),
        ("sched.waves", (after.waves - before.waves) as f64),
    ]
}

fn run(ctx: &Ctx, spec: &Spec) -> Run {
    let mut run = Run::default();

    // Set-up, several times over: machine, corpus, warm half, daemon,
    // tenants and the untimed warm-up ticks that fill the cache. Equal
    // set-ups must replay to equal digests.
    let mut warm_digests = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take()); // one machine at a time, so peak memory is one machine's
        let (bench, digest) = run.setup(|| {
            let mut bench = Bench::build(ctx, spec);
            let mut digest = FNV_START;
            for _ in 0..spec.warmup_ticks {
                for s in &bench.tick().served {
                    if let Some(r) = &s.response {
                        digest = fnv(digest, r.served_at.as_nanos());
                        digest = fnv(digest, s.shape as u64);
                    }
                }
            }
            (bench, digest)
        });
        warm_digests.push(digest);
        built = Some(bench);
    }
    let mut bench = built.expect("SETUP_REPEATS is at least one");
    run.check(warm_digests.windows(2).all(|w| w[0] == w[1]), || {
        format!("gbd: equal set-ups replayed to different digests {warm_digests:x?}")
    });

    let stats0 = *bench.gbd.stats();
    let kernel0 = bench.sim.oracle().stats();
    let backoffs0 = bench.gbd.admission_backoffs();
    let mut tally = Tally {
        separation_min: 1.0,
        digest: FNV_START,
        ..Tally::default()
    };
    let mut executed = 0u64;
    let mut budget_min = usize::MAX;
    let mut tick_host_us = Vec::new();

    for _ in 0..spec.slices {
        let mut host_s = 0.0;
        let mut ops = 0u64;
        run.begin_slice();
        for _ in 0..spec.slice_ticks {
            let scored = bench.ticks.is_multiple_of(spec.score_every);
            let tick = bench.tick();
            host_s += tick.host_s;
            tick_host_us.push(tick.host_s * 1e6);
            ops += tick.served.len() as u64;
            executed += tick.stats.executed as u64;
            budget_min = budget_min.min(tick.stats.budget);
            for s in &tick.served {
                match &s.response {
                    None
                    | Some(Response {
                        reply: Reply::Shed | Reply::Failed(_),
                        ..
                    }) => run.failed += 1,
                    Some(r) => match r.served_at.as_nanos().saturating_sub(tick.began) {
                        0 => run.zero_latency_ops += 1,
                        ns => run.latencies_ns.push(ns),
                    },
                }
                if scored {
                    tally.score(&mut run, &bench, s);
                }
            }
        }
        run.slice(ops, host_s);
    }

    let stats = *bench.gbd.stats();
    for (name, v) in delta(&stats, &stats0) {
        run.layer.insert(name, v);
    }
    let queries = (stats.queries - stats0.queries).max(1) as f64;
    let hit_ratio = (stats.hits - stats0.hits) as f64 / queries;
    run.layer.insert("gbd.hit_ratio", hit_ratio);
    run.layer.insert(
        "gbd.admission_backoffs",
        (bench.gbd.admission_backoffs() - backoffs0) as f64,
    );
    run.kernel_delta(&bench.sim.oracle().stats(), &kernel0);

    let precision = ratio(tally.tp, tally.tp + tally.fp);
    run.quality = if spec.quality_is_hit_ratio {
        hit_ratio
    } else {
        precision
    };
    run.digest = run
        .latencies_ns
        .iter()
        .fold(tally.digest, |h, &ns| fnv(h, ns));
    run.layer.insert("gbd.executed", executed as f64);
    run.layer.insert("gbd.budget_min", budget_min as f64);
    run.layer.insert("gbd.serve_busy_s", run.timed_s);
    run.layer
        .insert("gbd.tick_host_p50_us", median(&tick_host_us));
    tick_host_us.sort_by(f64::total_cmp);
    run.layer.insert(
        "gbd.tick_host_p99_us",
        tick_host_us[(tick_host_us.len() * 99 / 100).min(tick_host_us.len() - 1)],
    );
    run.layer.insert("core.fccd.precision", precision);
    run.layer
        .insert("core.fccd.recall", ratio(tally.tp, tally.tp + tally.fneg));
    run.layer
        .insert("core.fccd.separation_min", tally.separation_min);
    if tally.mac_n > 0 {
        run.layer
            .insert("core.mac.rel_err", tally.mac_err_sum / tally.mac_n as f64);
    }
    run
}
