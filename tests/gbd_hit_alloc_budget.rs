//! A cached hit allocates nothing.
//!
//! On a hit the daemon writes the query's key, looks it up and posts the
//! cached reply. The key is written into one buffer the daemon keeps
//! across queries and ticks, without `core::fmt`. The reply's rank lists
//! are the cache entry's own, shared by reference count, so handing them
//! out copies no `Vec` and no path `String`. The mailbox routes replies
//! through a hash map that keeps its capacity. What is left is one
//! allocation a tick, not a hit: the inbox the drain leaves behind. A
//! reply copied out of the cache would cost its rank `Vec` and a path
//! `String` per rank, two allocations a single-file hit. This pins it the
//! way `mac_alloc_budget.rs` pins MAC: a counting allocator, no clock.
//!
//! One `#[test]` only (see `counting_alloc`).

mod counting_alloc;

use counting_alloc::counted;
use graybox_icl::gbd::{Gbd, GbdConfig, Query, Reply};
use graybox_icl::graybox::fccd::FccdParams;
use graybox_icl::sched::SchedConfig;
use graybox_icl::simos::scenario;
use graybox_icl::toolbox::GrayDuration;

const DISKS: usize = 4;
const TENANTS: usize = 24;
const QUERIES_PER_TENANT: usize = 10;
const TICKS: usize = 8;
/// What a tick may allocate, however many hits it serves: the inbox the
/// drain leaves behind, sized to the batch it took.
const PER_TICK: u64 = 4;

#[test]
fn a_cached_hit_allocates_nothing() {
    let mut sim = scenario::daemon_machine(DISKS, DISKS);
    let files = scenario::spread_corpus(&mut sim, DISKS, 3, 512 << 10);
    let warm: Vec<_> = files.iter().step_by(2).cloned().collect();
    scenario::warm(&mut sim, &warm);
    let cfg = GbdConfig {
        cache_ttl: GrayDuration::from_secs(3600),
        admission_budget: 64,
        max_tenants: TENANTS,
        fccd: FccdParams {
            access_unit: 1 << 20,
            prediction_unit: 256 << 10,
            ..FccdParams::default()
        },
        sched: SchedConfig {
            concurrency: DISKS,
            sub_batch: 1,
        },
        ..GbdConfig::default()
    };
    let policy = cfg.churn_policy();
    let mut gbd = Gbd::new(cfg, Box::new(policy));
    let clients: Vec<_> = (0..TENANTS)
        .map(|i| gbd.register_tenant(&format!("tenant{i:02}")).unwrap())
        .collect();
    let per_tick = TENANTS * QUERIES_PER_TENANT;
    let (mut tickets, mut responses) = (Vec::with_capacity(per_tick), Vec::with_capacity(per_tick));

    // One tick infers every file once; the ticks after it only hit. The
    // tenants' own query clones are made before counting starts.
    let mut calls = 0;
    for tick in 0..=TICKS {
        let batch: Vec<(usize, Query)> = (0..per_tick)
            .map(|i| {
                let file = files[i % files.len()].clone();
                (
                    i / QUERIES_PER_TENANT,
                    Query::FccdClassify { files: vec![file] },
                )
            })
            .collect();
        let ((), n, _bytes) = counted(|| {
            for (t, q) in batch {
                tickets.push((t, clients[t].submit(q)));
            }
            gbd.serve(&mut sim);
            for (t, ticket) in tickets.drain(..) {
                responses.push(clients[t].take(ticket));
            }
        });
        for resp in responses.drain(..) {
            let resp = resp.expect("served in its tick");
            assert!(matches!(resp.reply, Reply::Classified { .. }), "{resp:?}");
            assert_eq!(resp.from_cache, tick > 0);
        }
        if tick > 0 {
            calls += n;
        }
    }

    let hits = (TICKS * TENANTS * QUERIES_PER_TENANT) as u64;
    assert_eq!(gbd.stats().hits, hits);
    println!(
        "{calls} allocations for {hits} hits in {TICKS} ticks: {:.2} a hit",
        calls as f64 / hits as f64
    );
    assert!(
        calls <= PER_TICK * TICKS as u64,
        "{calls} allocations for {hits} hits in {TICKS} ticks: a hit allocates"
    );
}
