//! A cache hit allocates the reply it hands back, and nothing else.
//!
//! On a hit the daemon looks the query's key up, clones the cached reply
//! and posts it. The key is written into one buffer the daemon keeps
//! across queries and ticks, the mailbox routes replies through a hash map
//! that keeps its capacity, and a drain leaves the inbox room for the next
//! tick's sends — so the one allocation a hit is entitled to is the reply's
//! own: the rank `Vec` and one path `String` per rank. A single-file FCCD
//! reply has one rank, so two allocations a hit. When each hit built its
//! key from scratch, cloned the tenant's name and went through a
//! `BTreeMap` of replies, the same ticks made about seven. This pins it
//! the way `mac_alloc_budget.rs` pins MAC: a counting allocator, no clock.
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
/// What a tick may allocate beside its hits: the inbox the drain leaves
/// behind, sized to the batch it took.
const PER_TICK: u64 = 4;

#[test]
fn a_cached_hit_allocates_only_its_reply() {
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
        calls <= 2 * hits + PER_TICK * TICKS as u64,
        "{calls} allocations for {hits} hits: more than the reply each"
    );
}
