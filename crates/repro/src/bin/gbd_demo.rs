//! gbd-demo: two tenants sharing one inference daemon.
//!
//! A narrated walk through the daemon's moving parts on a four-disk
//! machine: two tenants query the same daemon, their probe plans pool
//! into shared scheduler waves, repeats hit the inference cache, and a
//! churned file shows the churn-aware staleness policy evicting and
//! re-inferring a contradicted entry.
//!
//! ```text
//! gbd-demo [--trace [path]] [--profile [path]]
//! ```
//!
//! With `--trace`, every event streams to JSONL (default path
//! `gray-trace.jsonl`), and `--profile` writes the folded virtual-time
//! profile; either way the run ends with the in-process timeline
//! (`render_timeline`) of the last ticks.

use gbd::{render_gray_top, Gbd, GbdConfig, Query, Reply};
use gray_sched::SchedConfig;
use gray_toolbox::trace;
use graybox::fccd::FccdParams;
use repro::{Flags, Tracing};
use simos::scenario;

const USAGE: &str = "usage: gbd-demo [--trace [path]] [--profile [path]]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = Flags::parse_or_exit(&args, false, USAGE);
    let tracing = Tracing::start(&flags);
    // No JSONL sink: still capture into the ring for the timeline.
    let _ring = (!trace::enabled()).then(trace::capture);

    let disks = 4;
    let mut sim = scenario::daemon_machine(disks, disks);
    let files = scenario::spread_corpus(&mut sim, disks, 2, 1 << 20);
    // Warm one file per disk so FCCD has real structure to find.
    let warm: Vec<_> = files.iter().step_by(2).cloned().collect();
    scenario::warm(&mut sim, &warm);

    let cfg = GbdConfig {
        // Long TTL so tick 3 exercises churn invalidation, not expiry.
        cache_ttl: gray_toolbox::GrayDuration::from_secs(600),
        fccd: FccdParams {
            access_unit: 1 << 20,
            prediction_unit: 256 << 10,
            ..FccdParams::default()
        },
        // Sub-batch 1 so concurrent plans interleave probe by probe and
        // the tenants' disk waits genuinely overlap within a wave.
        sched: SchedConfig {
            concurrency: disks,
            sub_batch: 1,
        },
        ..GbdConfig::default()
    };
    let policy = cfg.churn_policy();
    let mut gbd = Gbd::new(cfg, Box::new(policy));
    let alice = gbd.register_tenant("alice").expect("tenant slot");
    let bob = gbd.register_tenant("bob").expect("tenant slot");

    // Alice watches the first two disks' files, Bob the other two: their
    // plans land on different disks, so one shared wave overlaps them.
    let half = files.len() / 2;
    let alice_q = Query::FccdClassify {
        files: files[..half].to_vec(),
    };
    let bob_q = Query::FccdClassify {
        files: files[half..].to_vec(),
    };

    println!("== tick 1: cold cache, both tenants probe (shared waves) ==");
    let t_a = alice.submit(alice_q.clone());
    let t_b = bob.submit(bob_q.clone());
    let tick = gbd.serve(&mut sim);
    println!(
        "   {} queries, {} executed, {} hits",
        tick.queries, tick.executed, tick.hits
    );
    for (name, client, ticket) in [("alice", &alice, t_a), ("bob", &bob, t_b)] {
        let resp = client.take(ticket).expect("served");
        if let Reply::Classified {
            cached, uncached, ..
        } = &resp.reply
        {
            println!(
                "   {name}: {} cached / {} uncached (from_cache={})",
                cached.len(),
                uncached.len(),
                resp.from_cache
            );
        }
    }

    println!("== tick 2: repeats hit the cache; bob asks MAC too ==");
    let t_a = alice.submit(alice_q.clone());
    let t_b = bob.submit(bob_q);
    let t_m = bob.submit(Query::MacAvailable { ceiling: 16 << 20 });
    let tick = gbd.serve(&mut sim);
    println!(
        "   {} queries, {} hits, {} executed",
        tick.queries, tick.hits, tick.executed
    );
    assert!(alice.take(t_a).expect("served").from_cache);
    assert!(bob.take(t_b).expect("served").from_cache);
    if let Reply::Available { bytes } = bob.take(t_m).expect("served").reply {
        println!("   bob: ~{} MB available", bytes >> 20);
    }

    println!("== churn: evict everything, re-warm the other half ==");
    let rewarm: Vec<_> = files.iter().skip(1).step_by(2).cloned().collect();
    scenario::churn(&mut sim, &rewarm);

    println!("== tick 3: alice re-probes; churn-aware policy re-infers ==");
    // Alice's entry has TTL left, but her files' residency flipped. A
    // fresh probe pass (bob probing an overlapping superset, a distinct
    // cache key) contradicts her entry and forces a re-inference.
    let t_b = bob.submit(Query::FccdClassify {
        files: files[..half + 1].to_vec(),
    });
    let tick = gbd.serve(&mut sim);
    println!(
        "   {} executed, {} invalidated-and-reinfered",
        tick.executed, tick.reinfers
    );
    let _ = bob.take(t_b);
    let t_a = alice.submit(alice_q);
    let tick = gbd.serve(&mut sim);
    println!(
        "   alice repeats her query: {} hits (re-inferred entry)",
        tick.hits
    );
    let _ = alice.take(t_a);

    println!();
    println!("== per-tenant accounting ==");
    for t in gbd.tenants() {
        println!(
            "   {:<8} lane {:>3}: {} queries, {} hits, {} shed",
            t.name, t.lane, t.stats.queries, t.stats.hits, t.stats.shed
        );
    }
    let s = gbd.stats();
    println!(
        "   daemon: {} ticks, {} queries, {} hits, {} coalesced, {} shed, \
         {} reinfers, {} waves",
        s.ticks, s.queries, s.hits, s.coalesced, s.shed, s.reinfers, s.waves
    );

    println!();
    println!("== gray-top: metrics snapshot via the query path ==");
    // The snapshot is itself a query: it rides the same submit/serve/take
    // path as inference, costs zero virtual time, and is never cached.
    let t_m = alice.submit(Query::MetricsSnapshot);
    gbd.serve(&mut sim);
    let resp = alice.take(t_m).expect("served");
    if let Reply::Metrics(m) = resp.reply {
        print!("{}", render_gray_top(&m));
        println!("METRICS_JSON {}", m.to_json());
    }

    println!();
    println!("== trace timeline (per wave, per tenant/plan lane) ==");
    print!("{}", trace::render_timeline(&trace::drain()));
    tracing.finish();
}
