//! Cache-staleness policy coverage for the inference daemon (`gbd`).
//!
//! The scenario the staleness trait exists for: a tenant caches an FCCD
//! classification, then the page cache churns *behind the daemon* — the
//! oracle flips exactly which files are resident. A later overlapping
//! probe pass produces verdicts that contradict the cached entry, and
//! the two shipped policies must diverge:
//!
//! - **churn-aware**: the contradicted entry is evicted and re-inferred
//!   in the same tick, so the tenant's repeat query answers the *new*
//!   truth (checked against the oracle) well before TTL expiry;
//! - **TTL-only**: churn is invisible, so the repeat query serves the
//!   stale pre-churn answer until the virtual clock passes the TTL, at
//!   which point the entry expires and a fresh execution answers the
//!   new truth.
//!
//! Both daemons run on identically-booted machines and the whole case is
//! drawn from the property harness, so a failure replays exactly:
//!
//! ```text
//! PROP_SEED=0x<seed> cargo test -q --test gbd_staleness
//! ```

use graybox_icl::gbd::{Gbd, GbdConfig, Query, Reply, Response};
use graybox_icl::graybox::fccd::FccdParams;
use graybox_icl::sched::SchedConfig;
use graybox_icl::simos::{scenario, Sim};
use graybox_icl::toolbox::prop::{check, Gen};
use graybox_icl::toolbox::trace::{self, TraceEvent};
use graybox_icl::toolbox::GrayDuration;

/// Virtual TTL: far above the probe time of a few small files, so the
/// mid-run repeat query is a staleness decision, not an expiry.
const TTL: GrayDuration = GrayDuration::from_secs(30);
const FILE_BYTES: u64 = 2 << 20;

/// Builds one daemon machine with `nfiles` cold files and warms the
/// subset selected by `mask`.
fn boot(nfiles: usize, mask: &[bool]) -> (Sim, Vec<(String, u64)>) {
    let mut sim = scenario::daemon_machine(2, 2);
    let files = scenario::spread_corpus(&mut sim, 2, nfiles.div_ceil(2), FILE_BYTES);
    let files: Vec<(String, u64)> = files.into_iter().take(nfiles).collect();
    let warm: Vec<(String, u64)> = files
        .iter()
        .zip(mask)
        .filter(|(_, &m)| m)
        .map(|(f, _)| f.clone())
        .collect();
    scenario::warm(&mut sim, &warm);
    (sim, files)
}

/// A daemon configuration with a deterministic FCCD geometry sized for
/// the small machine.
fn config(seed: u64) -> GbdConfig {
    GbdConfig {
        cache_ttl: TTL,
        fccd: FccdParams {
            access_unit: 1 << 20,
            prediction_unit: 256 << 10,
            seed,
            ..FccdParams::default()
        },
        sched: SchedConfig {
            concurrency: 1,
            sub_batch: 0,
        },
        ..GbdConfig::default()
    }
}

/// A daemon with the given staleness policy over [`config`].
fn daemon(seed: u64, churn_aware: bool) -> Gbd {
    let cfg = config(seed);
    let policy: Box<dyn graybox_icl::gbd::StalenessPolicy> = if churn_aware {
        Box::new(cfg.churn_policy())
    } else {
        Box::new(cfg.ttl_policy())
    };
    Gbd::new(cfg, policy)
}

/// Asserts a classified reply agrees with the given residency mask.
fn assert_matches_mask(resp: &Response, files: &[(String, u64)], mask: &[bool], what: &str) {
    let Reply::Classified {
        cached, uncached, ..
    } = &resp.reply
    else {
        panic!("{what}: expected a classification, got {:?}", resp.reply);
    };
    for ((path, _), &warm) in files.iter().zip(mask) {
        let (should, shouldnt) = if warm {
            (cached, uncached)
        } else {
            (uncached, cached)
        };
        assert!(
            should.iter().any(|r| &r.path == path),
            "{what}: {path} (warm={warm}) missing from the expected split"
        );
        assert!(
            !shouldnt.iter().any(|r| &r.path == path),
            "{what}: {path} (warm={warm}) landed in the wrong split"
        );
    }
}

/// One full churn scenario against one policy. Returns (pre-churn reply,
/// post-churn repeat reply, reinfers observed in the contradiction tick).
fn play(
    seed: u64,
    files_mask: (&[(String, u64)], &[bool]),
    churn_aware: bool,
) -> (
    Sim,
    Gbd,
    graybox_icl::gbd::GbdClient,
    Response,
    Response,
    u64,
) {
    let (files, mask) = files_mask;
    let (mut sim, files_on_sim) = boot(files.len(), mask);
    assert_eq!(files, files_on_sim.as_slice(), "boot must be reproducible");
    let mut gbd = daemon(seed, churn_aware);
    let client = gbd.register_tenant("watcher").unwrap();
    let query = Query::FccdClassify {
        files: files.to_vec(),
    };

    // Tick 1: cold inference, cached.
    let t = client.submit(query.clone());
    gbd.serve(&mut sim);
    let first = client.take(t).expect("served");
    assert!(!first.from_cache);

    // The oracle flips residency behind the daemon: the complement of
    // the original warm set is re-warmed, everything else evicted.
    let flipped: Vec<(String, u64)> = files
        .iter()
        .zip(mask)
        .filter(|(_, &m)| !m)
        .map(|(f, _)| f.clone())
        .collect();
    scenario::churn(&mut sim, &flipped);

    // Tick 2: an overlapping probe pass with a *different* cache key —
    // the same files in reverse order — executes fresh and hands the
    // staleness policy verdicts that contradict the cached entry.
    let mut reversed = files.to_vec();
    reversed.reverse();
    let t = client.submit(Query::FccdClassify { files: reversed });
    let tick = gbd.serve(&mut sim);
    let _ = client.take(t).expect("served");
    let reinfers = tick.reinfers as u64;

    // Tick 3: the tenant repeats the original query, still inside TTL.
    let t = client.submit(query);
    gbd.serve(&mut sim);
    let repeat = client.take(t).expect("served");
    (sim, gbd, client, first, repeat, reinfers)
}

#[test]
fn churn_aware_reinfers_while_ttl_only_serves_stale_until_expiry() {
    check(
        "churn_aware_reinfers_while_ttl_only_serves_stale_until_expiry",
        4,
        |g: &mut Gen| {
            let seed = g.u64(1..u64::MAX);
            let nfiles = 4usize;
            // At least one warm and one cold file on each side of the
            // flip, so both classifications have two real classes.
            let mut mask = vec![false; nfiles];
            let warm_a = g.range(0usize..nfiles);
            let warm_b = (warm_a + 1 + g.range(0usize..nfiles - 1)) % nfiles;
            mask[warm_a] = true;
            mask[warm_b] = true;
            let flipped: Vec<bool> = mask.iter().map(|&m| !m).collect();
            let (_, files) = boot(nfiles, &mask);

            // Churn-aware: the contradiction tick evicts and re-infers,
            // so the repeat query hits a cache entry that answers the
            // *flipped* truth — long before TTL expiry.
            let (_, gbd, _, first, repeat, reinfers) = play(seed, (&files, &mask), true);
            assert_matches_mask(&first, &files, &mask, "churn-aware pre-churn");
            assert!(
                reinfers >= 1,
                "contradicted entry must re-infer in the churn tick"
            );
            assert!(repeat.from_cache, "re-inferred entry must serve the repeat");
            assert_matches_mask(&repeat, &files, &flipped, "churn-aware post-churn");
            assert!(gbd.stats().invalidated >= 1);

            // TTL-only: churn is invisible — the repeat inside TTL is the
            // stale pre-churn answer, bit-identical to the first reply.
            let (mut sim, mut gbd, client, first, repeat, reinfers) =
                play(seed, (&files, &mask), false);
            assert_eq!(reinfers, 0, "TTL-only must not react to churn");
            assert!(repeat.from_cache);
            assert_eq!(
                first.reply, repeat.reply,
                "TTL-only must serve the stale answer verbatim inside TTL"
            );
            assert_matches_mask(&repeat, &files, &mask, "TTL-only stale");

            // ...until the virtual clock passes the TTL: the entry
            // expires and a fresh execution answers the flipped truth.
            sim.run_one(|os| {
                use graybox_icl::graybox::os::GrayBoxOs;
                os.sleep(TTL + GrayDuration::from_secs(1));
            });
            let t = client.submit(Query::FccdClassify {
                files: files.clone(),
            });
            gbd.serve(&mut sim);
            let expired = client.take(t).expect("served");
            assert!(!expired.from_cache, "expired entry must re-execute");
            assert_matches_mask(&expired, &files, &flipped, "TTL-only post-expiry");
            assert!(gbd.stats().expired >= 1);
        },
    );
}

/// Every record a daemon tick emits — cache accesses, admissions, plans,
/// probes and verdicts — is stamped on the virtual clock: inside its
/// tick, between the drain instant and the machine's clock after
/// `serve`. One churn scenario, with a two-entry cache and a TTL expiry,
/// walks all six cache outcomes.
#[test]
fn every_record_of_a_tick_is_stamped_inside_it() {
    let mask = [true, false, true, false];
    let (mut sim, files) = boot(mask.len(), &mask);
    let cfg = GbdConfig {
        cache_capacity: 2,
        ..config(7)
    };
    let policy = Box::new(cfg.churn_policy());
    let mut gbd = Gbd::new(cfg, policy);
    let client = gbd.register_tenant("watcher").unwrap();
    let query = Query::FccdClassify {
        files: files.clone(),
    };
    let mut reversed = files.clone();
    reversed.reverse();

    let _capture = trace::capture();
    let mut outcomes = Vec::new();
    let mut tick = |sim: &mut Sim, gbd: &mut Gbd, query: Query| {
        let t = client.submit(query);
        let drained = sim.now();
        gbd.serve(sim);
        let end = sim.now();
        client.take(t).expect("served");
        for rec in trace::drain() {
            assert!(
                (drained..=end).contains(&rec.ts),
                "{:?} stamped {} outside its tick [{drained}, {end}]",
                rec.event,
                rec.ts
            );
            if let TraceEvent::CacheAccess { outcome, .. } = rec.event {
                outcomes.push(outcome);
            }
        }
    };
    // Miss; the churn tick's miss contradicts it (churned, reinfer); the
    // repeat hits; a third key evicts the oldest entry; past the TTL the
    // repeat has expired.
    tick(&mut sim, &mut gbd, query.clone());
    let flipped: Vec<(String, u64)> = files
        .iter()
        .zip(mask)
        .filter(|(_, m)| !m)
        .map(|(f, _)| f.clone())
        .collect();
    scenario::churn(&mut sim, &flipped);
    tick(&mut sim, &mut gbd, Query::FccdClassify { files: reversed });
    tick(&mut sim, &mut gbd, query.clone());
    let dir = "/d1".to_string();
    tick(&mut sim, &mut gbd, Query::FldcOrder { dir });
    sim.run_one(|os| {
        use graybox_icl::graybox::os::GrayBoxOs;
        os.sleep(TTL + GrayDuration::from_secs(1));
    });
    tick(&mut sim, &mut gbd, query);
    for outcome in ["hit", "miss", "expired", "churned", "reinfer", "evicted"] {
        assert!(
            outcomes.contains(&outcome),
            "no {outcome} record in {outcomes:?}"
        );
    }
}
