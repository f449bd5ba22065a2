//! Equivalence properties for the inference daemon (`gbd`).
//!
//! A single-tenant daemon at scheduler concurrency 1 must be invisible:
//! submitting an FCCD query through the mailbox, the cache-miss path,
//! admission, and the shared scheduler must classify bit-identically to
//! the direct one-shot `Fccd` path on an identically-booted machine —
//! and charge the same virtual time, because the daemon's bookkeeping
//! (cache lookups, admission counters, trace emission) never touches
//! the simulated clock. The same holds for a MAC availability query
//! against a direct `available_estimate`.
//!
//! This rests on the concurrency-1 scheduler equivalence pinned by
//! `tests/sched_equivalence.rs`: the daemon builds a fixed-seed `Fccd` in
//! its own process, keeps its planner (`Fccd::into_planner`), and
//! dispatches the planner's plans one at a time (`sub_batch` 0), exactly
//! the configuration that test proves issues the same syscalls in the
//! same order as inline `Fccd`. The daemon's probe offsets come from the
//! same fixed seed.
//!
//! Replay a failing case with the seed from the harness banner:
//!
//! ```text
//! PROP_SEED=0x<seed> cargo test -q --test gbd_equivalence
//! ```

use graybox_icl::gbd::{Gbd, GbdConfig, Query, Reply};
use graybox_icl::graybox::fccd::{classify_ranks, Fccd, FccdParams};
use graybox_icl::graybox::mac::{Mac, MacParams};
use graybox_icl::graybox::os::GrayBoxOs;
use graybox_icl::sched::SchedConfig;
use graybox_icl::simos::{Sim, SimConfig};
use graybox_icl::toolbox::prop::{check, Gen};

const ACCESS_UNIT: u64 = 1 << 20;

/// FCCD geometry proportioned to `SimConfig::small`, with a fixed probe
/// seed drawn by the property harness.
fn params(seed: u64) -> FccdParams {
    FccdParams {
        access_unit: ACCESS_UNIT,
        prediction_unit: 256 << 10,
        seed,
        ..FccdParams::default()
    }
}

/// A daemon configured to be equivalence-eligible: one-worker scheduler,
/// whole-plan batches, shared fixed seed.
fn serial_daemon(fccd: FccdParams) -> Gbd {
    let cfg = GbdConfig {
        fccd,
        sched: SchedConfig {
            concurrency: 1,
            sub_batch: 0,
        },
        ..GbdConfig::default()
    };
    let policy = cfg.churn_policy();
    Gbd::new(cfg, Box::new(policy))
}

/// Identical machines up to the moment the detector runs: same files,
/// same flush, same warm pattern, noise off so the claim is about the
/// daemon's plumbing rather than noise-stream alignment (which the
/// sched equivalence test already covers with noise on).
fn boot(files: &[(String, u64)], warm: &[Vec<u64>]) -> Sim {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let setup = files.to_vec();
    sim.run_one(move |os| {
        for (path, size) in &setup {
            let fd = os.create(path).unwrap();
            os.write_fill(fd, 0, *size).unwrap();
            os.close(fd).unwrap();
        }
    });
    sim.flush_file_cache();
    let warm_files: Vec<(String, Vec<u64>)> = files
        .iter()
        .zip(warm)
        .map(|((p, _), u)| (p.clone(), u.clone()))
        .collect();
    sim.run_one(move |os| {
        for (path, units) in &warm_files {
            let fd = os.open(path).unwrap();
            for &u in units {
                os.read_discard(fd, u * ACCESS_UNIT, ACCESS_UNIT).unwrap();
            }
            os.close(fd).unwrap();
        }
    });
    sim
}

/// Random file set and warm pattern: the daemon's answer and its final
/// virtual clock must both equal the direct one-shot path's.
#[test]
fn single_tenant_daemon_matches_direct_fccd_bit_for_bit() {
    check(
        "single_tenant_daemon_matches_direct_fccd_bit_for_bit",
        8,
        |g: &mut Gen| {
            let p = params(g.u64(1..u64::MAX));
            let nfiles = g.range(2usize..4);
            let files: Vec<(String, u64)> = (0..nfiles)
                .map(|i| (format!("/f{i}"), g.u64(1..4) * ACCESS_UNIT))
                .collect();
            let warm: Vec<Vec<u64>> = files
                .iter()
                .map(|(_, size)| (0..size / ACCESS_UNIT).filter(|_| g.bool()).collect())
                .collect();

            let (direct, direct_now) = {
                let mut sim = boot(&files, &warm);
                let paths: Vec<String> = files.iter().map(|(p, _)| p.clone()).collect();
                let p = p.clone();
                let ranks = sim.run_one(move |os| Fccd::with_fixed_seed(os, p).order_files(&paths));
                (classify_ranks(ranks), sim.now())
            };

            let mut sim = boot(&files, &warm);
            let mut gbd = serial_daemon(p);
            let client = gbd.register_tenant("solo").unwrap();
            let ticket = client.submit(Query::FccdClassify {
                files: files.clone(),
            });
            gbd.serve(&mut sim);
            let resp = client.take(ticket).expect("served in one tick");
            assert!(!resp.from_cache, "first query must execute, not hit");
            let Reply::Classified {
                cached,
                uncached,
                separation,
            } = resp.reply
            else {
                panic!("FCCD query must classify, got {:?}", resp.reply);
            };
            assert_eq!(direct.cached, *cached, "cached split diverges");
            assert_eq!(direct.uncached, *uncached, "uncached split diverges");
            assert_eq!(
                direct.separation.to_bits(),
                separation.to_bits(),
                "separation diverges"
            );
            assert_eq!(
                direct_now,
                sim.now(),
                "daemon path must charge identical virtual time"
            );
        },
    );
}

/// The MAC side of the same claim: one `MacAvailable` query through the
/// daemon equals a direct `available_estimate`, in value and in virtual
/// time charged.
#[test]
fn single_tenant_daemon_matches_direct_mac_estimate() {
    check(
        "single_tenant_daemon_matches_direct_mac_estimate",
        6,
        |g: &mut Gen| {
            let ceiling = g.u64(4..17) * ACCESS_UNIT;
            let cfg = GbdConfig::default();

            let (direct, direct_now) = {
                let mut sim = Sim::new(SimConfig::small().without_noise());
                let bytes = sim
                    .run_one(move |os| {
                        Mac::new(os, MacParams::default()).available_estimate(ceiling)
                    })
                    .unwrap();
                (bytes, sim.now())
            };

            let mut sim = Sim::new(SimConfig::small().without_noise());
            let policy = cfg.churn_policy();
            let mut gbd = Gbd::new(cfg, Box::new(policy));
            let client = gbd.register_tenant("solo").unwrap();
            let ticket = client.submit(Query::MacAvailable { ceiling });
            gbd.serve(&mut sim);
            let resp = client.take(ticket).expect("served in one tick");
            let Reply::Available { bytes } = resp.reply else {
                panic!("MAC query must estimate, got {:?}", resp.reply);
            };
            assert_eq!(direct, bytes, "availability estimate diverges");
            assert_eq!(
                direct_now,
                sim.now(),
                "daemon path must charge identical virtual time"
            );
        },
    );
}
