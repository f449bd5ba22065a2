//! Equivalence properties for the batched probe engine.
//!
//! For any cache state, the batched (`probe_batch`) and scalar
//! (per-probe `timed(read_byte)`) probe paths must classify that state
//! identically: the same per-unit measurements, the same extents, and
//! the same fastest-first sort order. Under simos this is bit-exact by
//! construction — the kernel's batch services each probe with the exact
//! scalar charging sequence, so virtual times and the noise stream
//! match; the tests here are the executable form of that claim.
//!
//! Replay recipes — the harness prints the failing case's seed in a
//! banner; rerun it (or widen the sweep) with:
//!
//! ```text
//! PROP_SEED=0x<seed> cargo test -q batched_and_scalar_classify_identically_under_mock
//! PROP_SEED=0x<seed> cargo test -q batched_and_scalar_classify_identically_under_simos
//! PROP_CASES=200 cargo test -q --test probe_equivalence
//! ```

use graybox_icl::apps::workload::make_file;
use graybox_icl::graybox::fccd::{Fccd, FccdParams};
use graybox_icl::graybox::mock::MockOs;
use graybox_icl::graybox::os::{GrayBoxOs, GrayBoxOsExt, ProbeSample, ProbeSpec};
use graybox_icl::simos::{Sim, SimConfig};
use graybox_icl::toolbox::prop::{check, Gen};

/// Random file geometry, random warm pages, mock backend: both probe
/// paths must yield identical unit measurements and identical plans.
#[test]
fn batched_and_scalar_classify_identically_under_mock() {
    check(
        "batched_and_scalar_classify_identically_under_mock",
        48,
        |g: &mut Gen| {
            let page = 4096u64;
            let unit_pages = g.u64(1..6);
            let access_unit = unit_pages * page;
            let units = g.u64(1..10);
            // A ragged tail exercises the final short access unit.
            let size = units * access_unit + g.u64(0..access_unit);
            let params = FccdParams {
                access_unit,
                prediction_unit: page,
                probe_rounds: g.range(1u32..4),
                seed: g.u64(1..u64::MAX),
                ..FccdParams::default()
            };
            let total_pages = size.div_ceil(page);
            let warm: Vec<u64> = (0..total_pages).filter(|_| g.bool()).collect();

            let run = |batched: bool| {
                let os = MockOs::new(1 << 20, 16);
                os.write_file("/f", &vec![0u8; size as usize]).unwrap();
                os.flush_cache();
                os.warm("/f", warm.iter().copied());
                let fccd = Fccd::with_fixed_seed(&os, params.clone());
                let fd = os.open("/f").unwrap();
                let report = if batched {
                    fccd.probe_file(fd, size)
                } else {
                    fccd.probe_file_scalar(fd, size)
                };
                os.close(fd).unwrap();
                report
            };
            let batched = run(true);
            let scalar = run(false);
            assert_eq!(batched.units, scalar.units, "unit measurements diverge");
            assert_eq!(batched.plan(), scalar.plan(), "plan order diverges");
        },
    );
}

/// The same property end to end through the simulated kernel: two
/// identically prepared machines, one probed through the vectored
/// batch syscall, one through individual timed reads, must report
/// bit-identical measurements (the batch replays the scalar charging
/// sequence per probe) and therefore identical plans.
#[test]
fn batched_and_scalar_classify_identically_under_simos() {
    check(
        "batched_and_scalar_classify_identically_under_simos",
        12,
        |g: &mut Gen| {
            let access_unit = 1u64 << 20;
            let units = g.u64(1..6);
            let size = units * access_unit;
            let params = FccdParams {
                access_unit,
                prediction_unit: 256 << 10,
                probe_rounds: g.range(1u32..3),
                seed: g.u64(1..u64::MAX),
                ..FccdParams::default()
            };
            // Warm a random subset of access units.
            let warm: Vec<u64> = (0..units).filter(|_| g.bool()).collect();
            let edge = g.u64(0..size - (8 << 12));

            let run = |batched: bool| {
                let mut sim = Sim::new(SimConfig::small());
                sim.run_one(move |os| make_file(os, "/f", size).unwrap());
                sim.flush_file_cache();
                let warm = warm.clone();
                let params = params.clone();
                let (report, edges, atime) = sim.run_one(move |os| {
                    let fd = os.open("/f").unwrap();
                    for &u in &warm {
                        os.read_discard(fd, u * access_unit, access_unit).unwrap();
                    }
                    let fccd = Fccd::with_fixed_seed(os, params);
                    let report = if batched {
                        fccd.probe_file(fd, size)
                    } else {
                        fccd.probe_file_scalar(fd, size)
                    };
                    // The batch's edges, raw: a repeated offset, a run of
                    // consecutive pages that walks off the initial
                    // readahead window, an offset past EOF — then the
                    // same specs on a closed descriptor.
                    let page = os.page_size();
                    let specs: Vec<ProbeSpec> = [edge, edge]
                        .into_iter()
                        .chain((1..7).map(|k| edge + k * page))
                        .chain([size + page])
                        .map(|offset| ProbeSpec { offset })
                        .collect();
                    let probe = |fd| {
                        if batched {
                            return os.probe_batch(fd, &specs);
                        }
                        let one = |spec: &ProbeSpec| {
                            let (res, elapsed) = os.timed(|os| os.read_byte(fd, spec.offset));
                            ProbeSample {
                                offset: spec.offset,
                                elapsed,
                                ok: res.is_ok(),
                            }
                        };
                        specs.iter().map(one).collect()
                    };
                    let mut edges = probe(fd);
                    os.close(fd).unwrap();
                    edges.extend(probe(fd));
                    (report, edges, os.stat("/f").unwrap().atime)
                });
                let presence = sim.oracle().file_presence("/f").unwrap();
                (report, edges, atime, sim.now(), presence)
            };
            let (batched, b_edges, b_atime, b_now, b_presence) = run(true);
            let (scalar, s_edges, s_atime, s_now, s_presence) = run(false);
            assert_eq!(batched.units, scalar.units, "unit measurements diverge");
            assert_eq!(batched.plan(), scalar.plan(), "plan order diverges");
            assert_eq!(b_edges, s_edges, "edge samples diverge");
            assert!(
                b_edges[..8].iter().all(|s| s.ok),
                "in-range probes read a byte"
            );
            assert!(
                b_edges[8..].iter().all(|s| !s.ok),
                "past EOF and closed fd fail"
            );
            assert_eq!(b_now, s_now, "virtual clocks diverge");
            assert_eq!(b_presence, s_presence, "resident pages diverge");
            assert_eq!(b_atime, s_atime, "atime diverges");
        },
    );
}
