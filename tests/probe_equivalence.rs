//! Equivalence properties for the batched probe engine.
//!
//! For any cache state, the batched (`probe_batch`) and scalar
//! (per-probe `timed(read_byte)`) probe paths must classify that state
//! identically: the same per-unit measurements, the same extents, and
//! the same fastest-first sort order. Under simos this is bit-exact by
//! construction — the kernel's batch services each probe with the exact
//! scalar charging sequence, so virtual times and the noise stream
//! match; the tests here are the executable form of that claim. Both
//! sides run under armed profile and trace captures, and must also charge
//! the same virtual time to each process and each charge kind, charge
//! every nanosecond a clock moves, and leave the same trace stamp. The
//! memory-side batch (`mem_probe_batch`, MAC's probe) gets the same
//! treatment at the kernel's own surface, where a second process can be
//! stepped at fixed points.
//!
//! Replay recipes — the harness prints the failing case's seed in a
//! banner; rerun it (or widen the sweep) with:
//!
//! ```text
//! PROP_SEED=0x<seed> cargo test -q batched_and_scalar_classify_identically_under_simos
//! PROP_SEED=0x<seed> cargo test -q mem_batch_and_scalar_touch_identically_under_simos
//! PROP_CASES=200 cargo test -q --test probe_equivalence
//! ```

use graybox_icl::apps::workload::make_file;
use graybox_icl::graybox::fccd::{Fccd, FccdParams, FileProbeReport};
use graybox_icl::graybox::os::{Fd, GrayBoxOs, ProbeSample, ProbeSpec};
use graybox_icl::simos::cache::Owner;
use graybox_icl::simos::kernel::Kernel;
use graybox_icl::simos::{NoiseParams, Sim, SimConfig, PAGE_SIZE};
use graybox_icl::toolbox::prop::{check, Gen};
use graybox_icl::toolbox::trace::{self, TraceEvent};
use graybox_icl::toolbox::{profile, GrayDuration, Nanos};

/// What a run charged, read from the profile and trace captures it ran
/// under: virtual time per process and per charge kind, and the stamp
/// of each [`mark`]. The attribution paths differ on purpose — a batch's
/// charges sit under its own op frame — so the leaves are not compared.
#[derive(Debug, PartialEq)]
struct Observed {
    by_pid: Vec<(u64, u64)>,
    by_kind: Vec<(String, u64)>,
    marks: Vec<Nanos>,
}

/// Records the calling process's trace stamp: the last clock reading
/// its kernel made.
fn mark() {
    trace::emit_with(|| TraceEvent::Estimated {
        quantity: "probe_equivalence.mark",
        value: 0.0,
    });
}

/// Ends a run's captures: what they observed.
fn observed() -> Observed {
    let snap = profile::snapshot();
    let marks = trace::drain().into_iter().filter_map(|r| match r.event {
        TraceEvent::Estimated {
            quantity: "probe_equivalence.mark",
            ..
        } => Some(r.ts),
        _ => None,
    });
    Observed {
        by_pid: snap.by_pid.into_iter().collect(),
        by_kind: snap.by_kind.into_iter().collect(),
        marks: marks.collect(),
    }
}

/// The scalar reference dispatch: one `timed(read_byte)` per spec, in
/// spec order.
fn timed_reads<O: GrayBoxOs>(os: &O, fd: Fd, specs: &[ProbeSpec]) -> Vec<ProbeSample> {
    let one = |spec: &ProbeSpec| {
        let (res, elapsed) = os.timed(|os| os.read_byte(fd, spec.offset));
        ProbeSample {
            offset: spec.offset,
            elapsed,
            ok: res.is_ok(),
        }
    };
    specs.iter().map(one).collect()
}

/// `Fccd::with_fixed_seed(os, params).probe_file(fd, size)` with the batch
/// replaced by [`timed_reads`]: the same planner, the same draws, the
/// same fold.
fn scalar_report<O: GrayBoxOs>(os: &O, params: FccdParams, fd: Fd, size: u64) -> FileProbeReport {
    let planner = Fccd::with_fixed_seed(os, params).into_planner();
    let page_size = os.page_size();
    let specs = planner.draw_plan(size, page_size);
    planner.fold(size, page_size, &timed_reads(os, fd, &specs))
}

/// End to end through the simulated kernel: two identically prepared
/// machines, one probed through the vectored batch syscall, one through
/// individual timed reads, must report bit-identical measurements (the
/// batch replays the scalar charging sequence per probe) and therefore
/// identical plans. Half the cases use megabyte units warmed a unit at a
/// time; half use 1–5-page access units of 1-page prediction units,
/// warmed page by page at random, where every probe's readahead reaches
/// the next units. Either way the last access unit may be ragged. The
/// profile and the trace stamps after each probing step agree too.
#[test]
fn batched_and_scalar_classify_identically_under_simos() {
    check(
        "batched_and_scalar_classify_identically_under_simos",
        12,
        |g: &mut Gen| {
            let page = 4096u64;
            let (prediction_unit, access_unit, warm_unit) = if g.bool() {
                (256 << 10, 1u64 << 20, 1u64 << 20)
            } else {
                (page, g.u64(1..6) * page, page)
            };
            // At least nine pages, so the edge probes below fit in range.
            let min_units = (9 * page).div_ceil(access_unit);
            let units = g.u64(min_units..min_units + 6);
            let size = units * access_unit + g.u64(0..access_unit);
            let params = FccdParams {
                access_unit,
                prediction_unit,
                seed: g.u64(1..u64::MAX),
                ..FccdParams::default()
            };
            let warm: Vec<u64> = (0..size.div_ceil(warm_unit)).filter(|_| g.bool()).collect();
            let edge = g.u64(0..size - 8 * page);

            let run = |batched: bool| {
                let (_profile, _trace) = (profile::capture(), trace::capture());
                let mut sim = Sim::new(SimConfig::small());
                sim.run_one(move |os| make_file(os, "/f", size).unwrap());
                sim.flush_file_cache();
                let warm = warm.clone();
                let params = params.clone();
                let (report, edges, atime) = sim.run_one(move |os| {
                    let fd = os.open("/f").unwrap();
                    for &u in &warm {
                        os.read_discard(fd, u * warm_unit, warm_unit).unwrap();
                    }
                    let report = if batched {
                        Fccd::with_fixed_seed(os, params).probe_file(fd, size)
                    } else {
                        scalar_report(os, params, fd, size)
                    };
                    mark();
                    // The batch's edges, raw: a repeated offset, a run of
                    // consecutive pages that walks off the initial
                    // readahead window, an offset past EOF — then the
                    // same specs on a closed descriptor.
                    let specs: Vec<ProbeSpec> = [edge, edge]
                        .into_iter()
                        .chain((1..7).map(|k| edge + k * page))
                        .chain([size + page])
                        .map(|offset| ProbeSpec { offset })
                        .collect();
                    let probe = |fd| {
                        if batched {
                            os.probe_batch(fd, &specs)
                        } else {
                            timed_reads(os, fd, &specs)
                        }
                    };
                    let mut edges = probe(fd);
                    mark();
                    os.close(fd).unwrap();
                    edges.extend(probe(fd));
                    mark();
                    (report, edges, os.stat("/f").unwrap().atime)
                });
                let presence = sim.oracle().file_presence("/f").unwrap();
                let now = sim.now();
                (report, edges, atime, now, presence, observed())
            };
            let (batched, b_edges, b_atime, b_now, b_presence, b_seen) = run(true);
            let (scalar, s_edges, s_atime, s_now, s_presence, s_seen) = run(false);
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
            assert_eq!(b_seen, s_seen, "profile or trace stamps diverge");
            // The two processes ran one after the other from 0, and every
            // nanosecond a clock moves is charged to the profile.
            let charged: u64 = b_seen.by_pid.iter().map(|&(_, ns)| ns).sum();
            assert_eq!(charged, b_now.as_nanos(), "virtual time not profiled");
        },
    );
}

/// `sys_mem_probe_batch` is the loop over `sys_now` / `sys_mem_touch_write`
/// / `sys_now`, so on two identically driven kernels the batch and the
/// hand-written loop must agree sample for sample and in every clock and
/// counter — on the noisiest matrix machine (amplitude 0.15, six CPUs), with
/// the writeback flusher on and a second process dirtying file pages between
/// batches. The batches are chosen to leave the resident fast case: one
/// crosses flusher epochs, one runs past physical memory (zero-fault, then
/// eviction to swap, then swap-in), and the region is freed and allocated
/// again in between, which is when anything the cache remembers about "the
/// last owner" must have been forgotten. The batch's clock reads and
/// touches are steps on a local clock, so the profile (per process, per
/// kind, and all of each clock's advance) and the trace stamp each batch
/// leaves are compared too.
#[test]
fn mem_batch_and_scalar_touch_identically_under_simos() {
    check(
        "mem_batch_and_scalar_touch_identically_under_simos",
        6,
        |g: &mut Gen| {
            let seed = g.u64(1..u64::MAX);
            let first = g.u64(300..500);
            let overshoot = g.u64(32..128);
            // Revisits, in no order, one of them past the region's end.
            let mut revisit = g.vec(50..150, |g| g.u64(0..first));
            revisit[25] = first;

            let run = |batched: bool| {
                let (_profile, _trace) = (profile::capture(), trace::capture());
                let mut cfg = SimConfig::small()
                    .with_seed(seed)
                    .with_writeback(GrayDuration::from_millis(1));
                cfg.mem_bytes = 10 << 20; // 512 usable pages.
                cfg.cpus = 6;
                cfg.noise = NoiseParams {
                    jitter_frac: 0.15,
                    spike_prob: 0.0015,
                    ..NoiseParams::default()
                };
                let usable = cfg.usable_pages();
                let mut k = Kernel::new(cfg);
                let prober = k.add_proc(Nanos::ZERO);
                let writer = k.add_proc(Nanos::ZERO);
                let fd = k.sys_create(writer, "/churn").unwrap();
                let mut churned = 0;
                let mut churn = |k: &mut Kernel| {
                    k.sys_write(writer, fd, churned, 96 << 10, None).unwrap();
                    churned += 96 << 10;
                };
                let probe = |k: &mut Kernel, region: u64, pages: &[u64]| {
                    if batched {
                        let samples = k.sys_mem_probe_batch(prober, region, pages);
                        mark();
                        return samples;
                    }
                    let one = |&page: &u64| {
                        let t0 = k.sys_now(prober);
                        let res = k.sys_mem_touch_write(prober, region, page);
                        let t1 = k.sys_now(prober);
                        ProbeSample {
                            offset: page,
                            elapsed: t1.since(t0),
                            ok: res.is_ok(),
                        }
                    };
                    let samples = pages.iter().map(one).collect();
                    mark();
                    samples
                };
                let ascending = |pages: std::ops::Range<u64>| pages.collect::<Vec<u64>>();
                let mut samples = Vec::new();

                // Zero faults across flusher epochs, the writer's pages dirty.
                churn(&mut k);
                let region = k.sys_mem_alloc(prober, first * PAGE_SIZE).unwrap();
                let flushed = k.stats().flusher_pages;
                samples.push(probe(&mut k, region, &ascending(0..first)));
                assert!(
                    k.stats().flusher_pages > flushed,
                    "no epoch inside the batch"
                );
                // The same region again, all resident, then out of order and
                // out of range.
                samples.push(probe(&mut k, region, &ascending(0..first)));
                samples.push(probe(&mut k, region, &revisit));

                // Freed and allocated again, larger than memory: fresh zero
                // faults, evictions to swap, and swap-ins on the way back.
                churn(&mut k);
                k.sys_mem_free(prober, region).unwrap();
                let big = k
                    .sys_mem_alloc(prober, (usable + overshoot) * PAGE_SIZE)
                    .unwrap();
                samples.push(probe(&mut k, region, &revisit[..8]));
                samples.push(probe(&mut k, big, &ascending(0..usable + overshoot)));
                churn(&mut k);
                samples.push(probe(&mut k, big, &ascending(0..2 * overshoot)));
                let stats = k.stats();
                assert!(stats.swap_outs > 0 && stats.swap_ins > 0, "{stats:?}");

                let clocks = (k.proc_time(prober), k.proc_time(writer), k.max_time());
                let resident = k.cache().resident_of(Owner::Anon { region: big });
                let dirty = k.cache().dirty_pages();
                (samples, clocks, stats, resident, dirty, observed())
            };
            let (b_samples, b_clocks, b_stats, b_resident, b_dirty, b_seen) = run(true);
            let (s_samples, s_clocks, s_stats, s_resident, s_dirty, s_seen) = run(false);
            for (batch, (b, s)) in b_samples.iter().zip(&s_samples).enumerate() {
                assert_eq!(b, s, "samples of batch {batch} diverge");
            }
            assert!(b_samples[1].iter().all(|s| s.ok), "resident touches");
            assert!(b_samples[2].iter().any(|s| !s.ok), "a page out of range");
            assert!(b_samples[3].iter().all(|s| !s.ok), "a freed region");
            assert_eq!(b_clocks, s_clocks, "virtual clocks diverge");
            assert_eq!(b_stats, s_stats, "kernel counters diverge");
            assert_eq!(b_resident, s_resident, "resident pages diverge");
            assert_eq!(b_dirty, s_dirty, "dirty pages diverge");
            assert_eq!(b_seen, s_seen, "profile or trace stamps diverge");
            // Both clocks start at 0, and every nanosecond they move is
            // charged to the profile.
            let (prober, writer, _) = b_clocks;
            let want = vec![(0, prober.as_nanos()), (1, writer.as_nanos())];
            assert_eq!(b_seen.by_pid, want, "virtual time not profiled");
        },
    );
}
