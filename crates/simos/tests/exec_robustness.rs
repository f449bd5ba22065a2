//! Executor robustness: panics, handoff between processes, borrows of the
//! shared state, and edge conditions of the kernel's resource accounting.

use gray_toolbox::GrayDuration;
use graybox::os::{GrayBoxOs, GrayBoxOsExt, OsError, ProbeSpec};
use simos::exec::Workload;
use simos::{DiskParams, FsParams, Sim, SimConfig, SimProc};

#[test]
fn panicking_process_does_not_strand_siblings() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    // Run a panicking workload next to a working one. `run` re-raises
    // the process panic (after every sibling has finished), so catch
    // it and check the structured rendering.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let workloads: Vec<(String, Workload<'_, u64>)> = vec![
            (
                "doomed".to_string(),
                Box::new(|os: &SimProc| {
                    os.compute(GrayDuration::from_millis(1));
                    panic!("deliberate test panic");
                }),
            ),
            (
                "survivor".to_string(),
                Box::new(|os: &SimProc| {
                    for _ in 0..50 {
                        os.compute(GrayDuration::from_millis(1));
                    }
                    42
                }),
            ),
        ];
        sim.run(workloads)
    }));
    // The panic must propagate (not deadlock), it must name the
    // culprit — regression: the old executor died a second time on an
    // empty result slot ("workload completed") instead — and the
    // simulation must stay usable afterwards.
    let payload = result.expect_err("the workload panic must propagate");
    let message = payload
        .downcast_ref::<String>()
        .expect("run panics with a rendered ProcPanic");
    assert!(
        message.contains("\"doomed\"") && message.contains("deliberate test panic"),
        "panic must name process and cause, got: {message}"
    );
    let after = sim.run_one(|os| {
        os.write_file("/alive", b"yes").unwrap();
        os.read_to_vec("/alive").unwrap()
    });
    assert_eq!(after, b"yes");
}

/// The state is one `RefCell` shared by the `Sim`, every `SimProc` and
/// every `Oracle`: each borrow must end with the operation that took it,
/// whether the holder returns, suspends, or unwinds.
fn assert_borrow_free(sim: &mut Sim) {
    let before = sim.now();
    sim.run_one(|os| os.compute(GrayDuration::from_micros(10)));
    assert!(sim.now() > before);
    let _ = sim.oracle().stats();
}

#[test]
fn oracle_reads_between_syscalls_leave_the_sim_borrow_free() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let oracle = sim.oracle();
    let peek = |os: &SimProc| {
        let fd = os.create("/peek").unwrap();
        let clean = oracle.dirty_pages();
        os.write_fill(fd, 0, 64 << 10).unwrap();
        let dirty = oracle.dirty_pages();
        os.close(fd).unwrap();
        assert_eq!(oracle.file_presence("/peek").unwrap().len(), 16);
        dirty - clean
    };
    assert_eq!(sim.run_one(peek), 16);
    // The same reads from inside a coroutine, with a sibling interleaving.
    let results = sim.run::<usize>(vec![
        (
            "peeker".to_string(),
            Box::new(|os: &SimProc| {
                os.compute(GrayDuration::from_micros(50));
                let resident = oracle.resident_pages();
                os.compute(GrayDuration::from_micros(50));
                resident
            }),
        ),
        (
            "sibling".to_string(),
            Box::new(|os: &SimProc| {
                os.compute(GrayDuration::from_micros(75));
                0
            }),
        ),
    ]);
    assert!(results[0] >= 16);
    assert_borrow_free(&mut sim);
}

#[test]
fn panic_beside_a_process_suspended_in_probe_batch_leaves_the_sim_borrow_free() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    sim.run_one(|os| os.write_file("/cold", &[1u8; 64 << 10]).unwrap());
    sim.flush_file_cache();
    let err = sim
        .try_run::<usize>(vec![
            (
                "prober".to_string(),
                Box::new(|os: &SimProc| {
                    let fd = os.open("/cold").unwrap();
                    // A cold batch costs disk time, so the call ends with
                    // this process suspended behind its sibling.
                    let specs: Vec<ProbeSpec> =
                        (0..16u64).map(|p| ProbeSpec { offset: p * 4096 }).collect();
                    os.probe_batch(fd, &specs).len()
                }),
            ),
            (
                "doomed".to_string(),
                Box::new(|os: &SimProc| {
                    os.compute(GrayDuration::from_micros(20));
                    panic!("dies while the prober is suspended");
                }),
            ),
        ])
        .unwrap_err();
    assert_eq!(err.name, "doomed");
    assert_borrow_free(&mut sim);
}

#[test]
fn many_processes_interleave_and_all_finish() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let n = 8;
    let results = sim.run::<u64>(
        (0..n)
            .map(|i| {
                let name = format!("p{i}");
                let wl: Workload<'_, u64> = Box::new(move |os: &SimProc| {
                    let path = format!("/p{i}");
                    let fd = os.create(&path).unwrap();
                    for k in 0..20u64 {
                        os.write_fill(fd, k * 4096, 4096).unwrap();
                        os.compute(GrayDuration::from_micros(50));
                    }
                    os.close(fd).unwrap();
                    os.stat(&path).unwrap().size
                });
                (name, wl)
            })
            .collect(),
    );
    assert_eq!(results, vec![20 * 4096; n]);
}

#[test]
fn sleeping_process_lets_others_run_first() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    let results = sim.run::<u64>(vec![
        (
            "sleeper".to_string(),
            Box::new(|os: &SimProc| {
                os.sleep(GrayDuration::from_secs(5));
                os.now().as_nanos()
            }),
        ),
        (
            "worker".to_string(),
            Box::new(|os: &SimProc| {
                os.compute(GrayDuration::from_millis(10));
                os.now().as_nanos()
            }),
        ),
    ]);
    assert!(
        results[1] < results[0],
        "the worker must finish while the sleeper sleeps"
    );
}

#[test]
fn filesystem_full_surfaces_no_space() {
    // A tiny disk: writing past its data capacity must yield NoSpace, and
    // the failure must leave the file system consistent.
    let mut cfg = SimConfig::small().without_noise();
    cfg.disks = vec![DiskParams { capacity: 40 << 20 }];
    cfg.swap_disk = 0;
    cfg.fs = FsParams::default();
    let mut sim = Sim::new(cfg);
    sim.run_one(|os| {
        let fd = os.create("/hog").unwrap();
        let mut off = 0u64;
        let err = loop {
            match os.write_fill(fd, off, 1 << 20) {
                Ok(_) => off += 1 << 20,
                Err(e) => break e,
            }
            assert!(off < 64 << 20, "disk never filled");
        };
        assert_eq!(err, OsError::NoSpace);
        os.close(fd).unwrap();
        // Freeing space makes writes possible again.
        os.unlink("/hog").unwrap();
        os.write_file("/small", b"fits now").unwrap();
        assert_eq!(os.read_to_vec("/small").unwrap(), b"fits now");
    });
}

#[test]
fn swap_exhaustion_surfaces_out_of_memory() {
    // Tiny memory and a tiny swap area: touching far more anonymous
    // memory than memory + swap must fail with OutOfMemory, not hang.
    let mut cfg = SimConfig::small().without_noise();
    cfg.mem_bytes = 16 << 20;
    cfg.kernel_reserve_bytes = 2 << 20;
    cfg.disks = vec![DiskParams { capacity: 48 << 20 }];
    cfg.swap_disk = 0; // Swap area = top quarter of 48 MB = 12 MB.
    let mut sim = Sim::new(cfg);
    sim.run_one(|os| {
        let total_pages = (14u64 << 20) / 4096 + (12 << 20) / 4096 + 1024;
        let region = os.mem_alloc(total_pages * 4096).unwrap();
        let mut err = None;
        for p in 0..total_pages {
            if let Err(e) = os.mem_touch_write(region, p) {
                err = Some(e);
                break;
            }
        }
        assert_eq!(err, Some(OsError::OutOfMemory), "swap must exhaust");
        os.mem_free(region).unwrap();
    });
}

#[test]
fn sync_writes_back_dirty_pages() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    sim.run_one(|os| {
        let fd = os.create("/dirty").unwrap();
        os.write_fill(fd, 0, 4 << 20).unwrap();
        let t0 = os.now();
        os.sync().unwrap();
        let sync_cost = os.now().since(t0);
        // 4 MB of dirty data at 20 MB/s is ~0.2 s of write-back.
        assert!(
            sync_cost > GrayDuration::from_millis(100),
            "sync must pay for the write-back: {sync_cost}"
        );
        // A second sync has nothing left to write.
        let t1 = os.now();
        os.sync().unwrap();
        let resync = os.now().since(t1);
        assert!(
            resync < sync_cost / 10,
            "second sync must be nearly free: {resync} vs {sync_cost}"
        );
        os.close(fd).unwrap();
    });
}

#[test]
fn read_only_probes_do_not_dirty_the_cache() {
    let mut sim = Sim::new(SimConfig::small().without_noise());
    sim.run_one(|os| {
        use graybox::fccd::{Fccd, FccdParams};
        let fd = os.create("/probe_me").unwrap();
        os.write_fill(fd, 0, 8 << 20).unwrap();
        os.sync().unwrap();
        // Probing must not create new dirty state: a sync right after
        // probing is ~free.
        let fccd = Fccd::new(
            os,
            FccdParams {
                access_unit: 2 << 20,
                prediction_unit: 1 << 20,
                ..FccdParams::default()
            },
        );
        let _ = fccd.probe_file(fd, 8 << 20);
        let t0 = os.now();
        os.sync().unwrap();
        let cost = os.now().since(t0);
        assert!(
            cost < GrayDuration::from_millis(5),
            "probes are reads; sync after probing must be cheap: {cost}"
        );
        os.close(fd).unwrap();
    });
}
