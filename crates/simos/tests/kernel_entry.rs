//! The kernel entry, pinned end to end.
//!
//! Every simulated syscall enters the kernel through one protocol: an
//! op frame for the profiler, a poll of the writeback flusher, and (for
//! most calls) the syscall-crossing charge. This golden runs one program
//! that makes each of the 21 syscalls and both probe batches on a noisy
//! machine with the flusher on, under one profile capture, and compares
//! the folded virtual-time profile, the per-pid totals and every clock
//! reading with values recorded before the entry protocol was collapsed
//! into one function. The noise stream draws once per CPU charge, so a
//! charge added or dropped anywhere (a zero-cost entry that starts
//! charging, an early return that moves past its charge) shifts every
//! later number.

use gray_toolbox::{profile, GrayDuration, Nanos};
use graybox::os::{GrayBoxOs, OsError, ProbeSpec};
use simos::{Sim, SimConfig};

/// Runs the program and returns every clock it read, in order, ending
/// with the machine's latest instant.
fn entry_program(sim: &mut Sim) -> Vec<u64> {
    let mut clocks = sim.run_one(|os| {
        let mut clocks = vec![os.now().as_nanos()];
        os.mkdir("/dir").unwrap();
        let fd = os.create("/dir/a").unwrap();
        assert_eq!(os.write_at(fd, 0, &[]).unwrap(), 0, "zero-length write");
        os.write_fill(fd, 0, 96 << 10).unwrap();
        os.write_at(fd, 10, b"abcd").unwrap();
        assert_eq!(os.file_size(fd).unwrap(), 96 << 10);
        os.close(fd).unwrap();
        assert_eq!(os.close(fd), Err(OsError::BadFd));
        // The flusher's epoch falls inside the sleep: the next entry
        // writes part of the dirty file back on the disk's timeline.
        os.sleep(GrayDuration::from_millis(12));
        clocks.push(os.now().as_nanos());
        os.sync().unwrap();
        let st = os.stat("/dir/a").unwrap();
        os.set_times("/dir/a", st.atime, Nanos(st.mtime.as_nanos() + 1))
            .unwrap();
        assert_eq!(os.rename("/dir/a", "/d1/a"), Err(OsError::Unsupported));
        os.rename("/dir/a", "/dir/b").unwrap();
        assert_eq!(os.list_dir("/dir").unwrap(), ["b"]);
        assert_eq!(os.stat("/dir/missing").unwrap_err(), OsError::NotFound);
        assert_eq!(os.open("/dir").unwrap_err(), OsError::IsADirectory);
        let fd = os.open("/dir/b").unwrap();
        let mut buf = [0u8; 16];
        os.read_at(fd, 4, &mut buf).unwrap();
        os.read_discard(fd, 8192, 16384).unwrap();
        os.close(fd).unwrap();
        assert_eq!(os.mem_alloc(0), Err(OsError::InvalidArgument));
        let region = os.mem_alloc(32 << 12).unwrap();
        os.mem_touch_write(region, 0).unwrap();
        os.mem_touch_write(region, 0).unwrap();
        os.mem_touch_read(region, 0).unwrap();
        os.mem_touch_read(region, 5).unwrap();
        assert_eq!(
            os.mem_touch_write(region, 99),
            Err(OsError::InvalidArgument)
        );
        let pages: Vec<u64> = (0..8).collect();
        let touches = os.mem_probe_batch(region, &pages);
        clocks.extend(touches.iter().map(|s| s.elapsed.as_nanos()));
        assert!(os.mem_probe_batch(region, &[]).is_empty());
        os.mem_free(region).unwrap();
        assert_eq!(os.mem_free(region), Err(OsError::BadRegion));
        os.compute(GrayDuration::from_micros(300));
        clocks.push(os.now().as_nanos());
        clocks
    });
    sim.flush_file_cache();
    clocks.extend(sim.run_one(|os| {
        let fd = os.open("/dir/b").unwrap();
        let specs: Vec<ProbeSpec> = [0u64, 40_000, 4_096, 90_000, 200_000]
            .into_iter()
            .map(|offset| ProbeSpec { offset })
            .collect();
        let probes = os.probe_batch(fd, &specs);
        assert!(probes[..4].iter().all(|s| s.ok) && !probes[4].ok);
        assert!(os.probe_batch(fd, &[]).is_empty());
        os.close(fd).unwrap();
        os.unlink("/dir/b").unwrap();
        os.rmdir("/dir").unwrap();
        let mut clocks: Vec<u64> = probes.iter().map(|s| s.elapsed.as_nanos()).collect();
        clocks.push(os.now().as_nanos());
        clocks
    }));
    clocks.push(sim.now().as_nanos());
    clocks
}

#[test]
fn every_syscall_enters_the_kernel_as_recorded() {
    let guard = profile::capture();
    let mut sim = Sim::new(SimConfig::small().with_writeback(GrayDuration::from_millis(10)));
    let clocks = entry_program(&mut sim);
    let snap = profile::snapshot();
    drop(guard);

    assert_eq!(snap.folded(), FOLDED);
    let by_pid: Vec<(u64, u64)> = snap.by_pid.into_iter().collect();
    assert_eq!(by_pid, BY_PID);
    assert_eq!(clocks, CLOCKS);
}

/// The folded profile: one line per (op frame, charge kind).
const FOLDED: &str = "\
sim;sys_close;cpu 5921\n\
sim;sys_compute;cpu 305100\n\
sim;sys_create;cpu 3509\n\
sim;sys_file_size;cpu 1562\n\
sim;sys_list_dir;cpu 2698\n\
sim;sys_mem_alloc;cpu 1525\n\
sim;sys_mem_free;cpu 2965\n\
sim;sys_mem_probe_batch;sys_mem_touch_write;cpu 38857\n\
sim;sys_mem_probe_batch;sys_now;cpu 645\n\
sim;sys_mem_touch_read;cpu 499\n\
sim;sys_mem_touch_write;cpu 5582\n\
sim;sys_mkdir;cpu 2298\n\
sim;sys_now;cpu 160\n\
sim;sys_open;cpu 8521\n\
sim;sys_open;disk 29528075\n\
sim;sys_probe_batch;sys_now;cpu 402\n\
sim;sys_probe_batch;sys_read;cpu 9253\n\
sim;sys_probe_batch;sys_read;disk 8444688\n\
sim;sys_read;cpu 40472\n\
sim;sys_rename;cpu 5370\n\
sim;sys_rmdir;cpu 1958\n\
sim;sys_set_times;cpu 3459\n\
sim;sys_sleep;sleep 12000000\n\
sim;sys_stat;cpu 5440\n\
sim;sys_sync;cpu 1529\n\
sim;sys_unlink;cpu 3150\n\
sim;sys_write;cpu 233457\n\
";

/// Virtual nanoseconds charged to each of the two processes.
const BY_PID: [(u64, u64); 2] = [(0, 12_664_978), (1, 37_992_117)];

/// Clock readings and probe latencies, in program order.
const CLOCKS: [u64; 18] = [
    41, 12_243_872, 300, 5_436, 5_439, 5_512, 5_490, 5_457, 5_793, 5_752, 12_664_978, 1_564_426,
    5_958_566, 1_989, 927_612, 1_549, 50_657_095, 50_657_095,
];
