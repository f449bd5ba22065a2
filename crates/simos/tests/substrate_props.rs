//! Property-based tests over the substrate's physical invariants, on the
//! in-tree deterministic harness (`gray_toolbox::prop`).

use gray_toolbox::prop::{check, Gen};
use gray_toolbox::Nanos;
use graybox::os::GrayBoxOs;
use simos::disk::Disk;
use simos::fs::Fs;
use simos::{DiskParams, FsParams, Sim, SimConfig};

#[test]
fn disk_service_time_is_bounded_and_monotone() {
    check(
        "disk_service_time_is_bounded_and_monotone",
        48,
        |g: &mut Gen| {
            let requests = g.vec(1..60, |g| (g.u64(0..200_000), g.u64(1..64)));
            let mut disk = Disk::new(DiskParams::small());
            let mut now = Nanos::ZERO;
            let full_stroke = gray_toolbox::GrayDuration::from_millis(30);
            for (block, len) in requests {
                let block = block % (disk.blocks() - 64);
                let done = disk.transfer(now, block, len);
                // Time never runs backwards and the disk is busy until `done`.
                assert!(done > now);
                assert_eq!(disk.busy_until(), done);
                // Service ≤ full stroke + full rotation + transfer.
                let transfer = gray_toolbox::GrayDuration::from_secs_f64(
                    len as f64 * 4096.0 / (20u64 << 20) as f64,
                );
                assert!(done.since(now) <= full_stroke + transfer);
                now = done;
            }
        },
    );
}

#[test]
fn sequential_runs_beat_scattered_runs() {
    check("sequential_runs_beat_scattered_runs", 48, |g: &mut Gen| {
        let stride = g.u64(2..1000);
        let mut seq = Disk::new(DiskParams::small());
        let mut scattered = Disk::new(DiskParams::small());
        let mut t_seq = Nanos::ZERO;
        let mut t_scat = Nanos::ZERO;
        // Position heads identically first.
        t_seq = seq.transfer(t_seq, 0, 1);
        t_scat = scattered.transfer(t_scat, 0, 1);
        for i in 1..64u64 {
            t_seq = seq.transfer(t_seq, i, 1);
            t_scat = scattered.transfer(t_scat, (i * stride * 640) % (scattered.blocks() - 1), 1);
        }
        assert!(
            t_seq < t_scat,
            "sequential {t_seq:?} must beat scattered {t_scat:?} (stride {stride})"
        );
    });
}

#[test]
fn fs_never_double_allocates_blocks() {
    check("fs_never_double_allocates_blocks", 48, |g: &mut Gen| {
        let ops = g.vec(1..80, |g| (g.range(0u8..3), g.usize(0..8), g.u64(1..6)));
        let mut fs = Fs::new(FsParams::default(), 0, 2 * (32 + 4096));
        let mut live: Vec<Option<u64>> = vec![None; 8];
        for (op, slot, pages) in ops {
            match op {
                0 => {
                    if live[slot].is_none() {
                        let ino = fs.create(&format!("/s{slot}"), Nanos::ZERO).unwrap();
                        for p in 0..pages {
                            fs.ensure_block(ino, p).unwrap();
                        }
                        live[slot] = Some(ino);
                    }
                }
                1 => {
                    if live[slot].take().is_some() {
                        fs.unlink(&format!("/s{slot}"), Nanos::ZERO).unwrap();
                    }
                }
                _ => {
                    if let Some(ino) = live[slot] {
                        fs.ensure_block(ino, pages + 3).unwrap();
                    }
                }
            }
            // Invariant: across all live inodes (including directories),
            // every allocated block is unique.
            let mut seen = std::collections::HashSet::new();
            for slot_ino in live.iter().flatten() {
                for &b in &fs.inode(*slot_ino).unwrap().blocks {
                    assert!(seen.insert(b), "block {b} allocated twice");
                }
            }
        }
    });
}

#[test]
fn fs_free_space_is_conserved() {
    check("fs_free_space_is_conserved", 48, |g: &mut Gen| {
        let creates = g.usize(1..20);
        let pages = g.u64(1..8);
        let params = FsParams::default();
        let mut fs = Fs::new(params, 0, 2 * (32 + 4096));
        let initial = fs.free_bytes();
        let mut inos = Vec::new();
        for i in 0..creates {
            let ino = fs.create(&format!("/f{i}"), Nanos::ZERO).unwrap();
            for p in 0..pages {
                fs.ensure_block(ino, p).unwrap();
            }
            inos.push(ino);
        }
        // Root directory may also have grown by a block; account exactly.
        let root_blocks = fs.inode(simos::fs::ROOT_INO).unwrap().blocks.len() as u64;
        let used = creates as u64 * pages + root_blocks;
        assert_eq!(fs.free_bytes(), initial - used * 4096);
        for i in 0..creates {
            fs.unlink(&format!("/f{i}"), Nanos::ZERO).unwrap();
        }
        assert_eq!(fs.free_bytes(), initial - root_blocks * 4096);
    });
}

#[test]
fn virtual_time_is_monotone_across_any_syscall_mix() {
    check(
        "virtual_time_is_monotone_across_any_syscall_mix",
        48,
        |g: &mut Gen| {
            let ops = g.vec(1..60, |g| g.range(0u8..6));
            let mut sim = Sim::new(SimConfig::small());
            sim.run_one(move |os| {
                let mut last = os.now();
                let fd = os.create("/t").unwrap();
                os.write_fill(fd, 0, 64 << 10).unwrap();
                let region = os.mem_alloc(64 << 10).unwrap();
                for (i, op) in ops.iter().enumerate() {
                    match op {
                        0 => {
                            os.read_discard(fd, (i as u64 * 4096) % (64 << 10), 4096)
                                .unwrap();
                        }
                        1 => {
                            os.write_fill(fd, (i as u64 * 4096) % (64 << 10), 512)
                                .unwrap();
                        }
                        2 => {
                            os.mem_touch_write(region, (i as u64) % 16).unwrap();
                        }
                        3 => {
                            let _ = os.stat("/t");
                        }
                        4 => {
                            let _ = os.list_dir("/");
                        }
                        _ => {
                            os.compute(gray_toolbox::GrayDuration::from_micros(3));
                        }
                    }
                    let now = os.now();
                    assert!(now >= last, "time ran backwards at op {i}");
                    last = now;
                }
            });
        },
    );
}

#[test]
fn netbsd_file_pool_is_hard_capped() {
    use graybox::os::GrayBoxOsExt;
    let mut sim = Sim::new(SimConfig::small().with_platform(simos::Platform::NetBsdLike));
    let cache_bytes = (64u64 << 20) / 14;
    sim.run_one(move |os| {
        os.write_file("/pad", &[0u8; 16]).unwrap();
        let fd = os.create("/big").unwrap();
        os.write_fill(fd, 0, cache_bytes * 3).unwrap();
        os.close(fd).unwrap();
    });
    let resident = sim.oracle().resident_pages() as u64 * 4096;
    assert!(
        resident <= cache_bytes + (1 << 20),
        "NetBSD file cache must stay capped: {} MB resident",
        resident >> 20
    );
}
