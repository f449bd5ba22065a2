//! Frozen golden for file-system layout and swap-slot order.
//!
//! `simos::fs` and `simos::vm` keep free space as extents on the promise
//! that every allocation still picks the block, i-number and slot the
//! element-by-element `BTreeSet`s picked. This test pins that promise
//! from outside the modules: an aging script per layout policy —
//! directories spread over groups, a few hundred files of mixed sizes,
//! every third unlinked and the holes refilled, files grown past their
//! group's end, i-numbers and then blocks exhausted (one block per call)
//! and given back, and for LFS overwrite relocation around a wrapped log
//! — hashed as every file's `(ino, blocks)` plus `free_bytes()` at each
//! stage; and a swap script (fresh slots, returned slots, returned then
//! fresh, across two regions). The goldens were captured by running this
//! very file in a `git clone` of the parent commit (db7b3a1, `BTreeSet`
//! of free blocks, of free i-numbers and of returned swap slots).
//!
//! A mismatch prints every observed row; paste them over the golden
//! only when a change is *meant* to alter allocation policy.

use gray_toolbox::Nanos;
use graybox::os::OsError;
use simos::fs::{Fs, Ino};
use simos::vm::Vm;
use simos::{FsParams, LayoutPolicy};

const T: Nanos = Nanos::ZERO;

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// The script's own generator, so the golden depends on nothing but `fs`.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 33) % n
    }
}

/// The files the script has created and not unlinked, in creation order.
struct Aging {
    fs: Fs,
    live: Vec<(String, Ino)>,
    hash: u64,
}

impl Aging {
    fn create(&mut self, path: String, blocks: u64) {
        let ino = self.fs.create(&path, T).unwrap();
        if blocks > 0 {
            // Half the files grow a page at a time, half in one call.
            if ino.is_multiple_of(2) {
                self.fs.ensure_block(ino, blocks - 1).unwrap();
            } else {
                for page in 0..blocks {
                    self.fs.ensure_block(ino, page).unwrap();
                }
            }
        }
        self.live.push((path, ino));
    }

    fn unlink_where(&mut self, mut doomed: impl FnMut(usize, &str) -> bool) {
        let mut at = 0;
        let fs = &mut self.fs;
        self.live.retain(|(path, _)| {
            let gone = doomed(at, path);
            at += 1;
            if gone {
                fs.unlink(path, T).unwrap();
            }
            !gone
        });
    }

    /// Folds every live file's i-number and block list, every
    /// directory's, and the free space.
    fn fold(&mut self, dirs: &[String]) {
        let h = &mut self.hash;
        let dir_inos = dirs.iter().map(|d| self.fs.resolve(d).unwrap());
        let inos: Vec<Ino> = dir_inos.chain(self.live.iter().map(|f| f.1)).collect();
        for ino in inos {
            let inode = self.fs.inode(ino).unwrap();
            fnv(h, ino);
            fnv(h, inode.group as u64);
            fnv(h, inode.blocks.len() as u64);
            for &b in &inode.blocks {
                fnv(h, b);
            }
        }
        fnv(h, self.fs.free_bytes());
    }
}

/// (live files, free bytes after the churn, blocks the filler got before
/// `NoSpace`, files created before i-numbers ran out, free bytes at the
/// end, layout hash).
type Row = (u64, u64, u64, u64, u64, u64);

fn run_script(layout: LayoutPolicy) -> Row {
    // Six groups of 4 i-table + 512 data blocks, 128 i-numbers each; the
    // seventh, partial, group is not formed.
    let params = FsParams {
        layout,
        blocks_per_group: 512,
        inodes_per_group: 128,
    };
    let fs = Fs::new(params, 0, 6 * 516 + 200);
    assert_eq!(fs.group_count(), 6);
    let mut a = Aging {
        fs,
        live: Vec::new(),
        hash: 0xcbf2_9ce4_8422_2325,
    };
    let mut rng = Lcg(layout as u64 + 1);

    // Directories land in the emptiest groups; one is nested.
    let mut dirs: Vec<String> = (0..5).map(|d| format!("/d{d}")).collect();
    dirs.push("/d1/sub".to_string());
    for d in &dirs {
        a.fs.mkdir(d, T).unwrap();
    }
    dirs.push("/".to_string());

    // A few hundred files of mixed sizes, round-robin over directories.
    for i in 0..300u64 {
        let dir = &dirs[(i % dirs.len() as u64) as usize];
        let blocks = match rng.below(8) {
            0 => 0,
            1..=5 => 1 + rng.below(4),
            _ => 6 + rng.below(14),
        };
        a.create(format!("{}/f{i}", dir.trim_end_matches('/')), blocks);
    }
    a.fold(&dirs);

    // Age: unlink every third, refill the holes with other sizes, twice.
    for round in 0..2u64 {
        a.unlink_where(|at, _| at as u64 % 3 == round);
        a.fold(&dirs);
        for i in 0..90u64 {
            let dir = &dirs[((i * 5 + round) % dirs.len() as u64) as usize];
            let blocks = 1 + rng.below(9);
            a.create(
                format!("{}/r{round}_{i}", dir.trim_end_matches('/')),
                blocks,
            );
        }
        a.fold(&dirs);
    }

    // Grow two files past their group's end, interleaved so neither is
    // contiguous, then overwrite a stretch (LFS relocates to the log head).
    let (big_a, big_b) = (a.live[7].1, a.live[40].1);
    for page in 0..360u64 {
        for ino in [big_a, big_b] {
            let have = a.fs.inode(ino).unwrap().blocks.len() as u64;
            a.fs.ensure_block(ino, have.max(page)).unwrap();
        }
    }
    if layout == LayoutPolicy::Lfs {
        for page in (0..300u64).step_by(3) {
            a.fs.relocate_block(big_a, page).unwrap();
        }
    }
    a.fold(&dirs);
    let live = a.live.len() as u64;
    let free_after_churn = a.fs.free_bytes();

    // Run out of i-numbers (empty files: no block is at stake), then
    // give two thirds of them back.
    let mut made = 0u64;
    loop {
        match a.fs.create(&format!("/d3/e{made}"), T) {
            Ok(ino) => a.live.push((format!("/d3/e{made}"), ino)),
            Err(e) => break assert_eq!(e, OsError::NoSpace),
        }
        made += 1;
    }
    a.fold(&dirs);
    a.unlink_where(|at, path| path.starts_with("/d3/e") && at % 3 != 0);

    // Fill the disk one block per call until `NoSpace`, so every group's
    // rotor wraps and the last holes are found; then free the filler and
    // lay a fresh file over what it held.
    a.create("/d0/filler".to_string(), 0);
    let filler = a.live.last().unwrap().1;
    let mut filled = 0u64;
    loop {
        match a.fs.ensure_block(filler, filled) {
            Ok(_) => filled += 1,
            Err(e) => break assert_eq!(e, OsError::NoSpace),
        }
    }
    assert_eq!(a.fs.free_bytes(), 0);
    a.fold(&dirs);
    if layout == LayoutPolicy::Lfs {
        // A full log: an overwrite has nowhere to go.
        assert_eq!(a.fs.relocate_block(filler, 0), Err(OsError::NoSpace));
    }
    a.unlink_where(|_, path| path == "/d0/filler" || path.ends_with('7'));
    a.create("/d4/after".to_string(), 700);
    if layout == LayoutPolicy::Lfs {
        let after = a.live.last().unwrap().1;
        for page in (0..700u64).rev().step_by(2) {
            a.fs.relocate_block(after, page).unwrap();
        }
    }
    a.fold(&dirs);

    (
        live,
        free_after_churn,
        filled,
        made,
        a.fs.free_bytes(),
        a.hash,
    )
}

/// Swap-slot order: (slots in use at the end, hash of every slot handed
/// out, in order).
fn run_swap_script() -> (u64, u64) {
    let mut vm = Vm::new(96);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut rng = Lcg(7);
    let (a, b) = (vm.alloc(64), vm.alloc(64));
    // Fresh slots, the two regions interleaved, pages out of order.
    for i in 0..40u64 {
        let (r, page) = if i % 3 == 0 { (b, i) } else { (a, 63 - i) };
        fnv(&mut h, vm.ensure_slot(r, page).unwrap());
    }
    // Returned: `a` dies, a third region takes the holes lowest-first
    // and then runs on into slots never used.
    vm.free(a).unwrap();
    let c = vm.alloc(64);
    for page in 0..45u64 {
        fnv(&mut h, vm.ensure_slot(c, page).unwrap());
        // A page that has a slot keeps it.
        fnv(&mut h, vm.ensure_slot(b, rng.below(40) / 3 * 3).unwrap());
    }
    fnv(&mut h, vm.slots_in_use());
    // Returned then fresh, to exhaustion.
    vm.free(b).unwrap();
    let d = vm.alloc(64);
    let mut page = 0;
    loop {
        match vm.ensure_slot(d, page) {
            Ok(slot) => fnv(&mut h, slot),
            Err(e) => break assert_eq!(e, OsError::OutOfMemory),
        }
        page += 1;
    }
    fnv(&mut h, page);
    vm.free(c).unwrap();
    fnv(&mut h, vm.ensure_slot(d, 60).unwrap());
    (vm.slots_in_use(), h)
}

const GOLDEN: [(LayoutPolicy, Row); 2] = [
    (
        LayoutPolicy::Ffs,
        (
            283,
            3_559_424,
            865,
            476,
            2_936_832,
            15_435_579_325_911_121_418,
        ),
    ),
    (
        LayoutPolicy::Lfs,
        (
            283,
            3_534_848,
            859,
            476,
            2_551_808,
            11_943_503_996_407_465_448,
        ),
    ),
];

const SWAP_GOLDEN: (u64, u64) = (52, 11_700_858_640_163_123_385);

#[test]
fn aging_script_lays_out_files_as_at_the_parent_commit() {
    let got = GOLDEN.map(|(layout, _)| (layout, run_script(layout)));
    assert_eq!(
        got, GOLDEN,
        "a layout left its golden (live files, free bytes after churn, filler blocks, \
         files until no i-number, free bytes at the end, layout hash)"
    );
}

#[test]
fn swap_slots_go_out_in_the_parent_commits_order() {
    assert_eq!(
        run_swap_script(),
        SWAP_GOLDEN,
        "swap left its golden (slots in use, slot-order hash)"
    );
}
