//! A minimal in-memory [`GrayBoxOs`] that exists only for graybench.
//!
//! Two per-layer rungs of the benchmark, `core.fccd.classify_self_ns` and
//! `core.mac.estimate_self_ns`, time FCCD and MAC over this backend so that
//! the simulator's cost is left out. Nothing else uses it: every ICL,
//! scheduler and equivalence test runs on `simos`. It goes once the
//! benchmark-only change of ROADMAP item 2 drops those two reads.
//!
//! It models exactly what the two rungs exercise: flat files with
//! sequential i-numbers and no stored bytes (reads return zeros), an LRU
//! file cache with fixed hit and miss costs, and an LRU pool of anonymous
//! memory with fixed touch, zero-fill and swap-in costs. The clock advances
//! by exactly the cost of each call; there is no noise, no readahead and no
//! concurrency. Every other [`GrayBoxOs`] call fails with
//! [`OsError::Unsupported`].

use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};

use gray_toolbox::{GrayDuration, Nanos};

use crate::os::{Fd, GrayBoxOs, MemRegion, OsError, OsResult, Stat};

const PAGE_SIZE: u64 = 4096;
/// A page read served from the file cache.
const CACHE_HIT: GrayDuration = GrayDuration::from_micros(3);
/// A page read served from the disk.
const CACHE_MISS: GrayDuration = GrayDuration::from_millis(5);
/// A write-touch of a resident anonymous page.
const MEM_TOUCH: GrayDuration = GrayDuration::from_nanos(300);
/// A first touch: allocate and zero a fresh anonymous page.
const MEM_ZERO: GrayDuration = GrayDuration::from_micros(4);
/// A touch of a swapped-out anonymous page.
const SWAP_IN: GrayDuration = GrayDuration::from_millis(6);

/// One LRU set of pages, keyed by (owner, page).
#[derive(Debug)]
struct Lru {
    capacity: usize,
    order: VecDeque<(u64, u64)>,
    members: HashSet<(u64, u64)>,
}

impl Lru {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            order: VecDeque::new(),
            members: HashSet::new(),
        }
    }

    /// Moves a member to the most-recently-used end; false if absent.
    fn touch(&mut self, key: (u64, u64)) -> bool {
        if !self.members.contains(&key) {
            return false;
        }
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
        true
    }

    /// Adds a non-member, returning the members evicted to make room.
    fn insert(&mut self, key: (u64, u64)) -> Vec<(u64, u64)> {
        let mut evicted = Vec::new();
        while self.members.len() >= self.capacity {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            self.members.remove(&victim);
            evicted.push(victim);
        }
        self.order.push_back(key);
        self.members.insert(key);
        evicted
    }

    /// Drops every member owned by `owner`.
    fn remove_owner(&mut self, owner: u64) {
        self.order.retain(|&(o, _)| o != owner);
        self.members.retain(|&(o, _)| o != owner);
    }
}

#[derive(Debug)]
struct Inner {
    clock: Nanos,
    /// Path -> i-number; file sizes are indexed by i-number.
    names: HashMap<String, u64>,
    sizes: Vec<u64>,
    /// Open descriptor -> i-number.
    fds: HashMap<u32, u64>,
    next_fd: u32,
    /// Resident file pages, keyed by (i-number, page).
    cache: Lru,
    /// Region -> page count and, per page ever touched, whether it is
    /// resident (false: swapped out).
    regions: HashMap<u64, (u64, HashMap<u64, bool>)>,
    next_region: u64,
    /// Resident anonymous pages, keyed by (region, page).
    anon: Lru,
}

impl Inner {
    fn ino(&self, fd: Fd) -> OsResult<u64> {
        self.fds.get(&fd.0).copied().ok_or(OsError::BadFd)
    }

    /// Reads `page` of file `ino` through the cache, returning its cost.
    fn read_page(&mut self, ino: u64, page: u64) -> GrayDuration {
        if self.cache.touch((ino, page)) {
            CACHE_HIT
        } else {
            self.cache.insert((ino, page));
            CACHE_MISS
        }
    }
}

/// The graybench double. See the [module documentation](self).
#[derive(Debug)]
pub struct MockOs {
    inner: RefCell<Inner>,
}

impl MockOs {
    /// Creates a backend with the given file-cache and memory capacities,
    /// in pages.
    pub fn new(cache_capacity_pages: usize, mem_capacity_pages: usize) -> Self {
        MockOs {
            inner: RefCell::new(Inner {
                clock: Nanos::ZERO,
                names: HashMap::new(),
                sizes: Vec::new(),
                fds: HashMap::new(),
                next_fd: 3,
                cache: Lru::new(cache_capacity_pages),
                regions: HashMap::new(),
                next_region: 1,
                anon: Lru::new(mem_capacity_pages),
            }),
        }
    }

    /// Drops every cached file page.
    pub fn flush_cache(&self) {
        let mut inner = self.inner.borrow_mut();
        let capacity = inner.cache.capacity;
        inner.cache = Lru::new(capacity);
    }

    /// Loads pages of a file into the cache without advancing the clock.
    pub fn warm(&self, path: &str, pages: impl IntoIterator<Item = u64>) {
        let mut inner = self.inner.borrow_mut();
        let Some(&ino) = inner.names.get(path) else {
            return;
        };
        for page in pages {
            inner.read_page(ino, page);
        }
    }

    fn advance(&self, d: GrayDuration) {
        self.inner.borrow_mut().clock += d;
    }
}

impl GrayBoxOs for MockOs {
    fn now(&self) -> Nanos {
        let now = self.inner.borrow().clock;
        gray_toolbox::trace::set_now(now);
        now
    }

    fn page_size(&self) -> u64 {
        PAGE_SIZE
    }

    fn open(&self, path: &str) -> OsResult<Fd> {
        let mut inner = self.inner.borrow_mut();
        let ino = *inner.names.get(path).ok_or(OsError::NotFound)?;
        let fd = inner.next_fd;
        inner.next_fd += 1;
        inner.fds.insert(fd, ino);
        Ok(Fd(fd))
    }

    fn create(&self, path: &str) -> OsResult<Fd> {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.names.contains_key(path) {
                return Err(OsError::AlreadyExists);
            }
            let ino = inner.sizes.len() as u64;
            inner.sizes.push(0);
            inner.names.insert(path.to_string(), ino);
        }
        self.open(path)
    }

    fn close(&self, fd: Fd) -> OsResult<()> {
        let mut inner = self.inner.borrow_mut();
        inner.fds.remove(&fd.0).map(|_| ()).ok_or(OsError::BadFd)
    }

    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize> {
        let mut inner = self.inner.borrow_mut();
        let ino = inner.ino(fd)?;
        let size = inner.sizes[ino as usize];
        if offset >= size || buf.is_empty() {
            return Ok(0);
        }
        let len = (buf.len() as u64).min(size - offset);
        let cost: GrayDuration = (offset / PAGE_SIZE..=(offset + len - 1) / PAGE_SIZE)
            .map(|page| inner.read_page(ino, page))
            .sum();
        inner.clock += cost;
        buf[..len as usize].fill(0);
        Ok(len as usize)
    }

    fn read_discard(&self, _fd: Fd, _offset: u64, _len: u64) -> OsResult<u64> {
        Err(OsError::Unsupported)
    }

    fn write_at(&self, _fd: Fd, _offset: u64, _data: &[u8]) -> OsResult<usize> {
        Err(OsError::Unsupported)
    }

    /// Extends the file; the written pages become cached at the hit cost.
    fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        let mut inner = self.inner.borrow_mut();
        let ino = inner.ino(fd)?;
        if len == 0 {
            return Ok(0);
        }
        let size = &mut inner.sizes[ino as usize];
        *size = (*size).max(offset + len);
        for page in offset / PAGE_SIZE..=(offset + len - 1) / PAGE_SIZE {
            inner.read_page(ino, page);
            inner.clock += CACHE_HIT;
        }
        Ok(len)
    }

    fn file_size(&self, fd: Fd) -> OsResult<u64> {
        let inner = self.inner.borrow();
        Ok(inner.sizes[inner.ino(fd)? as usize])
    }

    fn sync(&self) -> OsResult<()> {
        Err(OsError::Unsupported)
    }

    fn stat(&self, _path: &str) -> OsResult<Stat> {
        Err(OsError::Unsupported)
    }

    fn list_dir(&self, _path: &str) -> OsResult<Vec<String>> {
        Err(OsError::Unsupported)
    }

    fn mkdir(&self, _path: &str) -> OsResult<()> {
        Err(OsError::Unsupported)
    }

    fn rmdir(&self, _path: &str) -> OsResult<()> {
        Err(OsError::Unsupported)
    }

    fn unlink(&self, _path: &str) -> OsResult<()> {
        Err(OsError::Unsupported)
    }

    fn rename(&self, _from: &str, _to: &str) -> OsResult<()> {
        Err(OsError::Unsupported)
    }

    fn set_times(&self, _path: &str, _atime: Nanos, _mtime: Nanos) -> OsResult<()> {
        Err(OsError::Unsupported)
    }

    fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion> {
        if bytes == 0 {
            return Err(OsError::InvalidArgument);
        }
        let mut inner = self.inner.borrow_mut();
        let rid = inner.next_region;
        inner.next_region += 1;
        inner
            .regions
            .insert(rid, (bytes.div_ceil(PAGE_SIZE), HashMap::new()));
        Ok(MemRegion(rid))
    }

    fn mem_free(&self, region: MemRegion) -> OsResult<()> {
        let mut inner = self.inner.borrow_mut();
        inner.regions.remove(&region.0).ok_or(OsError::BadRegion)?;
        inner.anon.remove_owner(region.0);
        Ok(())
    }

    fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()> {
        let mut inner = self.inner.borrow_mut();
        let (pages, state) = inner.regions.get(&region.0).ok_or(OsError::BadRegion)?;
        if page >= *pages {
            return Err(OsError::InvalidArgument);
        }
        let cost = match state.get(&page).copied() {
            Some(true) => {
                inner.anon.touch((region.0, page));
                MEM_TOUCH
            }
            touched => {
                for (rid, victim) in inner.anon.insert((region.0, page)) {
                    if let Some((_, state)) = inner.regions.get_mut(&rid) {
                        state.insert(victim, false);
                    }
                }
                let (_, state) = inner.regions.get_mut(&region.0).expect("checked above");
                state.insert(page, true);
                if touched.is_some() {
                    SWAP_IN
                } else {
                    MEM_ZERO
                }
            }
        };
        inner.clock += cost;
        Ok(())
    }

    fn mem_touch_read(&self, _region: MemRegion, _page: u64) -> OsResult<u8> {
        Err(OsError::Unsupported)
    }

    fn compute(&self, work: GrayDuration) {
        self.advance(work);
    }

    fn sleep(&self, d: GrayDuration) {
        self.advance(d);
    }

    fn yield_now(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fccd::{Fccd, FccdParams};
    use crate::mac::{Mac, MacParams};

    fn file(os: &MockOs, path: &str, bytes: u64) -> Fd {
        let fd = os.create(path).unwrap();
        os.write_fill(fd, 0, bytes).unwrap();
        fd
    }

    #[test]
    fn cached_reads_are_faster_than_uncached() {
        let os = MockOs::new(1024, 1024);
        let fd = file(&os, "/f", 8192);
        os.flush_cache();
        let (_, cold) = os.timed(|os| os.read_byte(fd, 0).unwrap());
        let (_, warm) = os.timed(|os| os.read_byte(fd, 1).unwrap());
        assert!(cold > warm * 10, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn cache_evicts_lru_beyond_capacity() {
        let os = MockOs::new(2, 1024);
        let fd = file(&os, "/f", 4 * PAGE_SIZE);
        os.flush_cache();
        for page in 0..3 {
            os.read_byte(fd, page * PAGE_SIZE).unwrap();
        }
        let (_, newest) = os.timed(|os| os.read_byte(fd, 2 * PAGE_SIZE).unwrap());
        let (_, oldest) = os.timed(|os| os.read_byte(fd, 0).unwrap());
        assert_eq!((newest, oldest), (CACHE_HIT, CACHE_MISS));
    }

    #[test]
    fn over_commit_swaps_and_swap_in_is_slow() {
        let os = MockOs::new(16, 2);
        let r = os.mem_alloc(PAGE_SIZE * 3).unwrap();
        for p in 0..3 {
            os.mem_touch_write(r, p).unwrap();
        }
        // Page 0 was evicted; touching it again must be slow.
        let (_, t) = os.timed(|os| os.mem_touch_write(r, 0).unwrap());
        assert!(t >= GrayDuration::from_millis(1), "swap-in was {t}");
    }

    #[test]
    fn mem_free_releases_residency() {
        let os = MockOs::new(16, 8);
        let r = os.mem_alloc(PAGE_SIZE * 4).unwrap();
        for p in 0..4 {
            os.mem_touch_write(r, p).unwrap();
        }
        os.mem_free(r).unwrap();
        assert!(os.mem_touch_write(r, 0).is_err());
        // All eight pages fit again: none of them is ever swapped out.
        let r = os.mem_alloc(PAGE_SIZE * 8).unwrap();
        for p in 0..8 {
            os.mem_touch_write(r, p).unwrap();
        }
        for p in 0..8 {
            let (_, t) = os.timed(|os| os.mem_touch_write(r, p).unwrap());
            assert_eq!(t, MEM_TOUCH, "page {p}");
        }
    }

    /// The calls of graybench's two `_self` rungs, as the rungs make them
    /// (`benchmark/src/ladder.rs`). A trim that stubs something they need
    /// fails here, in the workspace's own tests.
    #[test]
    fn graybench_self_rungs_run() {
        let fccd_params = FccdParams {
            access_unit: 1 << 20,
            prediction_unit: 256 << 10,
            ..FccdParams::default()
        };
        let os = MockOs::new(4096, 4096);
        let paths: Vec<String> = (0..12).map(|i| format!("/m{i:02}")).collect();
        for (i, path) in paths.iter().enumerate() {
            let fd = file(&os, path, 512 << 10);
            os.close(fd).unwrap();
            if i % 2 == 1 {
                os.flush_cache();
            }
        }
        os.flush_cache();
        for path in paths.iter().step_by(2) {
            os.warm(path, 0..128);
        }
        let classified = Fccd::with_fixed_seed(&os, fccd_params).classify_files(&paths);
        let mut cached: Vec<String> = classified.cached.into_iter().map(|r| r.path).collect();
        cached.sort();
        assert_eq!(cached, paths.iter().step_by(2).cloned().collect::<Vec<_>>());

        let mac_params = MacParams {
            initial_increment: 1 << 20,
            max_increment: 4 << 20,
        };
        let os = MockOs::new(16, 14_336);
        assert!(Mac::new(&os, mac_params)
            .available_estimate(128 << 20)
            .is_ok());
    }
}
