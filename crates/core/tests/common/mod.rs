//! Machines for the ICL tests that run on the simulated OS.
//!
//! `simos` is a dev-dependency of `graybox`: cargo allows that cycle for
//! integration tests (they link the one `graybox` that `simos` links) but
//! not for `--lib` unit tests, which would see two copies of the crate.
//! Each test binary uses its own subset of these helpers.

#![allow(dead_code)]

use std::cell::Cell;

use gray_toolbox::{GrayDuration, Nanos};
use graybox::os::{Fd, GrayBoxOs, MemRegion, OsError, OsResult, ProbeSample, Stat};
use simos::{Sim, SimConfig, SimProc};

/// A `SimConfig::small()` machine holding `files` (path, bytes), created
/// in order and then flushed from the file cache, so every page is cold.
pub fn cold_machine(files: &[(&str, u64)]) -> Sim {
    let mut sim = Sim::new(SimConfig::small());
    sim.run_one(|os| {
        for &(path, bytes) in files {
            let fd = os.create(path).unwrap();
            if bytes > 0 {
                os.write_fill(fd, 0, bytes).unwrap();
            }
            os.close(fd).unwrap();
        }
    });
    sim.flush_file_cache();
    sim
}

/// Reads `len` bytes of `path` from `offset`, so they (and whatever the
/// readahead window fetches past them) become resident.
pub fn warm(sim: &mut Sim, path: &str, offset: u64, len: u64) {
    sim.run_one(|os| {
        let fd = os.open(path).unwrap();
        os.read_discard(fd, offset, len).unwrap();
        os.close(fd).unwrap();
    });
}

/// A simulated process whose `fail_at`-th memory write-touch, file read
/// or file-size query (counted together over the wrapper's life) fails: a
/// touch inside `mem_probe_batch` comes back `ok: false`, and a lone
/// touch, a read or a size query returns an error without happening.
/// `fail_at` 0 fails nothing.
pub struct FailingOs<'a> {
    os: &'a SimProc,
    fail_at: u64,
    ops: Cell<u64>,
}

impl<'a> FailingOs<'a> {
    pub fn new(os: &'a SimProc, fail_at: u64) -> Self {
        FailingOs {
            os,
            fail_at,
            ops: Cell::new(0),
        }
    }

    /// Touches, reads and size queries issued so far.
    pub fn ops(&self) -> u64 {
        self.ops.get()
    }

    /// Counts one touch, read or size query; true if it is the one to fail.
    fn fails(&self) -> bool {
        self.ops.set(self.ops.get() + 1);
        self.ops.get() == self.fail_at
    }
}

fn injected() -> OsError {
    OsError::Io("injected failure".into())
}

impl GrayBoxOs for FailingOs<'_> {
    fn now(&self) -> Nanos {
        self.os.now()
    }
    fn page_size(&self) -> u64 {
        self.os.page_size()
    }
    fn open(&self, path: &str) -> OsResult<Fd> {
        self.os.open(path)
    }
    fn create(&self, path: &str) -> OsResult<Fd> {
        self.os.create(path)
    }
    fn close(&self, fd: Fd) -> OsResult<()> {
        self.os.close(fd)
    }
    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize> {
        if self.fails() {
            return Err(injected());
        }
        self.os.read_at(fd, offset, buf)
    }
    fn read_discard(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        if self.fails() {
            return Err(injected());
        }
        self.os.read_discard(fd, offset, len)
    }
    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> OsResult<usize> {
        self.os.write_at(fd, offset, data)
    }
    fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        self.os.write_fill(fd, offset, len)
    }
    fn file_size(&self, fd: Fd) -> OsResult<u64> {
        if self.fails() {
            return Err(injected());
        }
        self.os.file_size(fd)
    }
    fn sync(&self) -> OsResult<()> {
        self.os.sync()
    }
    fn stat(&self, path: &str) -> OsResult<Stat> {
        self.os.stat(path)
    }
    fn list_dir(&self, path: &str) -> OsResult<Vec<String>> {
        self.os.list_dir(path)
    }
    fn mkdir(&self, path: &str) -> OsResult<()> {
        self.os.mkdir(path)
    }
    fn rmdir(&self, path: &str) -> OsResult<()> {
        self.os.rmdir(path)
    }
    fn unlink(&self, path: &str) -> OsResult<()> {
        self.os.unlink(path)
    }
    fn rename(&self, from: &str, to: &str) -> OsResult<()> {
        self.os.rename(from, to)
    }
    fn set_times(&self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()> {
        self.os.set_times(path, atime, mtime)
    }
    fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion> {
        self.os.mem_alloc(bytes)
    }
    fn mem_free(&self, region: MemRegion) -> OsResult<()> {
        self.os.mem_free(region)
    }
    fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()> {
        if self.fails() {
            return Err(injected());
        }
        self.os.mem_touch_write(region, page)
    }
    fn mem_touch_read(&self, region: MemRegion, page: u64) -> OsResult<u8> {
        self.os.mem_touch_read(region, page)
    }
    fn compute(&self, work: GrayDuration) {
        self.os.compute(work)
    }
    fn sleep(&self, d: GrayDuration) {
        self.os.sleep(d)
    }
    fn yield_now(&self) {
        self.os.yield_now()
    }
    fn mem_probe_batch(&self, region: MemRegion, pages: &[u64]) -> Vec<ProbeSample> {
        let mut samples = self.os.mem_probe_batch(region, pages);
        for s in &mut samples {
            s.ok &= !self.fails();
        }
        samples
    }
}
