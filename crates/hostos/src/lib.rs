//! `hostos` — the real operating system as a gray box.
//!
//! This crate implements the `graybox::os::GrayBoxOs` surface over `std`'s
//! POSIX facilities, so every ICL and application in the workspace runs
//! unmodified against the actual kernel underneath: `stat(2)` really
//! returns i-numbers, one-byte reads really hit or miss the real page
//! cache, and memory touches really fault pages in.
//!
//! The paper's experiments are reproduced on the deterministic `simos`
//! substrate instead (container timing is not publishable), but this
//! backend is the proof that the library is not simulation-bound — the
//! `quickstart` example drives it end to end.
//!
//! All file paths are confined to a root directory chosen at construction
//! ([`HostOs::new`]), both for hygiene and so examples can run in a
//! scratch space.

#![warn(missing_docs)]

mod timer;

pub use timer::FastTimer;

use std::cell::RefCell;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gray_toolbox::{GrayDuration, Nanos};
use graybox::os::{Fd, GrayBoxOs, MemRegion, OsError, OsResult, ProbeSample, ProbeSpec, Stat};

#[cfg(unix)]
use std::os::unix::fs::{FileExt, MetadataExt};

/// A memory region backed by host memory.
struct HostRegion {
    /// Zero-initialized lazily by the host kernel (`alloc_zeroed` →
    /// `mmap`), so pages fault in on first touch like real `malloc`.
    bytes: Box<[u8]>,
}

/// The real-OS backend. One instance per scratch root.
pub struct HostOs {
    root: PathBuf,
    timer: FastTimer,
    files: RefCell<HashMap<u32, fs::File>>,
    next_fd: RefCell<u32>,
    regions: RefCell<HashMap<u64, HostRegion>>,
    next_region: RefCell<u64>,
    page_size: u64,
}

impl HostOs {
    /// Creates a backend rooted at `root` (created if missing).
    pub fn new(root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        fs::create_dir_all(&root)?;
        Ok(HostOs {
            root,
            timer: FastTimer::new(),
            files: RefCell::new(HashMap::new()),
            next_fd: RefCell::new(3),
            regions: RefCell::new(HashMap::new()),
            next_region: RefCell::new(1),
            page_size: 4096,
        })
    }

    /// The scratch root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Maps a gray-box path (`/a/b`) onto the scratch root, rejecting
    /// escapes.
    fn host_path(&self, path: &str) -> OsResult<PathBuf> {
        if !path.starts_with('/') {
            return Err(OsError::InvalidArgument);
        }
        let mut out = self.root.clone();
        for comp in path.split('/') {
            match comp {
                "" | "." => {}
                ".." => return Err(OsError::InvalidArgument),
                c => out.push(c),
            }
        }
        Ok(out)
    }

    fn register(&self, file: fs::File) -> Fd {
        let mut next = self.next_fd.borrow_mut();
        let fd = *next;
        *next += 1;
        self.files.borrow_mut().insert(fd, file);
        Fd(fd)
    }
}

fn map_err(e: io::Error) -> OsError {
    match e.kind() {
        io::ErrorKind::NotFound => OsError::NotFound,
        io::ErrorKind::AlreadyExists => OsError::AlreadyExists,
        io::ErrorKind::DirectoryNotEmpty => OsError::NotEmpty,
        io::ErrorKind::NotADirectory => OsError::NotADirectory,
        io::ErrorKind::IsADirectory => OsError::IsADirectory,
        io::ErrorKind::InvalidInput => OsError::InvalidArgument,
        io::ErrorKind::StorageFull => OsError::NoSpace,
        io::ErrorKind::OutOfMemory => OsError::OutOfMemory,
        _ => OsError::Io(e.to_string()),
    }
}

impl GrayBoxOs for HostOs {
    fn now(&self) -> Nanos {
        let now = self.timer.now();
        gray_toolbox::trace::set_now(now);
        now
    }

    fn page_size(&self) -> u64 {
        self.page_size
    }

    fn open(&self, path: &str) -> OsResult<Fd> {
        let p = self.host_path(path)?;
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(p)
            .map_err(map_err)?;
        Ok(self.register(file))
    }

    fn create(&self, path: &str) -> OsResult<Fd> {
        let p = self.host_path(path)?;
        let file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(p)
            .map_err(map_err)?;
        Ok(self.register(file))
    }

    fn close(&self, fd: Fd) -> OsResult<()> {
        self.files
            .borrow_mut()
            .remove(&fd.0)
            .map(|_| ())
            .ok_or(OsError::BadFd)
    }

    #[cfg(unix)]
    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize> {
        let files = self.files.borrow();
        let file = files.get(&fd.0).ok_or(OsError::BadFd)?;
        file.read_at(buf, offset).map_err(map_err)
    }

    #[cfg(not(unix))]
    fn read_at(&self, _fd: Fd, _offset: u64, _buf: &mut [u8]) -> OsResult<usize> {
        Err(OsError::Unsupported)
    }

    fn read_discard(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        let mut scratch = vec![0u8; len.min(1 << 20) as usize];
        let mut covered = 0u64;
        while covered < len {
            let want = (len - covered).min(scratch.len() as u64) as usize;
            let n = self.read_at(fd, offset + covered, &mut scratch[..want])?;
            if n == 0 {
                break;
            }
            covered += n as u64;
        }
        Ok(covered)
    }

    #[cfg(unix)]
    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> OsResult<usize> {
        let files = self.files.borrow();
        let file = files.get(&fd.0).ok_or(OsError::BadFd)?;
        file.write_at(data, offset).map_err(map_err)
    }

    #[cfg(not(unix))]
    fn write_at(&self, _fd: Fd, _offset: u64, _data: &[u8]) -> OsResult<usize> {
        Err(OsError::Unsupported)
    }

    fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64> {
        let chunk = vec![0xA5u8; len.min(1 << 20) as usize];
        let mut done = 0u64;
        while done < len {
            let want = (len - done).min(chunk.len() as u64) as usize;
            let n = self.write_at(fd, offset + done, &chunk[..want])?;
            if n == 0 {
                return Err(OsError::Io("short write".into()));
            }
            done += n as u64;
        }
        Ok(done)
    }

    fn file_size(&self, fd: Fd) -> OsResult<u64> {
        let files = self.files.borrow();
        let file = files.get(&fd.0).ok_or(OsError::BadFd)?;
        file.metadata().map(|m| m.len()).map_err(map_err)
    }

    fn sync(&self) -> OsResult<()> {
        // Without libc there is no global sync(2); flushing every open
        // descriptor is the closest std-only approximation.
        for file in self.files.borrow().values() {
            file.sync_all().map_err(map_err)?;
        }
        Ok(())
    }

    #[cfg(unix)]
    fn stat(&self, path: &str) -> OsResult<Stat> {
        let p = self.host_path(path)?;
        let md = fs::metadata(&p).map_err(map_err)?;
        Ok(Stat {
            ino: md.ino(),
            dev: md.dev(),
            size: md.len(),
            is_dir: md.is_dir(),
            atime: Nanos(md.atime().max(0) as u64 * 1_000_000_000 + md.atime_nsec().max(0) as u64),
            mtime: Nanos(md.mtime().max(0) as u64 * 1_000_000_000 + md.mtime_nsec().max(0) as u64),
        })
    }

    #[cfg(not(unix))]
    fn stat(&self, _path: &str) -> OsResult<Stat> {
        Err(OsError::Unsupported)
    }

    fn list_dir(&self, path: &str) -> OsResult<Vec<String>> {
        let p = self.host_path(path)?;
        let mut names = Vec::new();
        // readdir order is physical directory order on most UNIX file
        // systems — exactly the signal FLDC wants — so no sorting here.
        for entry in fs::read_dir(&p).map_err(map_err)? {
            let entry = entry.map_err(map_err)?;
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }

    fn mkdir(&self, path: &str) -> OsResult<()> {
        fs::create_dir(self.host_path(path)?).map_err(map_err)
    }

    fn rmdir(&self, path: &str) -> OsResult<()> {
        fs::remove_dir(self.host_path(path)?).map_err(map_err)
    }

    fn unlink(&self, path: &str) -> OsResult<()> {
        fs::remove_file(self.host_path(path)?).map_err(map_err)
    }

    fn rename(&self, from: &str, to: &str) -> OsResult<()> {
        fs::rename(self.host_path(from)?, self.host_path(to)?).map_err(map_err)
    }

    fn set_times(&self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()> {
        let p = self.host_path(path)?;
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&p)
            .map_err(map_err)?;
        let times = fs::FileTimes::new()
            .set_accessed(std::time::UNIX_EPOCH + std::time::Duration::from_nanos(atime.0))
            .set_modified(std::time::UNIX_EPOCH + std::time::Duration::from_nanos(mtime.0));
        file.set_times(times).map_err(map_err)
    }

    fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion> {
        if bytes == 0 {
            return Err(OsError::InvalidArgument);
        }
        // `vec![0; n]` goes through `alloc_zeroed`, which large allocators
        // satisfy with fresh anonymous mappings: pages are not faulted in
        // until touched, preserving malloc-like laziness.
        let region = HostRegion {
            bytes: vec![0u8; bytes as usize].into_boxed_slice(),
        };
        let mut next = self.next_region.borrow_mut();
        let id = *next;
        *next += 1;
        self.regions.borrow_mut().insert(id, region);
        Ok(MemRegion(id))
    }

    fn mem_free(&self, region: MemRegion) -> OsResult<()> {
        self.regions
            .borrow_mut()
            .remove(&region.0)
            .map(|_| ())
            .ok_or(OsError::BadRegion)
    }

    fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()> {
        let mut regions = self.regions.borrow_mut();
        let r = regions.get_mut(&region.0).ok_or(OsError::BadRegion)?;
        let idx = (page * self.page_size) as usize;
        if idx >= r.bytes.len() {
            return Err(OsError::InvalidArgument);
        }
        // SAFETY: `idx` is bounds-checked above, and the pointer derives
        // from a live allocation; a volatile store of one `u8` is sound.
        // Volatile stops the optimizer from eliding the store, which *is*
        // the probe.
        unsafe {
            std::ptr::write_volatile(r.bytes.as_mut_ptr().add(idx), 0x5A);
        }
        Ok(())
    }

    fn mem_touch_read(&self, region: MemRegion, page: u64) -> OsResult<u8> {
        let regions = self.regions.borrow();
        let r = regions.get(&region.0).ok_or(OsError::BadRegion)?;
        let idx = (page * self.page_size) as usize;
        if idx >= r.bytes.len() {
            return Err(OsError::InvalidArgument);
        }
        // SAFETY: `idx` is bounds-checked above; volatile read of one `u8`
        // from a live allocation.
        Ok(unsafe { std::ptr::read_volatile(r.bytes.as_ptr().add(idx)) })
    }

    /// Batched probes amortize the per-probe bookkeeping the scalar path
    /// pays on every call: the descriptor table is borrowed once for the
    /// whole batch, one stack byte serves every read, and the only
    /// allocation is the result vector. Each probe is still individually
    /// timed with the fast timer and still faults its page through the real
    /// kernel, so the measured signal is unchanged.
    #[cfg(unix)]
    fn probe_batch(&self, fd: Fd, specs: &[ProbeSpec]) -> Vec<ProbeSample> {
        let files = self.files.borrow();
        let Some(file) = files.get(&fd.0) else {
            // A dead descriptor fails every probe; timing still reflects
            // the (cheap) lookup so callers see a sample per spec.
            return specs
                .iter()
                .map(|s| ProbeSample {
                    offset: s.offset,
                    elapsed: GrayDuration::ZERO,
                    ok: false,
                })
                .collect();
        };
        let mut out = Vec::with_capacity(specs.len());
        let mut byte = [0u8; 1];
        for spec in specs {
            let t0 = self.timer.now();
            let res = file.read_at(&mut byte, spec.offset);
            let t1 = self.now();
            let elapsed = t1.since(t0);
            gray_toolbox::trace::emit_with(|| gray_toolbox::trace::TraceEvent::ProbeIssued {
                offset: spec.offset,
                latency_ns: elapsed.as_nanos(),
            });
            out.push(ProbeSample {
                offset: spec.offset,
                elapsed,
                ok: matches!(res, Ok(n) if n > 0),
            });
        }
        out
    }

    /// Like [`HostOs::probe_batch`]: one region-table borrow and one
    /// bounds-checked base pointer for the whole batch, volatile per-page
    /// stores so every probe still faults real memory.
    fn mem_probe_batch(&self, region: MemRegion, pages: &[u64]) -> Vec<ProbeSample> {
        let mut regions = self.regions.borrow_mut();
        let Some(r) = regions.get_mut(&region.0) else {
            return pages
                .iter()
                .map(|&page| ProbeSample {
                    offset: page,
                    elapsed: GrayDuration::ZERO,
                    ok: false,
                })
                .collect();
        };
        let len = r.bytes.len();
        let base = r.bytes.as_mut_ptr();
        let mut out = Vec::with_capacity(pages.len());
        for &page in pages {
            let idx = (page * self.page_size) as usize;
            let t0 = self.timer.now();
            let ok = idx < len;
            if ok {
                // SAFETY: `idx` is bounds-checked against the live
                // allocation's length; volatile store of one `u8` is sound.
                unsafe {
                    std::ptr::write_volatile(base.add(idx), 0x5A);
                }
            }
            let t1 = self.timer.now();
            out.push(ProbeSample {
                offset: page,
                elapsed: t1.since(t0),
                ok,
            });
        }
        out
    }

    fn compute(&self, work: GrayDuration) {
        let start = self.timer.now();
        while self.timer.now().since(start) < work {
            std::hint::spin_loop();
        }
    }

    fn sleep(&self, d: GrayDuration) {
        std::thread::sleep(std::time::Duration::from_nanos(d.as_nanos()));
    }

    fn yield_now(&self) {
        std::thread::yield_now();
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use graybox::os::GrayBoxOsExt;

    fn host() -> HostOs {
        let dir = std::env::temp_dir().join(format!(
            "hostos-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        HostOs::new(dir).unwrap()
    }

    #[test]
    fn file_round_trip() {
        let os = host();
        os.write_file("/f.txt", b"real bytes").unwrap();
        assert_eq!(os.read_to_vec("/f.txt").unwrap(), b"real bytes");
    }

    #[test]
    fn stat_returns_distinct_inodes() {
        let os = host();
        os.write_file("/a", b"1").unwrap();
        os.write_file("/b", b"2").unwrap();
        let sa = os.stat("/a").unwrap();
        let sb = os.stat("/b").unwrap();
        assert_ne!(sa.ino, sb.ino);
        assert_eq!(sa.dev, sb.dev);
    }

    #[test]
    fn clock_is_monotone() {
        let os = host();
        let a = os.now();
        let b = os.now();
        assert!(b >= a);
    }

    #[test]
    fn trace_records_are_stamped_on_the_backends_clock() {
        use gray_toolbox::trace::{self, TraceEvent};
        let _capture = trace::capture();
        let os = host();
        let a = os.now();
        trace::emit_with(|| TraceEvent::Estimated {
            quantity: "hostos.clock",
            value: 0.0,
        });
        let b = os.now();
        let stamp = trace::drain()[0].ts;
        assert!(
            (a..=b).contains(&stamp),
            "record stamped {} ns, outside the backend's reads [{}, {}] ns",
            stamp.as_nanos(),
            a.as_nanos(),
            b.as_nanos()
        );
    }

    #[test]
    fn a_backend_built_before_the_capture_stamps_on_its_clock() {
        use gray_toolbox::trace::{self, TraceEvent};
        let os = host();
        let _capture = trace::capture();
        let reading = os.now();
        trace::emit_with(|| TraceEvent::Estimated {
            quantity: "hostos.clock",
            value: 0.0,
        });
        assert_eq!(trace::drain()[0].ts, reading, "not the backend's reading");
    }

    #[test]
    fn timed_read_completes() {
        let os = host();
        os.write_file("/t", &vec![7u8; 8192]).unwrap();
        let fd = os.open("/t").unwrap();
        let (byte, t) = os.timed(|o| o.read_byte(fd, 4096).unwrap());
        assert_eq!(byte, 7);
        assert!(t > GrayDuration::ZERO);
    }

    #[test]
    fn memory_touches_work() {
        let os = host();
        let r = os.mem_alloc(4096 * 8).unwrap();
        os.mem_touch_write(r, 3).unwrap();
        assert_eq!(os.mem_touch_read(r, 3).unwrap(), 0x5A);
        assert_eq!(os.mem_touch_read(r, 4).unwrap(), 0);
        assert!(os.mem_touch_write(r, 8).is_err());
        os.mem_free(r).unwrap();
        assert!(os.mem_touch_write(r, 0).is_err());
    }

    #[test]
    fn path_escapes_are_rejected() {
        let os = host();
        assert_eq!(os.stat("/../etc/passwd"), Err(OsError::InvalidArgument));
        assert_eq!(os.stat("relative"), Err(OsError::InvalidArgument));
    }

    #[test]
    fn rename_and_times() {
        let os = host();
        os.write_file("/x", b"1").unwrap();
        os.set_times("/x", Nanos::from_secs(1000), Nanos::from_secs(2000))
            .unwrap();
        os.rename("/x", "/y").unwrap();
        let st = os.stat("/y").unwrap();
        assert_eq!(st.mtime, Nanos::from_secs(2000));
    }

    #[test]
    fn fldc_runs_against_the_real_os() {
        let os = host();
        os.mkdir("/dir").unwrap();
        for i in 0..10 {
            os.write_file(&format!("/dir/f{i}"), b"x").unwrap();
        }
        let fldc = graybox::fldc::Fldc::new(&os);
        let ranks = fldc.order_directory("/dir").unwrap();
        assert_eq!(ranks.len(), 10);
        for w in ranks.windows(2) {
            assert!(w[0].stat.ino <= w[1].stat.ino);
        }
    }

    #[test]
    fn fccd_runs_against_the_real_os() {
        let os = host();
        os.write_file("/data", &vec![1u8; 64 * 1024]).unwrap();
        let params = graybox::fccd::FccdParams {
            access_unit: 16 * 4096,
            prediction_unit: 4 * 4096,
            ..Default::default()
        };
        let fccd = graybox::fccd::Fccd::new(&os, params);
        let ranks = fccd.order_files(&["/missing".to_string(), "/data".to_string()]);
        let seen: Vec<(&str, u64)> = ranks.iter().map(|r| (r.path.as_str(), r.size)).collect();
        assert_eq!(seen, [("/data", 64 * 1024), ("/missing", 0)]);
    }

    #[test]
    fn compute_spins_for_requested_time() {
        let os = host();
        let t0 = os.now();
        os.compute(GrayDuration::from_micros(500));
        assert!(os.now().since(t0) >= GrayDuration::from_micros(500));
    }
}
