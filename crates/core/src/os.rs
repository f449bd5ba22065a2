//! The gray-box view of the operating system.
//!
//! [`GrayBoxOs`] is the *entire* interface an ICL is allowed to use. It is a
//! deliberately ordinary, black-box POSIX-flavored surface: files,
//! directories, anonymous memory, a clock, and a way to burn CPU. Nothing on
//! this trait reveals internal OS state — no `mincore`, no `/proc`, no page
//! tables. Whatever an ICL learns, it must learn by issuing these calls and
//! *measuring* what comes back, which is exactly the constraint the paper
//! sets itself ("not changing the OS restricts, but does not completely
//! obviate, the information one can acquire").
//!
//! The trait is implemented by the `simos` crate (a deterministic simulated
//! OS used for all experiments) and by the `hostos` crate (the real OS under
//! `std`), so every ICL and application in this workspace runs unmodified on
//! both.

use core::fmt;

use gray_toolbox::{GrayDuration, Nanos};

/// A process-local file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fd(pub u32);

/// An opaque handle to an anonymous memory region obtained from
/// [`GrayBoxOs::mem_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRegion(pub u64);

/// The subset of `stat(2)` output the ICLs rely on.
///
/// The i-number is the load-bearing field: FLDC's layout inference rests on
/// the gray-box knowledge that, in FFS descendants, creation order within a
/// clean directory matches both i-number order and data-block layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Inode number.
    pub ino: u64,
    /// Device / file-system identifier (files on different devices never
    /// share a layout relationship).
    pub dev: u64,
    /// File size in bytes.
    pub size: u64,
    /// Whether this is a directory.
    pub is_dir: bool,
    /// Last-access time.
    pub atime: Nanos,
    /// Last-modification time.
    pub mtime: Nanos,
}

/// Why a gray-box OS call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OsError {
    /// The path does not exist.
    NotFound,
    /// The path already exists.
    AlreadyExists,
    /// A non-final path component is not a directory.
    NotADirectory,
    /// The operation needs a file but found a directory.
    IsADirectory,
    /// Directory is not empty (rmdir).
    NotEmpty,
    /// The file descriptor is not open.
    BadFd,
    /// The memory region handle is not live.
    BadRegion,
    /// An argument was out of range (offset past EOF on write, zero-length
    /// allocation, page index out of bounds, ...).
    InvalidArgument,
    /// The file system has no space left.
    NoSpace,
    /// The process exceeded an address-space or region-count limit.
    OutOfMemory,
    /// The backend cannot perform this operation (e.g. the host backend
    /// refuses cross-device renames).
    Unsupported,
    /// Backend-specific I/O failure, with a description.
    Io(String),
}

impl fmt::Display for OsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OsError::NotFound => write!(f, "no such file or directory"),
            OsError::AlreadyExists => write!(f, "file exists"),
            OsError::NotADirectory => write!(f, "not a directory"),
            OsError::IsADirectory => write!(f, "is a directory"),
            OsError::NotEmpty => write!(f, "directory not empty"),
            OsError::BadFd => write!(f, "bad file descriptor"),
            OsError::BadRegion => write!(f, "bad memory region"),
            OsError::InvalidArgument => write!(f, "invalid argument"),
            OsError::NoSpace => write!(f, "no space left on device"),
            OsError::OutOfMemory => write!(f, "out of memory"),
            OsError::Unsupported => write!(f, "operation not supported"),
            OsError::Io(msg) => write!(f, "I/O error: {msg}"),
        }
    }
}

impl std::error::Error for OsError {}

/// Result alias for gray-box OS calls.
pub type OsResult<T> = Result<T, OsError>;

/// One probe in a batched timed-read request: which byte offset to touch.
///
/// Kept as a struct (not a bare `u64`) so batch plans can grow per-probe
/// parameters later without re-signaturing every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSpec {
    /// Absolute file offset of the 1-byte read.
    pub offset: u64,
}

/// The timed outcome of one probe from a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSample {
    /// The offset that was probed (copied from the spec, so results can be
    /// interpreted without holding the request alongside).
    pub offset: u64,
    /// Clock time the probe took, as observed by the probing process.
    pub elapsed: GrayDuration,
    /// Whether the read returned a byte. A failed probe (offset past EOF,
    /// stale descriptor) still reports its elapsed time.
    pub ok: bool,
}

/// The black-box syscall surface of a UNIX-like operating system.
///
/// Implementations must uphold two properties the ICLs depend on:
///
/// 1. **The clock is monotone** and reflects the real (or simulated) cost of
///    the calls the process makes — timing `read_at` of a cached page versus
///    an uncached page must show the cache.
/// 2. **Calls have their natural side effects**: reading a page brings it
///    into the file cache (the *Heisenberg effect* the ICLs must budget
///    for), writing to a fresh anonymous page allocates physical memory,
///    and so on. A backend that served reads out of thin air would be
///    useless to a gray-box layer.
///
/// Paths are `/`-separated UTF-8 strings, absolute from the backend's root.
pub trait GrayBoxOs {
    // --- Observation --------------------------------------------------

    /// Reads the high-resolution clock.
    ///
    /// This is the covert channel every ICL in the paper uses. The returned
    /// instant must be monotone non-decreasing within a process.
    fn now(&self) -> Nanos;

    /// The VM page size in bytes (the natural unit of both file caching and
    /// memory probing).
    fn page_size(&self) -> u64;

    // --- Files ---------------------------------------------------------

    /// Opens an existing file for reading and writing.
    fn open(&self, path: &str) -> OsResult<Fd>;

    /// Creates a new file (failing if it exists) and opens it.
    fn create(&self, path: &str) -> OsResult<Fd>;

    /// Closes an open descriptor.
    fn close(&self, fd: Fd) -> OsResult<()>;

    /// Reads up to `buf.len()` bytes at absolute `offset`, returning the
    /// number of bytes read (0 at or past EOF).
    fn read_at(&self, fd: Fd, offset: u64, buf: &mut [u8]) -> OsResult<usize>;

    /// Reads `len` bytes at `offset` *without materializing them* for the
    /// caller, returning the number of bytes covered.
    ///
    /// Semantically identical to [`GrayBoxOs::read_at`] into a scratch
    /// buffer — including all cache side effects — but lets large modelled
    /// workloads avoid allocating gigabyte buffers. Backends where reading
    /// is cheap may implement it as a loop over `read_at`.
    fn read_discard(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64>;

    /// Writes `data` at absolute `offset`, extending the file if needed.
    fn write_at(&self, fd: Fd, offset: u64, data: &[u8]) -> OsResult<usize>;

    /// Appends `len` bytes of unspecified (backend-generated) content at
    /// `offset`, for bulk data creation in modelled workloads. Same side
    /// effects as `write_at`.
    fn write_fill(&self, fd: Fd, offset: u64, len: u64) -> OsResult<u64>;

    /// The current size of an open file.
    fn file_size(&self, fd: Fd) -> OsResult<u64>;

    /// Flushes dirty cached data for the whole system (like `sync(2)`).
    fn sync(&self) -> OsResult<()>;

    // --- Namespace -----------------------------------------------------

    /// Stats a path without opening it.
    fn stat(&self, path: &str) -> OsResult<Stat>;

    /// Lists the names (not paths) in a directory, in directory order —
    /// i.e. the order entries physically appear, which on FFS descendants
    /// reflects creation order modulo reuse of freed slots.
    fn list_dir(&self, path: &str) -> OsResult<Vec<String>>;

    /// Creates a directory.
    fn mkdir(&self, path: &str) -> OsResult<()>;

    /// Removes an empty directory.
    fn rmdir(&self, path: &str) -> OsResult<()>;

    /// Unlinks a file.
    fn unlink(&self, path: &str) -> OsResult<()>;

    /// Renames a file or directory within the same file system.
    fn rename(&self, from: &str, to: &str) -> OsResult<()>;

    /// Sets access and modification times (like `utimes(2)`); FLDC's
    /// directory refresh uses this so `make` and friends keep working.
    fn set_times(&self, path: &str, atime: Nanos, mtime: Nanos) -> OsResult<()>;

    // --- Anonymous memory ----------------------------------------------

    /// Reserves `bytes` of anonymous memory. Like `malloc`, this consumes
    /// address space only; physical pages are allocated on first touch.
    fn mem_alloc(&self, bytes: u64) -> OsResult<MemRegion>;

    /// Releases a region and all its pages.
    fn mem_free(&self, region: MemRegion) -> OsResult<()>;

    /// Writes one byte to page `page` of `region`.
    ///
    /// MAC's probes *write* rather than read because, with copy-on-write
    /// zero pages, reads would not force physical allocation.
    fn mem_touch_write(&self, region: MemRegion, page: u64) -> OsResult<()>;

    /// Reads one byte from page `page` of `region`.
    fn mem_touch_read(&self, region: MemRegion, page: u64) -> OsResult<u8>;

    // --- Process -------------------------------------------------------

    /// Consumes `work` of CPU time (used by applications to model their
    /// computation; a host backend may simply spin).
    fn compute(&self, work: GrayDuration);

    /// Sleeps for at least `d`.
    fn sleep(&self, d: GrayDuration);

    /// Yields the CPU to other runnable processes.
    fn yield_now(&self);

    // --- Conveniences with default implementations ----------------------

    /// Reads a single byte at `offset` — the FCCD probe primitive.
    fn read_byte(&self, fd: Fd, offset: u64) -> OsResult<u8> {
        let mut b = [0u8; 1];
        let n = self.read_at(fd, offset, &mut b)?;
        if n == 0 {
            return Err(OsError::InvalidArgument);
        }
        Ok(b[0])
    }

    /// Times an arbitrary operation with the backend clock.
    fn timed<R>(&self, op: impl FnOnce(&Self) -> R) -> (R, GrayDuration) {
        let t0 = self.now();
        let r = op(self);
        (r, self.now().since(t0))
    }

    /// Issues a batch of timed 1-byte read probes against one descriptor.
    ///
    /// Each probe is individually timed — clock read, 1-byte read at the
    /// spec's offset, clock read — and touches the cache exactly as a lone
    /// [`read_byte`](GrayBoxOs::read_byte) would, in spec order. The value
    /// of batching is dispatch amortization, not semantic change: backends
    /// may service the whole batch under one kernel entry (one kernel
    /// borrow, one scheduler pass in `simos`; one descriptor-table
    /// borrow and no per-probe allocation in `hostos`), but the pages
    /// touched, their order, and the per-probe observed times must match
    /// the scalar loop this default provides.
    fn probe_batch(&self, fd: Fd, specs: &[ProbeSpec]) -> Vec<ProbeSample> {
        let mut out = Vec::with_capacity(specs.len());
        for spec in specs {
            let (res, elapsed) = self.timed(|os| os.read_byte(fd, spec.offset));
            out.push(ProbeSample {
                offset: spec.offset,
                elapsed,
                ok: res.is_ok(),
            });
        }
        out
    }

    /// Issues a batch of timed page write-touches against one region — the
    /// MAC probe primitive, vectored.
    ///
    /// Mirrors [`probe_batch`](GrayBoxOs::probe_batch): per-page timing and
    /// per-page fault/allocation side effects are identical to a loop of
    /// [`timed`](GrayBoxOs::timed)
    /// [`mem_touch_write`](GrayBoxOs::mem_touch_write) calls in `pages`
    /// order; only the dispatch overhead is amortized. The `offset` field
    /// of each returned sample carries the page index.
    fn mem_probe_batch(&self, region: MemRegion, pages: &[u64]) -> Vec<ProbeSample> {
        let mut out = Vec::with_capacity(pages.len());
        for &page in pages {
            let (res, elapsed) = self.timed(|os| os.mem_touch_write(region, page));
            out.push(ProbeSample {
                offset: page,
                elapsed,
                ok: res.is_ok(),
            });
        }
        out
    }
}

/// Extension helpers layered on the raw trait.
pub trait GrayBoxOsExt: GrayBoxOs {
    /// Reads an entire file into a vector (small files only).
    fn read_to_vec(&self, path: &str) -> OsResult<Vec<u8>> {
        let fd = self.open(path)?;
        let size = self.file_size(fd)?;
        let mut buf = vec![0u8; size as usize];
        let mut done = 0usize;
        while done < buf.len() {
            let n = self.read_at(fd, done as u64, &mut buf[done..])?;
            if n == 0 {
                break;
            }
            done += n;
        }
        buf.truncate(done);
        self.close(fd)?;
        Ok(buf)
    }

    /// Creates a file at `path` holding `data`.
    fn write_file(&self, path: &str, data: &[u8]) -> OsResult<()> {
        let fd = self.create(path)?;
        let mut done = 0usize;
        while done < data.len() {
            let n = self.write_at(fd, done as u64, &data[done..])?;
            if n == 0 {
                return Err(OsError::Io("short write".into()));
            }
            done += n;
        }
        self.close(fd)
    }

    /// Joins a directory path and a file name.
    fn join(&self, dir: &str, name: &str) -> String {
        if dir.ends_with('/') {
            format!("{dir}{name}")
        } else {
            format!("{dir}/{name}")
        }
    }
}

impl<O: GrayBoxOs + ?Sized> GrayBoxOsExt for O {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_readably() {
        assert_eq!(OsError::NotFound.to_string(), "no such file or directory");
        assert_eq!(OsError::Io("boom".into()).to_string(), "I/O error: boom");
    }

    #[test]
    fn fd_and_region_are_plain_handles() {
        assert_eq!(Fd(3), Fd(3));
        assert_ne!(MemRegion(1), MemRegion(2));
    }
}
